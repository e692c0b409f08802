"""The executor: run scenario configs in-process or on a warm worker pool.

:class:`ClusterExecutor` is the one way cells execute.  Sweeps, figures,
ablations, Table I, single scenarios, shards and campaigns all call
:meth:`ClusterExecutor.run` (configs in, results out **in input order**)
or :meth:`ClusterExecutor.run_sweep` (a whole grid, assembled through
:meth:`run`).  A run goes through these steps:

1. **Cache-aware pre-filter.**  Every config already present in the
   :class:`~repro.exec.cache.ResultCache` is served from disk up front
   (:meth:`ResultCache.lookup`); only the misses are simulated.  A fully
   warm cache therefore starts no process and runs zero simulations.
2. **In-process path (``shards=1``, the default).**  The misses run one
   after another in this process.  Cache writes are batched through
   :meth:`ResultCache.put_many` every :data:`FLUSH_CELLS` cells and at
   the end, exactly like a pool worker's.
3. **Pool path (``shards=K>1``).**  The misses are partitioned into at
   most K work units by hashing their cache keys — the same
   coordination-free split as :func:`~repro.exec.shard.plan_shards` —
   and dispatched to a persistent :class:`WorkerPool`: worker processes
   spawn once (fork-preferred, so the parent's warm imports carry over;
   spawn falls back to a ``sys.path`` bootstrap), then survive across
   scheduling rounds *and* across runs — a campaign reuses the same warm
   pool for every entry.  A unit carries its configs as JSON dicts with
   their input positions; the worker streams each completed cell back
   as its own length-prefixed JSON frame over the
   :mod:`multiprocessing.connection` channel and batches its cache
   writes like the in-process path.
4. **Rebalance.**  When a worker dies mid-unit (crash, kill, or an
   injected fault), the cells it already streamed are kept, the
   executor sweeps the dead writer's orphaned cache temp files,
   re-filters the missing cells against the cache — cells the worker
   flushed before dying are recovered for free — and re-plans only the
   genuinely lost cells, up to ``max_retries`` extra rounds, on the
   surviving warm workers.

Results are **bit-for-bit identical** whatever the path: every cell
simulation is deterministic given its config, results cross process
boundaries as canonical JSON (a lossless round trip), and results are
returned in input order regardless of which workers crashed, which cells
were replayed from cache, or what order frames streamed back.

Fault injection (tests / CI) is deterministic: a :class:`FaultInjection`
names a scheduling round and work unit, and the worker kills its own
process (``os._exit``) after the given number of completed cells —
after the cell's batched cache write is flushed, before that cell's
frame is sent, exactly like a machine lost mid-unit (the executor
recovers the flushed cell from the cache next round).  A ``mode="hang"``
fault instead wedges the worker (alive, no progress), which the
per-worker ``worker_timeout`` heartbeat detects: the wedged process is
terminated and its unit rebalanced like any other failure.

Per-stage wall-time counters (``stage_seconds``: spawn / serialize /
simulate / stream / merge / cache_write / lookup) expose where a run's
time went; ``repro-sweep``/``repro-campaign`` print them and the
orchestration bench profile records them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import multiprocessing.connection
import os
import sys
import tempfile
import time
from multiprocessing.connection import Connection
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple,
    TYPE_CHECKING, Union,
)

from repro.exec.cache import ResultCache
from repro.exec.shard import assemble_sweep_result, shard_of_config
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import SweepResult, SweepSettings

#: Signature of the per-config progress callback: ``(index, config,
#: result)`` where ``index`` is the position in the submitted sequence.
ProgressCallback = Callable[[int, ScenarioConfig, ScenarioResult], None]

#: Signature of the sweep-level progress callback (matches
#: :func:`~repro.experiments.sweep.run_speed_sweep`):
#: ``(protocol, speed, replication, result)``.
SweepProgress = Callable[[str, float, int, ScenarioResult], None]

#: Exit code used by an injected worker fault (``os._exit``); purely
#: informational — the executor treats any worker that dies before
#: finishing its unit as failed, whatever the exit code.
FAULT_EXIT_CODE = 73

#: Minimum age before a temp file not written by one of this run's dead
#: workers is treated as an abandoned stray and swept.  Another live
#: sweep sharing the cache root finishes an atomic write in well under
#: an hour; a file this old belongs to a writer that is long gone.
STRAY_TEMP_MIN_AGE_SECONDS = 3600.0

#: Completed cells buffered before one batched cache write
#: (:meth:`ResultCache.put_many`).  The end of a run or unit and the
#: fault path always flush, so at most ``FLUSH_CELLS - 1`` completed
#: cells are ever pending a write — and those are already held by the
#: executor.
FLUSH_CELLS = 8

#: Grace period for a retiring pool worker to exit cleanly before it is
#: terminated.
_POOL_EXIT_TIMEOUT = 5.0

#: The per-run stage wall-time counters kept by :class:`ClusterExecutor`.
STAGE_NAMES = ("spawn", "serialize", "simulate", "stream", "merge",
               "cache_write", "lookup")


def simulate(config: ScenarioConfig) -> ScenarioResult:
    """Build and run one scenario (the unit of work the executor runs)."""
    return ScenarioBuilder(config).build().run()


class SchedulerError(RuntimeError):
    """Raised when the cells cannot be completed within ``max_retries``."""


@dataclasses.dataclass(frozen=True)
class FaultInjection:
    """Deterministic kill- or hang-after-N-cells knob for pool workers.

    With ``mode="kill"`` (the default) the worker running work unit
    ``unit`` of scheduling round ``round`` kills its own process once
    ``after_cells`` of its cells have completed (and been flushed to the
    cache) — before that cell's result frame is sent back.  With
    ``mode="hang"`` the worker instead stops making progress while
    staying alive (sleeping forever), which only a ``worker_timeout``
    can recover from — the hung-but-alive machine case.  Purely a
    test/CI instrument: both exercise exactly the code paths a crashed
    or wedged worker machine would.
    """

    unit: int
    after_cells: int
    round: int = 0
    mode: str = "kill"

    def __post_init__(self) -> None:
        if self.unit < 0:
            raise ValueError("fault unit must be >= 0")
        if self.after_cells < 1:
            raise ValueError("fault after_cells must be >= 1")
        if self.round < 0:
            raise ValueError("fault round must be >= 0")
        if self.mode not in ("kill", "hang"):
            raise ValueError(f"fault mode must be 'kill' or 'hang', "
                             f"got {self.mode!r}")

    @classmethod
    def parse(cls, text: str, mode: str = "kill") -> "FaultInjection":
        """Parse the form ``"unit:after_cells[:round][:mode]"``.

        ``mode`` is the default when the text does not carry one (the
        CLI maps ``--inject-fault``/``--inject-hang`` to it); a trailing
        ``:kill``/``:hang`` — the :meth:`__str__` form — wins, so
        ``parse(str(fault))`` round-trips.
        """
        parts = text.split(":")
        if parts and parts[-1] in ("kill", "hang"):
            mode = parts.pop()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"expected a fault of the form 'unit:after_cells[:round]' "
                f"(e.g. '0:1'), got {text!r}")
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"expected a fault of the form 'unit:after_cells[:round]' "
                f"(e.g. '0:1'), got {text!r}") from None
        return cls(*numbers, mode=mode)

    def __str__(self) -> str:
        base = f"{self.unit}:{self.after_cells}:{self.round}"
        return base if self.mode == "kill" else f"{base}:{self.mode}"


# ---------------------------------------------------------------------- #
# worker entry point (module-level so it survives spawn start methods)
# ---------------------------------------------------------------------- #
def _pool_worker_main(conn: Connection, src_root: str) -> None:
    """Persistent worker loop: serve work units until told to exit.

    Spawned once per pool slot.  The interpreter start and the ``repro``
    import tree are paid here a single time (under the fork start method
    they are inherited from the parent outright; under spawn the
    ``src_root`` bootstrap makes the package importable), then the
    worker idles on the duplex channel and runs every unit it is handed
    with warm imports.  EOF on the channel or an ``{"op": "exit"}``
    frame ends the loop; an unexpected exception kills the process,
    which the executor observes as a mid-unit crash.
    """
    if src_root not in sys.path:  # pragma: no cover - spawn start only
        sys.path.insert(0, src_root)
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return
        payload = json.loads(raw.decode("utf-8"))
        if payload.get("op") == "exit":
            conn.close()
            return
        _run_pool_unit(conn, payload)


def _run_pool_unit(conn: Connection, payload: Dict[str, Any]) -> None:
    """Run one work unit: one result frame per cell, batched cache I/O.

    The payload carries the unit's ``[position, config dict]`` pairs,
    the shared cache root and the optional fault-injection hook.
    Completed cells stream back immediately as individual frames; cache
    writes are flushed through :meth:`ResultCache.put_many` every
    :data:`FLUSH_CELLS` cells and at unit end.  A fault flushes the
    batch *first* and withholds the fatal cell's frame, so an injected
    kill leaves exactly the on-disk state of a real crash-after-write —
    the executor recovers that cell from the cache next round.
    """
    cells = [(int(position), ScenarioConfig.from_dict(config))
             for position, config in payload["cells"]]
    fail_after = payload.get("fail_after_cells")
    fail_mode = payload.get("fail_mode", "kill")
    cache = ResultCache(str(payload["cache_root"]))

    batch: List[Tuple[ScenarioConfig, ScenarioResult]] = []
    cache_write_s = 0.0

    def flush() -> None:
        nonlocal cache_write_s
        if not batch:
            return
        started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
        cache.put_many(batch)
        cache_write_s += time.perf_counter() - started  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
        batch.clear()

    for completed, (position, config) in enumerate(cells, start=1):
        started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
        result = simulate(config)
        sim_s = time.perf_counter() - started  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
        batch.append((config, result))
        if fail_after is not None and completed >= int(fail_after):
            flush()
            if fail_mode == "hang":
                # Alive but wedged: hold the channel open and make no
                # progress — only the executor's worker timeout can
                # recover the round (the process is terminated then).
                while True:
                    time.sleep(3600.0)
            conn.close()
            os._exit(FAULT_EXIT_CODE)
        frame = json.dumps({"cell": position, "result": result.to_dict(),
                            "sim_s": sim_s}, sort_keys=True)
        conn.send_bytes(frame.encode("utf-8"))
        if len(batch) >= FLUSH_CELLS:
            flush()
    flush()
    done = json.dumps({"done": payload["unit_index"],
                       "cache_write_s": cache_write_s}, sort_keys=True)
    conn.send_bytes(done.encode("utf-8"))


@dataclasses.dataclass
class _WorkerHandle:
    """One pooled worker: its process and the parent end of its channel."""

    process: multiprocessing.process.BaseProcess
    conn: Connection


class WorkerPool:
    """Persistent worker processes, reused across dispatches.

    Workers run :func:`_pool_worker_main`: spawn once, import once, then
    idle between work units.  The pool prefers the ``fork`` start method
    (the child inherits the parent's already-imported ``repro`` tree, so
    a spawn costs a fork instead of an interpreter start plus imports)
    and falls back to the platform default — :func:`_pool_worker_main`
    bootstraps ``sys.path`` for spawn-style starts.

    :meth:`acquire` hands out an idle warm worker when one is alive and
    only spawns when the pool is empty — that is what makes rebalancing
    after a crash reuse the surviving workers, and what lets a campaign
    run every entry against one warm pool.  ``workers_spawned`` /
    ``workers_reused`` count those decisions for instrumentation.
    """

    def __init__(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._idle: List[_WorkerHandle] = []
        #: Worker processes started over this pool's lifetime.
        self.workers_spawned = 0
        #: Dispatches served by an already-warm worker.
        self.workers_reused = 0

    def acquire(self) -> _WorkerHandle:
        """An alive worker: a warm idle one if possible, else a new spawn."""
        while self._idle:
            handle = self._idle.pop()
            if handle.process.is_alive():
                self.workers_reused += 1
                return handle
            self.discard(handle)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker_main, args=(child_conn, src_root),
            daemon=True)
        process.start()
        child_conn.close()
        self.workers_spawned += 1
        return _WorkerHandle(process=process, conn=parent_conn)

    def release(self, handle: _WorkerHandle) -> None:
        """Return a worker to the idle set (dead ones are reaped)."""
        if handle.process.is_alive():
            self._idle.append(handle)
        else:
            self.discard(handle)

    def discard(self, handle: _WorkerHandle) -> None:
        """Terminate and reap a (possibly dead or wedged) worker."""
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.terminate()
        handle.process.join()

    def close(self) -> None:
        """Retire every idle worker: exit frame, then a bounded join."""
        while self._idle:
            handle = self._idle.pop()
            try:
                handle.conn.send_bytes(b'{"op": "exit"}')
            except (OSError, ValueError):  # pragma: no cover - racing death
                pass
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            handle.process.join(timeout=_POOL_EXIT_TIMEOUT)
            if handle.process.is_alive():  # pragma: no cover - wedged worker
                handle.process.terminate()
                handle.process.join()


def partition_cells(configs: Sequence[ScenarioConfig], cells: Sequence[int],
                    unit_count: int) -> List[List[int]]:
    """Split ``cells`` (positions in ``configs``) into non-empty work units.

    Cells are assigned by hashing their config's cache key with
    :func:`~repro.exec.shard.shard_of_config` — the same pure function
    the K-machine planner uses — then empty units are dropped.  With a
    full sweep grid and a cold cache this reproduces
    ``plan_shards(settings, unit_count)`` exactly (minus empty shards).
    """
    if unit_count < 1:
        raise ValueError("unit count must be at least 1")
    units: List[List[int]] = [[] for _ in range(unit_count)]
    for index in cells:
        units[shard_of_config(configs[index], unit_count)].append(index)
    return [unit for unit in units if unit]


class ClusterExecutor:
    """Runs scenario configs, in-process or on a warm worker pool.

    Parameters
    ----------
    shards:
        ``1`` (default) simulates in this process and starts no process.
        ``K > 1`` runs up to K work units per scheduling round, each on
        its own pooled worker process (the ``--workers K`` CLI knob).
    max_retries:
        Extra scheduling rounds allowed after worker failures.  ``0``
        means a single round: any worker death fails the run.
    worker_timeout:
        Progress heartbeat in seconds.  A worker's deadline starts at
        dispatch and is extended whenever a cell of its unit streams
        back or appears in the shared cache root, so a healthy worker
        with a large unit of many cells is never reaped mid-run.  A
        worker that makes no observable progress for ``worker_timeout``
        seconds is terminated and its unit rebalanced exactly like a
        crashed worker — the heartbeat that keeps a hung-but-alive
        machine from blocking its round forever.  The only progress
        signal is a *completed cell*, so the timeout must comfortably
        exceed the wall-clock of the slowest single cell plus worker
        startup — a smaller value reaps healthy workers mid-cell and,
        repeated over ``max_retries`` rounds, fails the run.  ``None``
        (default) waits indefinitely.
    cache:
        The shared :class:`ResultCache` (or a path).  ``None`` caches
        nothing in-process; on the pool path it uses a private temporary
        root for the duration of the run — crash recovery still works,
        but nothing persists afterwards.
    faults:
        :class:`FaultInjection` instances (tests/CI only; pool path).

    Counters (reset at each :meth:`run` call) expose what happened:
    ``cells_from_cache`` (pre-filter plus post-crash recovery hits),
    ``cells_streamed`` (cells simulated: streamed back by workers, or
    run in-process), ``workers_launched`` (units dispatched to a worker
    process), ``workers_spawned``/``workers_reused`` (pool decisions
    behind those dispatches), ``worker_failures``, ``rounds``,
    ``temp_files_swept``, and the ``stage_seconds`` wall-time breakdown
    (``total_stage_seconds`` accumulates across runs for campaigns).
    """

    def __init__(self, shards: int = 1,
                 max_retries: int = 2,
                 cache: Optional[Union[ResultCache, str, os.PathLike]] = None,
                 faults: Sequence[FaultInjection] = (),
                 worker_timeout: Optional[float] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if faults and shards == 1:
            raise ValueError("fault injection needs pool workers "
                             "(shards > 1)")
        if worker_timeout is None and any(fault.mode == "hang"
                                          for fault in faults):
            # A wedged worker is only ever recovered by the heartbeat;
            # without one run would block forever.
            raise ValueError("hang-mode faults require a worker_timeout")
        self.shards = shards
        self.max_retries = max_retries
        self.worker_timeout = worker_timeout
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.faults = tuple(faults)
        self._pool: Optional[WorkerPool] = None
        #: Per-stage wall time accumulated across every run (campaigns).
        self.total_stage_seconds: Dict[str, float] = {
            stage: 0.0 for stage in STAGE_NAMES}
        #: Pool decisions accumulated across every run (campaigns); they
        #: survive :meth:`close`, unlike the pool's own counters.
        self.total_workers_spawned = 0
        self.total_workers_reused = 0
        self._reset_counters()

    def _reset_counters(self) -> None:
        #: Cells served straight from the cache (pre-filter + recovery).
        self.cells_from_cache = 0
        #: Cells simulated (streamed back by workers, or run in-process).
        self.cells_streamed = 0
        #: Work units dispatched to a worker process across all rounds.
        self.workers_launched = 0
        #: Worker processes the pool actually spawned this run.
        self.workers_spawned = 0
        #: Dispatches served by an already-warm pooled worker this run.
        self.workers_reused = 0
        #: Workers that died before finishing their unit
        #: (including the timed-out ones).
        self.worker_failures = 0
        #: Workers terminated for exceeding ``worker_timeout``.
        self.workers_timed_out = 0
        #: Scheduling rounds that dispatched at least one worker.
        self.rounds = 0
        #: Orphaned cache temp files removed after failed rounds.
        self.temp_files_swept = 0
        #: Per-stage wall time for the current run (seconds).
        self.stage_seconds: Dict[str, float] = {
            stage: 0.0 for stage in STAGE_NAMES}

    def _add_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] += seconds
        self.total_stage_seconds[stage] += seconds

    def close(self) -> None:
        """Retire all pooled workers (idempotent; safe mid-lifetime)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def run(self, configs: Sequence[ScenarioConfig],
            progress: Optional[ProgressCallback] = None,
            ) -> List[ScenarioResult]:
        """Execute ``configs`` and return their results **in input order**.

        ``progress(index, config, result)`` is invoked once per config
        as its result becomes available (cache hits first, then in
        completion order); the returned list is always in input order,
        whatever the cache state and whichever workers crash (within
        ``max_retries``).
        """
        configs = list(configs)
        self._reset_counters()
        spawned_before = reused_before = 0
        if self._pool is not None:
            spawned_before = self._pool.workers_spawned
            reused_before = self._pool.workers_reused
        try:
            if self.cache is not None or self.shards == 1:
                results = self._run(configs, self.cache, progress)
            else:
                with tempfile.TemporaryDirectory(
                        prefix="repro-scheduler-") as root:
                    results = self._run(configs, ResultCache(root), progress)
        except BaseException:
            # A failed run (SchedulerError, interrupt, ...) leaves no
            # pooled workers behind; the next run starts cleanly.
            self.close()
            raise
        finally:
            if self._pool is not None:
                self.workers_spawned = (self._pool.workers_spawned
                                        - spawned_before)
                self.workers_reused = (self._pool.workers_reused
                                       - reused_before)
                self.total_workers_spawned += self.workers_spawned
                self.total_workers_reused += self.workers_reused
        return [results[index] for index in range(len(configs))]

    def run_one(self, config: ScenarioConfig) -> ScenarioResult:
        """Convenience wrapper: run a single configuration."""
        return self.run([config])[0]

    def run_sweep(self, settings: Optional["SweepSettings"] = None,
                  progress: Optional[SweepProgress] = None) -> "SweepResult":
        """Run the full grid of ``settings``; returns the assembled sweep.

        ``progress(protocol, speed, replication, result)`` fires once
        per grid cell.  Assembly is canonical, so the sweep is
        bit-for-bit identical whatever the execution path.
        """
        from repro.experiments.sweep import SweepSettings
        settings = settings or SweepSettings.bench()
        grid = settings.grid()
        callback: Optional[ProgressCallback] = None
        if progress is not None:
            outer = progress

            def cell_progress(index: int, config: ScenarioConfig,
                              result: ScenarioResult) -> None:
                protocol, speed, replication = grid[index]
                outer(protocol, speed, replication, result)

            callback = cell_progress
        results = self.run(settings.cell_configs(), callback)
        return assemble_sweep_result(settings, dict(enumerate(results)))

    # ------------------------------------------------------------------ #
    def _run(self, configs: List[ScenarioConfig],
             cache: Optional[ResultCache],
             progress: Optional[ProgressCallback],
             ) -> Dict[int, ScenarioResult]:
        results: Dict[int, ScenarioResult] = {}
        pending = list(range(len(configs)))
        round_no = 0
        while True:
            # Cache-aware (re-)filter: round 0 is the pre-filter; later
            # rounds recover cells a dead worker completed before dying.
            if cache is not None and pending:
                lookup_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                hits, _misses = cache.lookup([configs[index]
                                              for index in pending])
                self._add_stage("lookup",
                                time.perf_counter() - lookup_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                recovered = {pending[position]: result
                             for position, result in hits.items()}
                self.cells_from_cache += len(recovered)
                self._deliver(configs, recovered, results, progress)
                pending = [index for index in pending
                           if index not in recovered]
            if not pending:
                break
            if self.shards == 1:
                self._run_local(configs, pending, cache, results, progress)
                break
            if round_no > self.max_retries:
                raise SchedulerError(
                    f"run incomplete after {round_no} round(s) "
                    f"({self.worker_failures} worker failure(s)): "
                    f"{len(pending)} grid cell(s) missing: {pending}")
            assert cache is not None  # run() provides a root for the pool
            units = partition_cells(configs, pending,
                                    min(self.shards, len(pending)))
            failed_units, dead_pids = self._run_round(
                configs, units, round_no, cache, results, progress)
            self.rounds += 1
            if failed_units:
                self.worker_failures += len(failed_units)
                self.temp_files_swept += self._sweep_orphans(cache,
                                                             dead_pids)
            pending = [index for index in pending if index not in results]
            round_no += 1
        if cache is not None and self.shards > 1:
            self.temp_files_swept += self._sweep_orphans(cache, ())
        return results

    def _run_local(self, configs: List[ScenarioConfig], pending: List[int],
                   cache: Optional[ResultCache],
                   results: Dict[int, ScenarioResult],
                   progress: Optional[ProgressCallback]) -> None:
        """Simulate ``pending`` in this process, batching cache writes.

        Completed cells are flushed on the way out even when a later
        cell raises or the run is interrupted, so an interrupted run
        loses at most the in-flight cell.
        """
        batch: List[Tuple[ScenarioConfig, ScenarioResult]] = []

        def flush() -> None:
            if cache is None or not batch:
                return
            started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
            cache.put_many(batch)
            self._add_stage("cache_write",
                            time.perf_counter() - started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
            batch.clear()

        try:
            for index in pending:
                started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                result = simulate(configs[index])
                self._add_stage("simulate",
                                time.perf_counter() - started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                self.cells_streamed += 1
                batch.append((configs[index], result))
                if len(batch) >= FLUSH_CELLS:
                    flush()
                self._deliver(configs, {index: result}, results, progress)
        finally:
            flush()

    @staticmethod
    def _deliver(configs: List[ScenarioConfig],
                 delivered: Dict[int, ScenarioResult],
                 results: Dict[int, ScenarioResult],
                 progress: Optional[ProgressCallback]) -> None:
        """Record ``delivered`` results and report them in index order."""
        results.update(delivered)
        if progress is not None:
            for index in sorted(delivered):
                progress(index, configs[index], delivered[index])

    @staticmethod
    def _sweep_orphans(cache: ResultCache,
                       dead_pids: Collection[int]) -> int:
        """Remove temp files of known-dead workers, plus ancient strays.

        The cache root may be shared with other live writers (parallel
        sweeps are explicitly allowed to share one), so only files whose
        pid belongs to a worker this executor watched die are swept
        unconditionally; anything else must be at least
        :data:`STRAY_TEMP_MIN_AGE_SECONDS` old.
        """
        swept = 0
        if dead_pids:
            swept += cache.sweep_temp_files(pids=set(dead_pids))
        swept += cache.sweep_temp_files(
            min_age_seconds=STRAY_TEMP_MIN_AGE_SECONDS)
        return swept

    # ------------------------------------------------------------------ #
    def _run_round(self, configs: List[ScenarioConfig],
                   units: List[List[int]], round_no: int,
                   cache: ResultCache, results: Dict[int, ScenarioResult],
                   progress: Optional[ProgressCallback],
                   ) -> Tuple[List[int], List[int]]:
        """Dispatch one round of work units, one pooled worker each.

        Returns ``(failed unit indices, dead worker pids)``.  Each
        completed cell is recorded the moment its frame streams back,
        while the rest of the round is still running.  A frame doubles
        as the primary liveness signal (it extends the worker's
        heartbeat deadline); the cache probe remains the fallback for
        workers whose completed cells were flushed but whose frames were
        lost.
        """
        if self._pool is None:
            self._pool = WorkerPool()
        pool = self._pool
        faults = {fault.unit: fault for fault in self.faults
                  if fault.round == round_no}
        live: Dict[Connection, Tuple[int, _WorkerHandle]] = {}
        deadlines: Dict[Connection, float] = {}
        cached_counts: Dict[Connection, int] = {}
        failed_units: List[int] = []
        dead_pids: List[int] = []

        def mark_failed(handle: _WorkerHandle, unit_index: int,
                        timed_out: bool = False) -> None:
            live.pop(handle.conn, None)
            deadlines.pop(handle.conn, None)
            pid = handle.process.pid
            pool.discard(handle)
            failed_units.append(unit_index)
            if timed_out:
                self.workers_timed_out += 1
            if pid is not None:
                dead_pids.append(pid)

        try:
            for unit_index, cells in enumerate(units):
                fault = faults.get(unit_index)
                spawn_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                handle = pool.acquire()
                self._add_stage("spawn",
                                time.perf_counter() - spawn_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                self.workers_launched += 1
                serialize_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                payload = json.dumps({
                    "op": "run",
                    "cells": [[index, configs[index].to_dict()]
                              for index in cells],
                    "cache_root": str(cache.root),
                    "unit_index": unit_index,
                    "fail_after_cells":
                        fault.after_cells if fault else None,
                    "fail_mode": fault.mode if fault else "kill",
                })
                try:
                    handle.conn.send_bytes(payload.encode("utf-8"))
                    sent = True
                except (OSError, ValueError):
                    # The warm worker died between acquire and dispatch;
                    # count the unit failed and let the next round
                    # re-plan it.
                    sent = False
                self._add_stage("serialize",
                                time.perf_counter() - serialize_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                if not sent:
                    mark_failed(handle, unit_index)
                    continue
                live[handle.conn] = (unit_index, handle)
                if self.worker_timeout is not None:
                    deadlines[handle.conn] = (time.monotonic()  # repro-lint: ignore[D-wallclock] liveness only
                                              + self.worker_timeout)
                    # Unit cells were cache misses when planned.
                    cached_counts[handle.conn] = 0
            while live:
                wait_timeout = None
                if deadlines:
                    mono_now = time.monotonic()  # repro-lint: ignore[D-wallclock] liveness only
                    wait_timeout = max(0.0, min(deadlines.values()) - mono_now)
                ready = multiprocessing.connection.wait(list(live),
                                                        timeout=wait_timeout)
                for conn_obj in ready:
                    conn = conn_obj  # type: Connection  # wait() erases it
                    unit_index, handle = live[conn]
                    stream_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    try:
                        frame: Optional[Dict[str, Any]] = json.loads(
                            conn.recv_bytes().decode("utf-8"))
                    except (EOFError, OSError):
                        # EOFError: died with nothing buffered; OSError:
                        # died mid-frame.  Both are the same mid-unit
                        # crash to the executor; cells it streamed
                        # before dying stay recorded.
                        frame = None
                    self._add_stage("stream",
                                    time.perf_counter() - stream_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    if frame is None:
                        mark_failed(handle, unit_index)
                        continue
                    if "cell" in frame:
                        index = int(frame["cell"])
                        result = ScenarioResult.from_dict(frame["result"])
                        self._add_stage("simulate",
                                        float(frame.get("sim_s", 0.0)))
                        self.cells_streamed += 1
                        if conn in deadlines:
                            # A frame is progress; no cache probe needed.
                            deadlines[conn] = (time.monotonic()  # repro-lint: ignore[D-wallclock] liveness only
                                               + self.worker_timeout)
                        merge_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                        self._deliver(configs, {index: result}, results,
                                      progress)
                        self._add_stage(
                            "merge", time.perf_counter() - merge_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                        continue
                    # Done frame: the unit is complete; the worker is
                    # warm and idle again.
                    self._add_stage("cache_write",
                                    float(frame.get("cache_write_s", 0.0)))
                    del live[conn]
                    deadlines.pop(conn, None)
                    pool.release(handle)
                # Heartbeat check.  A worker past its deadline gets one
                # question: did new cells of its unit land in the shared
                # cache since the last check?  If yes it is healthy but
                # slow — extend the deadline.  If no it is alive but
                # wedged — terminate it and let the rebalancing path
                # treat it exactly like a crashed machine (cells it
                # flushed before wedging are recovered for free).
                now = time.monotonic()  # repro-lint: ignore[D-wallclock] heartbeat deadline check
                expired = [c for c, deadline in deadlines.items()
                           if deadline <= now and c in live]
                for conn in expired:
                    unit_index, handle = live[conn]
                    # has_current() enforces the repro-version guard, so
                    # stale entries left by an older version (which made
                    # these cells pending in the first place) never
                    # count as progress — only cells this run wrote do.
                    cached = sum(1 for index in units[unit_index]
                                 if cache.has_current(configs[index]))
                    if cached > cached_counts[conn]:
                        cached_counts[conn] = cached
                        deadlines[conn] = now + self.worker_timeout
                        continue
                    mark_failed(handle, unit_index, timed_out=True)
        finally:
            for _unit_index, handle in list(live.values()):
                pool.discard(handle)
            live.clear()
        return failed_units, dead_pids

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ClusterExecutor(shards={self.shards}, "
                f"max_retries={self.max_retries}, "
                f"worker_timeout={self.worker_timeout}, "
                f"cache={self.cache!r})")


def executor_for(executor: Optional[ClusterExecutor],
                 cache: Optional[ResultCache]) -> ClusterExecutor:
    """``executor``, or an in-process one over ``cache`` — never both.

    The shared argument rule of every experiment entry point that takes
    ``executor=`` / ``cache=``: a cache belongs on the executor, so a
    second one passed alongside it is refused rather than ignored.
    """
    if executor is None:
        return ClusterExecutor(cache=cache)
    if cache is not None:
        raise ValueError("pass the cache on the executor or via cache=, "
                         "not both")
    return executor


def _workers_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def add_executor_options(parser: argparse.ArgumentParser) -> None:
    """Add the standard ``--workers`` / ``--cache`` options to ``parser``.

    The single definition the CLIs and example scripts share; pair with
    :func:`executor_from_args`.
    """
    parser.add_argument("--workers", type=_workers_arg, default=1,
                        metavar="N",
                        help="worker processes for the simulation runs "
                             "(1 = in-process, 0 = one per CPU core)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="result-cache directory; repeated runs only "
                             "simulate configurations not cached yet")


def executor_from_args(args: argparse.Namespace,
                       **options: Any) -> ClusterExecutor:
    """Build the executor from options added by :func:`add_executor_options`.

    ``--workers 0`` means one worker per CPU core.  ``options`` pass
    through to :class:`ClusterExecutor` (retries, timeout, faults).
    """
    workers = args.workers or os.cpu_count() or 1
    return ClusterExecutor(shards=workers, cache=args.cache, **options)
