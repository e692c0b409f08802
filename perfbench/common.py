"""What every workload shares: the run context, results, memory, state."""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Directories the benchmark writes inside the checkout (both ignored by
#: git): scratch space for caches, stores and servers, removed when the
#: run ends, and per-code-version records of deterministic outputs.
WORK_DIR = ".perfbench_work"
STATE_DIR = ".perfbench_state"


@dataclasses.dataclass
class Context:
    """Where the run lives and what it was asked to do."""

    root: Path
    src: Path
    seed: int
    seconds: float
    trace: bool
    scratch: Path

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory under this run's scratch space."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.scratch))


@dataclasses.dataclass
class Outcome:
    """Everything one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: ``name -> (value, unit)``.
    metrics: Dict[str, Tuple[float, str]] = dataclasses.field(
        default_factory=dict)
    #: Metrics whose program counter does not exist on this tree.
    missing: List[str] = dataclasses.field(default_factory=list)
    #: Human-readable lines printed before the result.
    notes: List[str] = dataclasses.field(default_factory=list)
    #: Deterministic outputs that must repeat across runs of the same
    #: code and seed: cell and sweep digests, and exact counts.
    exact: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Traced runs: the layer figures of each profile taken, and the
    #: wall seconds of the profiled work and of the same work unprofiled.
    totals: List[object] = dataclasses.field(default_factory=list)
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def put(self, name: str, value: Optional[float], unit: str) -> None:
        """Record a metric; ``None`` marks it missing on this tree."""
        if value is None:
            self.missing.append(name)
        else:
            self.metrics[name] = (value, unit)

    def put_layers(self, totals, names) -> None:
        """Record ``self_s``, ``span_calls`` and ``incl_s`` of each layer
        in ``names`` from a :class:`layers.LayerTotals`."""
        for layer in names:
            self.put(f"{layer}.self_s", totals.self_s.get(layer, 0.0), "s")
            self.put(f"{layer}.span_calls", totals.span_calls.get(layer, 0),
                     "count")
            self.put(f"{layer}.incl_s", totals.incl_s.get(layer, 0.0), "s")

    def put_overhead(self) -> None:
        """Record the tracing overhead of the work run both ways."""
        self.put("trace.overhead_s", self.traced_s - self.untraced_s, "s")
        self.put("trace.overhead_ratio", self.traced_s / self.untraced_s,
                 "ratio")

    def absorb(self, phase: str, other: "Outcome") -> None:
        """Add the outcome of one phase of this run to this one.

        Operations, failures, layer figures and traced time add up;
        notes and exact outputs are prefixed with the phase.  A metric
        two phases both report is an error, except ``setup_s``, which
        adds up to the set-up time of the whole run.
        """
        self.attempted += other.attempted
        self.failed += other.failed
        for name, (value, unit) in other.metrics.items():
            if name == "setup_s" and name in self.metrics:
                value += self.metrics[name][0]
            elif name in self.metrics:
                raise ValueError(f"phase {phase} reports {name} again")
            self.metrics[name] = (value, unit)
        self.missing.extend(other.missing)
        self.notes.extend(f"{phase}: {note}" for note in other.notes)
        self.exact.update({f"{phase}.{name}": value
                           for name, value in other.exact.items()})
        self.totals.extend(other.totals)
        self.traced_s += other.traced_s
        self.untraced_s += other.untraced_s

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations, with the reason."""
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


#: Seconds one :func:`probe` takes at the reference machine speed.  CPU-
#: bound timings are reported in *reference seconds*: the measured time
#: scaled by ``PROBE_REF_S / probe time`` with the probe run next to the
#: measurement.  The probe runs no ``repro`` code, so a change to the
#: program moves only the measured time, while a machine that runs
#: slower for a while (other tenants, clock changes) slows the probe and
#: the measurement alike and cancels out.
PROBE_REF_S = 0.002


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value


def _probe_work(n: int = 2000) -> float:
    """Fixed pure-Python work shaped like an event loop: objects, a heap,
    a dict and float math."""
    heap: list = []
    counts: Dict[int, int] = {}
    acc = 0.0
    for i in range(n):
        item = _ProbeItem((i * 7919) % 1000 / 7.0, i)
        heapq.heappush(heap, (item.key, i, item))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        acc += math.hypot(item.key, acc % 13.0)
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def probe(clock: Callable[[], float] = time.process_time,
          repeats: int = 1) -> float:
    """Seconds per run of the fixed probe work, by ``clock``.

    The garbage collector is off meanwhile, so the probe's time does not
    depend on how many objects the measured code left alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        for _ in range(repeats):
            _probe_work()
        return (clock() - started) / repeats
    finally:
        if enabled:
            gc.enable()


def reference_median(timings: Iterable[Tuple[float, float]]) -> float:
    """The median of repeated timings, in reference seconds.

    ``timings`` holds ``(measured seconds, probe seconds)`` pairs, the
    probe taken right beside the timing; each timing is scaled by its
    own probe before the median is taken.  The machine's speed swings
    by up to 2x for seconds to minutes at a time (one probe run takes 2
    to 4.5 ms on a 2-vCPU guest).  A warm campaign replay took 1.05 s
    beside a 2.2 ms probe and 1.3 to 2.0 s beside 3.8 to 4.4 ms probes:
    the ratio holds across both speeds, where the fastest timing over
    the fastest probe did not (short probes catch a fast moment more
    often than second-long timings do).
    """
    return statistics.median(seconds * PROBE_REF_S / probe_s
                             for seconds, probe_s in timings)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def profile_stats(profiler: cProfile.Profile) -> Dict[tuple, tuple]:
    """The pstats-shaped table of a finished profiler."""
    profiler.create_stats()
    return profiler.stats  # type: ignore[attr-defined]


def make_scratch(root: Path) -> Path:
    """This run's scratch directory under the checkout."""
    base = root / WORK_DIR
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def code_version(root: Path) -> str:
    """Digest of the program and benchmark sources of this checkout."""
    digest = hashlib.sha256()
    for base in (root / "src" / "repro", root / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeat(ctx: Context, workload: str, outcome: Outcome) -> None:
    """Compare ``outcome.exact`` with an earlier run of this code and seed.

    The first run records its deterministic outputs under
    :data:`STATE_DIR`; a later run of the same sources, workload, seed
    and trace mode must reproduce every recorded value, and each value
    that differs counts as one failed operation.
    """
    name = f"{workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json"
    path = ctx.root / STATE_DIR / code_version(ctx.root) / name
    current = json.loads(json.dumps(outcome.exact, sort_keys=True))
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(current, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return
    differing = sorted(key for key in set(recorded) & set(current)
                       if recorded[key] != current[key])
    outcome.fail(len(differing), "differs from an earlier run of the same "
                 f"code and seed: {', '.join(differing[:5])}")
