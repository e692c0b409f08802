"""The campaign phase: cold manifest to published store, then replay.

An *iteration* starts from empty cache and store directories, runs the
seed's manifest through ``run_campaign(..., scheduler=ClusterExecutor(
shards=2))`` with publication (simulate, cache-write, merge, render,
publish), then reruns the same manifest with a fresh cache reader,
scheduler and store handle, the way a second ``repro-campaign run``
would.  The rerun must simulate nothing, reproduce every sweep byte for
byte and publish no new blob.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import shutil
import statistics
import time
from typing import Dict, List, Optional

from perfbench import inputs, layers
from perfbench.common import (
    Context, Outcome, probe, profile_stats, reference_median,
)

#: Probe runs per calibration point (about 0.1 s in all).
PROBE_REPEATS = 50
#: Set-ups per iteration (the last one is used); each iteration reports
#: their median.  A set-up parses the manifest, expands it to validated
#: cell configs and creates the cache, store and scheduler.
SETUPS = 5
#: Warm replays after each cold run.
REPLAYS = 1
#: Iterations of a timed run, at least.
MIN_ITERATIONS = 4

#: The scheduler's stage timers (worker-side stages are summed over
#: workers, so their total can exceed wall time).
STAGES = ("spawn", "serialize", "simulate", "stream", "merge",
          "cache_write", "lookup")

CACHE_READS = [("repro.exec.cache", "ResultCache.lookup"),
               ("repro.exec.cache", "ResultCache.get"),
               ("repro.exec.cache", "ResultCache.has_current")]
STORE_WRITES = [("repro.campaign.store", "ArtifactStore.put_bytes"),
                ("repro.campaign.store", "ArtifactStore.put_text"),
                ("repro.campaign.store", "ArtifactStore.put_index")]


@dataclasses.dataclass
class Iteration:
    """One cold campaign and its warm replays, in measured wall seconds.

    The probe runs before set-up and after the cold run and each replay,
    while no worker is alive; :func:`run` scales each timing by the mean
    of the probes on either side of it and reports the median (see
    ``common.reference_median``).
    """

    #: Median of the :data:`SETUPS` set-ups.
    setup_s: float
    raw_cold_s: float
    raw_warm_s: List[float]
    probes: List[float]
    cells: int
    sweep_digests: Dict[str, str]
    stages: Optional[Dict[str, float]]
    workers_spawned: Optional[int]
    workers_reused: Optional[int]
    cells_streamed: int
    cells_from_cache: int
    blobs_written: int
    pack_files: int
    bytes_written: int


def _iteration(manifest: Dict[str, object], ctx: Context, outcome: Outcome,
               replays: int = REPLAYS,
               profiler: Optional[cProfile.Profile] = None) -> Iteration:
    from repro.campaign import ArtifactStore, CampaignSpec, run_campaign
    from repro.exec import ClusterExecutor, ResultCache

    document = json.dumps(manifest)
    probes = [probe(time.perf_counter, PROBE_REPEATS)]
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        spec = CampaignSpec.from_json(document)
        cells = sum(len(settings.cell_configs())
                    for _, settings in spec.expand())
        root = ctx.fresh_dir("campaign")
        scheduler = ClusterExecutor(shards=2,
                                    cache=ResultCache(root / "cache"))
        store = ArtifactStore(root / "store")
        setups.append(time.perf_counter() - started)
    try:
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        with scheduler:
            cold = run_campaign(spec, scheduler=scheduler, store=store)
        cold_s = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        blobs = store.blob_digests()
        index = store.index_bytes(spec.name)
        probes.append(probe(time.perf_counter, PROBE_REPEATS))
        digests = {entry.name: hashlib.sha256(
            cold.sweeps[entry.name].to_json().encode("utf-8")).hexdigest()
            for entry in cold.entries}
        outcome.attempted += cells
        outcome.fail(cells - cold.simulated,
                     "cold campaign served cells it should have simulated")
        warm_s = []
        schedulers = [scheduler]
        streamed, from_cache = cold.simulated, cold.from_cache
        for _ in range(replays):
            if profiler is not None:
                profiler.enable()
            started = time.perf_counter()
            with ClusterExecutor(shards=2,
                                 cache=ResultCache(root / "cache")) as rerun:
                warm = run_campaign(spec, scheduler=rerun,
                                    store=ArtifactStore(root / "store"))
            seconds = time.perf_counter() - started
            if profiler is not None:
                profiler.disable()
            probes.append(probe(time.perf_counter, PROBE_REPEATS))
            warm_s.append(seconds)
            schedulers.append(rerun)
            streamed += warm.simulated
            from_cache += warm.from_cache
            _check_replay(outcome, warm, digests)
        outcome.fail(len(set(store.blob_digests()) - set(blobs)),
                     "republishing wrote new blobs")
        outcome.fail(int(store.index_bytes(spec.name) != index),
                     "republishing changed the campaign index")
        packs = list((root / "cache" / "packs").glob("*.pack"))
        return Iteration(
            setup_s=statistics.median(setups), raw_cold_s=cold_s,
            raw_warm_s=warm_s, probes=probes,
            cells=cells, sweep_digests=digests,
            stages=_stage_totals(schedulers),
            workers_spawned=_total(schedulers, "total_workers_spawned"),
            workers_reused=_total(schedulers, "total_workers_reused"),
            cells_streamed=streamed, cells_from_cache=from_cache,
            blobs_written=len(blobs), pack_files=len(packs),
            bytes_written=sum(path.stat().st_size
                              for path in (root / "cache").rglob("*")
                              if path.is_file()))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _check_replay(outcome: Outcome, warm, digests: Dict[str, str]) -> None:
    """A replay simulates nothing and reproduces every cold sweep."""
    outcome.attempted += warm.cells
    outcome.fail(warm.simulated, "warm replay simulated cells")
    for entry in warm.entries:
        text = warm.sweeps[entry.name].to_json().encode("utf-8")
        if hashlib.sha256(text).hexdigest() != digests[entry.name]:
            outcome.fail(entry.cells, f"entry {entry.name}: warm sweep "
                         f"differs from the cold one")


def _stage_totals(schedulers) -> Optional[Dict[str, float]]:
    totals: Dict[str, float] = {}
    for scheduler in schedulers:
        stages = getattr(scheduler, "total_stage_seconds", None)
        if stages is None:
            return None
        for stage, seconds in stages.items():
            totals[stage] = totals.get(stage, 0.0) + float(seconds)
    return totals


def _total(schedulers, name: str) -> Optional[int]:
    values = [getattr(scheduler, name, None) for scheduler in schedulers]
    return None if None in values else int(sum(values))


def run(ctx: Context) -> Outcome:
    """Run the campaign phase; timed unless ``ctx.trace``."""
    manifest = inputs.campaign_manifest(ctx.seed)
    outcome = Outcome()
    if ctx.trace:
        _traced(manifest, ctx, outcome)
        return outcome
    iterations: List[Iteration] = []
    started = time.perf_counter()
    while (len(iterations) < MIN_ITERATIONS
           or time.perf_counter() - started < ctx.seconds):
        iterations.append(_iteration(manifest, ctx, outcome))
    first = iterations[0]
    for later in iterations[1:]:
        if later.sweep_digests != first.sweep_digests:
            outcome.fail(later.cells, "a cold campaign's sweeps differ "
                         "from the first iteration's")
    outcome.exact = dict(first.sweep_digests)
    outcome.notes.append(
        f"{len(iterations)} iterations of {first.cells} cells; unscaled "
        f"cold s: {', '.join(f'{one.raw_cold_s:.3f}' for one in iterations)}"
        f"; unscaled warm s: "
        f"{', '.join(f'{x:.3f}' for one in iterations for x in one.raw_warm_s)}")
    outcome.put("time_to_figures_s", reference_median(
        (one.raw_cold_s, _around(one.probes, 0)) for one in iterations),
        "s")
    outcome.put("replay_cells_per_s", first.cells / reference_median(
        (seconds, _around(one.probes, index + 1))
        for one in iterations
        for index, seconds in enumerate(one.raw_warm_s)), "cells/s")
    outcome.put("setup_s", reference_median(
        (one.setup_s, one.probes[0]) for one in iterations), "s")
    return outcome


def _around(probes: List[float], index: int) -> float:
    """Mean of the probes just before and just after timing ``index``."""
    return (probes[index] + probes[index + 1]) / 2


def _traced(manifest: Dict[str, object], ctx: Context,
            outcome: Outcome) -> None:
    mapping = layers.check_coverage(ctx.src)
    reference = _iteration(manifest, ctx, outcome, replays=1)
    profiler = cProfile.Profile()
    traced = _iteration(manifest, ctx, outcome, replays=1,
                        profiler=profiler)
    if traced.sweep_digests != reference.sweep_digests:
        outcome.fail(traced.cells, "traced campaign's sweeps differ from "
                     "the reference iteration's")
    totals = layers.attribute(profile_stats(profiler), ctx.src, mapping)

    for stage in STAGES:
        outcome.put(f"exec.scheduler.stage_{stage}_s",
                    None if traced.stages is None
                    else traced.stages.get(stage), "s")
    counts = {
        "exec.scheduler.workers_spawned": traced.workers_spawned,
        "exec.scheduler.workers_reused": traced.workers_reused,
        "exec.scheduler.cells_streamed": traced.cells_streamed,
        "exec.scheduler.cells_from_cache": traced.cells_from_cache,
        "exec.cache.lookup_calls": layers.count_calls(totals,
                                                      CACHE_READS[1:]),
        "exec.cache.pack_files": traced.pack_files,
        "campaign.store.blobs_written": traced.blobs_written,
    }
    for name, value in counts.items():
        outcome.put(name, value, "count")
    outcome.put("exec.cache.bytes_written", traced.bytes_written, "B")
    reads = layers.crossing(totals, CACHE_READS)
    outcome.put("exec.cache.lookup_s", None if reads is None else reads[1],
                "s")
    outcome.put("exec.cache.put_many_s",
                None if traced.stages is None
                else traced.stages.get("cache_write"), "s")
    writes = layers.crossing(totals, STORE_WRITES)
    outcome.put("campaign.store.put_s", None if writes is None else writes[1],
                "s")
    outcome.put("experiments.figures.render_s",
                totals.incl_s.get("experiments.figures", 0.0), "s")
    outcome.totals.append(totals)
    outcome.traced_s += traced.raw_cold_s + sum(traced.raw_warm_s)
    outcome.untraced_s += reference.raw_cold_s + sum(reference.raw_warm_s)
    outcome.exact = {name: value for name, value in counts.items()
                     if value is not None
                     and name != "exec.cache.pack_files"}
    outcome.exact.update(traced.sweep_digests)
