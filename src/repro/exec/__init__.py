"""Experiment execution subsystem: one executor + the on-disk result cache.

This package is the seam between "what to simulate" (the
:mod:`repro.scenario` and :mod:`repro.experiments` layers) and "how to
run it".  Everything that executes scenario configs — sweeps, figures,
ablations, Table I, shards, campaigns, the example scripts — routes
through :class:`~repro.exec.scheduler.ClusterExecutor`:

* ``ClusterExecutor()`` (``shards=1``) simulates in-process and starts
  no process;
* ``ClusterExecutor(shards=K)`` runs on a persistent
  :class:`~repro.exec.scheduler.WorkerPool` of up to K warm workers fed
  over a cell-granular JSON frame wire, and rebalances after mid-unit
  worker deaths.

Either way results come back in input order and are bit-for-bit
identical.  :class:`~repro.exec.cache.ResultCache` is the
content-addressed on-disk cache (packed segments only) keyed by a
stable hash of the config, so repeated sweeps only simulate cells that
changed; :mod:`repro.exec.shard` splits a grid across machines and
merges the pieces back.

Quick usage::

    from repro.exec import ClusterExecutor, ResultCache
    from repro.experiments import SweepSettings, run_speed_sweep

    with ClusterExecutor(shards=4, cache=ResultCache("results/cache")) as ex:
        sweep = run_speed_sweep(SweepSettings.bench(), executor=ex)
"""

from repro.exec.artifact import (
    ARTIFACT_FORMAT_VERSION,
    StaleArtifactError,
    check_artifact_stamp,
    stamp_artifact,
)
from repro.exec.cache import (
    CACHE_FORMAT_VERSION,
    PACK_FORMAT_VERSION,
    atomic_write_text,
    CacheProblem,
    CacheStats,
    MergeStats,
    PruneReport,
    ResultCache,
    config_key,
)
from repro.exec.shard import (
    ShardMerger,
    ShardSpec,
    SweepShard,
    assemble_sweep_result,
    merge_shard_results,
    plan_shards,
    run_sweep_shard,
    shard_of_config,
    shard_of_key,
    sweep_from_cache,
)
from repro.exec.scheduler import (
    ClusterExecutor,
    FaultInjection,
    SchedulerError,
    WorkerPool,
    add_executor_options,
    executor_for,
    executor_from_args,
    partition_cells,
    simulate,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "CACHE_FORMAT_VERSION",
    "CacheProblem",
    "CacheStats",
    "ClusterExecutor",
    "FaultInjection",
    "MergeStats",
    "PACK_FORMAT_VERSION",
    "PruneReport",
    "ResultCache",
    "SchedulerError",
    "StaleArtifactError",
    "ShardMerger",
    "ShardSpec",
    "SweepShard",
    "WorkerPool",
    "add_executor_options",
    "assemble_sweep_result",
    "atomic_write_text",
    "check_artifact_stamp",
    "config_key",
    "executor_for",
    "executor_from_args",
    "merge_shard_results",
    "partition_cells",
    "plan_shards",
    "run_sweep_shard",
    "shard_of_config",
    "shard_of_key",
    "simulate",
    "stamp_artifact",
    "sweep_from_cache",
]
