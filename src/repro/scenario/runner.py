"""Run scenarios and replications.

``run_scenario`` executes one configuration; ``run_replications`` runs the
same configuration under several independent seeds and aggregates the
results, mirroring the paper's "each simulation is run for 200 seconds and
repeated 5 times" methodology.

Both entry points route through :class:`repro.exec.ClusterExecutor`:
pass an ``executor`` to run on worker processes, or a ``cache`` to reuse
previously computed results.  With neither argument the runs happen
in-process with no cache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.scenario.builder import Scenario, ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import (
    AggregateResult,
    ScenarioResult,
    aggregate_results,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import ClusterExecutor, ResultCache


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Construct (but do not run) the scenario described by ``config``."""
    return ScenarioBuilder(config).build()


def run_scenario(config: ScenarioConfig,
                 executor: Optional["ClusterExecutor"] = None,
                 cache: Optional["ResultCache"] = None) -> ScenarioResult:
    """Build and run one scenario; return its measured metrics.

    Parameters
    ----------
    config:
        The scenario to simulate.
    executor / cache:
        Optional executor or result cache (see :mod:`repro.exec`).
    """
    # Imported lazily: repro.exec itself imports the scenario layer.
    from repro.exec import executor_for
    return executor_for(executor, cache).run_one(config)


def run_replications(config: ScenarioConfig, replications: int = 5,
                     seeds: Optional[Sequence[int]] = None,
                     executor: Optional["ClusterExecutor"] = None,
                     cache: Optional["ResultCache"] = None,
                     ) -> tuple[AggregateResult, List[ScenarioResult]]:
    """Run ``replications`` independent copies of ``config`` and aggregate.

    Parameters
    ----------
    config:
        Base configuration; each replication reuses it with a different
        seed.
    replications:
        Number of independent runs (the paper uses 5).
    seeds:
        Explicit seeds, one per replication.  When omitted, seeds are
        derived deterministically from ``config.seed`` so the whole batch
        is reproducible.
    executor / cache:
        Optional executor or result cache (see :mod:`repro.exec`).
        Replications are independent, so an executor with worker
        processes runs them concurrently with identical results.

    Returns
    -------
    (aggregate, results):
        The aggregate (mean/std per metric) and the individual run results.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if seeds is None:
        seeds = [config.seed + 1000 * index for index in range(replications)]
    elif len(seeds) != replications:
        raise ValueError("len(seeds) must equal the number of replications")
    configs = [config.replace(seed=int(seed)) for seed in seeds]
    from repro.exec import executor_for
    results = executor_for(executor, cache).run(configs)
    return aggregate_results(results), results
