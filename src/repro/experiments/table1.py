"""Table I: normalisation of the received packets in the participating nodes.

The paper walks through the relay-share computation for one DSR scenario:
each participating node's relay count β, the total α, the normalised
share γ, and the resulting standard deviation.  :func:`run_table1`
reproduces that walkthrough for a configurable scenario and
:func:`format_table1` renders it in the same layout as the paper's table.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING, Tuple

from repro.exec import ClusterExecutor, ResultCache, executor_for
from repro.metrics.relay import RelayNormalization, normalize_relay_counts
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import SweepResult


def run_table1(config: Optional[ScenarioConfig] = None,
               executor: Optional[ClusterExecutor] = None,
               cache: Optional[ResultCache] = None,
               result: Optional[ScenarioResult] = None,
               ) -> Tuple[RelayNormalization, ScenarioResult]:
    """Run (or reuse) one DSR scenario and compute the Table I normalisation.

    Parameters
    ----------
    config:
        Scenario to run; defaults to a scaled-down DSR scenario.  The
        paper's own table is one 200 s DSR run at paper scale
        (``ScenarioConfig.paper_default(protocol="DSR")``).
    executor / cache:
        Optional executor or result cache (see :mod:`repro.exec`); with
        a cache the walkthrough is free when the same scenario was
        already simulated.
    result:
        A previously computed DSR run (e.g. pulled out of a saved
        :class:`~repro.experiments.sweep.SweepResult` artifact); when
        given, nothing is simulated and ``config``/``executor``/``cache``
        are ignored — the artifact-only path of ``repro-sweep render``.
    """
    if result is not None:
        if result.protocol != "DSR":
            raise ValueError("Table I is defined for a DSR scenario")
        return normalize_relay_counts(result.relay_counts), result
    if config is None:
        config = ScenarioConfig(protocol="DSR", n_nodes=50,
                                field_size=(1000.0, 1000.0), max_speed=10.0,
                                sim_time=30.0, seed=5)
    if config.protocol != "DSR":
        raise ValueError("Table I is defined for a DSR scenario")
    result = executor_for(executor, cache).run_one(config)
    normalization = normalize_relay_counts(result.relay_counts)
    return normalization, result


def table1_from_sweep(sweep: "SweepResult") -> Optional[str]:
    """Table I text derived from a saved sweep — zero simulations.

    Uses the sweep's first DSR run (lowest speed, first replication),
    matching ``repro-sweep render --table1``.  Returns ``None`` when the
    sweep contains no DSR runs (e.g. a single-protocol profile), so
    callers can skip the table rather than fail the whole render.
    """
    dsr_runs = sweep.runs_for_protocol("DSR")
    if not dsr_runs:
        return None
    normalization, _ = run_table1(result=dsr_runs[0])
    return format_table1(normalization)


def format_table1(normalization: RelayNormalization) -> str:
    """Render the normalisation in the paper's Table I layout."""
    lines = ["TABLE I — Normalization of the received packets in the "
             "participating nodes (DSR)",
             f"  {'Node ID':>8} {'beta':>10} {'gamma':>10}"]
    for node, beta, gamma in normalization.as_rows():
        lines.append(f"  {node:>8} {beta:>10} {gamma:>9.2%}")
    lines.append(f"  {'alpha':>8} {normalization.alpha:>10} "
                 f"{'std=' + format(normalization.std, '.2%'):>10}")
    return "\n".join(lines)
