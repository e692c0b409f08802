"""Figure registry: which metric each paper figure plots.

Every entry maps a figure to the :class:`~repro.scenario.results
.AggregateResult` metric it reads off the shared speed sweep, together
with the qualitative shape the paper reports (who should win).  The
``expected_best`` field is what the reproduction's integration tests and
EXPERIMENTS.md compare against.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Union

from repro.exec import ClusterExecutor, ResultCache
from repro.experiments.sweep import SweepResult, SweepSettings, run_speed_sweep


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """Description of one paper figure."""

    figure_id: str
    title: str
    metric: str
    unit: str
    #: "max" when larger is better / the paper's winner has the largest
    #: value, "min" when the winner has the smallest value.
    better: str
    #: The protocol the paper reports as best on this metric.
    expected_best: str
    #: One-line statement of the qualitative result claimed by the paper.
    paper_claim: str


#: All figures of the paper's evaluation section, keyed by id.
FIGURES: Dict[str, FigureSpec] = {
    "fig5": FigureSpec(
        figure_id="fig5",
        title="Number of participating nodes under different speeds",
        metric="participating_nodes",
        unit="nodes",
        better="max",
        expected_best="MTS",
        paper_claim="MTS involves the largest number of relay nodes because "
                    "the source keeps switching among disjoint routes.",
    ),
    "fig6": FigureSpec(
        figure_id="fig6",
        title="Standard deviation of number of relayed packets",
        metric="relay_std",
        unit="fraction",
        better="min",
        expected_best="MTS",
        paper_claim="MTS has the lowest normalised relay-count standard "
                    "deviation: no single node carries most of the traffic.",
    ),
    "fig7": FigureSpec(
        figure_id="fig7",
        title="Highest interception ratio",
        metric="highest_interception_ratio",
        unit="ratio",
        better="min",
        expected_best="MTS",
        paper_claim="Even when the most heavily used relay is the "
                    "eavesdropper, MTS leaks the smallest share of traffic.",
    ),
    "fig8": FigureSpec(
        figure_id="fig8",
        title="Average end-to-end delay",
        metric="mean_delay",
        unit="s",
        better="min",
        expected_best="MTS",
        paper_claim="MTS keeps the lowest delay because it always runs on "
                    "the freshest route; DSR beats AODV thanks to its cache.",
    ),
    "fig9": FigureSpec(
        figure_id="fig9",
        title="Average TCP throughput",
        metric="throughput_segments",
        unit="segments",
        better="max",
        expected_best="MTS",
        paper_claim="MTS achieves the highest TCP throughput; DSR loses "
                    "throughput at higher speeds due to stale cached routes.",
    ),
    "fig10": FigureSpec(
        figure_id="fig10",
        title="Average rate of successful delivery of packets",
        metric="delivery_rate",
        unit="fraction",
        better="max",
        expected_best="MTS",
        paper_claim="DSR's delivery rate drops sharply as speed grows; AODV "
                    "and MTS stay roughly flat.",
    ),
    "fig11": FigureSpec(
        figure_id="fig11",
        title="Control overhead (routing packets)",
        metric="control_overhead",
        unit="packets",
        better="min",
        expected_best="DSR",
        paper_claim="MTS pays the highest control overhead (route checking); "
                    "DSR has the lowest thanks to aggressive caching.",
    ),
}


def figure_series(sweep: SweepResult, figure_id: str) -> Dict[str, List[float]]:
    """Per-protocol metric series (ordered by speed) for ``figure_id``."""
    spec = FIGURES[figure_id]
    return sweep.metric_series(spec.metric)


def winners_by_speed(sweep: SweepResult, figure_id: str) -> List[str]:
    """The best protocol at each swept speed according to the figure's metric."""
    spec = FIGURES[figure_id]
    series = sweep.metric_series(spec.metric)
    protocols = list(series)
    winners = []
    for index in range(len(sweep.settings.speeds)):
        values = {protocol: series[protocol][index] for protocol in protocols}
        if spec.better == "max":
            winners.append(max(values, key=values.get))
        else:
            winners.append(min(values, key=values.get))
    return winners


def format_figure(sweep: SweepResult, figure_id: str) -> str:
    """Render the figure's data as a text table (speeds × protocols)."""
    spec = FIGURES[figure_id]
    series = figure_series(sweep, figure_id)
    speeds = list(sweep.settings.speeds)
    lines = [f"{spec.figure_id.upper()} — {spec.title} [{spec.unit}]",
             f"  paper claim: {spec.paper_claim}"]
    header = "  speed(m/s) " + "".join(f"{p:>12}" for p in series)
    lines.append(header)
    for index, speed in enumerate(speeds):
        row = f"  {speed:>10.1f} "
        for protocol in series:
            row += f"{series[protocol][index]:>12.4g}"
        lines.append(row)
    winners = winners_by_speed(sweep, figure_id)
    lines.append("  best-per-speed: " + ", ".join(
        f"{speed:g}→{winner}" for speed, winner in zip(speeds, winners)))
    return "\n".join(lines)


def run_figure(figure_id: str, settings: Optional[SweepSettings] = None,
               sweep: Optional[SweepResult] = None,
               executor: Optional[ClusterExecutor] = None,
               cache: Optional[ResultCache] = None,
               artifact: Union[str, os.PathLike, None] = None,
               allow_stale: bool = False,
               ) -> Dict[str, List[float]]:
    """Run (or reuse) a sweep and return the figure's per-protocol series.

    ``executor``/``cache`` (see :mod:`repro.exec`) are forwarded to
    :func:`run_speed_sweep` when no existing ``sweep`` is supplied; with a
    shared cache, regenerating every figure costs one sweep in total.
    ``artifact`` reuses a sweep saved by :meth:`SweepResult.save` instead
    of simulating: the figure is re-rendered without touching the cache
    or the simulator at all (``allow_stale`` forwards to
    :meth:`SweepResult.load`'s version-stamp check).
    """
    if figure_id not in FIGURES:
        raise KeyError(f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}")
    if artifact is not None:
        if sweep is not None:
            raise ValueError("pass either sweep= or artifact=, not both")
        sweep = SweepResult.load(artifact, allow_stale=allow_stale)
    if sweep is None:
        sweep = run_speed_sweep(settings, executor=executor, cache=cache)
    return figure_series(sweep, figure_id)


def render_figures(sweep: Optional[SweepResult] = None,
                   figure_ids: Optional[Sequence[str]] = None,
                   *,
                   artifact: Union[str, os.PathLike, None] = None,
                   allow_stale: bool = False) -> str:
    """Render the requested figures (default: all, in id order) as text.

    This is the incremental-regeneration path: pass a loaded ``sweep``
    or an ``artifact`` path saved by :meth:`SweepResult.save` to
    re-render every figure with **zero** simulations (CLI:
    ``repro-sweep render``; the campaign store serves the same bytes).
    """
    if artifact is not None:
        if sweep is not None:
            raise ValueError("pass either sweep= or artifact=, not both")
        sweep = SweepResult.load(artifact, allow_stale=allow_stale)
    if sweep is None:
        raise ValueError("render_figures needs a sweep= or an artifact=")
    if figure_ids is None:
        figure_ids = sorted(FIGURES)
    unknown = sorted(set(figure_ids) - set(FIGURES))
    if unknown:
        raise KeyError(f"unknown figures {unknown}; known: {sorted(FIGURES)}")
    return "\n\n".join(format_figure(sweep, figure_id)
                       for figure_id in figure_ids)
