"""MTS design-knob ablations (not in the paper, motivated by DESIGN.md).

Two sweeps quantify the design choices the paper fixes by fiat:

* **Checking interval** — the paper recommends probing every 2–4 s; the
  ablation sweeps the interval and reports the security/overhead
  trade-off (shorter interval → faster route switching and better
  confidentiality, at the price of more control packets).
* **Maximum disjoint paths** — the paper caps the destination's store at
  five paths "to save space"; the ablation sweeps the cap from 1 (which
  degenerates MTS to single-path routing with periodic liveness probing)
  to 5.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.exec import ClusterExecutor, ResultCache, executor_for
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult


def _base_config(**overrides) -> ScenarioConfig:
    params = dict(protocol="MTS", n_nodes=50, field_size=(1000.0, 1000.0),
                  max_speed=10.0, sim_time=25.0, seed=11)
    params.update(overrides)
    return ScenarioConfig(**params)


def run_check_interval_ablation(intervals: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 6.0),
                                config: Optional[ScenarioConfig] = None,
                                executor: Optional[ClusterExecutor] = None,
                                cache: Optional[ResultCache] = None,
                                ) -> Dict[float, ScenarioResult]:
    """Sweep the MTS route-checking interval.

    Returns a mapping ``interval -> ScenarioResult``; the interesting
    columns are ``control_overhead`` (rises as the interval shrinks) and
    the security metrics (improve as the interval shrinks).  The knob
    values are independent runs, so ``executor``/``cache`` (see
    :mod:`repro.exec`) fan them out over worker processes and memoise
    them.
    """
    base = config or _base_config()
    knobs = [float(interval) for interval in intervals]
    for interval in knobs:
        if interval <= 0:
            raise ValueError("check interval must be positive")
    configs = [base.replace(mts_check_interval=interval) for interval in knobs]
    results = executor_for(executor, cache).run(configs)
    return dict(zip(knobs, results))


def run_max_paths_ablation(max_paths_values: Sequence[int] = (1, 2, 3, 5),
                           config: Optional[ScenarioConfig] = None,
                           executor: Optional[ClusterExecutor] = None,
                           cache: Optional[ResultCache] = None,
                           ) -> Dict[int, ScenarioResult]:
    """Sweep the cap on disjoint paths stored at the destination."""
    base = config or _base_config()
    knobs = [int(max_paths) for max_paths in max_paths_values]
    for max_paths in knobs:
        if max_paths < 1:
            raise ValueError("max_paths must be at least 1")
    configs = [base.replace(mts_max_paths=max_paths) for max_paths in knobs]
    results = executor_for(executor, cache).run(configs)
    return dict(zip(knobs, results))


def format_ablation(results: Dict, knob_name: str,
                    metrics: Sequence[str] = ("participating_nodes",
                                              "relay_std",
                                              "highest_interception_ratio",
                                              "throughput_segments",
                                              "control_overhead")) -> str:
    """Render an ablation result dictionary as a text table."""
    lines = [f"MTS ablation over {knob_name}"]
    header = f"  {knob_name:>16}" + "".join(f"{m[:18]:>20}" for m in metrics)
    lines.append(header)
    for knob_value in sorted(results):
        row = f"  {knob_value:>16}"
        result = results[knob_value]
        for metric in metrics:
            row += f"{getattr(result, metric):>20.4g}"
        lines.append(row)
    return "\n".join(lines)
