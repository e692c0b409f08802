"""One workload: the kernel, campaign and serve phases in one run.

Every workload runs the whole path a user of the program takes, so each
run reports every end-to-end metric and, traced, every per-layer one:

1. the *campaign* phase runs a tiny-cell manifest cold to a published
   store and replays it warm (:mod:`perfbench.campaignwork`;
   ``time_to_figures_s``, ``replay_cells_per_s``);
2. the *serve* phase publishes a small campaign and queries it through
   ``repro-serve`` (:mod:`perfbench.servework`; ``serve_rps``,
   ``serve_p50_ms``, ``serve_p99_ms``);
3. the *kernel* phase builds and runs the workload's cells in process
   (:mod:`perfbench.simwork`; ``sim_s_per_cpu_s``).

The campaign phase comes first because its pool workers are forked from
this process: after the kernel phase the process is larger and the cold
campaign took 15% longer and varied more between runs.

The workloads differ in the kernel phase's cells (see
``inputs.SIM_SHAPES``); the campaign and serve phases are the same on
both.  ``setup_s`` is the sum of the phases' set-up times and
``peak_rss_mb`` is taken once all phases are done.
"""

from __future__ import annotations

import dataclasses
import time

from perfbench import campaignwork, layers, servework, simwork
from perfbench.common import Context, Outcome, peak_rss_mb

#: Share of ``--seconds`` each phase measures for.  A phase may run on
#: past its share: the kernel phase for its minimum rounds, the campaign
#: phase to finish an iteration, the serve phase for its minimum replies.
SHARES = {"kernel": 0.4, "campaign": 0.3, "serve": 0.3}

#: Layers whose ``self_s``, ``span_calls`` and ``incl_s`` the traced run
#: reports, summed over the profiles of all phases.
LAYERS = ("sim.engine", "net.interface", "net.channel", "net.packet",
          "net.propagation", "net.node", "mac.dcf", "routing", "core.mts",
          "transport", "mobility", "metrics", "exec.scheduler",
          "exec.cache", "campaign.store", "campaign.runner",
          "experiments.sweep", "cli.serve")
#: Layers whose ``self_s`` and ``span_calls`` it reports; their inclusive
#: time is reported under another name (``scenario.builder.build_s``,
#: ``experiments.figures.render_s``).
LAYERS_SELF_ONLY = ("scenario.builder", "experiments.figures")


def run(workload: str, ctx: Context) -> Outcome:
    """Run every phase of ``workload``; timed unless ``ctx.trace``."""
    phases = (
        ("campaign", campaignwork.run),
        ("serve", servework.run),
        ("kernel", lambda one: simwork.run(workload, one)),
    )
    outcome = Outcome()
    walls = []
    for name, phase in phases:
        share = dataclasses.replace(ctx, seconds=ctx.seconds * SHARES[name])
        started = time.perf_counter()
        outcome.absorb(name, phase(share))
        walls.append(f"{name} {time.perf_counter() - started:.1f}")
    outcome.notes.append(f"phase wall s: {', '.join(walls)}")
    if not ctx.trace:
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome
    totals = layers.combine(outcome.totals)
    outcome.put_layers(totals, LAYERS)
    for layer in LAYERS_SELF_ONLY:
        outcome.put(f"{layer}.self_s", totals.self_s.get(layer, 0.0), "s")
        outcome.put(f"{layer}.span_calls", totals.span_calls.get(layer, 0),
                    "count")
    outcome.put_overhead()
    return outcome
