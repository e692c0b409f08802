"""The kernel phase: the workload's cells built and run in process.

A *round* builds and runs every cell of the seed's cell list once
(``ScenarioBuilder(config).build()`` then ``Simulator.run``) and takes
the CPU time of the run.  Timed runs run the calibration probe before
and after each cell and scale the cell's CPU and build time by the mean
of those two probes, giving reference seconds (see
``common.PROBE_REF_S``).  Rounds repeat until the time is up (at least
:data:`MIN_ROUNDS`), and every round must reproduce the first round's
result digests.  ``sim_s_per_cpu_s`` is a round's simulated time over
the sum of the cells' median reference CPU time; ``setup_s`` is the
same sum of their reference build time.  The traced run does one
reference round and one round under cProfile.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import statistics
import time
from typing import Dict, List, Optional

from perfbench import inputs, layers
from perfbench.common import (
    PROBE_REF_S, Context, Outcome, probe, profile_stats,
)

#: Probe runs before and after each cell (about 20 ms each time).
PROBE_REPEATS = 10
#: Rounds of a timed run, at least (the median needs three).
MIN_ROUNDS = 3

#: Boundary functions whose exact call counts the traced run reports.
BOUNDARIES = {
    "net.channel.transmissions": [("repro.net.channel",
                                   "WirelessChannel.transmit")],
    "net.interface.receptions": [("repro.net.interface",
                                  "WirelessInterface.begin_reception")],
    "net.packet.copies": [("repro.net.packet", "Packet.copy")],
    "mac.dcf.frames_in": [("repro.mac.dcf", "DcfMac.receive_frame")],
    "mac.dcf.medium_edges": [("repro.mac.dcf", "DcfMac.on_channel_busy"),
                             ("repro.mac.dcf", "DcfMac.on_channel_idle")],
    "routing.control_packets": [("repro.routing.base",
                                 "RoutingAgent.send_control")],
    "routing.route_input_calls": [("repro.routing.base",
                                   "RoutingAgent.route_input")],
    "transport.segments_sent": [("repro.transport.tcp_reno",
                                 "TcpRenoSender._transmit_segment")],
    "mobility.segment_pushes": [("repro.net.channel",
                                 "WirelessChannel._write_kin_entry")],
}


@dataclasses.dataclass
class CellRun:
    """One built and simulated cell."""

    build_s: float
    #: CPU seconds of the cell's run, and of one probe run beside it.
    cpu_s: float
    probe_s: float
    sim_s: float
    digest: str
    events: int
    #: Optional program counters (``None`` when absent on this tree).
    counters: Dict[str, Optional[float]]


@dataclasses.dataclass
class Round:
    cells: List[CellRun]
    wall_s: float

    @property
    def build_s(self) -> float:
        return sum(cell.build_s for cell in self.cells)

    @property
    def cpu_s(self) -> float:
        return sum(cell.cpu_s for cell in self.cells)

    @property
    def digests(self) -> List[str]:
        return [cell.digest for cell in self.cells]


def _run_cell(config, calibrate: bool) -> CellRun:
    from repro.scenario.builder import ScenarioBuilder

    probes = [probe(time.process_time, PROBE_REPEATS)] if calibrate else []
    started = time.perf_counter()
    scenario = ScenarioBuilder(config).build()
    build_s = time.perf_counter() - started
    sim = scenario.sim
    cpu_started = time.process_time()
    sim.run(until=config.sim_time)
    cpu_s = time.process_time() - cpu_started
    if calibrate:
        probes.append(probe(time.process_time, PROBE_REPEATS))
    result = scenario.collect_results()
    digest = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
    channel = scenario.channel
    counters = {
        "fire_groups": getattr(sim, "fire_groups", None),
        "peak_heap": getattr(sim, "peak_heap_size", None),
        "tx": getattr(channel, "transmissions", None),
        "refined_total": getattr(channel, "refined_total", None),
        "candidate_total": getattr(channel, "candidate_total", None),
        "retransmits": sum(int(stats.get("retransmissions", 0))
                           for stats in result.sender_stats),
    }
    return CellRun(build_s=build_s, cpu_s=cpu_s,
                   probe_s=statistics.mean(probes) if calibrate else 0.0,
                   sim_s=float(config.sim_time),
                   digest=digest, events=int(sim.processed_events),
                   counters=counters)


def _run_round(configs, calibrate: bool = False) -> Round:
    started = time.perf_counter()
    cells = [_run_cell(config, calibrate) for config in configs]
    return Round(cells=cells, wall_s=time.perf_counter() - started)


def _check_digests(outcome: Outcome, reference: Round, other: Round,
                   what: str) -> None:
    differing = sum(1 for a, b in zip(reference.digests, other.digests)
                    if a != b)
    outcome.fail(differing, f"{what}: cell result digest did not repeat")


def run(workload: str, ctx: Context) -> Outcome:
    """Run the kernel phase of ``workload``; timed unless ``ctx.trace``."""
    from repro.scenario.config import ScenarioConfig

    cells = inputs.sim_cells(workload, ctx.seed)
    configs = [ScenarioConfig.from_dict(cell) for cell in cells]
    outcome = Outcome()
    if ctx.trace:
        _traced(configs, ctx, outcome)
        return outcome
    rounds: List[Round] = []
    started = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - started < ctx.seconds):
        rounds.append(_run_round(configs, calibrate=True))
        outcome.attempted += len(configs)
        if len(rounds) > 1:
            _check_digests(outcome, rounds[0], rounds[-1],
                           f"round {len(rounds)}")
    outcome.exact = {f"cell{index}": digest
                     for index, digest in enumerate(rounds[0].digests)}
    sim_s = sum(cell.sim_s for cell in rounds[0].cells)
    outcome.notes.append(
        f"{len(rounds)} rounds of {len(configs)} cells; unscaled sim-s per "
        f"CPU-s by round: "
        f"{', '.join(f'{sim_s / one.cpu_s:.3f}' for one in rounds)}; "
        f"unscaled build s: "
        f"{', '.join(f'{one.build_s:.4f}' for one in rounds)}")
    outcome.put("sim_s_per_cpu_s", sim_s / _per_cell_median(rounds, "cpu_s"),
                "sim-s/CPU-s")
    outcome.put("setup_s", _per_cell_median(rounds, "build_s"), "s")
    return outcome


def _per_cell_median(rounds: List[Round], field: str) -> float:
    """A round's ``field`` in reference seconds, taken cell by cell.

    Each cell's time is scaled by the probes run just before and after
    it, and the median over the rounds is taken per cell before adding
    up the cells, so a slow spell of the machine that covers a few cells
    of one round does not move the figure.
    """
    return sum(statistics.median(getattr(one.cells[index], field)
                                 * PROBE_REF_S / one.cells[index].probe_s
                                 for one in rounds)
               for index in range(len(rounds[0].cells)))


def _traced(configs, ctx: Context, outcome: Outcome) -> None:
    mapping = layers.check_coverage(ctx.src)
    reference = _run_round(configs)
    profiler = cProfile.Profile()
    profiler.enable()
    traced = _run_round(configs)
    profiler.disable()
    outcome.attempted = 2 * len(configs)
    _check_digests(outcome, reference, traced, "traced round")
    events_differ = sum(1 for a, b in zip(reference.cells, traced.cells)
                        if a.events != b.events)
    outcome.fail(events_differ, "traced round fired a different number of "
                 "events")
    totals = layers.attribute(profile_stats(profiler), ctx.src, mapping)

    counts = {name: layers.count_calls(totals, functions)
              for name, functions in BOUNDARIES.items()}
    mts_control = layers.crossing(totals, BOUNDARIES["routing.control_packets"],
                                  from_layer="core.mts")
    counts["core.mts.control_packets"] = (None if mts_control is None
                                          else mts_control[0])
    counts["sim.engine.events"] = sum(cell.events for cell in traced.cells)
    counts["sim.engine.fire_groups"] = _sum(traced, "fire_groups")
    peaks = [cell.counters["peak_heap"] for cell in traced.cells]
    counts["sim.engine.peak_heap"] = (None if None in peaks else max(peaks))
    counts["transport.retransmits"] = _sum(traced, "retransmits")
    for name, value in sorted(counts.items()):
        outcome.put(name, value, "count")

    tx = counts["net.channel.transmissions"]
    for name, numerator in (("sim.engine.events_per_tx", "sim.engine.events"),
                            ("net.interface.receptions_per_tx",
                             "net.interface.receptions"),
                            ("net.packet.copies_per_tx",
                             "net.packet.copies")):
        value = counts[numerator]
        outcome.put(name, None if value is None or not tx else value / tx,
                    "ratio")
    refined = _sum(traced, "refined_total")
    candidates = _sum(traced, "candidate_total")
    attr_tx = _sum(traced, "tx")
    outcome.put("net.channel.mean_refined_set",
                None if refined is None or not attr_tx else refined / attr_tx,
                "count")
    outcome.put("net.channel.prefilter_hit_rate",
                None if refined is None or not candidates
                else refined / candidates, "fraction")
    outcome.put("scenario.builder.build_s", traced.build_s, "s")
    outcome.totals.append(totals)
    outcome.traced_s += traced.wall_s
    outcome.untraced_s += reference.wall_s
    outcome.exact = {name: value for name, value in counts.items()
                     if value is not None}
    outcome.exact.update({f"cell{index}": digest
                          for index, digest in enumerate(traced.digests)})


def _sum(one: Round, counter: str) -> Optional[float]:
    values = [cell.counters[counter] for cell in one.cells]
    return None if None in values else sum(values)
