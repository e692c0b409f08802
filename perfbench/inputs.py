"""Seeded input generators: cell configs, campaign manifests, query lists.

Every function here is pure: the same arguments give the same inputs, on
any machine, and nothing imports ``repro``.  The program only ever sees
what these functions produce (config dictionaries, a manifest document,
a list of URL paths), which is what lets one copy of the benchmark
drive the parent and the child commit alike.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Mapping

#: The protocols the paper compares; every kernel phase runs all three.
PROTOCOLS = ("MTS", "DSR", "AODV")

#: Cells of the kernel phase of each workload.
#:
#: ``dense_steady``: 100 nodes on the paper's 1 km² field at up to
#: 10 m/s.  Routes rarely break, so per-receiver fan-out (engine,
#: interface, channel, MAC) dominates.
#:
#: ``sparse_churn``: the same population on 2 km x 2 km at up to 20 m/s.
#: Routes break, so floods, RERRs and MTS path checks put routing,
#: transport and mobility on the measured path.
#:
#: Each workload runs fixed ``topologies`` (scenario seeds: node
#: placement, movement and flow endpoints) under all three protocols;
#: the run seed shifts when traffic starts by up to
#: ``TRAFFIC_START_SPREAD``, which changes the events after it but not
#: the amount of traffic.  A random topology per seed made the cost of a
#: run depend mostly on how connected the topology happened to be
#: (events per simulated second varied by 15% between seeds on
#: ``dense_steady`` and by 30% on ``sparse_churn``), hiding the kernel's
#: own speed.  ``dense_steady`` carries one flow, as more flows on one
#: collision domain break routes through MAC contention and flood it;
#: ``sparse_churn`` carries four, so several partitions see traffic.
SIM_SHAPES: Dict[str, Dict[str, object]] = {
    "dense_steady": {
        "topologies": (1, 2),
        "config": {"n_nodes": 100, "field_size": [1000.0, 1000.0],
                   "max_speed": 10.0, "n_flows": 1, "sim_time": 5.0},
    },
    "sparse_churn": {
        "topologies": (1, 2),
        "config": {"n_nodes": 100, "field_size": [2000.0, 2000.0],
                   "max_speed": 20.0, "n_flows": 4, "sim_time": 4.0},
    },
}
#: Traffic starts at this time plus a seeded offset below
#: ``TRAFFIC_START_SPREAD`` seconds (each flow adds its own jitter of up
#: to 0.5 s on top).
TRAFFIC_START = 0.3
TRAFFIC_START_SPREAD = 0.01

#: Shape of the campaign phase's manifest: entries x protocols x speeds x
#: replications tiny cells.  A cell simulates 10 nodes for 0.9 s, which
#: ends before traffic starts at 1 s, so a cell costs its build plus the
#: orchestration around it and the scheduler, cache, store and figure
#: layers dominate.  1,050 cells is past the point where the cache
#: lookup cost grows faster than the cell count (the scheduler's lookup
#: stage took 0.53 s at 600 cells and 2.6 s at 1,200).
CAMPAIGN_ENTRIES = 7
CAMPAIGN_SPEEDS = (2.0, 5.0, 10.0, 15.0, 20.0)
CAMPAIGN_REPLICATIONS = 10
CAMPAIGN_CELL = {"n_nodes": 10, "field_size": [500.0, 500.0],
                 "sim_time": 0.9}

#: Shape of the small campaign published to seed the serve phase's store:
#: short cells with traffic, so every figure and Table I has content.
SERVE_ENTRIES = 3
SERVE_SPEEDS = (2.0, 10.0)
SERVE_CELL = {"n_nodes": 10, "field_size": [500.0, 500.0], "sim_time": 2.0}

#: Route kinds of the serve phase's query mix, drawn uniformly.
QUERY_KINDS = ("campaigns", "index", "entry", "sweep", "figures",
               "figure", "table1", "artifact")


def _rng(*parts: object) -> random.Random:
    """A generator seeded from a stable hash of ``parts``."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sim_cells(workload: str, seed: int) -> List[Dict[str, object]]:
    """Scenario config fields of every cell one round of ``workload`` runs."""
    shape = SIM_SHAPES[workload]
    start = round(TRAFFIC_START + TRAFFIC_START_SPREAD
                  * _rng("sim", workload, seed).random(), 6)
    cells = []
    for topology in shape["topologies"]:
        for protocol in PROTOCOLS:
            config = dict(shape["config"])
            config.update(protocol=protocol, seed=topology,
                          traffic_start=start)
            cells.append(config)
    return cells


def _manifest(name: str, rng: random.Random, entries: int,
              speeds, replications: int,
              cell: Mapping[str, object]) -> Dict[str, object]:
    return {
        "campaign": name,
        "entries": [{
            "name": f"e{index:02d}",
            "profile": "smoke",
            "protocols": list(PROTOCOLS),
            "speeds": list(speeds),
            "replications": replications,
            "base_seed": rng.randrange(1, 2 ** 31),
            "overrides": dict(cell),
        } for index in range(entries)],
    }


def campaign_manifest(seed: int) -> Dict[str, object]:
    """The campaign phase's manifest document."""
    return _manifest("bench-campaign", _rng("campaign", seed),
                     CAMPAIGN_ENTRIES, CAMPAIGN_SPEEDS,
                     CAMPAIGN_REPLICATIONS, CAMPAIGN_CELL)


def serve_manifest(seed: int) -> Dict[str, object]:
    """The manifest whose published store the serve phase queries."""
    return _manifest("bench-serve", _rng("serve", seed), SERVE_ENTRIES,
                     SERVE_SPEEDS, 1, SERVE_CELL)


def serve_queries(seed: int, campaign: str,
                  index: Mapping[str, object], count: int) -> List[str]:
    """``count`` URL paths drawn from the published campaign ``index``.

    ``index`` is the campaign's index document as the store holds it;
    entry names, figure ids and artifact digests come from it, so the
    list covers exactly what was published.
    """
    rng = _rng("queries", seed)
    entries = index["entries"]
    names = sorted(entries)
    digests = sorted({digest for record in entries.values()
                      for digest in _record_digests(record)})
    paths = []
    for _ in range(count):
        kind = rng.choice(QUERY_KINDS)
        entry = rng.choice(names)
        base = f"/campaigns/{campaign}/entries/{entry}"
        if kind == "campaigns":
            paths.append("/campaigns")
        elif kind == "index":
            paths.append(f"/campaigns/{campaign}")
        elif kind == "entry":
            paths.append(base)
        elif kind == "figure":
            figure = rng.choice(sorted(entries[entry]["figures"]))
            paths.append(f"{base}/figures/{figure}")
        elif kind == "artifact":
            paths.append(f"/artifacts/{rng.choice(digests)}")
        else:
            paths.append(f"{base}/{kind}")
    return paths


def _record_digests(record: Mapping[str, object]) -> List[str]:
    """Every blob digest an index entry record references."""
    found = [record["sweep"], record["figures_all"]]
    found.extend(record["figures"].values())
    if record.get("table1") is not None:
        found.append(record["table1"])
    return found
