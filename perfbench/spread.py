"""Run one workload over several seeds and print each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload serve --seeds 1-10 --seconds 20

Each run is ``perfbench/run.py`` in a subprocess, one after another.
The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; a benchmark is steady when each spread stays well
inside the bound ``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import relative_spread  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stdout}{completed.stderr}")
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, metric in sorted(result["metrics"].items()):
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed}: {' '.join(row)}", flush=True)
    for name, series in sorted(values.items()):
        spread = relative_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})")
        print(f"{name}: median {statistics.median(series):.5g} spread "
              f"{spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
