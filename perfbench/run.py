"""Run one benchmark workload against the checkout this file sits in.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run goes through the campaign, serve and kernel phases (see
``perfbench/pipeline.py``).  ``--trace 0`` is a timed run and prints
every end-to-end metric; ``--trace 1`` is the separate traced run and
prints every per-layer metric.  Human-readable lines come first; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.  Without ``src/repro`` next to this directory
the run stops with exit code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense_steady", "sparse_churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import pipeline
    from perfbench.common import (
        Context, check_repeat, make_scratch, remove_scratch,
    )

    # A terminated run unwinds like an interrupted one, so the server and
    # pool workers are stopped and waited for and the scratch space goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = make_scratch(ROOT)
    ctx = Context(root=ROOT, src=src, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), scratch=scratch)
    try:
        outcome = pipeline.run(args.workload, ctx)
        check_repeat(ctx, args.workload, outcome)
    finally:
        remove_scratch(scratch)

    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    for note in outcome.notes:
        print(note)
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    for name in outcome.missing:
        print(f"{name} missing: not available on this tree")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_ratio {ratio:.6g} fraction ({outcome.failed} failed / "
          f"{outcome.attempted} attempted)")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(
                        outcome.metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
