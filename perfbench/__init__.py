"""End-to-end benchmark of the repro simulator, with a traced per-layer pass.

Run it from the repository root::

    python3 perfbench/run.py --workload dense_steady --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, every metric and how to
read the traced pass.
"""
