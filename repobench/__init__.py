"""The repository benchmark: Table II, multi-level and serve workloads.

Run it with ``python3 repobench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``repobench/README.md`` for the workloads and metrics.
"""
