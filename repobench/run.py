"""Run one benchmark workload and print its metrics as the last line.

    python3 repobench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes one pass, replays it as direct layer calls (once
untraced, once traced) and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any output was wrong or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table2", "multilevel", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from repobench import harness

    workdir = harness.pin_environment(f"{args.workload}-{args.seed}")
    try:
        return _run(args, workdir)
    except harness.BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        harness.cleanup(workdir)


def _run(args, workdir: Path) -> int:
    from repobench import harness, local, serve

    trace = bool(args.trace)
    tracer = None
    if trace:
        load_s = harness.time_kernel_load()
        if args.workload == "serve":
            metrics, checks, record, tracer = serve.run_traced(args.seed, workdir, load_s)
        else:
            metrics, checks, record, tracer = local.run_traced(
                args.workload, args.seed, workdir, load_s
            )
    elif args.workload == "serve":
        metrics, checks, record = serve.run_untraced(args.seed, args.seconds, workdir)
    else:
        metrics, checks, record = local.run_untraced(
            args.workload, args.seed, args.seconds, workdir
        )
    if not trace:
        record.update(harness.drift_verdict(record["reference_loop_s"]))
        if not record["comparable"]:
            print(
                f"host speed changed during the run (reference loop "
                f"{record['reference_drift']:+.0%}); compare its numbers with care",
                file=sys.stderr,
            )
    record = dict(
        record,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=harness.host_record(),
    )
    return harness.emit(
        workload=args.workload,
        seed=args.seed,
        trace=trace,
        metrics=metrics,
        checks=checks,
        record=record,
        tracer=tracer,
    )


if __name__ == "__main__":
    sys.exit(main())
