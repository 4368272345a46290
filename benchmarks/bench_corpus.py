"""Engine throughput at corpus scale (hundreds-of-rows covers).

The Table II stand-ins top out around two hundred products, so the
vectorized/compiled tiers were never benchmarked where their asymptotics
actually bite.  This benchmark generates LGSynth-class circuits from the
scale families (:mod:`repro.circuits.scale` — the same generators that
produced the shipped ``benchmarks/corpus/``), runs the identical
Monte-Carlo mapping workload through every engine tier, verifies the
counting statistics stay sample-for-sample identical, and reports
per-engine wall clock plus speedups over the reference object path.
``compiled_vs_vectorized_speedup`` (vectorized seconds over compiled
seconds) gates the default tier against the NumPy one directly: a
speedup over reference alone can stay high while compiled falls behind
vectorized.

Standalone::

    PYTHONPATH=src python benchmarks/bench_corpus.py
    PYTHONPATH=src python benchmarks/bench_corpus.py \
        --products 320 --samples 60 --defect-rate 0.12

or aggregated into the perf trajectory via ``benchmarks/run_all.py
--json`` (suite name ``corpus``).
"""

from __future__ import annotations

import argparse
import time

from repro.circuits.scale import SCALE_FAMILIES
from repro.compiled import compiled_available, compiled_backend
from repro.experiments.monte_carlo import run_mapping_monte_carlo


def _counting_stats(result):
    return {
        name: (o.successes, o.samples, o.total_backtracks, o.invalid_mappings)
        for name, o in result.outcomes.items()
    }


def bench_circuit(
    family: str,
    *,
    inputs: int,
    outputs: int,
    products: int,
    samples: int,
    defect_rate: float,
    algorithms: tuple,
    seed: int,
    workers: int,
) -> dict:
    """Benchmark one scale circuit; returns its per-engine metrics row."""
    function = SCALE_FAMILIES[family](inputs, outputs, products, seed=seed)
    kwargs = dict(
        defect_rate=defect_rate,
        sample_size=samples,
        algorithms=algorithms,
        seed=seed,
        workers=workers,
    )
    engines = ["reference", "vectorized"]
    if compiled_available():
        engines.append("compiled")
    elapsed = {}
    results = {}
    for engine in engines:
        start = time.perf_counter()
        results[engine] = run_mapping_monte_carlo(
            function, engine=engine, **kwargs
        )
        elapsed[engine] = time.perf_counter() - start
    baseline = _counting_stats(results["reference"])
    for engine in engines[1:]:
        if _counting_stats(results[engine]) != baseline:
            raise SystemExit(
                f"FAIL: {function.name}: counting statistics differ between "
                f"reference and {engine}"
            )
    row = {"circuit": function.name, "rows": products}
    for engine in engines:
        row[f"{engine}_seconds"] = round(elapsed[engine], 4)
    for engine in engines[1:]:
        row[f"{engine}_speedup"] = round(
            elapsed["reference"] / elapsed[engine] if elapsed[engine] else 0.0,
            2,
        )
    if "compiled" in elapsed:
        row["compiled_vs_vectorized_speedup"] = round(
            elapsed["vectorized"] / elapsed["compiled"]
            if elapsed["compiled"] else 0.0,
            2,
        )
    timings = " | ".join(
        f"{engine} {elapsed[engine]:7.3f} s" for engine in engines
    )
    print(
        f"{function.name:24s}: {timings} | vectorized "
        f"{row['vectorized_speedup']:5.1f}x | statistics identical"
    )
    return row


def collect(
    *,
    families=("random", "layered"),
    inputs=18,
    outputs=10,
    products=240,
    samples=30,
    defect_rate=0.10,
    algorithms=("hybrid", "exact"),
    seed=7,
    workers=1,
) -> dict:
    """Run the benchmark and return machine-readable metrics."""
    start = time.perf_counter()
    per_circuit = {
        family: bench_circuit(
            family,
            inputs=inputs,
            outputs=outputs,
            products=products,
            samples=samples,
            defect_rate=defect_rate,
            algorithms=tuple(algorithms),
            seed=seed,
            workers=workers,
        )
        for family in families
    }
    rows = list(per_circuit.values())
    metrics = {
        "benchmark": "corpus",
        "families": list(families),
        "inputs": inputs,
        "outputs": outputs,
        "rows": products,
        "samples": samples,
        "defect_rate": defect_rate,
        "seed": seed,
        "compiled_backend": compiled_backend(),
        "per_circuit": per_circuit,
        "elapsed_seconds": round(time.perf_counter() - start, 4),
        "vectorized_seconds": round(
            sum(row["vectorized_seconds"] for row in rows), 4
        ),
        "speedup": round(
            sum(row["vectorized_speedup"] for row in rows) / len(rows), 2
        ),
    }
    if compiled_available():
        metrics["compiled_seconds"] = round(
            sum(row["compiled_seconds"] for row in rows), 4
        )
        metrics["compiled_speedup"] = round(
            sum(row["compiled_speedup"] for row in rows) / len(rows), 2
        )
        metrics["compiled_vs_vectorized_speedup"] = round(
            metrics["vectorized_seconds"] / metrics["compiled_seconds"]
            if metrics["compiled_seconds"] else 0.0,
            2,
        )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--families",
        nargs="+",
        choices=sorted(SCALE_FAMILIES),
        default=["random", "layered"],
        help="scale families to benchmark (default: both)",
    )
    parser.add_argument("--inputs", type=int, default=18)
    parser.add_argument("--outputs", type=int, default=10)
    parser.add_argument(
        "--products",
        type=int,
        default=240,
        help="cover rows per circuit (default: 240, LGSynth-class)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=60,
        help="Monte-Carlo sample size (default: 60)",
    )
    parser.add_argument("--defect-rate", type=float, default=0.10)
    parser.add_argument(
        "--algorithms", nargs="+", default=["hybrid", "exact"],
        help="registered mapper names (default: hybrid exact)",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--require",
        type=float,
        default=None,
        help="exit non-zero unless the mean vectorized speedup reaches this",
    )
    args = parser.parse_args()

    metrics = collect(
        families=tuple(args.families),
        inputs=args.inputs,
        outputs=args.outputs,
        products=args.products,
        samples=args.samples,
        defect_rate=args.defect_rate,
        algorithms=tuple(args.algorithms),
        seed=args.seed,
        workers=args.workers,
    )
    print(
        f"mean vectorized speedup at {args.products} rows: "
        f"{metrics['speedup']:.1f}x"
    )
    if args.require is not None and metrics["speedup"] < args.require:
        raise SystemExit(
            f"FAIL: mean speedup {metrics['speedup']:.1f}x below required "
            f"{args.require}x"
        )


if __name__ == "__main__":
    main()
