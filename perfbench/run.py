"""Benchmark of the riskcast pipeline: planning, evaluation and training.

    python3 perfbench/run.py --workload conflict --seed 1 --seconds 55 \
        --trace 0

Run from the repository root; riskcast is imported from ./src. The work
of a run is fixed (bench.Sizes), so --seconds is accepted but changes
nothing; BENCHMARK.json gives the seconds a run measures. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from a separate traced run. Lines before it name
every metric with its unit, the plan failures by exception type and a
digest of the rankings, ADE and training losses: two runs of the same code
with the same seed print the same digest. Exits with 2, printing no result,
when the package cannot be imported or a run cannot produce its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "riskcast")):
        print(f"perfbench: no riskcast package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import bench

    try:
        result = bench.run(args.workload, args.seed, bool(args.trace))
    except bench.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for note in result.notes:
        print(note)
    for name, value in result.metrics.items():
        print(f"{name} {value!r} {result.units[name]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
