"""Repository benchmark: QAOA² time-to-solution and quality, plus a Zipf HTTP stream.

Run from the repository root::

    python3 perfbench/run.py --workload qaoa2_small_leaves --seed 1 --seconds 20 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1 when
an output fails its correctness check and 2 when the program is missing.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("qaoa2_small_leaves", "qaoa2_large_leaves", "zipf_http")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program (src/repro) is missing under {ROOT}", file=sys.stderr)
        return 2
    # One BLAS thread per executor worker: the workloads already run one
    # worker per core, and a second BLAS thread per worker oversubscribes
    # the cores (measured: 3.7 s instead of 6.8 s per large-leaf solve).
    # Set before NumPy is first imported; the report prints the count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    trace = bool(args.trace)
    if args.workload == "zipf_http":
        workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT))
        try:
            outcome = workloads.run_http(args.seed, args.seconds, trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        spec = workloads.QAOA2_WORKLOADS[args.workload]
        outcome = workloads.run_qaoa2(spec, args.seed, args.seconds, trace)

    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    metrics = {
        name: {"value": outcome.metrics[name], "unit": workloads.UNITS[name]}
        for name in names
    }
    for line in outcome.report:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for error in outcome.errors:
        print(f"CORRECTNESS FAILURE: {error}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
