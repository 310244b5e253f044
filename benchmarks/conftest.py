"""Shared benchmark configuration.

Every benchmark runs at laptop scale by default and prints the paper-style
table it regenerates.  Set ``REPRO_PAPER_SCALE=1`` to run the published
parameter ranges (documented per bench; some take hours and the Table-1
tier additionally needs tens of GiB).

Quick modes additionally write a shared-schema regression record
(``BENCH_<name>.json``: ``{name, n, p, seconds, checksum}``) that
``check_regression.py`` compares against the committed baselines under
``baselines/`` — see ``benchmarks/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Tuple

import pytest

REPORTS_DIR = Path(__file__).parent / "reports"
BASELINES_DIR = Path(__file__).parent / "baselines"
# Floats entering a checksum are rounded to this many decimals so the
# digest survives last-bit reduction-order differences across NumPy/BLAS
# builds while still pinning every semantically meaningful digit.
CHECKSUM_DECIMALS = 6


def bench_checksum(payload) -> str:
    """Stable short digest of a benchmark's result payload.

    Floats are rounded (see ``CHECKSUM_DECIMALS``), arrays listified, and
    dict keys sorted before hashing, so equal results hash equally across
    platforms and dict orderings.  Keep payloads to a handful of summary
    values (best index, cut, max deviation) — hashing full float grids
    makes the digest fragile to sub-tolerance kernel noise.
    """

    import numbers

    def canonical(obj):
        if isinstance(obj, numbers.Integral):  # bool, int, np.integer
            return int(obj)
        if isinstance(obj, numbers.Real):  # float, np.floating
            return round(float(obj), CHECKSUM_DECIMALS)
        if isinstance(obj, dict):
            return {str(k): canonical(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)) or hasattr(obj, "tolist"):
            seq = obj.tolist() if hasattr(obj, "tolist") else obj
            return [canonical(item) for item in seq]
        return obj

    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_bench_record(
    name: str, *, n: int, p: int, seconds: float, checksum: str
) -> Path:
    """Persist the shared-schema regression record for one quick bench."""
    record = {
        "name": name,
        "n": int(n),
        "p": int(p),
        "seconds": float(seconds),
        "checksum": checksum,
    }
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def best_of(fn) -> float:
    """Seconds taken by the fastest of three calls of ``fn``, after one
    warm-up call (allocations, pooled buffers, cached tables)."""
    fn()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def paired_ratio(numerator, denominator, *, pairs: int) -> Tuple[float, float, float]:
    """The median over ``pairs`` interleaved pairs of the ratio
    ``seconds(numerator()) / seconds(denominator())``, plus each side's
    fastest call.

    Both calls of a pair run back to back, and the side that goes first
    alternates, so a drift in host speed lands on both sides of a ratio
    and neither side always runs warm.  One warm-up call of each comes
    first.  The median ignores the pairs a busy host interrupted, which
    a ratio of two minima or two single runs does not.
    """
    fns = (numerator, denominator)
    for fn in fns:
        fn()
    ratios = []
    fastest = [float("inf"), float("inf")]
    for k in range(pairs):
        seconds = [0.0, 0.0]
        for side in (k % 2, 1 - k % 2):
            start = time.perf_counter()
            fns[side]()
            seconds[side] = time.perf_counter() - start
            fastest[side] = min(fastest[side], seconds[side])
        ratios.append(seconds[0] / seconds[1])
    return statistics.median(ratios), fastest[0], fastest[1]


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "0") == "1"


def emit_report(name: str, text: str) -> None:
    """Print a paper-style table AND persist it under benchmarks/reports/.

    pytest captures stdout on passing tests, so the artifact file is the
    durable record cited by EXPERIMENTS.md.
    """
    print()
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments are not
    micro-benchmarks; repeating a minutes-long sweep is pointless)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
