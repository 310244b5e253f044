"""Machine facts the report needs: copy bandwidth, cache size, BLAS threads, RSS."""

from __future__ import annotations

import ctypes
import os
import resource
import time
from pathlib import Path
from typing import Optional

import numpy as np

MIB = 1 << 20
# Used when the last-level cache size cannot be read (the largest LLC of
# the machines this was measured on: 105 MiB).
FALLBACK_LLC_BYTES = 105 * MIB


def llc_bytes() -> int:
    """Size of the largest CPU cache sysfs reports, else the fallback."""
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        scale = {"K": 1 << 10, "M": MIB, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return max(sizes) if sizes else FALLBACK_LLC_BYTES


def copy_bandwidth(repeats: int = 3) -> dict:
    """Best-of-``repeats`` ``np.copyto`` bandwidth over an array 4x the LLC.

    Bytes are counted as one read plus one write of the array per copy.
    """
    llc = llc_bytes()
    nbytes = 4 * llc
    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault both arrays in before timing
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    del src, dst
    return {"llc_bytes": llc, "array_bytes": nbytes, "copy_gbps": 2 * nbytes / best / 1e9}


# A fixed pure-Python loop, and its best-of-3 time on the reference 2-core
# machine in a quiet period.
SPEED_LOOP_ITERATIONS = 600_000
REFERENCE_LOOP_S = 0.040


def speed_sample() -> float:
    """Best of three timings of the fixed loop: how fast the machine runs now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(SPEED_LOOP_ITERATIONS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, read from the library NumPy bundles."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
