"""Parallel execution backends for batches of independent jobs.

QAOA² solves all sub-graphs of a level "in parallel over different
(simulated) quantum devices" (paper §3.3 step 3).  This module provides the
execution backends used for that fan-out:

* ``serial``  — in-order execution (deterministic debugging baseline),
* ``thread``  — :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy
  kernels release the GIL so statevector-heavy jobs scale reasonably,
* ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; true
  multi-core parallelism, requires picklable functions/arguments (every
  job in this repo is a module-level function over picklable data, such
  as the QAOA² leaf jobs over ``SolveRequest``s).

Results are always returned in submission order regardless of completion
order, so parallel and serial runs are bit-identical when the per-job RNGs
are pre-spawned (see :func:`repro.util.rng.spawn_rngs`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

BACKENDS = ("serial", "thread", "process")


@dataclass
class ExecutorConfig:
    """Backend selection and sizing for job batches."""

    backend: str = "serial"
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.max_workers is None:
            self.max_workers = max(1, (os.cpu_count() or 2) - 1)


def map_jobs(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    *,
    config: Optional[ExecutorConfig] = None,
) -> List[Any]:
    """Apply ``fn`` to every job, preserving input order.

    ``config`` picks the backend and its width (serial when omitted).
    For the ``process`` backend, ``fn`` must be defined at module level and
    all jobs/results must pickle.
    """
    if config is None:
        config = ExecutorConfig()
    jobs = list(jobs)
    if not jobs:
        return []
    if config.backend == "serial" or len(jobs) == 1:
        return [fn(job) for job in jobs]
    workers = min(config.max_workers, len(jobs))
    if config.backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


__all__ = ["BACKENDS", "ExecutorConfig", "map_jobs"]
