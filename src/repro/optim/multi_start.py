"""Batched multi-start SPSA: S independent starts advanced in lock-step.

Restarting the variational loop from several initial points is the standard
defence against QAOA's non-convex landscapes, but running the restarts
sequentially multiplies the Python-dispatch cost that already dominates
shallow-QAOA wall-clock.  Because SPSA only ever needs *objective values*
(never per-point gradients), all ``S`` starts can share each iteration's
perturbation direction and have their ``±`` pairs evaluated as **one**
``(2S, d)`` batch — a single :class:`repro.qaoa.engine.SweepEngine` call
per iteration instead of ``2S`` dispatches.  This is the repo's one SPSA
update loop: :func:`repro.optim.spsa.minimize_spsa` is its ``S = 1`` case.

Determinism contract (relied on by tests and the RQAOA benchmark):

* the perturbation ``delta`` is drawn once per iteration with shape
  ``(d,)`` and shared across starts, so the RNG stream consumed is
  *independent of* ``S``;
* start 0 therefore follows exactly the trajectory that
  :func:`repro.optim.spsa.minimize_spsa` would follow from the same
  ``x0``/``rng`` — with ``S`` starts the best-seen value can only improve
  on the matching single start;
* with or without ``batch_fun`` the *evaluation points* and their
  recording order are identical; results are bitwise equal when
  ``batch_fun`` computes the same floats as ``fun``, and agree to
  reduction-order float noise (~1e-12 over a full run) when it reduces
  differently (e.g. the sweep engine's GEMV-based batch expectation vs
  the scalar dot product).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.optim.base import OptimizationResult, RecordingObjective
from repro.util.rng import RngLike, ensure_rng


def multi_start_spsa(
    fun: Callable[[np.ndarray], float],
    x0s: np.ndarray,
    *,
    maxiter: int = 100,
    a: float = 0.2,
    c: float = 0.1,
    alpha: float = 0.602,
    gamma: float = 0.101,
    A: float | None = None,
    rng: RngLike = None,
    batch_fun: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> OptimizationResult:
    """Minimize ``fun`` with SPSA from every row of ``x0s`` simultaneously.

    Parameters
    ----------
    x0s:
        ``(S, d)`` matrix of initial points (a 1-D vector is treated as a
        single start).  Row 0 reproduces ``minimize_spsa`` exactly under a
        shared ``rng``.
    maxiter:
        *Per-start* evaluation budget, same semantics as
        :func:`repro.optim.spsa.minimize_spsa`: ``maxiter // 2`` lock-step
        iterations at 2 evaluations each — the maximum number of gradient
        steps the budget affords — plus a final evaluation of each start's
        last iterate whenever an evaluation remains (odd budgets, or
        ``maxiter == 1``).  On even budgets the last iterate goes
        unevaluated by design: an extra full iteration is worth more than
        scoring the final point.  Total evaluations are ``<= S * maxiter``.
    batch_fun:
        Optional ``(B, d) -> (B,)`` vectorised objective.  Each iteration
        evaluates the stacked ``[x+, x-]`` pairs of all starts as one
        ``(2S, d)`` call; without it the same points are evaluated
        point-by-point in the same order.

    Returns the best-seen iterate across all starts; ``nfev`` counts
    evaluations across the whole fleet, ``history`` is the winning start's
    trace.
    """
    if maxiter < 1:
        raise ValueError("maxiter must be positive")
    xs = np.array(x0s, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[None, :]
    if xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] < 1:
        raise ValueError(f"x0s must be a (S, d) matrix, got shape {np.shape(x0s)}")
    n_starts, dim = xs.shape
    gen = ensure_rng(rng)
    recorders: List[RecordingObjective] = [
        RecordingObjective(fun) for _ in range(n_starts)
    ]

    def evaluate(points: np.ndarray) -> np.ndarray:
        if batch_fun is None:
            return np.array([float(fun(row)) for row in points], dtype=np.float64)
        values = np.asarray(batch_fun(points), dtype=np.float64)
        if values.shape != (points.shape[0],):
            raise ValueError(
                f"batch_fun returned shape {values.shape}, "
                f"expected ({points.shape[0]},)"
            )
        return values

    stability = float(A) if A is not None else 0.1 * maxiter
    n_iter = maxiter // 2  # two evaluations per start per iteration
    for k in range(n_iter):
        ak = a / (k + 1 + stability) ** alpha
        ck = c / (k + 1) ** gamma
        delta = gen.choice((-1.0, 1.0), size=dim)  # shared across starts
        x_plus = xs + ck * delta
        x_minus = xs - ck * delta
        values = evaluate(np.concatenate([x_plus, x_minus], axis=0))
        f_plus, f_minus = values[:n_starts], values[n_starts:]
        for s in range(n_starts):
            recorders[s].record(x_plus[s], f_plus[s])
            recorders[s].record(x_minus[s], f_minus[s])
        gradient = ((f_plus - f_minus) / (2.0 * ck))[:, None] * (1.0 / delta)
        xs -= ak * gradient
    if 2 * n_iter < maxiter:
        # One evaluation left per start: spend it on the final iterates.
        values = evaluate(xs)
        for s in range(n_starts):
            recorders[s].record(xs[s], values[s])

    best = min(range(n_starts), key=lambda s: (recorders[s].best_f, s))
    winner = recorders[best]
    return OptimizationResult(
        x=winner.best_x,
        fun=winner.best_f,
        nfev=sum(rec.nfev for rec in recorders),
        nit=n_iter,
        success=True,
        message=f"multi-start SPSA completed ({n_starts} starts)",
        history=winner.history,
    )


__all__ = ["multi_start_spsa"]
