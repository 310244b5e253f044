"""Classical optimizers for the variational loop.

``minimize`` dispatches by name; COBYLA (the paper's optimizer, with its
``rhobeg`` knob) is the default.  It is an in-repo port of PRIMA's COBYLA
that evaluates the same points as SciPy's (see :mod:`repro.optim.cobyla`),
so no optimizer here imports ``scipy.optimize``; ``cobyla_steps`` is the
same loop as an ask/tell generator, which ``drive`` runs against a
function.  SPSA and Nelder–Mead are from-scratch implementations used in
the optimizer ablation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.optim.base import OptimizationResult, RecordingObjective, drive
from repro.optim.cobyla import cobyla_steps, minimize_cobyla
from repro.optim.multi_start import multi_start_spsa
from repro.optim.nelder_mead import minimize_nelder_mead
from repro.optim.spsa import minimize_spsa, spsa_perturbation_from_rhobeg
from repro.util.rng import RngLike


def minimize(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    method: str = "cobyla",
    rhobeg: float = 0.5,
    maxiter: int = 100,
    rng: RngLike = None,
    batch_fun: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimizationResult:
    """Minimize ``fun`` starting at ``x0`` with the named backend.

    ``rhobeg`` maps to the analogous initial-step parameter of each backend
    so the paper's grid axis is meaningful for every optimizer.
    ``batch_fun`` (a ``(B, d) -> (B,)`` vectorised objective) is consumed by
    backends that can evaluate several points per step — currently SPSA's
    ± perturbation pair — and ignored by the sequential ones.
    """
    method = method.lower()
    if method == "cobyla":
        return minimize_cobyla(fun, x0, rhobeg=rhobeg, maxiter=maxiter)
    if method == "spsa":
        return minimize_spsa(
            fun,
            x0,
            maxiter=maxiter,
            c=spsa_perturbation_from_rhobeg(rhobeg),
            rng=rng,
            batch_fun=batch_fun,
        )
    if method in ("nelder-mead", "nelder_mead", "nm"):
        return minimize_nelder_mead(fun, x0, maxiter=maxiter, initial_step=rhobeg)
    raise ValueError(f"unknown optimizer {method!r}")


__all__ = [
    "OptimizationResult",
    "RecordingObjective",
    "cobyla_steps",
    "drive",
    "minimize",
    "minimize_cobyla",
    "minimize_spsa",
    "minimize_nelder_mead",
    "multi_start_spsa",
    "spsa_perturbation_from_rhobeg",
]
