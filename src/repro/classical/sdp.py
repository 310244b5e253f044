"""Semidefinite-programming solvers for the MaxCut relaxation.

The GW algorithm (paper §3.4) needs the solution of

    max  Σ_{(i,j)∈E} w_ij (1 − X_ij) / 2
    s.t. X_ii = 1,  X ⪰ 0.

The paper used cvxpy+SCS; we implement two independent solvers from scratch:

* :func:`solve_sdp_mixing` — low-rank Burer–Monteiro factorisation
  ``X = VᵀV`` with unit-norm columns, optimised by the *mixing method*
  coordinate descent (Wang & Kolter, 2017): v_i ← −g_i/‖g_i‖ with
  g_i = Σ_j w_ij v_j.  For rank k > √(2n) all second-order critical points
  are global optima, so this converges to the SDP optimum in practice and
  runs in O(m·k) per sweep — this is the default and scales to the
  Fig. 4 graph sizes easily.  The sweep keeps the unit vectors node-major,
  one contiguous ``(k,)`` row per node, so an update gathers whole rows;
  the layout rule in its docstring keeps every result bit-identical to the
  column-major loop kept in ``tests/test_sdp.py``.
* :func:`solve_sdp_admm` — dense operator-splitting solver on the full
  matrix variable (projection onto {diag=1} and PSD cones), O(n³) per
  iteration.  Used as an independent reference in the tests.

Both return a factor ``V`` (k×n, unit columns) ready for hyperplane
rounding, plus the relaxation objective (an upper bound on the true
MaxCut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.util.rng import RngLike, ensure_rng


@dataclass
class SDPResult:
    """Factorised SDP solution.

    Attributes
    ----------
    vectors:
        (k, n) array; column i is the unit vector of node i.
    objective:
        Relaxation value Σ w (1 − v_i·v_j) / 2  (≥ true MaxCut).
    iterations:
        Solver sweeps/iterations used.
    converged:
        Whether the tolerance was met within the iteration budget.
    """

    vectors: np.ndarray
    objective: float
    iterations: int
    converged: bool
    method: str = "mixing"

    @property
    def gram(self) -> np.ndarray:
        """The implied PSD matrix X = VᵀV (unit diagonal by construction)."""
        return self.vectors.T @ self.vectors


def _sdp_objective(graph: Graph, vectors: np.ndarray) -> float:
    dots = np.einsum("ki,ki->i", vectors[:, graph.u], vectors[:, graph.v])
    return float(0.5 * np.sum(graph.w * (1.0 - dots)))


def solve_sdp_mixing(
    graph: Graph,
    *,
    rank: Optional[int] = None,
    max_sweeps: int = 500,
    tol: float = 1e-7,
    rng: RngLike = None,
) -> SDPResult:
    """Mixing-method coordinate descent on the Burer–Monteiro factorisation.

    Minimises Σ w_ij v_i·v_j over unit vectors; each node update is the
    exact coordinate minimiser v_i = −g_i/‖g_i‖.  Objective is monotone
    non-increasing, giving a clean convergence criterion.

    The sweep stores the vectors node-major: ``rows`` is the ``(n, k)``
    C-ordered transpose of the seeded, normalised ``(k, n)`` draw, and each
    node's row view, neighbour slice and weight slice are built once per
    call.  Results are bit-identical to updating the columns of the
    ``(k, n)`` array in place because every operation keeps its operands:
    the transposed row gather ``rows.take(nbr, axis=0).T`` (``rows[nbr].T``
    with less dispatch) is byte for byte the F-ordered ``(k, deg)`` block
    that ``vectors[:, nbr]`` gathers, so ``g`` is the same GEMV; ``‖g‖`` is
    ``sqrt(g·g)``, which is what ``np.linalg.norm`` computes for a 1-D
    float vector; ``g / (−‖g‖)`` equals ``(−g) / ‖g‖`` in IEEE arithmetic;
    and the objective reads ``rows.T``, whose column gathers are laid out
    as before.  ``tests/test_sdp.py::TestColumnMajorParity`` pins this
    against the column-major loop.  The returned ``vectors`` is C-ordered
    ``(k, n)``.
    """
    n = graph.n_nodes
    gen = ensure_rng(rng)
    if n == 0:
        return SDPResult(np.zeros((1, 0)), 0.0, 0, True)
    k = rank if rank is not None else int(np.ceil(np.sqrt(2.0 * n))) + 1
    k = max(k, 2)
    vectors = gen.standard_normal((k, n))
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    if graph.n_edges == 0:
        return SDPResult(vectors, 0.0, 0, True)

    rows = np.ascontiguousarray(vectors.T)
    indptr, indices, weights = graph.neighbors()
    bounds = indptr.tolist()
    updates = [
        (rows[i], indices[start:stop], weights[start:stop])
        for i, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        if start != stop
    ]
    prev_obj = _sdp_objective(graph, rows.T)
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        for row, nbr, w in updates:
            g = rows.take(nbr, axis=0).T @ w
            norm = math.sqrt(g.dot(g))
            if norm > 1e-14:
                np.divide(g, -norm, out=row)
        obj = _sdp_objective(graph, rows.T)
        if abs(obj - prev_obj) <= tol * max(1.0, abs(obj)):
            converged = True
            prev_obj = obj
            break
        prev_obj = obj
    vectors[...] = rows.T
    return SDPResult(vectors, prev_obj, sweeps, converged, "mixing")


def solve_sdp_admm(
    graph: Graph,
    *,
    rho: float = 1.0,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> SDPResult:
    """Dense ADMM reference solver.

    Splitting: minimise ⟨C, X⟩ over {diag(X)=1} ∩ {X ⪰ 0} with C = W/2
    (so that the cut objective Σ w(1−X_ij)/2 = W_tot/2 − ⟨C, X⟩ is
    maximised).  X-update projects onto the diagonal constraint,
    Z-update onto the PSD cone via eigendecomposition.
    """
    n = graph.n_nodes
    if n == 0:
        return SDPResult(np.zeros((1, 0)), 0.0, 0, True, "admm")
    C = graph.adjacency() / 2.0
    X = np.eye(n)
    Z = np.eye(n)
    U = np.zeros((n, n))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        X = Z - U - C / rho
        np.fill_diagonal(X, 1.0)
        vals, vecs = np.linalg.eigh(X + U)
        vals = np.clip(vals, 0.0, None)
        Z_new = (vecs * vals) @ vecs.T
        primal = np.linalg.norm(X - Z_new)
        dual = rho * np.linalg.norm(Z_new - Z)
        Z = Z_new
        U = U + X - Z
        if primal <= tol * n and dual <= tol * n:
            converged = True
            break
    # Factorise the PSD iterate and renormalise columns to unit length.
    vals, vecs = np.linalg.eigh(Z)
    vals = np.clip(vals, 0.0, None)
    order = np.argsort(-vals)
    keep = order[: max(1, int(np.sum(vals > 1e-10)))]
    V = (vecs[:, keep] * np.sqrt(vals[keep])).T  # (k, n)
    norms = np.linalg.norm(V, axis=0)
    norms[norms < 1e-12] = 1.0
    V = V / norms
    return SDPResult(V, _sdp_objective(graph, V), it, converged, "admm")


def solve_sdp(graph: Graph, *, method: str = "mixing", **kwargs) -> SDPResult:
    """Dispatch: ``mixing`` (default, scalable) or ``admm`` (dense reference)."""
    if method == "mixing":
        return solve_sdp_mixing(graph, **kwargs)
    if method == "admm":
        return solve_sdp_admm(graph, **kwargs)
    raise ValueError(f"unknown SDP method {method!r}")


__all__ = ["SDPResult", "solve_sdp", "solve_sdp_mixing", "solve_sdp_admm"]
