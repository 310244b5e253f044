"""Closed-form p=1 QAOA MaxCut energies — no statevector required.

For depth p=1 the QAOA expectation ⟨C⟩(γ, β) is known in closed form
(Wang et al., PRA 97, 022304; Ozaeta et al. for the weighted case).  With
the repo's conventions — cost layer ``exp(-iγ·C)`` over the cut diagonal,
mixer ``exp(-iβ ΣX)`` — and weighted adjacency ``A`` the per-edge pieces
collapse to two β harmonics:

    F(γ, β) = W/2 + sin(4β) · S(γ) + sin²(2β) · T(γ)

    S(γ) = ¼ Σ_e w_e sin(γ w_e) · (Π_u + Π_v)
    T(γ) = ¼ Σ_e w_e · (Π⁺ − Π⁻)

    Π_u  = Π_{k ≠ v} cos(γ A[u, k])        (and symmetrically Π_v)
    Π^± = Π_{k ∉ {u, v}} cos(γ (A[u, k] ± A[v, k]))

Non-edges contribute ``cos(0) = 1``, so the products can be evaluated two
ways, selected by the ``mode`` knob:

* **dense** — stream every product over a dense adjacency row, masking
  only the endpoint columns: O(E·n) per γ, best when most node pairs are
  edges anyway;
* **csr** — gather only the *actual* neighbour entries: per edge, the
  Π products run over CSR neighbour segments (``Π_u`` over N(u)∖{v};
  ``Π±`` over the entries of the row-sum/row-difference sparse matrices
  ``A[u,:] ± A[v,:]`` with the endpoint columns zeroed — absent
  neighbours are implicit ``cos(0) = 1``), reduced with one
  ``multiply.reduceat`` per segment block.  Cost: O(E·deg) per γ, the
  true sparse complexity, which is what large sparse graphs (≳10⁴ nodes
  at low density) need.

``mode="auto"`` picks ``csr`` at or below ``CSR_DENSITY_THRESHOLD`` and
``dense`` above it; both paths agree to ~1e-12 (pinned in tests).  One
energy costs O(E·deg..E·n) — *independent of 2^n* — which removes the
statevector memory wall from large sub-graph p=1 sweeps entirely.  The β
axis separates from the γ axis, so a full (γ, β) angle grid costs one S/T
pass over the γ axis plus an outer product.

:class:`AnalyticP1Energy` is the third :class:`repro.qaoa.engine.SweepEngine`
evaluation tier (analytic p=1 → spectral grid → chunked generic batches) and
backs the p=1 objectives of :class:`repro.qaoa.solver.QAOASolver`, the QAOA²
sub-graph option grid, and RQAOA's round-0 angle seeding.  Agreement with
the statevector paths is pinned to ≤1e-9 in ``tests/test_analytic_p1.py``
and measured by ``benchmarks/bench_analytic_p1.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import Graph

# Target size of the (γ-chunk, edge-chunk, n) cosine scratch block.  The
# terms pass streams four such products per chunk; past a few MiB wider
# chunks stop helping (same ufunc traffic, colder cache).
TERMS_BUDGET_BYTES = 8 * 1024 * 1024
# mode="auto" switches from the dense-row path to the CSR neighbour-gather
# path at or below this edge density: the gather's O(E·deg) work wins once
# neighbour lists are meaningfully shorter than dense rows, while above it
# the dense path's simpler memory traffic is faster.
CSR_DENSITY_THRESHOLD = 0.25


def angle_axes(resolution: int = 24) -> Tuple[np.ndarray, np.ndarray]:
    """Standard p=1 landscape axes: γ ∈ [0, π), β ∈ [0, π/2).

    Both unitaries are periodic over these open ranges for integer-weight
    graphs, so the grid covers the landscape without duplicating the
    endpoint row/column.  The RQAOA seeding grid and
    :func:`repro.experiments.gridsearch.run_angle_grid`'s default axes are
    this grid.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    gammas = np.linspace(0.0, np.pi, resolution, endpoint=False)
    betas = np.linspace(0.0, np.pi / 2, resolution, endpoint=False)
    return gammas, betas


class AnalyticP1Energy:
    """Vectorised closed-form p=1 evaluator for one graph.

    Caches either the dense endpoint adjacency rows (``mode="dense"``) or
    CSR neighbour-gather segments (``mode="csr"``) once — lazily, on the
    first evaluation — and every call is then pure ufunc work, chunked
    over (γ, edges) so the scratch block stays within
    ``TERMS_BUDGET_BYTES`` regardless of grid size.  ``mode="auto"``
    (default) picks the CSR path for graphs at or below
    ``CSR_DENSITY_THRESHOLD`` edge density.
    """

    def __init__(self, graph: Graph, *, mode: str = "auto") -> None:
        if graph.n_nodes < 1:
            raise ValueError("graph must have at least one node")
        if mode not in ("auto", "dense", "csr"):
            raise ValueError(
                f"unknown analytic mode {mode!r}; expected 'auto', 'dense' or 'csr'"
            )
        self.graph = graph
        self.mode = mode
        self.n_nodes = graph.n_nodes
        self.total_weight = float(graph.w.sum()) if graph.n_edges else 0.0
        self._u = graph.u
        self._v = graph.v
        self._w = graph.w
        self._dense_rows = None  # built lazily by _ensure_dense
        self._csr_terms = None  # built lazily by _ensure_csr

    @property
    def resolved_mode(self) -> str:
        """The evaluation path ``mode="auto"`` resolves to for this graph."""
        if self.mode != "auto":
            return self.mode
        return "csr" if self.graph.density <= CSR_DENSITY_THRESHOLD else "dense"

    # ------------------------------------------------------------------
    def _ensure_dense(self):
        """(E, n) dense rows for both endpoints of every edge; sums and
        differences feed the Π± products."""
        if self._dense_rows is None:
            adjacency = self.graph.adjacency()
            rows_u = adjacency[self._u]
            rows_v = adjacency[self._v]
            self._dense_rows = (rows_u, rows_v, rows_u + rows_v, rows_u - rows_v)
        return self._dense_rows

    def _ensure_csr(self):
        """Neighbour-gather segments: per-edge CSR slices for the four Π
        products, endpoint entries zeroed in place (``cos(γ·0) = 1`` is
        the closed form's mask identity, so zeroing a weight excludes the
        column without changing segment shapes)."""
        if self._csr_terms is None:
            adjacency = self.graph.adjacency_sparse().tocsr()
            rows_u = adjacency[self._u]
            rows_v = adjacency[self._v]

            def masked(matrix, *cols):
                matrix = matrix.copy()
                matrix.sort_indices()
                row_of = np.repeat(
                    np.arange(matrix.shape[0]), np.diff(matrix.indptr)
                )
                drop = np.zeros(len(matrix.data), dtype=bool)
                for col in cols:
                    drop |= matrix.indices == col[row_of]
                matrix.data[drop] = 0.0
                return matrix.data, matrix.indptr.astype(np.int64)

            self._csr_terms = (
                masked(rows_u, self._v),  # Π_u over N(u) \ {v}
                masked(rows_v, self._u),  # Π_v over N(v) \ {u}
                masked(rows_u + rows_v, self._u, self._v),  # Π⁺
                masked(rows_u - rows_v, self._u, self._v),  # Π⁻
            )
        return self._csr_terms

    # ------------------------------------------------------------------
    def terms(self, gammas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The β-independent harmonics ``(S(γ), T(γ))`` for a 1-D γ axis.

        ``F(γ, β) = W/2 + sin(4β)·S(γ) + sin²(2β)·T(γ)`` — callers close
        the β axis themselves (outer product for grids, elementwise for
        per-row batches).
        """
        gammas = np.asarray(gammas, dtype=np.float64)
        if gammas.ndim != 1:
            raise ValueError(f"gammas must be 1-D, got ndim={gammas.ndim}")
        n_edges = self.graph.n_edges
        s_term = np.zeros(len(gammas), dtype=np.float64)
        t_term = np.zeros(len(gammas), dtype=np.float64)
        if n_edges == 0 or len(gammas) == 0:
            return s_term, t_term
        if self.resolved_mode == "csr":
            self._terms_csr(gammas, s_term, t_term)
        else:
            self._terms_dense(gammas, s_term, t_term)
        return s_term, t_term

    def _terms_dense(
        self, gammas: np.ndarray, s_term: np.ndarray, t_term: np.ndarray
    ) -> None:
        n = self.n_nodes
        n_edges = self.graph.n_edges
        self._ensure_dense()
        edge_rows = max(1, TERMS_BUDGET_BYTES // (8 * n * max(1, len(gammas))))
        gamma_rows = len(gammas)
        if edge_rows < 4 and n_edges >= 4:
            # Very wide γ axes: chunk γ instead so at least a few edges
            # vectorise per pass.
            edge_rows = 4
            gamma_rows = max(1, TERMS_BUDGET_BYTES // (8 * n * edge_rows))
        for g0 in range(0, len(gammas), gamma_rows):
            g1 = min(g0 + gamma_rows, len(gammas))
            gamma_chunk = gammas[g0:g1]
            for e0 in range(0, n_edges, edge_rows):
                e1 = min(e0 + edge_rows, n_edges)
                s_part, t_part = self._terms_block(gamma_chunk, e0, e1)
                s_term[g0:g1] += s_part
                t_term[g0:g1] += t_part

    # ------------------------------------------------------------------
    def _terms_csr(
        self, gammas: np.ndarray, s_term: np.ndarray, t_term: np.ndarray
    ) -> None:
        """Neighbour-gather evaluation: O(E·deg) work per γ.

        Work per (γ-chunk, edge-block): four cosine passes over the
        blocks' gathered neighbour entries and one ``multiply.reduceat``
        segment reduction each — no dense (E, n) scratch at all.
        """
        structures = self._ensure_csr()
        n_edges = self.graph.n_edges
        nnz_per_edge = sum(np.diff(ptr) for _, ptr in structures)
        cum_nnz = np.concatenate(([0], np.cumsum(nnz_per_edge)))
        budget_entries = max(1, TERMS_BUDGET_BYTES // 8)
        max_edge_nnz = int(nnz_per_edge.max())
        gamma_rows = len(gammas)
        if gamma_rows * max_edge_nnz > budget_entries:
            gamma_rows = max(1, budget_entries // max(1, max_edge_nnz))
        block_entries = max(budget_entries // gamma_rows, max_edge_nnz)
        e0 = 0
        while e0 < n_edges:
            e1 = int(
                np.searchsorted(cum_nnz, cum_nnz[e0] + block_entries, side="right")
            ) - 1
            e1 = min(max(e1, e0 + 1), n_edges)
            weights = self._w[e0:e1]
            for g0 in range(0, len(gammas), gamma_rows):
                g1 = min(g0 + gamma_rows, len(gammas))
                gamma_chunk = gammas[g0:g1]
                pi_u = self._segment_products(gamma_chunk, structures[0], e0, e1)
                pi_v = self._segment_products(gamma_chunk, structures[1], e0, e1)
                sin_gw = np.sin(np.multiply.outer(gamma_chunk, weights))
                s_term[g0:g1] += 0.25 * (
                    (weights * sin_gw) * (pi_u + pi_v)
                ).sum(axis=1)
                pi_plus = self._segment_products(gamma_chunk, structures[2], e0, e1)
                pi_minus = self._segment_products(gamma_chunk, structures[3], e0, e1)
                t_term[g0:g1] += 0.25 * (weights * (pi_plus - pi_minus)).sum(axis=1)
            e0 = e1

    @staticmethod
    def _segment_products(
        gammas: np.ndarray, structure, e0: int, e1: int
    ) -> np.ndarray:
        """``out[g, e] = Π_k cos(γ_g · data[k])`` over edge ``e``'s segment.

        A sentinel 1.0 column keeps ``reduceat`` well-defined for trailing
        or empty segments (empty ⇒ product over nothing ⇒ 1).
        """
        data, indptr = structure
        lo, hi = indptr[e0], indptr[e1]
        seg = data[lo:hi]
        starts = (indptr[e0:e1] - lo).astype(np.intp)
        scratch = np.empty((len(gammas), len(seg) + 1))
        np.multiply.outer(gammas, seg, out=scratch[:, :-1])
        np.cos(scratch[:, :-1], out=scratch[:, :-1])
        scratch[:, -1] = 1.0
        out = np.multiply.reduceat(scratch, starts, axis=1)
        empty = indptr[e0 + 1 : e1 + 1] == indptr[e0:e1]
        if empty.any():
            out[:, empty] = 1.0
        return out

    def _terms_block(
        self, gammas: np.ndarray, e0: int, e1: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """S/T contributions of edges ``[e0, e1)`` for one γ chunk
        (dense-row path)."""
        rows_u, rows_v, rows_sum, rows_diff = self._dense_rows
        edge_idx = np.arange(e1 - e0)
        u_cols = self._u[e0:e1]
        v_cols = self._v[e0:e1]
        weights = self._w[e0:e1]
        scratch = np.empty((len(gammas), e1 - e0, self.n_nodes))

        def masked_product(rows: np.ndarray, *cols: np.ndarray) -> np.ndarray:
            # Π_k cos(γ · rows[e, k]) with the given endpoint columns
            # forced to 1 (the closed form excludes them; non-edges are
            # already cos(0) = 1).
            np.multiply.outer(gammas, rows, out=scratch)
            np.cos(scratch, out=scratch)
            for col in cols:
                scratch[:, edge_idx, col] = 1.0
            return scratch.prod(axis=2)

        pi_u = masked_product(rows_u[e0:e1], v_cols)
        pi_v = masked_product(rows_v[e0:e1], u_cols)
        sin_gw = np.sin(np.multiply.outer(gammas, weights))
        s_part = 0.25 * ((weights * sin_gw) * (pi_u + pi_v)).sum(axis=1)
        pi_plus = masked_product(rows_sum[e0:e1], u_cols, v_cols)
        pi_minus = masked_product(rows_diff[e0:e1], u_cols, v_cols)
        t_part = 0.25 * (weights * (pi_plus - pi_minus)).sum(axis=1)
        return s_part, t_part

    # ------------------------------------------------------------------
    def grid(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Full landscape: ``out[i, j] = F_1(γ=gammas[i], β=betas[j])``."""
        gammas = np.asarray(gammas, dtype=np.float64)
        betas = np.asarray(betas, dtype=np.float64)
        if gammas.ndim != 1 or betas.ndim != 1:
            raise ValueError("gammas and betas must be 1-D angle axes")
        s_term, t_term = self.terms(gammas)
        return (
            self.total_weight / 2.0
            + np.multiply.outer(s_term, np.sin(4.0 * betas))
            + np.multiply.outer(t_term, np.sin(2.0 * betas) ** 2)
        )

    def energies(self, params_matrix: np.ndarray) -> np.ndarray:
        """F_1 for every ``[γ, β]`` row of a ``(B, 2)`` matrix."""
        mat = np.asarray(params_matrix, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.ndim != 2 or mat.shape[1] != 2:
            raise ValueError(
                f"analytic path is p=1 only: expected (B, 2) parameter "
                f"rows, got shape {mat.shape}"
            )
        s_term, t_term = self.terms(mat[:, 0])
        betas = mat[:, 1]
        return (
            self.total_weight / 2.0
            + np.sin(4.0 * betas) * s_term
            + np.sin(2.0 * betas) ** 2 * t_term
        )

    def energy(self, params: np.ndarray) -> float:
        """Single ``[γ, β]`` convenience wrapper over :meth:`energies`."""
        return float(self.energies(np.asarray(params))[0])

    # ------------------------------------------------------------------
    def best_seed(self, resolution: int = 16) -> Tuple[np.ndarray, float]:
        """Best ``[γ, β]`` over the standard axes, plus its energy.

        The statevector-free warm start used by RQAOA's round-0 angle
        seeding; flat argmax (first occurrence) so the seed is
        deterministic for degenerate landscapes.
        """
        gammas, betas = angle_axes(resolution)
        grid = self.grid(gammas, betas)
        flat = int(np.argmax(grid))
        i, j = flat // len(betas), flat % len(betas)
        seed = np.array([gammas[i], betas[j]], dtype=np.float64)
        return seed, float(grid[i, j])


__all__ = [
    "AnalyticP1Energy",
    "CSR_DENSITY_THRESHOLD",
    "TERMS_BUDGET_BYTES",
    "angle_axes",
]
