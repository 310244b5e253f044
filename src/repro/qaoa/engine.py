"""Batched QAOA evaluation engine for parameter sweeps.

Every experiment in the paper — the Fig. 3 grid search, the Table 1 runs,
the QAOA² sub-graph solves of §3.3 — evaluates the QAOA energy at *many*
parameter vectors over the *same* graph.  The per-vector path
(:class:`repro.qaoa.energy.MaxCutEnergy`) pays full Python dispatch per
evaluation; this module amortises it by evolving a whole batch of
statevectors at once.

Batching layout
---------------
A batch of ``B`` parameter vectors (rows of a ``(B, 2p)`` matrix, packed
``[γ_1..γ_p, β_1..β_p]`` like everywhere else in the repo) is simulated as
a single ``(B, 2**n)`` complex128 array: batch index leading, basis index
trailing.  The evolution itself is delegated to a pluggable
:class:`repro.quantum.backend.StatevectorBackend` (``backend=`` knob:
``"auto"`` | a registered name | an instance): ``numpy`` is the
bit-identical reference over the seed kernels (one batched diagonal phase
multiply plus one batched mixer pass per layer), ``fused`` applies the
mixer as ``⌈n/5⌉`` blocked GEMM stages — the default ``auto`` policy
picks it from 14 qubits, where the per-qubit NumPy pass count is the
bottleneck.  Either way the Python interpreter runs ``O(p · n)`` ops per
*batch* instead of per *vector*.

Memory model
------------
Peak working set is two ``(chunk, 2**n)`` complex buffers (states +
phase scratch) ≈ ``32 · chunk · 2**n`` bytes, regardless of how many
parameter vectors are requested: ``energies()`` walks the batch in
chunk-row slices.  By default the chunk width is **backend-advised**:
each sweep asks ``backend.preferred_chunk_size(n, batch=...)``, so the
elementwise ``numpy`` backend keeps the cache-resident sizing (at 14+
qubits an over-wide chunk spills the CPU cache and runs *slower* than
the per-point loop it replaces) while the ``fused`` backend — whose GEMM
stages *want* batch width — gets the wide chunks it tolerates.  Chunking
is strictly an execution detail: results are bit-identical for any chunk
width (pinned in ``tests/test_backends.py``), and an explicit
``chunk_size=`` pins it.
Buffers live in a process-wide pool keyed by shape, so repeated engines
over equal-sized graphs (the QAOA² partition loop) reuse the same
allocations.

Evaluation tiers
----------------
Three tiers, cheapest first, picked automatically where exact energies
suffice:

1. **analytic** (p=1): the closed-form ⟨C⟩(γ, β) of
   :mod:`repro.qaoa.analytic` — O(E·n) per point, *no statevector*, so
   large-graph p=1 angle grids have no 2**n memory wall at all.
2. **spectral** (p=1 grids): mixer-eigenbasis statevector evaluation
   (:meth:`SweepEngine._angle_grid_spectral`), kept as the exact
   statevector cross-check of tier 1.
3. **generic**: chunked ``(B, 2**n)`` statevector batches — any depth,
   and the only tier that can hand back states (``statevectors``).

Consumers
---------
Every QAOA evaluator in the repo now routes through this engine: the
Fig. 3 grid search and angle-grid sweeps, the QAOA² sub-graph option grid
(one engine per sub-graph, pooled buffers shared across equal-sized
partitions — which is also what the Fig. 4 scaling study
``experiments/scaling.py`` rides on), RQAOA's per-elimination rounds
(``qaoa/rqaoa.py``: engine-backed statevector reuse plus one batched
correlation sweep per round), and the multi-start variational loop
(``repro.optim.multi_start.multi_start_spsa`` submits all ± perturbation
pairs of all starts as one ``(2S, 2p)`` batch per iteration via
``QAOASolver(n_starts=...)``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.maxcut import cut_diagonal
from repro.qaoa.analytic import AnalyticP1Energy
from repro.quantum.backend import (
    ScratchPool,
    StatevectorBackend,
    resolve_backend,
    shared_pool,
)
from repro.util.tracing import current_trace

# Cap on the spectral angle-grid path's per-chunk working set (two
# (rows, 2**n) complex buffers: transformed states + WHT scratch).
SPECTRAL_BUDGET_BYTES = 256 * 1024 * 1024


def spectral_row_bytes(n_qubits: int) -> int:
    """Spectral-path working set per γ row: a 2**n complex statevector,
    counted twice (transformed state + ping-pong scratch)."""
    return 2 * (1 << n_qubits) * 16


class SweepEngine:
    """Evaluates QAOA energies/states for batches of parameter vectors.

    Owns one graph's evaluation state: the cut diagonal, built once (the
    dominant setup cost for repeated solves), the resolved backend and the
    analytic tier; :class:`repro.qaoa.energy.MaxCutEnergy` is its pointwise
    face.  Bounds peak memory with ``chunk_size`` — see the module
    docstring for the layout and memory model.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        diagonal: Optional[np.ndarray] = None,
        chunk_size: Optional[int] = None,
        pool: Optional[ScratchPool] = None,
        backend: object = "auto",
    ) -> None:
        if graph.n_nodes < 1:
            raise ValueError("graph must have at least one node")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.graph = graph
        self.n_qubits = graph.n_nodes
        if diagonal is not None:
            if diagonal.shape != (1 << self.n_qubits,):
                raise ValueError("diagonal length does not match the graph")
            # The backends evolve only the top-bit-0 half of the state,
            # which is exact only for a complement-symmetric diagonal.
            if not np.array_equal(diagonal, diagonal[::-1]):
                raise ValueError("diagonal is not complement-symmetric (d[x] != d[~x])")
        # Built lazily: the analytic tier never touches the 2**n diagonal,
        # so a p=1 angle grid on a graph far past the statevector wall must
        # not allocate it as a construction side effect.
        self._diagonal = diagonal
        # None → backend-advised per sweep (see chunk_rows); an explicit
        # value pins the chunk width for every call.
        self.chunk_size = chunk_size
        self.pool = pool if pool is not None else shared_pool()
        # Resolved eagerly (the policy is a pure function of n), so a bad
        # backend name fails at construction, not mid-sweep.
        self.backend: StatevectorBackend = resolve_backend(
            backend, n_qubits=self.n_qubits
        )
        self._analytic: Optional[AnalyticP1Energy] = None

    @property
    def backend_name(self) -> str:
        """The resolved statevector backend's registry name."""
        return self.backend.name

    @property
    def diagonal(self) -> np.ndarray:
        """The graph's 2**n cut diagonal (cached; built on first use by a
        statevector tier — caller-provided diagonals are validated and
        shared eagerly)."""
        if self._diagonal is None:
            # Span hook: the diagonal build is the dominant setup cost of
            # a cold solve (O(E · 2**n)) and worth seeing in a trace.
            with current_trace().span("cut_diagonal", n_qubits=self.n_qubits):
                self._diagonal = cut_diagonal(self.graph)
        return self._diagonal

    @property
    def analytic(self) -> AnalyticP1Energy:
        """The closed-form p=1 evaluator for this graph (built lazily).

        The engine's third evaluation tier: exact F_1 in O(E·n) per point
        with no 2**n statevector at all — see :mod:`repro.qaoa.analytic`.
        """
        if self._analytic is None:
            self._analytic = AnalyticP1Energy(self.graph)
        return self._analytic

    # ------------------------------------------------------------------
    def chunk_rows(self, batch: int) -> int:
        """The chunk width for a sweep of ``batch`` parameter rows.

        An explicit ``chunk_size=`` pins it; otherwise the backend's
        :meth:`~repro.quantum.backend.StatevectorBackend.preferred_chunk_size`
        advice is used.  Either way the result is clamped to
        ``[1, batch]`` (``batch=0`` sweeps still get a width of 1 so the
        chunk walk is well-formed).  Chunking never changes results —
        only working-set size and kernel batch width.
        """
        if self.chunk_size is not None:
            advised = self.chunk_size
        else:
            advised = self.backend.preferred_chunk_size(self.n_qubits, batch=batch)
        if batch > 0:
            advised = min(advised, batch)
        return max(1, int(advised))

    # ------------------------------------------------------------------
    @staticmethod
    def _params_matrix(params_matrix: np.ndarray) -> np.ndarray:
        """Canonicalise to ``(B, 2p)`` — one shared implementation with
        the backend layer, so both raise identical errors."""
        return StatevectorBackend._params_matrix(params_matrix)

    def _evolve_chunk(self, mat: np.ndarray) -> np.ndarray:
        """Evolve one chunk of parameter rows; returns the pooled state
        buffer (valid until the next engine call on the same pool)."""
        # The engine-chunk span: with tracing disabled (the default) the
        # contextvar holds NO_TRACE and this costs one no-op call.
        with current_trace().span(
            "evolve_chunk", rows=mat.shape[0], backend=self.backend.name
        ):
            return self.backend.evolve_batch(self.diagonal, mat, pool=self.pool)

    # ------------------------------------------------------------------
    def energies(self, params_matrix: np.ndarray) -> np.ndarray:
        """F_p(β, γ) for every row of ``params_matrix``; returns ``(B,)``.

        The batch is processed in ``chunk_size`` slices so memory stays
        bounded for arbitrarily large sweeps.
        """
        mat = self._params_matrix(params_matrix)
        chunk = self.chunk_rows(mat.shape[0])
        current_trace().annotate(
            chunk_count=-(-mat.shape[0] // chunk),
            chunk_size=chunk,
        )
        out = np.empty(mat.shape[0], dtype=np.float64)
        for start in range(0, mat.shape[0], chunk):
            stop = min(start + chunk, mat.shape[0])
            states = self._evolve_chunk(mat[start:stop])
            out[start:stop] = self.backend.expectations_batch(states, self.diagonal)
        return out

    def statevectors(self, params_matrix: np.ndarray) -> np.ndarray:
        """|ψ_p⟩ for every row, as a freshly-allocated ``(B, 2**n)`` array.

        Unlike :meth:`energies` this materialises the full batch of states
        (it copies each chunk out of the pooled buffer), so it is meant for
        validation and small batches, not huge sweeps.
        """
        mat = self._params_matrix(params_matrix)
        chunk = self.chunk_rows(mat.shape[0])
        out = np.empty((mat.shape[0], 1 << self.n_qubits), dtype=np.complex128)
        for start in range(0, mat.shape[0], chunk):
            stop = min(start + chunk, mat.shape[0])
            out[start:stop] = self._evolve_chunk(mat[start:stop])
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _angle_grid_axes(
        gammas: np.ndarray, betas: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Validate/canonicalise angle-grid axes to 2-D ``(G, p)``/``(B, p)``.

        1-D axes mean p=1; 2-D axes carry one angle per layer per row.  The
        two axes must agree on p — mixing a 1-D axis with a p≥2 axis (or
        passing higher-rank arrays) raises instead of being silently
        misread as p=1 input, which is what the old code did.
        """
        gammas = np.asarray(gammas, dtype=np.float64)
        betas = np.asarray(betas, dtype=np.float64)
        if gammas.ndim not in (1, 2) or betas.ndim not in (1, 2):
            raise ValueError(
                f"angle axes must be 1-D (p=1) or (rows, p) 2-D arrays, "
                f"got gammas ndim={gammas.ndim}, betas ndim={betas.ndim}"
            )
        if gammas.ndim == 1:
            gammas = gammas[:, None]
        if betas.ndim == 1:
            betas = betas[:, None]
        if gammas.shape[1] != betas.shape[1]:
            raise ValueError(
                f"gammas carry p={gammas.shape[1]} layer(s) per row but "
                f"betas carry p={betas.shape[1]} — both axes must use the "
                f"same ansatz depth"
            )
        if gammas.shape[1] == 0:
            raise ValueError("angle axes must have at least one layer")
        return gammas, betas, gammas.shape[1]

    def angle_grid(
        self,
        gammas: np.ndarray,
        betas: np.ndarray,
        *,
        method: str = "auto",
    ) -> np.ndarray:
        """Energy landscape ``out[i, j] = F_p(γ=gammas[i], β=betas[j])``.

        This is the (γ, β) product grid of the paper's landscape-style
        sweeps, now at any depth: 1-D axes are the classic p=1 landscape;
        ``(G, p)``/``(B, p)`` axes pair row ``i`` of per-layer γs with row
        ``j`` of per-layer βs.

        Evaluation tiers (``method="auto"``):

        * ``analytic`` — p=1 only: the closed form of
          :mod:`repro.qaoa.analytic`, O(E·n) per γ with the β axis an
          outer product.  No statevector, no 2**n memory wall.
        * ``spectral`` — p=1 only: the mixer-eigenbasis statevector path
          (:meth:`_angle_grid_spectral`), kept as the exact-statevector
          cross-check of the analytic tier.
        * ``batched`` — any p: the product grid flattened into one chunked
          generic :meth:`energies` batch.

        ``auto`` picks ``analytic`` for p=1 and ``batched`` otherwise; all
        tiers agree to ~1e-13 (pinned in tests).
        """
        gammas, betas, p = self._angle_grid_axes(gammas, betas)
        n_g, n_b = gammas.shape[0], betas.shape[0]
        if method == "auto":
            method = "analytic" if p == 1 else "batched"
        if method in ("analytic", "spectral") and p != 1:
            raise ValueError(
                f"the {method!r} tier supports p=1 only, got p={p}; use "
                f"method='batched' (or 'auto') for deeper grids"
            )
        if n_g == 0 or n_b == 0:
            return np.zeros((n_g, n_b), dtype=np.float64)
        if method == "analytic":
            return self.analytic.grid(gammas[:, 0], betas[:, 0])
        if method == "spectral":
            return self._angle_grid_spectral(gammas[:, 0], betas[:, 0])
        if method == "batched":
            mat = np.empty((n_g * n_b, 2 * p), dtype=np.float64)
            mat[:, :p] = np.repeat(gammas, n_b, axis=0)
            mat[:, p:] = np.tile(betas, (n_g, 1))
            return self.energies(mat).reshape(n_g, n_b)
        raise ValueError(f"unknown angle-grid method {method!r}")

    def _angle_grid_spectral(
        self, gammas: np.ndarray, betas: np.ndarray
    ) -> np.ndarray:
        """Mixer-eigenbasis grid evaluation.

        With ``|ψ(γ,β)⟩ = U_B(β) |φ_γ⟩`` and
        ``U_B = H^{⊗n} e^{-iβ ΣZ} H^{⊗n}``, each edge observable conjugates
        to ``H Z_a Z_b H = X_a X_b`` — a two-axis bit flip on the
        transformed state ``u_γ = H^{⊗n} φ_γ``.  Splitting the matrix
        element by the flipped bits, the β dependence collapses to a single
        harmonic:

            F(γ, β) = W/2 − Q(γ)/2 − Re[P(γ) · e^{4iβ}]

        where, over edges (a, b, w) with flip bijections between the
        bit-sectors of (x_a, x_b),

            P(γ) = Σ_e w_e Σ_{x_a=x_b=0} ū(x) u(x ⊕ m_e)
            Q(γ) = Σ_e w_e · 2 Re Σ_{x_a=0, x_b=1} ū(x) u(x ⊕ m_e).

        Cost per γ chunk: one WHT plus O(E) masked dot products; every β
        column is then O(1) per grid point.  (This is the same collapse
        that gives the classical p=1 MaxCut formula its cos(4β) harmonic.)
        """
        n = self.n_qubits
        dim = 1 << n
        total_weight = float(np.sum(self.graph.w)) if self.graph.n_edges else 0.0
        e4 = np.exp(4j * betas)
        out = np.empty((len(gammas), len(betas)), dtype=np.float64)
        rows = max(
            1,
            min(
                self.chunk_rows(len(gammas)),
                SPECTRAL_BUDGET_BYTES // spectral_row_bytes(n),
            ),
        )
        for start in range(0, len(gammas), rows):
            stop = min(start + rows, len(gammas))
            m = stop - start
            backend = self.backend
            states = backend.plus_state_batch(
                n, m, out=self.pool.take("states", (m, dim))
            )
            scratch = self.pool.take("phases", (m, dim))
            backend.apply_cost_layer(
                states, self.diagonal, gammas[start:stop], scratch=scratch
            )
            with current_trace().span(
                "walsh_stage", rows=m, backend=backend.name
            ):
                backend.walsh_transform(states, scratch=scratch)
            # Axis layout: axis 1 + (n-1-q) of the (m, 2, ..., 2) view is
            # qubit q (little-endian index convention).
            view = states.reshape((m, *((2,) * n)))
            harmonic = np.zeros(m, dtype=np.complex128)  # P
            constant = np.zeros(m, dtype=np.float64)  # Q
            for a, b, weight in zip(self.graph.u, self.graph.v, self.graph.w, strict=True):
                ax_a = 1 + (n - 1 - int(a))
                ax_b = 1 + (n - 1 - int(b))

                def sector(bit_a: int, bit_b: int) -> np.ndarray:
                    idx = [slice(None)] * (n + 1)
                    idx[ax_a] = bit_a
                    idx[ax_b] = bit_b
                    return view[tuple(idx)]

                both_zero = (
                    (np.conj(sector(0, 0)) * sector(1, 1))
                    .reshape(m, -1)
                    .sum(axis=1)
                )
                mixed = (
                    (np.conj(sector(0, 1)) * sector(1, 0))
                    .reshape(m, -1)
                    .sum(axis=1)
                )
                harmonic += weight * both_zero
                constant += weight * 2.0 * np.real(mixed)
            # u is the unnormalised WHT (factor √dim per appearance; it
            # appears twice in each sector product).
            harmonic /= dim
            constant /= dim
            out[start:stop] = (
                total_weight / 2.0
                - constant[:, None] / 2.0
                - np.real(np.multiply.outer(harmonic, e4))
            )
        return out


__all__ = ["SweepEngine"]
