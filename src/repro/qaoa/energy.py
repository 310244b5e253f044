"""Fast QAOA energy evaluation for MaxCut.

The QAOA cost unitary ``exp(-iγ H_C)`` is *diagonal* in the computational
basis and the MaxCut H_C diagonal is the cut-value vector, so one QAOA
objective evaluation is: one elementwise complex exponential multiply per
layer plus ``n`` vectorised RX passes for the mixer.  This is the hot loop
of every experiment in the paper; no circuit objects are built inside it.
The circuit-level simulator path (via :mod:`repro.synth`) computes the same
state and is cross-validated in the tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.maxcut import cut_diagonal
from repro.quantum.backend import resolve_backend
from repro.quantum.statevector import probabilities
from repro.util.rng import RngLike, ensure_rng


class MaxCutEnergy:
    """Caches the cut diagonal of a graph and evaluates QAOA states/energies.

    Parameters are packed ``[γ_1..γ_p, β_1..β_p]`` (gammas first), matching
    :func:`repro.synth.synthesis.qaoa_ansatz`.

    ``backend`` selects the statevector-evolution backend for both the
    pointwise path and the lazily built sweep engine (``"auto"``, a
    registered name, or an instance — see :mod:`repro.quantum.backend`).
    ``None`` (the default) pins the bit-identical ``numpy`` reference, so
    a bare ``MaxCutEnergy(graph)`` reproduces the seed implementation
    exactly at any size.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        diagonal: Optional[np.ndarray] = None,
        backend: Optional[object] = None,
    ) -> None:
        if graph.n_nodes < 1:
            raise ValueError("graph must have at least one node")
        self.graph = graph
        self.n_qubits = graph.n_nodes
        # ``diagonal`` lets a caller that already built the cut diagonal
        # (e.g. a SweepEngine solving the same graph repeatedly) share it —
        # constructing it is the dominant per-solve setup cost.
        if diagonal is None:
            diagonal = cut_diagonal(graph)
        elif diagonal.shape != (1 << self.n_qubits,):
            raise ValueError("diagonal length does not match the graph")
        elif not np.array_equal(diagonal, diagonal[::-1]):
            # The backends evolve only the top-bit-0 half of the state,
            # which is exact only for a complement-symmetric diagonal.
            raise ValueError("diagonal is not complement-symmetric (d[x] != d[~x])")
        self.diagonal = diagonal
        self._backend_spec = backend
        self.backend = resolve_backend(
            "numpy" if backend is None else backend, n_qubits=self.n_qubits
        )
        self._engine = None  # lazy SweepEngine for the batch path
        self._analytic = None  # lazy AnalyticP1Energy for the p=1 fast path

    # ------------------------------------------------------------------
    def split_params(self, params: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        params = np.asarray(params, dtype=np.float64)
        if len(params) % 2 != 0:
            raise ValueError("parameter vector must have even length (γs then βs)")
        p = len(params) // 2
        return params[:p], params[p:]

    def statevector(self, params: np.ndarray) -> np.ndarray:
        """|ψ_p(β, γ)⟩ via the configured backend (paper Eq. 2)."""
        self.split_params(params)  # shape validation, same errors as ever
        return self.backend.evolve_state(self.diagonal, np.asarray(params, float))

    def expectation(self, params: np.ndarray) -> float:
        """Exact F_p(β, γ) = ⟨ψ|H_C|ψ⟩ (paper Eq. 3)."""
        state = self.statevector(params)
        return float(np.dot(probabilities(state), self.diagonal))

    def sampled_expectation(
        self, params: np.ndarray, shots: int, rng: RngLike = None
    ) -> float:
        """Shot-noise estimate of F_p using ``shots`` samples (paper: 4096)."""
        gen = ensure_rng(rng)
        state = self.statevector(params)
        probs = probabilities(state)
        probs /= probs.sum()
        idx = gen.choice(len(probs), size=shots, p=probs)
        return float(self.diagonal[idx].mean())

    def expectation_from_state(self, state: np.ndarray) -> float:
        return float(np.dot(probabilities(state), self.diagonal))

    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        """Back the batch path with a caller-provided SweepEngine (so its
        chunk_size/pool configuration is honoured, not just its diagonal)."""
        if engine.graph is not self.graph:
            raise ValueError("engine was built for a different graph")
        self._engine = engine

    def engine(self, **engine_kwargs) -> "SweepEngine":
        """The batched evaluator for this graph (built lazily, shares the
        cached diagonal and the backend spec).  See
        :class:`repro.qaoa.engine.SweepEngine`."""
        from repro.qaoa.engine import SweepEngine

        if self._engine is None or engine_kwargs:
            transient = bool(engine_kwargs)
            # The default spec (None) pins numpy for the engine too, so a
            # bare MaxCutEnergy keeps its seed-identical contract on both
            # the pointwise and batched paths; auto/fused arrive only via
            # an explicit backend= (as QAOASolver passes).
            engine_kwargs.setdefault(
                "backend",
                "numpy" if self._backend_spec is None else self._backend_spec,
            )
            engine = SweepEngine(self.graph, diagonal=self.diagonal, **engine_kwargs)
            if transient:
                return engine
            self._engine = engine
        return self._engine

    def energies_batch(self, params_matrix: np.ndarray) -> np.ndarray:
        """F_p for every row of a ``(B, 2p)`` parameter matrix at once.

        Delegates to the chunked :class:`~repro.qaoa.engine.SweepEngine`;
        agrees elementwise with :meth:`expectation` per row (property-tested
        in ``tests/test_batched_statevector.py``).
        """
        return self.engine().energies(params_matrix)

    def statevectors_batch(self, params_matrix: np.ndarray) -> np.ndarray:
        """|ψ_p⟩ for every row of a ``(B, 2p)`` parameter matrix."""
        return self.engine().statevectors(params_matrix)

    # ------------------------------------------------------------------
    @property
    def analytic(self):
        """Closed-form p=1 evaluator for this graph (lazy; shares the
        attached engine's instance when one is present).  See
        :class:`repro.qaoa.analytic.AnalyticP1Energy`."""
        if self._engine is not None:
            return self._engine.analytic
        if self._analytic is None:
            from repro.qaoa.analytic import AnalyticP1Energy

            self._analytic = AnalyticP1Energy(self.graph)
        return self._analytic

    def analytic_expectation(self, params: np.ndarray) -> float:
        """Exact F_1(γ, β) via the closed form — O(E·n), no statevector.

        p=1 only; agrees with :meth:`expectation` to ~1e-13 (pinned in
        ``tests/test_analytic_p1.py``).
        """
        return self.analytic.energy(params)

    def analytic_energies(self, params_matrix: np.ndarray) -> np.ndarray:
        """Closed-form F_1 for every ``[γ, β]`` row of a ``(B, 2)`` matrix."""
        return self.analytic.energies(params_matrix)

    # ------------------------------------------------------------------
    def max_cut_upper_bound(self) -> float:
        """max over the diagonal — the exact optimum (used in tests)."""
        return float(self.diagonal.max())


__all__ = ["MaxCutEnergy"]
