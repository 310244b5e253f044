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
from repro.qaoa.engine import SweepEngine
from repro.quantum.statevector import probabilities
from repro.util.rng import RngLike, ensure_rng


class MaxCutEnergy:
    """Pointwise QAOA states and energies over one graph's sweep engine.

    Parameters are packed ``[γ_1..γ_p, β_1..β_p]`` (gammas first), matching
    :func:`repro.synth.synthesis.qaoa_ansatz`.

    The :class:`~repro.qaoa.engine.SweepEngine` owns the graph's
    evaluation state: the cut diagonal, the resolved backend, the analytic
    p=1 tier and the batched paths (``energy.engine``).  ``engine`` shares
    a caller's engine, whose backend then wins.  Without one, an engine is
    built over the cut diagonal with ``backend`` (``"auto"``, a registered
    name, or an instance — see :mod:`repro.quantum.backend`).  ``None``
    (the default) pins the bit-identical ``numpy`` reference, so a bare
    ``MaxCutEnergy(graph)`` reproduces the seed implementation exactly at
    any size, on the pointwise and the batched paths alike.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        engine: Optional[SweepEngine] = None,
        backend: Optional[object] = None,
    ) -> None:
        if engine is None:
            engine = SweepEngine(
                graph,
                diagonal=cut_diagonal(graph),
                backend="numpy" if backend is None else backend,
            )
        elif engine.graph is not graph:
            raise ValueError("engine was built for a different graph")
        self.graph = graph
        self.n_qubits = graph.n_nodes
        self.engine = engine
        self.diagonal = engine.diagonal
        self.backend = engine.backend

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


__all__ = ["MaxCutEnergy"]
