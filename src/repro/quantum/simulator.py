"""Circuit-level statevector simulator (the Aer substitute's front end).

Executes :class:`repro.quantum.circuit.Circuit` objects gate by gate on the
vectorised kernels, with measurement sampling compatible with the paper's
4096-shot methodology.  The QAOA optimiser loop does *not* go through this
path (it uses the diagonal fast path in :mod:`repro.qaoa.energy`); this
simulator exists to validate the fast path, execute synthesized circuits and
support arbitrary-circuit experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.quantum.circuit import Circuit
from repro.quantum.gates import DIAGONAL_GATES, gate_matrix
from repro.quantum.pauli import IsingHamiltonian
from repro.quantum.statevector import (
    apply_gate,
    apply_one_qubit,
    plus_state,
    probabilities,
    sample_counts,
    top_amplitudes,
    zero_state,
)
from repro.util.rng import RngLike, ensure_rng

DEFAULT_SHOTS = 4096  # paper §3.2: "number of shots ... is 4096"


@dataclass
class SimulationResult:
    """Output of a simulator run: final state plus optional samples."""

    state: np.ndarray
    counts: Optional[Dict[int, int]] = None
    shots: int = 0

    @property
    def n_qubits(self) -> int:
        return int(np.log2(len(self.state)))

    def probabilities(self) -> np.ndarray:
        return probabilities(self.state)

    def top_bitstrings(self, k: int = 1) -> np.ndarray:
        return top_amplitudes(self.state, k)

    def counts_bitstrings(self) -> Dict[str, int]:
        """Counts keyed by binary strings (qubit 0 rightmost, Qiskit-style)."""
        if self.counts is None:
            return {}
        n = self.n_qubits
        return {format(k, f"0{n}b"): v for k, v in self.counts.items()}


class StatevectorSimulator:
    """Dense statevector executor with Aer-like sampling semantics.

    Parameters
    ----------
    max_qubits:
        Safety cap (2^n complex128 amplitudes = 16·2^n bytes); the default
        26 corresponds to a 1 GiB state.  The paper's 33-qubit runs are
        reached via :mod:`repro.quantum.distributed`'s rank-scaling model.
    """

    def __init__(self, *, max_qubits: int = 26) -> None:
        self.max_qubits = int(max_qubits)

    def run(
        self,
        circuit: Circuit,
        *,
        initial_state: Optional[np.ndarray] = None,
        shots: int = 0,
        rng: RngLike = None,
    ) -> SimulationResult:
        """Execute ``circuit``; optionally sample ``shots`` measurements."""
        if circuit.is_parametric:
            raise ValueError("bind() the circuit before simulation")
        n = circuit.n_qubits
        if n > self.max_qubits:
            raise ValueError(
                f"{n} qubits exceeds max_qubits={self.max_qubits}; "
                "use the distributed engine for larger states"
            )
        if initial_state is not None:
            if len(initial_state) != (1 << n):
                raise ValueError("initial state dimension mismatch")
            state = np.array(initial_state, dtype=np.complex128)
        else:
            state = zero_state(n)
        for ins in circuit.instructions:
            matrix = gate_matrix(ins.name, tuple(float(p) for p in ins.params))
            if len(ins.qubits) == 1:
                if ins.name in DIAGONAL_GATES:
                    # Single-qubit diagonal: scale the two half-planes.
                    q = ins.qubits[0]
                    view = state.reshape(1 << (n - 1 - q), 2, 1 << q)
                    view[:, 0, :] *= matrix[0, 0]
                    view[:, 1, :] *= matrix[1, 1]
                else:
                    state = apply_one_qubit(state, matrix, ins.qubits[0])
            else:
                state = apply_gate(state, matrix, ins.qubits)
        counts = None
        if shots:
            counts = sample_counts(state, shots, rng=ensure_rng(rng))
        return SimulationResult(state, counts, shots)

    def expectation(
        self,
        circuit: Circuit,
        hamiltonian: IsingHamiltonian,
        *,
        shots: int = 0,
        rng: RngLike = None,
    ) -> float:
        """⟨H⟩ after the circuit — exact (shots=0) or shot-estimated."""
        result = self.run(circuit, shots=shots, rng=rng)
        if shots:
            return hamiltonian.expectation_from_counts(result.counts)
        return hamiltonian.expectation(result.state)

    def statevector(self, circuit: Circuit) -> np.ndarray:
        return self.run(circuit).state


def run_qaoa_reference(
    graph_diagonal: np.ndarray,
    gammas: np.ndarray,
    betas: np.ndarray,
    *,
    backend: object = "numpy",
) -> np.ndarray:
    """Reference QAOA state built with explicit diagonal/mixer layers.

    |ψ_p(β,γ)⟩ = Π_l exp(-iβ_l H_M) exp(-iγ_l H_C) |+⟩^n  (paper Eq. 2),
    with H_C supplied as its diagonal, evolved layer by layer through a
    :mod:`repro.quantum.backend` backend (the bit-identical ``numpy``
    reference unless told otherwise).  Exists so tests can cross-validate
    the circuit path, the fast path and this explicit construction — and,
    with ``backend=``, either evolution backend against all three.
    """
    from repro.quantum.backend import resolve_backend

    n = int(np.log2(len(graph_diagonal)))
    evolve = resolve_backend(backend, n_qubits=n)
    state = plus_state(n)
    for gamma, beta in zip(gammas, betas, strict=True):
        state = evolve.apply_cost_layer(state, graph_diagonal, gamma)
        state = evolve.apply_mixer_layer(state, beta)
    return state


__all__ = [
    "DEFAULT_SHOTS",
    "SimulationResult",
    "StatevectorSimulator",
    "run_qaoa_reference",
]
