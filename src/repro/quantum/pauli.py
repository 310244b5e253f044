"""Ising (Pauli-Z) Hamiltonians and their diagonal representation.

The MaxCut problem Hamiltonian (paper Eq. 1) is

    H_C = ½ Σ_{(i,j) ∈ E} w_ij (1 − Z_i Z_j),

whose diagonal in the computational basis is exactly the cut value of every
bitstring, which is why the fast QAOA simulator and the brute-force exact
solver share :func:`repro.graphs.maxcut.cut_diagonal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.quantum.statevector import (
    expectation_diagonal,
    n_qubits_for_dim,
    probabilities,
)


@dataclass
class IsingHamiltonian:
    """H = const + Σ h_i Z_i + Σ J_ij Z_i Z_j (all terms diagonal).

    Attributes
    ----------
    n_qubits:
        Number of qubits/spins.
    constant:
        Identity coefficient.
    linear:
        ``{i: h_i}`` single-Z coefficients.
    quadratic:
        ``{(i, j): J_ij}`` with canonical ``i < j`` ordering.
    """

    n_qubits: int
    constant: float = 0.0
    linear: Dict[int, float] = field(default_factory=dict)
    quadratic: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canon: Dict[Tuple[int, int], float] = {}
        for (i, j), coeff in self.quadratic.items():
            if i == j:
                raise ValueError("Z_i Z_i term is a constant; fold it in")
            key = (min(i, j), max(i, j))
            canon[key] = canon.get(key, 0.0) + coeff
        self.quadratic = canon
        for idx in list(self.linear) + [q for key in canon for q in key]:
            if not 0 <= idx < self.n_qubits:
                raise ValueError(f"qubit index {idx} out of range")

    # ------------------------------------------------------------------
    @staticmethod
    def from_maxcut(graph: Graph) -> "IsingHamiltonian":
        """Paper Eq. 1: H_C = ½ Σ w (1 − Z_i Z_j)."""
        quadratic = {
            (int(a), int(b)): -0.5 * float(weight)
            for a, b, weight in zip(graph.u, graph.v, graph.w, strict=True)
        }
        return IsingHamiltonian(
            n_qubits=graph.n_nodes,
            constant=0.5 * graph.total_weight,
            quadratic=quadratic,
        )

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Eigenvalue of every computational basis state (length 2^n).

        Basis state ``x`` has Z_i eigenvalue ``(-1)^{x_i}`` with ``x_i`` the
        i-th (little-endian) bit.
        """
        n = self.n_qubits
        if n > 28:
            raise ValueError(f"diagonal infeasible for n={n}")
        size = 1 << n
        idx = np.arange(size, dtype=np.uint64)
        diag = np.full(size, self.constant, dtype=np.float64)
        for i, h in self.linear.items():
            z_i = 1.0 - 2.0 * ((idx >> np.uint64(i)) & np.uint64(1)).astype(np.float64)
            diag += h * z_i
        for (i, j), coeff in self.quadratic.items():
            parity = ((idx >> np.uint64(i)) ^ (idx >> np.uint64(j))) & np.uint64(1)
            diag += coeff * (1.0 - 2.0 * parity.astype(np.float64))
        return diag

    def value(self, bits: np.ndarray) -> float:
        """Energy of a single 0/1 assignment (vectorised over terms)."""
        bits = np.asarray(bits)
        z = 1.0 - 2.0 * bits.astype(np.float64)
        total = self.constant
        for i, h in self.linear.items():
            total += h * z[i]
        for (i, j), coeff in self.quadratic.items():
            total += coeff * z[i] * z[j]
        return float(total)

    # ------------------------------------------------------------------
    def expectation(self, state: np.ndarray) -> float:
        """⟨ψ| H |ψ⟩ via the diagonal representation."""
        return expectation_diagonal(state, self.diagonal())

    def expectation_from_counts(self, counts: Mapping[int, int]) -> float:
        """Shot-based estimate of ⟨H⟩ from measurement counts."""
        total_shots = sum(counts.values())
        if total_shots == 0:
            raise ValueError("empty counts")
        acc = 0.0
        n = self.n_qubits
        for basis_index, c in counts.items():
            bits = (basis_index >> np.arange(n, dtype=np.uint64)) & 1
            acc += c * self.value(bits)
        return acc / total_shots

    # ------------------------------------------------------------------
    def __add__(self, other: "IsingHamiltonian") -> "IsingHamiltonian":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        linear = dict(self.linear)
        for i, h in other.linear.items():
            linear[i] = linear.get(i, 0.0) + h
        quadratic = dict(self.quadratic)
        for key, coeff in other.quadratic.items():
            quadratic[key] = quadratic.get(key, 0.0) + coeff
        return IsingHamiltonian(
            self.n_qubits, self.constant + other.constant, linear, quadratic
        )

    def __mul__(self, factor: float) -> "IsingHamiltonian":
        return IsingHamiltonian(
            self.n_qubits,
            self.constant * factor,
            {i: h * factor for i, h in self.linear.items()},
            {k: c * factor for k, c in self.quadratic.items()},
        )

    __rmul__ = __mul__

    def n_terms(self) -> int:
        return len(self.linear) + len(self.quadratic)


# Cap on the (n_used_qubits, chunk) ±1 eigenvalue table built by the
# batched correlation kernel (float64 entries).
_ZZ_TABLE_BUDGET = 1 << 22


def zz_correlations_batch(states: np.ndarray, pairs) -> np.ndarray:
    """⟨Z_i Z_j⟩ for every (i, j) pair over a batch of statevectors.

    ``states`` may be a single ``(2**n,)`` vector or a ``(B, 2**n)`` batch;
    the result is ``(n_pairs,)`` or ``(B, n_pairs)`` respectively.  All
    pairs are evaluated in one pass over |ψ|²: with ``Z`` the ``(q, dim)``
    table of single-qubit eigenvalue rows ``z_q = (-1)^{x_q}`` (built only
    for qubits that appear in ``pairs``),

        ⟨Z_i Z_j⟩_b = Σ_x p_b(x) z_i(x) z_j(x) = [(Z · diag(p_b)) Zᵀ]_{ij}

    — one rank-``dim`` GEMM per state yields the full correlation matrix of
    the used qubits, from which the requested pairs are gathered.  When the
    pair list is sparse (fewer pairs than used qubits — rings, trees), the
    full Gram matrix would be mostly waste, so the per-pair products
    ``z_i·z_j`` are formed directly and contracted against the probability
    rows instead.  The basis axis is chunked so the eigenvalue tables stay
    bounded regardless of qubit count.  This replaces the per-pair Python
    loop (one parity mask rebuilt per edge) as the per-elimination
    correlation sweep of recursive QAOA
    (:func:`repro.qaoa.rqaoa.rqaoa_solve`).
    """
    states = np.asarray(states)
    single = states.ndim == 1
    if single:
        states = states[None, :]
    if states.ndim != 2:
        raise ValueError(f"states must be 1-D or 2-D, got ndim={states.ndim}")
    n = n_qubits_for_dim(states.shape[-1])
    pair_arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    n_pairs = pair_arr.shape[0]
    if n_pairs and not (0 <= int(pair_arr.min()) and int(pair_arr.max()) < n):
        raise ValueError(f"pair indices {pair_arr.min()}..{pair_arr.max()} out of range for n={n}")
    if n_pairs == 0:
        return np.zeros(0) if single else np.zeros((states.shape[0], 0))
    probs = probabilities(states)
    dim = states.shape[-1]
    used = np.unique(pair_arr)  # sorted qubits appearing in any pair
    slot = np.full(n, -1, dtype=np.int64)
    slot[used] = np.arange(len(used))
    n_used = len(used)
    sparse = n_pairs < n_used  # Gram would be mostly unrequested entries
    gram = None if sparse else np.zeros(
        (states.shape[0], n_used, n_used), dtype=np.float64
    )
    out = np.zeros((states.shape[0], n_pairs), dtype=np.float64)
    chunk = max(1, min(dim, _ZZ_TABLE_BUDGET // max(1, n_used + n_pairs)))
    z = np.empty((n_used, chunk), dtype=np.float64)
    for start in range(0, dim, chunk):
        stop = min(start + chunk, dim)
        idx = np.arange(start, stop, dtype=np.uint64)
        table = z[:, : stop - start]
        for row, q in enumerate(used):
            table[row] = ((idx >> np.uint64(q)) & np.uint64(1)).astype(np.float64)
        table *= -2.0
        table += 1.0
        if sparse:
            prod = table[slot[pair_arr[:, 0]]] * table[slot[pair_arr[:, 1]]]
            out += probs[:, start:stop] @ prod.T
        else:
            for b in range(states.shape[0]):
                gram[b] += (table * probs[b, start:stop]) @ table.T
    if not sparse:
        out = gram[:, slot[pair_arr[:, 0]], slot[pair_arr[:, 1]]]
    return out[0] if single else out


__all__ = [
    "IsingHamiltonian",
    "zz_correlations_batch",
]
