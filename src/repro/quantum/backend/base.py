"""The statevector-backend contract: the full QAOA evolve vocabulary.

Every QAOA evolution in the repo — the sweep engine's chunked batches,
the solver's pointwise objective, RQAOA's per-round evolve, the QAOA²
leaf solves (one at a time or lock-stepped), and the reference loops in
``quantum/simulator.py`` / ``quantum/noise.py`` — is expressed in six
operations:

* :meth:`StatevectorBackend.plus_state_batch` — the |+⟩^n initial state,
* :meth:`StatevectorBackend.apply_cost_layer` — ``exp(-iγ H_C)`` as an
  elementwise diagonal phase multiply,
* :meth:`StatevectorBackend.apply_mixer_layer` — ``exp(-iβ ΣX)``,
* :meth:`StatevectorBackend.evolve_batch` / :meth:`evolve_state` — the
  composed p-layer circuit, batched over one shared diagonal and
  pointwise,
* :meth:`StatevectorBackend.expectations_batch` — ⟨ψ|H_C|ψ⟩ per row,

plus :meth:`walsh_transform` (the unnormalised Walsh–Hadamard transform
used by the spectral angle-grid tier),
advisory chunk sizing via :meth:`preferred_chunk_size` (the sweep engine
asks the backend how wide its evaluation chunks should be), and scratch
management via :class:`repro.quantum.backend.scratch.ScratchPool`.
Implementations differ only in *how* they realise the operations (NumPy
passes, fused GEMM stages, future GPU/distributed backends); all
must agree numerically to ≤1e-12 with :class:`NumpyBackend`, which is the
bit-identical wrapper over the seed kernels.

State layout is the repo-wide convention: dense ``complex128``, qubit
``q`` = bit ``q`` of the little-endian basis index; batches are
``(B, 2**n)`` with the batch index leading.  Parameter rows are packed
``[γ_1..γ_p, β_1..β_p]``.

The composed evolutions require a complement-symmetric diagonal
(``d[x] == d[~x]``, as every cut diagonal is exactly).  |+⟩^n and RX
layers commute with ``X^{⊗n}``, so then ``ψ[x] == ψ[~x]`` and only
``φ = ψ[:2**(n-1)]`` is evolved: the primitives run on φ (qubits 0…n−2),
qubit n−1 pairs φ with ``φ[::-1]``, and ``ψ = [φ, φ[::-1]]`` is mirrored
out once — bit-identical to the full-space loop on :class:`NumpyBackend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.quantum.backend.scratch import ScratchPool, shared_pool
from repro.quantum.statevector import n_qubits_for_dim
from repro.util.tracing import current_trace

# Default sweep-chunk sizing (the cache-resident policy the engine has
# always used): as many rows as keep the two (chunk, 2**n) complex work
# buffers inside CHUNK_BUDGET_BYTES, capped at DEFAULT_CHUNK_SIZE rows.
# Backends that tolerate (or want) wider chunks override
# :meth:`StatevectorBackend.preferred_chunk_size`.
DEFAULT_CHUNK_SIZE = 64
CHUNK_BUDGET_BYTES = 512 * 1024


def cache_resident_chunk_size(n_qubits: int) -> int:
    """Chunk rows for which states + scratch fit ``CHUNK_BUDGET_BYTES``
    (clamped to [1, DEFAULT_CHUNK_SIZE]).  Measured on the batched NumPy
    QAOA kernels: past the cache budget, wider chunks *lose* to narrow
    ones, so this is the advisory default for elementwise backends."""
    row_bytes = 2 * (1 << n_qubits) * 16  # states + scratch rows
    return max(1, min(DEFAULT_CHUNK_SIZE, CHUNK_BUDGET_BYTES // row_bytes))


class BackendUnavailable(RuntimeError):
    """A backend that cannot run in this environment.

    Neither backend raises it today: ``numpy`` and ``fused`` need only
    NumPy.  Code that enumerates backends skips one that raises it."""


class StatevectorBackend(ABC):
    """Abstract statevector-evolution backend.

    Subclasses set ``name`` (the registry key) and implement the three
    layer primitives; the composed :meth:`evolve_batch`/:meth:`evolve_state`
    loops are provided here so a backend that only accelerates a primitive
    inherits correct composition, while backends that can fuse across
    layers (see :class:`repro.quantum.backend.fused.FusedBackend`)
    override them.
    """

    name: str = "abstract"

    # -- layer primitives ------------------------------------------------
    @abstractmethod
    def plus_state_batch(
        self, n_qubits: int, batch: int, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``batch`` copies of |+⟩^n as a ``(batch, 2**n)`` array."""

    @abstractmethod
    def apply_cost_layer(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        gammas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In place: multiply by ``exp(-iγ · diagonal)``.

        ``states`` is a single ``(2**n,)`` vector with scalar ``gammas``,
        or a ``(B, 2**n)`` batch with a ``(B,)`` per-row γ vector, row b
        multiplied by ``exp(-iγ_b · diagonal)``.  ``scratch`` is an
        optional same-shape phase-table buffer.
        """

    @abstractmethod
    def apply_mixer_layer(
        self,
        states: np.ndarray,
        betas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In place: apply ``exp(-iβ Σ_q X_q)`` (RX(2β) on every qubit).

        Same single/batched shape contract as :meth:`apply_cost_layer`;
        batched states additionally accept a scalar β shared by all rows.
        """

    @abstractmethod
    def walsh_transform(
        self, states: np.ndarray, *, scratch: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unnormalised Walsh–Hadamard transform along the last axis,
        in place (carries a ``2**(n/2)`` factor relative to H^{⊗n})."""

    @abstractmethod
    def expectations_batch(
        self, states: np.ndarray, diagonal: np.ndarray
    ) -> np.ndarray:
        """⟨ψ_b| D |ψ_b⟩ for every row of a ``(B, 2**n)`` batch (real D)."""

    # -- chunk advice -----------------------------------------------------
    def preferred_chunk_size(
        self, n_qubits: int, *, batch: Optional[int] = None
    ) -> int:
        """Advisory sweep-chunk width for this backend (rows per chunk).

        :class:`~repro.qaoa.engine.SweepEngine` consults this instead of
        hard-wiring the cache-budget heuristic, so backends whose kernels
        *want* wide batches (fused BLAS stages) can ask for them while
        elementwise backends keep the cache-resident default.  Strictly
        advisory: results must be **bit-identical** for any chunking
        (pinned by ``tests/test_backends.py::TestChunkPolicy``), and the
        returned value must be a pure function of the arguments.
        ``batch`` is the width of the sweep about to run when known; the
        engine clamps the advice to ``[1, batch]``.
        """
        return cache_resident_chunk_size(n_qubits)

    # -- composed evolution ---------------------------------------------
    def evolve_batch(
        self,
        diagonal: np.ndarray,
        params_matrix: np.ndarray,
        *,
        pool: Optional[ScratchPool] = None,
    ) -> np.ndarray:
        """Evolve |+⟩^n under p QAOA layers for every parameter row.

        ``params_matrix`` is ``(B, 2p)``; returns the pooled ``(B, 2**n)``
        state buffer, valid until the next backend call on the same pool
        (callers that need to retain states must copy).  ``diagonal``, one
        ``(2**n,)`` diagonal for every row, must be complement-symmetric
        over n ≥ 1 qubits (module docstring).
        """
        mat = self._params_matrix(params_matrix)
        m, p = mat.shape[0], mat.shape[1] // 2
        n = self._half_space_qubits(diagonal)
        pool = pool if pool is not None else shared_pool()
        with current_trace().span(
            "backend-evolve", backend=self.name, rows=m, layers=p
        ):
            states = pool.take("states", (m, 1 << n))
            half, scratch = self._half_buffers(pool, m, n)
            half.fill(1.0 / np.sqrt(1 << n))  # the |+⟩^n amplitude
            self._evolve_half(diagonal, half, scratch, mat[:, :p].T, mat[:, p:].T)
            return np.concatenate((half, half[:, ::-1]), axis=1, out=states)

    def evolve_state(self, diagonal: np.ndarray, params: np.ndarray) -> np.ndarray:
        """|ψ_p(γ, β)⟩ for one packed parameter vector (fresh array);
        same precondition as :meth:`evolve_batch`."""
        params = np.asarray(params, dtype=np.float64)
        if params.ndim != 1 or len(params) % 2 != 0:
            raise ValueError("parameter vector must have even length (γs then βs)")
        n = self._half_space_qubits(diagonal)
        p = len(params) // 2
        # The returned array's upper half is the scratch until the mirror.
        state = np.empty(1 << n, dtype=np.complex128)
        half, scratch = state[: 1 << (n - 1)], state[1 << (n - 1) :]
        half.fill(1.0 / np.sqrt(1 << n))
        self._evolve_half(diagonal, half, scratch, params[:p], params[p:])
        scratch[...] = half[::-1]
        return state

    # -- half-space evolution (see the module docstring) -----------------
    @staticmethod
    def _half_space_qubits(diagonal: np.ndarray) -> int:
        """n of a ``(2**n,)`` diagonal."""
        if diagonal.ndim != 1:
            raise ValueError(f"expected a 1-D diagonal, got shape {diagonal.shape}")
        n = n_qubits_for_dim(diagonal.shape[-1])
        if n == 0:
            raise ValueError("QAOA evolution needs a diagonal over at least one qubit")
        return n

    @staticmethod
    def _half_buffers(pool: ScratchPool, rows: int, n_qubits: int) -> np.ndarray:
        """φ and its scratch: the two contiguous ``(rows, 2**(n-1))``
        halves of the pooled ``phases`` buffer, stacked."""
        work = pool.take("phases", (rows, 1 << n_qubits))
        return work.reshape(2, rows, 1 << (n_qubits - 1))

    def _evolve_half(self, diagonal, half, scratch, gammas, betas) -> None:
        """In place on φ: one cost and one mixer layer per (γ, β) pair."""
        half_diagonal = diagonal[: half.shape[-1]]
        for gamma, beta in zip(gammas, betas, strict=True):
            self.apply_cost_layer(half, half_diagonal, gamma, scratch=scratch)
            self.apply_mixer_layer(half, beta, scratch=scratch)
            self._mix_top_qubit(half, beta, scratch)

    @staticmethod
    def _mix_top_qubit(half: np.ndarray, betas, scratch: np.ndarray) -> None:
        """RX(2β) on qubit n−1 of φ: the partner of index y is y with its
        top bit set, whose amplitude is ψ[~y] = φ[2**(n-1) − 1 − y], i.e.
        ``φ[..., ::-1]``.  Same ufuncs as the full-space pass."""
        beta = np.asarray(betas, dtype=np.float64)[..., None]
        np.multiply(half[..., ::-1], -1j * np.sin(beta), out=scratch)
        np.multiply(half, np.cos(beta), out=half)
        half += scratch

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _params_matrix(params_matrix: np.ndarray) -> np.ndarray:
        mat = np.asarray(params_matrix, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.ndim != 2:
            raise ValueError(f"expected (B, 2p) matrix, got ndim={mat.ndim}")
        if mat.shape[1] == 0 or mat.shape[1] % 2 != 0:
            raise ValueError(
                "parameter rows must have even positive length (γs then βs)"
            )
        return mat

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<{type(self).__name__} name={self.name!r}>"


__all__ = [
    "CHUNK_BUDGET_BYTES",
    "DEFAULT_CHUNK_SIZE",
    "BackendUnavailable",
    "StatevectorBackend",
    "cache_resident_chunk_size",
]
