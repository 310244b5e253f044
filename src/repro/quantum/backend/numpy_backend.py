"""The reference backend: a thin wrapper over the seed NumPy kernels.

``NumpyBackend`` delegates the evolution operations 1:1 to
:mod:`repro.quantum.statevector` — same ufunc sequence, same scratch
discipline, same reduction order — so evolved statevectors are
**bit-identical** to the pre-backend-layer code paths (pinned by the
golden-path tests in ``tests/test_backends.py``).  It is both the
default for small problems and the parity oracle every other backend is
tested against.

The one deliberate deviation is :meth:`NumpyBackend.expectations_batch`:
the seed kernel's BLAS GEMV partitions its accumulation by the *row
count*, so the same statevector row reduced inside different batch
widths drifts at ~1e-14 — which would make sweep results depend on the
engine's chunk policy.  The backend reduces each row independently
instead (pairwise over the state dimension only), so energies are
identical no matter how a sweep is chunked
(``tests/test_backends.py::TestChunkPolicy``).

:meth:`NumpyBackend.evolve_ragged` evolves rows of *different* qubit
counts in one call: every row's half state sits in one flat buffer laid
out by a :class:`RaggedLayout`, and each layer is one cost and one mixer
call over the whole buffer (their ``ragged=`` form).  Each amplitude sees
the operations :meth:`~StatevectorBackend.evolve_state` applies to it,
so every row is bit-identical to evolving it alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.quantum.backend.base import StatevectorBackend
from repro.quantum.statevector import (
    apply_phases_batch,
    apply_rx_layer,
    n_qubits_for_dim,
    plus_state_batch,
    walsh_hadamard_batch,
)
from repro.util.tracing import current_trace


class RaggedLayout:
    """Rows of complement-symmetric QAOA states of different qubit counts,
    their halves in one flat buffer.

    ``diagonals`` are the rows' full diagonals (complement-symmetric, over
    n ≥ 1 qubits), in non-increasing size.  Row b's half
    ``φ_b = ψ_b[:2**(n_b-1)]`` follows the rows before it.  Every row is a
    power of two no longer than the rows before it, so each row starts at a
    multiple of its length: the blocks of ``2**(q+1)`` amplitudes that a
    pass over bit q pairs never cross rows, and the rows with a bit q below
    their top bit form the prefix ``[0, ends[q])``.

    The layout owns φ's buffer, its scratch and the index tables, so
    evolving the same rows again reuses them.
    """

    def __init__(self, diagonals: Sequence[np.ndarray]) -> None:
        if not len(diagonals):
            raise ValueError("a ragged layout needs at least one row")
        sizes = np.array([n_qubits_for_dim(len(d)) for d in diagonals])
        if sizes.min() < 1:
            raise ValueError("QAOA evolution needs a diagonal over at least one qubit")
        if (np.diff(sizes) > 0).any():
            raise ValueError("ragged rows must come in non-increasing size")
        self.diagonals: List[np.ndarray] = list(diagonals)
        self._lengths = lengths = 1 << (sizes - 1)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        starts, total = bounds[:-1], int(bounds[-1])
        # Rows with more than q + 1 qubits, then the end of their prefix.
        rows_with = np.searchsorted(-sizes, -np.arange(1, sizes[0]))
        self.ends: List[int] = bounds[rows_with].tolist()
        # The partner of φ_b[y] under bit n_b − 1 is φ_b[len_b − 1 − y].
        self.reversed = self.expand(2 * starts + lengths - 1) - np.arange(total)
        # The flat half diagonal, complex as the cost layer's multiply
        # casts it, and |+⟩^n's amplitude per row as evolve_state fills it.
        self.diagonal = np.concatenate(
            [d[:length] for d, length in zip(self.diagonals, lengths.tolist(), strict=True)]
        ).astype(np.complex128)
        self.plus = self.expand(1.0 / np.sqrt(2 * lengths))
        # |ψ_b|² = [|φ_b|², |φ_b|²[::-1]] fills 2·len_b entries from 2·start_b.
        k = np.arange(2 * total) - np.repeat(2 * starts, 2 * lengths)
        self._mirror = np.repeat(starts, 2 * lengths) + np.minimum(
            k, np.repeat(2 * lengths - 1, 2 * lengths) - k
        )
        self._spans = (2 * bounds).tolist()
        self.states = np.empty(total, dtype=np.complex128)
        self.scratch = np.empty(total, dtype=np.complex128)

    def expand(self, per_row: np.ndarray) -> np.ndarray:
        """One value per row, repeated over that row's amplitudes."""
        return np.repeat(per_row, self._lengths)

    def expectations(self, half: np.ndarray) -> List[float]:
        """⟨ψ_b|D_b|ψ_b⟩ per row: ``np.dot`` of the mirrored real vector
        ``[|φ_b|², |φ_b|²[::-1]]`` (which is ``|ψ_b|²`` exactly) with the
        row's full diagonal, the reduction of the pointwise energy."""
        mirrored = (np.abs(half) ** 2)[self._mirror]
        spans = self._spans
        return [
            float(np.dot(mirrored[spans[b] : spans[b + 1]], diagonal))
            for b, diagonal in enumerate(self.diagonals)
        ]


class NumpyBackend(StatevectorBackend):
    """Dense NumPy statevector evolution (the bit-identical reference)."""

    name = "numpy"

    def plus_state_batch(
        self, n_qubits: int, batch: int, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return plus_state_batch(n_qubits, batch, out=out)

    def apply_cost_layer(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        gammas,
        *,
        scratch: Optional[np.ndarray] = None,
        ragged: Optional[RaggedLayout] = None,
    ) -> np.ndarray:
        """With ``ragged``, ``states`` is its flat half buffer,
        ``diagonal`` its flat (complex) half diagonal and ``gammas`` one γ
        per row; each phase is ``(-1j·γ_b)·d``, as in the single-state
        layer, and the layout's scratch holds the phase table."""
        if ragged is not None:
            phases = ragged.scratch
            np.multiply(ragged.expand(-1j * np.asarray(gammas)), diagonal, out=phases)
            np.exp(phases, out=phases)
            states *= phases
            return states
        if states.ndim == 1:
            gamma = np.asarray(gammas, dtype=np.float64)
            if gamma.ndim != 0:
                raise ValueError("per-row gammas require a batched (B, dim) state")
            if diagonal.shape != states.shape:
                raise ValueError("diagonal length mismatch")
            # Exactly the seed expression (MaxCutEnergy.statevector).
            states *= np.exp(-1j * gamma * diagonal)
            return states
        return apply_phases_batch(states, diagonal, gammas, scratch=scratch)

    def apply_mixer_layer(
        self,
        states: np.ndarray,
        betas,
        *,
        scratch: Optional[np.ndarray] = None,
        ragged: Optional[RaggedLayout] = None,
    ) -> np.ndarray:
        """With ``ragged``, ``states`` is its flat half buffer and
        ``betas`` one β per row, and the layer is each row's whole mixer:
        apply_rx_layer's three-ufunc pass for each bit q below the row's
        top bit, over the prefix of rows that have it, then the top bit,
        whose partner is φ reversed (the half-space step of ``base.py``),
        with the layout's scratch."""
        if ragged is None:
            return apply_rx_layer(states, betas, scratch=scratch)
        betas = np.asarray(betas, dtype=np.float64)
        # Complex, as the multiply casts apply_rx_layer's real cos β.
        c = ragged.expand(np.cos(betas).astype(np.complex128))
        s = ragged.expand(-1j * np.sin(betas))
        for q, end in enumerate(ragged.ends):
            shape = (-1, 2, 1 << q)
            view, swapped = states[:end], ragged.scratch[:end]
            np.multiply(
                view.reshape(shape)[:, ::-1, :], s[:end].reshape(shape),
                out=swapped.reshape(shape),
            )
            view *= c[:end]
            view += swapped
        np.take(states, ragged.reversed, out=ragged.scratch, mode="clip")
        ragged.scratch *= s
        states *= c
        states += ragged.scratch
        return states

    def evolve_ragged(self, layout: RaggedLayout, params_matrix: np.ndarray) -> np.ndarray:
        """Evolve |+⟩^(n_b) under p QAOA layers with parameter row b, for
        every row b of ``layout``; returns the layout's flat half buffer
        (valid until its next evolution).  Row b's half is bit-identical
        to the first half of ``evolve_state(layout.diagonals[b],
        params_matrix[b])``.  NumPy layers only: a subclass that overrides
        them (``fused``) takes no layout."""
        mat = self._params_matrix(params_matrix)
        m, p = mat.shape[0], mat.shape[1] // 2
        if m != len(layout.diagonals):
            raise ValueError(f"{m} parameter rows for {len(layout.diagonals)} ragged rows")
        with current_trace().span("backend-evolve", backend=self.name, rows=m, layers=p):
            states = layout.states
            states[...] = layout.plus
            for gammas, betas in zip(mat[:, :p].T, mat[:, p:].T, strict=True):
                self.apply_cost_layer(states, layout.diagonal, gammas, ragged=layout)
                self.apply_mixer_layer(states, betas, ragged=layout)
            return states

    def walsh_transform(
        self, states: np.ndarray, *, scratch: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return walsh_hadamard_batch(states, scratch=scratch)

    def expectations_batch(
        self, states: np.ndarray, diagonal: np.ndarray
    ) -> np.ndarray:
        # Row-independent reduction (not the seed GEMV) so each row's
        # energy is a pure function of that row alone — see the module
        # docstring for why chunk-width invariance requires this.
        probs = np.abs(states) ** 2
        probs *= np.real(diagonal)
        return probs.sum(axis=-1)


__all__ = ["NumpyBackend", "RaggedLayout"]
