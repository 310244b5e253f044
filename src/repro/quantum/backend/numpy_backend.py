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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.quantum.backend.base import StatevectorBackend
from repro.quantum.statevector import (
    apply_phases_batch,
    apply_rx_layer,
    plus_state_batch,
    walsh_hadamard_batch,
)


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
    ) -> np.ndarray:
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
    ) -> np.ndarray:
        return apply_rx_layer(states, betas, scratch=scratch)

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


__all__ = ["NumpyBackend"]
