"""The two statevector backends and the auto-selection policy.

:func:`resolve_backend` turns a user-facing spec — ``"auto"``, a backend
name, or an already-built
:class:`~repro.quantum.backend.base.StatevectorBackend` instance — into
an instance; a name resolves to one of the two process-wide singletons
built at import.  Singletons matter: backends cache per-size tables
(mixer stage and phase tables) that should be built once per process,
not once per solve.

Auto policy
-----------
``resolve_backend("auto", n_qubits=...)`` picks:

* ``fused`` at ``n_qubits >= FUSED_MIN_QUBITS`` (14) — the regime where
  the mixer's per-qubit pass count dominates evolution and the blocked
  GEMM stages win,
* ``numpy`` below that, and whenever ``n_qubits`` is unknown — the
  bit-identical reference is always the safe floor.

The policy is a **pure function** of ``n_qubits``: a given problem size
always resolves to the same backend, regression-pinned by
``tests/test_backends.py::TestRegistry::test_auto_policy_is_pure``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.quantum.backend.base import StatevectorBackend
from repro.quantum.backend.fused import FusedBackend
from repro.quantum.backend.numpy_backend import NumpyBackend

# Qubit count from which the fused GEMM-stage mixer replaces the numpy
# per-qubit passes.  Set when the fused backend was introduced, before
# its all-GEMM stages and the half-space evolution; re-deriving it from a
# sweep over n is an open ROADMAP item.  Where fused now overtakes numpy,
# pointwise evolve_state at p=2 on ER(n, 0.5) (median of 15 alternating
# rounds, two sessions, one BLAS thread, 2-core Intel Xeon VM): from
# n=10 unweighted (1.12–1.25× at 10, 3.0× at 14); weighted 0.91–1.00× at
# 10, 0.74–0.75× at 11 (where the bucketed cost path starts), 1.03–1.15×
# at 12, 1.16–1.24× at 13, 1.28–1.31× at 14.  Moving the threshold moves
# the rounding, and so the digests, of every leaf it reassigns.
FUSED_MIN_QUBITS = 14

BackendSpec = Union[str, StatevectorBackend, None]

_BACKENDS: Dict[str, StatevectorBackend] = {
    backend.name: backend for backend in (NumpyBackend(), FusedBackend())
}


def available_backends() -> Tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> StatevectorBackend:
    """The singleton instance of a backend name."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown statevector backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return backend


def auto_backend_name(n_qubits: Optional[int] = None) -> str:
    """The built-in auto policy (see module docstring): a pure function
    of ``n_qubits``."""
    if n_qubits is not None and n_qubits >= FUSED_MIN_QUBITS:
        return "fused"
    return "numpy"


def resolve_backend(
    spec: BackendSpec = "auto",
    *,
    n_qubits: Optional[int] = None,
) -> StatevectorBackend:
    """Resolve a backend spec to an instance.

    ``spec`` may be ``None``/``"auto"`` (policy pick for ``n_qubits``),
    a backend name, or an instance (returned as-is).
    """
    if isinstance(spec, StatevectorBackend):
        return spec
    if spec is None or spec == "auto":
        return get_backend(auto_backend_name(n_qubits))
    if not isinstance(spec, str):
        raise TypeError(
            f"backend spec must be a name, 'auto', or a StatevectorBackend "
            f"instance, got {type(spec).__name__}"
        )
    return get_backend(spec)


__all__ = [
    "FUSED_MIN_QUBITS",
    "auto_backend_name",
    "available_backends",
    "get_backend",
    "resolve_backend",
]
