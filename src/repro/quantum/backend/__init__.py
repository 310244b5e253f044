"""Pluggable statevector-evolution backends (see src/repro/quantum/README.md).

This package is the single seam between QAOA consumers (the sweep
engine, solvers, RQAOA, QAOA² leaves, the service scheduler, the
reference simulator/noise loops) and the numerical kernels that evolve
statevectors.  Consumers speak :class:`StatevectorBackend`; kernel
implementations live behind it: ``numpy``, the bit-identical reference,
and ``fused``, the mixer as blocked GEMM stages plus a quantised cost
gather.  :func:`get_backend` and :func:`resolve_backend` return one
process-wide instance of each.
"""

from repro.quantum.backend.base import (
    CHUNK_BUDGET_BYTES,
    DEFAULT_CHUNK_SIZE,
    BackendUnavailable,
    StatevectorBackend,
    cache_resident_chunk_size,
)
from repro.quantum.backend.fused import FusedBackend
from repro.quantum.backend.numpy_backend import NumpyBackend, RaggedLayout
from repro.quantum.backend.registry import (
    FUSED_MIN_QUBITS,
    auto_backend_name,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.quantum.backend.scratch import (
    DEFAULT_POOL_BUDGET_BYTES,
    ScratchPool,
    shared_pool,
)

__all__ = [
    "CHUNK_BUDGET_BYTES",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_POOL_BUDGET_BYTES",
    "FUSED_MIN_QUBITS",
    "BackendUnavailable",
    "FusedBackend",
    "NumpyBackend",
    "RaggedLayout",
    "ScratchPool",
    "StatevectorBackend",
    "auto_backend_name",
    "available_backends",
    "cache_resident_chunk_size",
    "get_backend",
    "resolve_backend",
    "shared_pool",
]
