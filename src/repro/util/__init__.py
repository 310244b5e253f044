"""Shared utilities: RNG handling, validation, tracing primitives."""

from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.tracing import (
    NO_TRACE,
    Span,
    TraceContext,
    current_trace,
    use_trace,
)
from repro.util.validation import check_probability, check_positive_int

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_probability",
    "check_positive_int",
    "NO_TRACE",
    "Span",
    "TraceContext",
    "current_trace",
    "use_trace",
]
