"""Common optimizer result type, objective-wrapping and ask/tell utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

import numpy as np


@dataclass
class OptimizationResult:
    """Uniform result object across optimizer backends."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool = True
    message: str = ""
    history: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)


class RecordingObjective:
    """Wrap an objective to record evaluations and the best point seen.

    Optimizers can terminate away from their best iterate (COBYLA in
    particular); QAOA cares about the best parameters encountered, so every
    solver in this package reports ``best_x``/``best_f`` from this wrapper.
    ``fun`` may be omitted when every value arrives through :meth:`record`.
    """

    def __init__(self, fun: Optional[Callable[[np.ndarray], float]] = None) -> None:
        self._fun = fun
        self.nfev = 0
        self.history: List[float] = []
        self.best_f = np.inf
        self.best_x: Optional[np.ndarray] = None

    def __call__(self, x: np.ndarray) -> float:
        value = float(self._fun(np.asarray(x, dtype=np.float64)))
        return self.record(x, value)

    def record(self, x: np.ndarray, value: float) -> float:
        """Book-keep an evaluation computed out-of-band (e.g. one row of a
        batched objective call) exactly like a direct ``__call__``."""
        value = float(value)
        self.nfev += 1
        self.history.append(value)
        if value < self.best_f:
            self.best_f = value
            self.best_x = np.array(x, dtype=np.float64)
        return value


def drive(steps: Generator[Any, Any, Any], answer: Optional[Callable] = None) -> Any:
    """Run an ask/tell generator to its return value, replying to each
    request it yields with ``answer(request)``; a generator that asks
    nothing needs no ``answer``."""
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = answer(request)


__all__ = ["OptimizationResult", "RecordingObjective", "drive"]
