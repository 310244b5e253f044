"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts ``rng`` as either a seed,
``None`` (fresh nondeterministic generator) or an existing
:class:`numpy.random.Generator`.  Centralising the coercion here keeps the
call sites one-liners and guarantees reproducibility when a seed is given.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for a fresh OS-seeded generator, an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator (returned
        unchanged so state is shared with the caller).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


def spawn_rngs(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Used to hand one generator per parallel sub-problem (e.g. one per
    QAOA² sub-graph) so results do not depend on execution order.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    base = ensure_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


__all__ = ["RngLike", "ensure_rng", "spawn_rngs"]
