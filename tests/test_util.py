"""Unit tests for repro.util."""

import numpy as np
import pytest

from repro.util import (
    check_positive_int,
    check_probability,
    ensure_rng,
    spawn_rngs,
)
from repro.util.validation import check_nonnegative_int


class TestRng:
    def test_ensure_rng_from_seed(self):
        a = ensure_rng(5)
        b = ensure_rng(5)
        assert a.integers(1000) == b.integers(1000)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_seed_sequence(self):
        seq = np.random.SeedSequence(42)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(0, 3)
        draws = [c.integers(10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rngs_deterministic(self):
        a = [g.integers(10**9) for g in spawn_rngs(7, 4)]
        b = [g.integers(10**9) for g in spawn_rngs(7, 4)]
        assert a == b

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_zero(self):
        assert spawn_rngs(0, 0) == []


class TestValidation:
    def test_check_probability_accepts_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0

    def test_check_probability_rejects(self):
        with pytest.raises(ValueError):
            check_probability(1.1)
        with pytest.raises(ValueError):
            check_probability(-0.1)

    def test_check_positive_int(self):
        assert check_positive_int(3) == 3
        with pytest.raises(ValueError):
            check_positive_int(0)
        with pytest.raises(ValueError):
            check_positive_int(2.5)

    def test_check_nonnegative_int(self):
        assert check_nonnegative_int(0) == 0
        with pytest.raises(ValueError):
            check_nonnegative_int(-1)
