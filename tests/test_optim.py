"""Unit tests for repro.optim (COBYLA port, SPSA, Nelder-Mead)."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.graphs.generators import erdos_renyi
from repro.optim import (
    RecordingObjective,
    cobyla_steps,
    minimize,
    minimize_cobyla,
    minimize_nelder_mead,
    minimize_spsa,
    multi_start_spsa,
)
from repro.qaoa.energy import MaxCutEnergy
from repro.qaoa.params import initial_parameters

REPO_ROOT = Path(__file__).resolve().parent.parent


def quadratic(x):
    return float(np.sum((x - 1.5) ** 2))


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestRecordingObjective:
    def test_tracks_best(self):
        rec = RecordingObjective(lambda x: float(x[0] ** 2))
        rec(np.array([3.0]))
        rec(np.array([1.0]))
        rec(np.array([2.0]))
        assert rec.nfev == 3
        assert rec.best_f == 1.0
        assert rec.best_x[0] == 1.0
        assert rec.history == [9.0, 1.0, 4.0]

    def test_best_x_is_copy(self):
        rec = RecordingObjective(lambda x: float(x[0]))
        point = np.array([0.5])
        rec(point)
        point[0] = 99.0
        assert rec.best_x[0] == 0.5


class TestCobyla:
    def test_converges_on_quadratic(self):
        result = minimize_cobyla(quadratic, np.zeros(3), rhobeg=0.5, maxiter=200)
        assert result.fun < 1e-3
        assert np.allclose(result.x, 1.5, atol=0.1)

    def test_respects_maxiter(self):
        result = minimize_cobyla(quadratic, np.zeros(2), maxiter=10)
        assert result.nfev <= 12  # COBYLA may slightly overshoot bookkeeping

    def test_rhobeg_affects_trajectory(self):
        small = minimize_cobyla(quadratic, np.zeros(2), rhobeg=0.01, maxiter=15)
        large = minimize_cobyla(quadratic, np.zeros(2), rhobeg=1.0, maxiter=15)
        assert small.history != large.history

    def test_returns_best_seen_not_last(self):
        result = minimize_cobyla(quadratic, np.zeros(2), maxiter=100)
        assert result.fun == min(result.history)


def _scipy_has_prima() -> bool:
    major, minor = (int(part) for part in scipy.__version__.split(".")[:2])
    return (major, minor) >= (1, 16)


def assert_cobyla_parity(fun, x0, *, rhobeg, maxiter, tol=1e-6):
    """Run the port and SciPy's COBYLA on ``fun``; both must evaluate the
    same points, bit for bit, in the same order."""
    from scipy.optimize import minimize as scipy_minimize

    ours, theirs = [], []

    def recording(points):
        def objective(x):
            points.append(np.array(x, copy=True))
            return fun(x)

        return objective

    x0 = np.asarray(x0, dtype=np.float64)
    budget = max(maxiter, len(x0) + 2)
    with warnings.catch_warnings():
        # Overflow on infinite objectives, and SciPy's notice that it reset
        # rhoend, are expected on both sides.
        warnings.simplefilter("ignore")
        result = minimize_cobyla(
            recording(ours), x0.copy(), rhobeg=rhobeg, maxiter=maxiter, tol=tol
        )
        reference = scipy_minimize(
            recording(theirs),
            x0.copy(),
            method="COBYLA",
            options={"rhobeg": rhobeg, "maxiter": budget, "tol": tol},
        )
    assert len(ours) == len(theirs)
    for mine, ref in zip(ours, theirs, strict=True):
        np.testing.assert_array_equal(mine.view(np.uint64), ref.view(np.uint64))
    assert result.success == bool(reference.success)
    assert result.nfev == len(ours) <= budget


def qaoa_case(seed):
    """A seeded QAOA objective: graph size 3-10, depth 1-3, and one of the
    three deterministic-or-seeded initialisations."""
    gen = np.random.default_rng(seed)
    n, p = int(gen.integers(3, 11)), int(gen.integers(1, 4))
    graph = erdos_renyi(
        n, float(gen.uniform(0.3, 0.8)), weighted=bool(gen.integers(2)), rng=seed
    )
    energy = MaxCutEnergy(graph)
    x0 = initial_parameters(p, ("ramp", "random", "fixed")[seed % 3], rng=seed)
    rhobeg = float(gen.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
    maxiter = int(gen.choice([5, 10, 20, 40, 100, 300]))
    return (lambda x: -energy.expectation(x)), x0, rhobeg, maxiter


def _overwrites_argument(x):
    value = float(np.sum((x - 0.5) ** 2))
    x[:] = 123.0  # the port must hand ``fun`` a copy, as SciPy does
    return value


def _inf_beyond(x):
    return float("inf") if x[0] > 0.3 else float(np.sum((x - 1.0) ** 2))


def _neg_inf_beyond(x):
    return float("-inf") if x[0] > 0.8 else float(np.sum((x - 1.0) ** 2))


# name -> (fun, x0, rhobeg, maxiter, tol)
EDGE_CASES = {
    "constant": (lambda x: 1.0, np.zeros(3), 0.5, 100, 1e-6),
    "nan-everywhere": (lambda x: float("nan"), np.zeros(3), 0.5, 100, 1e-6),
    "inf-on-part": (_inf_beyond, np.zeros(3), 0.5, 200, 1e-6),
    "neg-inf-on-part": (_neg_inf_beyond, np.zeros(2), 0.5, 200, 1e-6),
    "huge-f-gradient-rescale": (
        lambda x: 1e15 * float(np.sum((x - 0.7) ** 2)) + 3e15,
        np.zeros(2),
        0.5,
        200,
        1e-6,
    ),
    "negative-zero": (lambda x: -0.0, np.zeros(2), 0.5, 100, 1e-6),
    # f ignores x[1], so the step's second entry is -0.0 before PRIMA adds
    # it to zero: the first step must land on +0.0, not -0.0.
    "negative-zero-start": (
        lambda x: float((x[0] + 1.0) ** 2),
        np.array([0.0, -0.0]),
        0.5,
        20,
        1e-6,
    ),
    "rhobeg-below-tol": (
        lambda x: float(np.sum((x - 1e-7) ** 2)),
        np.zeros(2),
        1e-7,
        50,
        1e-6,
    ),
    "maxiter-below-n-plus-2": (
        lambda x: float(np.sum((x - 1.0) ** 2)),
        np.zeros(4),
        0.5,
        2,
        1e-6,
    ),
    "one-variable": (lambda x: float((x[0] - 0.3) ** 2), np.zeros(1), 0.5, 100, 1e-6),
    "overwrites-argument": (_overwrites_argument, np.zeros(3), 0.5, 100, 1e-6),
    "tiny-gradient": (
        lambda x: 1e-160 * float(x[0] + 2.0 * x[1]),
        np.zeros(2),
        0.5,
        60,
        1e-6,
    ),
    "skewed-gradient": (
        lambda x: float(x[1] + 1e-20 * x[0]),
        np.zeros(2),
        0.5,
        40,
        1e-6,
    ),
    "quadratic-to-convergence": (quadratic, np.zeros(3), 0.5, 1000, 1e-6),
}


@pytest.mark.skipif(
    not _scipy_has_prima(),
    reason="SciPy < 1.16 runs Powell's Fortran COBYLA, not the PRIMA "
    "translation the port reproduces",
)
class TestCobylaParity:
    @pytest.mark.parametrize("seed", range(16))
    def test_qaoa_objectives(self, seed):
        fun, x0, rhobeg, maxiter = qaoa_case(seed)
        assert_cobyla_parity(fun, x0, rhobeg=rhobeg, maxiter=maxiter)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        fun, x0, rhobeg, maxiter, tol = EDGE_CASES[name]
        assert_cobyla_parity(fun, x0, rhobeg=rhobeg, maxiter=maxiter, tol=tol)

    @pytest.mark.slow
    def test_qaoa_sweep(self):
        for seed in range(16, 96):
            fun, x0, rhobeg, maxiter = qaoa_case(seed)
            assert_cobyla_parity(fun, x0, rhobeg=rhobeg, maxiter=maxiter)

    @pytest.mark.slow
    def test_random_objective_families(self):
        gen = np.random.default_rng(2024)
        for _ in range(30):
            dim = int(gen.integers(1, 9))
            centre = gen.normal(size=dim)
            basis = np.linalg.qr(gen.normal(size=(dim, dim)))[0]
            hessian = basis @ np.diag(10.0 ** gen.uniform(-6, 6, size=dim)) @ basis.T
            power = gen.uniform(0.5, 4.0)
            family = (
                lambda x, c=centre, h=hessian: float((x - c) @ h @ (x - c)),
                lambda x, c=centre, q=power: float(np.sum(np.abs(x - c) ** q)),
                lambda x, c=centre: float(np.sum(np.floor(3.0 * (x - c)))),
            )[int(gen.integers(3))]
            assert_cobyla_parity(
                family,
                gen.normal(size=dim) * 10.0 ** gen.uniform(-3, 3),
                rhobeg=10.0 ** gen.uniform(-4, 1),
                maxiter=int(gen.choice([5, 20, 100, 500])),
                tol=10.0 ** gen.uniform(-12, -2),
            )


def assert_ask_tell_matches(fun, x0, *, rhobeg, maxiter, tol=1e-6):
    """Drive ``cobyla_steps`` by hand: it must ask for the points
    ``minimize_cobyla`` evaluates, in order, and return the same result."""
    called, asked = [], []

    def recording(x):
        called.append(x.copy())
        return fun(x)

    x0 = np.asarray(x0, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow on infinite objectives
        result = minimize_cobyla(
            recording, x0.copy(), rhobeg=rhobeg, maxiter=maxiter, tol=tol
        )
        steps = cobyla_steps(x0.copy(), rhobeg=rhobeg, maxiter=maxiter, tol=tol)
        value = None
        while True:
            try:
                x = steps.send(value)
            except StopIteration as stop:
                told = stop.value
                break
            asked.append(x.copy())
            value = fun(x)
    assert len(asked) == len(called) == result.nfev
    for mine, ref in zip(asked, called, strict=True):
        np.testing.assert_array_equal(mine.view(np.uint64), ref.view(np.uint64))
    np.testing.assert_array_equal(told.x.view(np.uint64), result.x.view(np.uint64))
    assert told.fun == result.fun
    assert (told.nfev, told.nit, told.success, told.message) == (
        result.nfev, result.nit, result.success, result.message
    )
    np.testing.assert_array_equal(told.history, result.history)


class TestCobylaAskTell:
    """The ask/tell generator against the driven port, on the parity cases;
    it needs no SciPy, so it runs where ``TestCobylaParity`` skips."""

    @pytest.mark.parametrize("seed", range(16))
    def test_qaoa_objectives(self, seed):
        fun, x0, rhobeg, maxiter = qaoa_case(seed)
        assert_ask_tell_matches(fun, x0, rhobeg=rhobeg, maxiter=maxiter)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        fun, x0, rhobeg, maxiter, tol = EDGE_CASES[name]
        assert_ask_tell_matches(fun, x0, rhobeg=rhobeg, maxiter=maxiter, tol=tol)

    def test_invalid_x0_raises_on_first_ask(self):
        steps = cobyla_steps(np.array([0.0, np.inf]))
        with pytest.raises(ValueError, match="finite"):
            next(steps)


class TestCobylaPort:
    def test_does_not_mutate_x0(self):
        x0 = np.array([0.25, -0.5])
        minimize_cobyla(quadratic, x0, rhobeg=0.3, maxiter=30)
        np.testing.assert_array_equal(x0, [0.25, -0.5])

    def test_non_finite_x0_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            minimize_cobyla(quadratic, np.array([0.0, np.nan]))

    def test_no_finite_value_returns_x0(self):
        result = minimize_cobyla(lambda x: float("nan"), np.ones(2), maxiter=20)
        np.testing.assert_array_equal(result.x, np.ones(2))
        assert result.fun == np.inf
        assert result.nfev == len(result.history) <= 20

    def test_solves_never_import_scipy_optimize(self):
        # scipy.optimize costs ~27 MB of RSS on import; the solvers must not
        # pull it in now that COBYLA lives in this package.
        script = (
            "import sys\n"
            "from repro.graphs.generators import erdos_renyi\n"
            "from repro.qaoa2 import QAOA2Solver\n"
            "from repro.service import MaxCutService\n"
            "QAOA2Solver(n_max_qubits=8, rng=1).solve(erdos_renyi(20, 0.3, rng=1))\n"
            "MaxCutService().solve(erdos_renyi(8, 0.5, rng=2), seed=3)\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            timeout=120,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSPSA:
    def test_converges_on_quadratic(self):
        result = minimize_spsa(quadratic, np.zeros(3), maxiter=600, rng=0, a=0.5)
        assert result.fun < 0.1

    def test_deterministic_with_seed(self):
        a = minimize_spsa(quadratic, np.zeros(2), maxiter=50, rng=7)
        b = minimize_spsa(quadratic, np.zeros(2), maxiter=50, rng=7)
        assert np.allclose(a.x, b.x)
        assert a.history == b.history

    def test_evaluation_budget(self):
        result = minimize_spsa(quadratic, np.zeros(2), maxiter=40, rng=0)
        assert result.nfev <= 41  # 2 per iteration + final

    @pytest.mark.parametrize("maxiter", [1, 2, 3, 5, 7, 40, 41, 100])
    def test_maxiter_is_hard_evaluation_bound(self, maxiter):
        # Regression: the final best-seen evaluation used to push nfev to
        # maxiter + 1 (and maxiter=1 spent 3 evaluations).
        result = minimize_spsa(quadratic, np.zeros(2), maxiter=maxiter, rng=0)
        assert result.nfev <= maxiter
        assert result.nfev == len(result.history)

    def test_odd_budget_spends_leftover_on_final_iterate(self):
        result = minimize_spsa(quadratic, np.zeros(2), maxiter=41, rng=0)
        assert result.nfev == 41  # 20 iterations + the final evaluation

    def test_budget_of_two_performs_an_iteration(self):
        # maxiter=2 affords exactly one +/- pair; the optimizer must take
        # that gradient step rather than just scoring x0.
        result = minimize_spsa(quadratic, np.ones(2), maxiter=2, rng=0)
        assert result.nit == 1
        assert result.nfev == 2

    def test_invalid_maxiter_rejected(self):
        with pytest.raises(ValueError, match="maxiter"):
            minimize_spsa(quadratic, np.zeros(2), maxiter=0, rng=0)

    def test_noisy_objective_progress(self):
        rng_noise = np.random.default_rng(1)

        def noisy(x):
            return quadratic(x) + 0.05 * rng_noise.standard_normal()

        result = minimize_spsa(noisy, np.zeros(2), maxiter=400, rng=2, a=0.5)
        assert quadratic(result.x) < 1.0


class TestMultiStartSPSA:
    def quadratic_batch(self, matrix):
        return np.array([quadratic(row) for row in matrix])

    def test_single_start_matches_minimize_spsa(self):
        # Shared perturbation stream: S=1 reproduces the scalar optimizer
        # bitwise, including history order and nfev.
        for maxiter in (7, 40, 61):
            single = minimize_spsa(quadratic, np.zeros(3), maxiter=maxiter, rng=4)
            multi = multi_start_spsa(quadratic, np.zeros(3), maxiter=maxiter, rng=4)
            assert multi.fun == single.fun
            np.testing.assert_array_equal(multi.x, single.x)
            assert multi.history == single.history
            assert multi.nfev == single.nfev

    def test_more_starts_never_worse_than_single(self):
        # Start 0 shares x0 and the delta stream with the single start, so
        # the fleet's best-seen value can only improve on it.
        extras = np.random.default_rng(9).uniform(-2.0, 2.0, size=(4, 3))
        for seed in range(5):
            single = minimize_spsa(quadratic, np.zeros(3), maxiter=50, rng=seed)
            multi = multi_start_spsa(
                quadratic, np.vstack([np.zeros(3), extras]), maxiter=50, rng=seed
            )
            assert multi.fun <= single.fun

    def test_batch_fun_matches_pointwise(self):
        x0s = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 4))
        pointwise = multi_start_spsa(quadratic, x0s, maxiter=60, rng=1)
        batched = multi_start_spsa(
            quadratic, x0s, maxiter=60, rng=1, batch_fun=self.quadratic_batch
        )
        assert batched.fun == pointwise.fun
        np.testing.assert_array_equal(batched.x, pointwise.x)
        assert batched.history == pointwise.history
        assert batched.nfev == pointwise.nfev

    def test_total_budget_and_iterations(self):
        x0s = np.zeros((3, 2))
        result = multi_start_spsa(quadratic, x0s, maxiter=41, rng=0)
        assert result.nfev == 3 * 41  # per-start budget, fleet-wide count
        assert result.nit == 20

    def test_batch_shape_validated(self):
        with pytest.raises(ValueError, match="batch_fun"):
            multi_start_spsa(
                quadratic,
                np.zeros((2, 3)),
                maxiter=4,
                rng=0,
                batch_fun=lambda m: np.zeros(1),
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="maxiter"):
            multi_start_spsa(quadratic, np.zeros((2, 3)), maxiter=0)
        with pytest.raises(ValueError, match="x0s"):
            multi_start_spsa(quadratic, np.zeros((1, 2, 3)), maxiter=10)


class TestNelderMead:
    def test_converges_on_quadratic(self):
        result = minimize_nelder_mead(quadratic, np.zeros(3), maxiter=400)
        assert result.fun < 1e-4

    def test_rosenbrock_progress(self):
        result = minimize_nelder_mead(rosenbrock, np.array([-1.0, 1.0]), maxiter=800)
        assert result.fun < rosenbrock(np.array([-1.0, 1.0]))
        assert result.fun < 1.0

    def test_evaluation_budget(self):
        result = minimize_nelder_mead(quadratic, np.zeros(4), maxiter=60)
        assert result.nfev <= 66  # simplex init may finish the last shrink

    def test_initial_step_matters(self):
        tiny = minimize_nelder_mead(quadratic, np.zeros(2), maxiter=20, initial_step=1e-4)
        normal = minimize_nelder_mead(quadratic, np.zeros(2), maxiter=20, initial_step=0.5)
        assert normal.fun <= tiny.fun + 1e-9


class TestDispatcher:
    @pytest.mark.parametrize("method", ["cobyla", "spsa", "nelder-mead"])
    def test_all_methods_reduce_objective(self, method):
        x0 = np.array([3.0, -2.0])
        result = minimize(quadratic, x0, method=method, maxiter=300, rng=0)
        assert result.fun < quadratic(x0)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            minimize(quadratic, np.zeros(2), method="adam")

    def test_alias_nm(self):
        result = minimize(quadratic, np.zeros(2), method="nm", maxiter=100)
        assert result.fun < 1.0
