"""The batched COBYLA stepper against the scalar port: every stacked form
against the call it stands for, and every run against a run of its own."""

import warnings

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi
from repro.optim import cobyla as scalar
from repro.optim import cobyla_batch as batch
from repro.optim import cobyla_batch_steps, cobyla_steps
from repro.qaoa.energy import MaxCutEnergy
from repro.qaoa.params import initial_parameters
from test_optim import EDGE_CASES, _overwrites_argument, quadratic

SPECIAL = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0]
)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(mine, reference):
    np.testing.assert_array_equal(bits(mine), bits(reference))


def rows_of(n, gen, count=24):
    """``count`` random rows of length ``n`` at mixed scales, then rows
    holding NaN, +-inf, +-0.0, subnormals and +-1e300 among random entries."""
    scale = 10.0 ** gen.uniform(-3, 3, size=(count, 1))
    plain = gen.normal(size=(count, n)) * scale
    special = gen.normal(size=(2 * len(SPECIAL), n))
    for row, value in enumerate(np.tile(SPECIAL, 2)):
        special[row, gen.integers(n)] = value
        if row >= len(SPECIAL):
            special[row, gen.integers(n)] = gen.choice(SPECIAL)
    return np.concatenate([plain, special])


def stacks_of(n, gen, count=24):
    """Matrices ``(K, n, n)`` of random rows, some holding special values."""
    return rows_of(n * n, gen, count).reshape(-1, n, n)


@pytest.fixture
def gen():
    return np.random.default_rng(2024)


# The special values overflow and meet inf - inf on both sides, by design.
special_values_warn = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------------
# Each stacked form against the scalar call it stands for
# ---------------------------------------------------------------------------
@special_values_warn
@pytest.mark.parametrize("n", range(1, 9))
class TestStackedForms:
    def test_vector_matrix(self, n, gen):
        g, simi = rows_of(n, gen), stacks_of(n, gen)
        stacked = batch._vecmat(g, simi)
        for row in range(len(g)):
            assert_same_bits(stacked[row], g[row] @ simi[row])

    def test_matrix_vector(self, n, gen):
        simi, d = stacks_of(n, gen), rows_of(n, gen)
        stacked = batch._matvec(simi, d)
        for row in range(len(d)):
            assert_same_bits(stacked[row], simi[row] @ d[row])

    def test_matrix_matrix_on_simplex_offsets(self, n, gen):
        # check_inverse's simi @ SIM[:, :n], a strided view.
        simi = stacks_of(n, gen)
        sim = rows_of(n * (n + 1), gen).reshape(-1, n, n + 1)
        stacked = simi @ sim[:, :, :n]
        for row in range(len(simi)):
            assert_same_bits(stacked[row], simi[row] @ sim[row][:, :n])

    def test_dot_and_norm(self, n, gen):
        a, b = rows_of(n, gen), rows_of(n, gen)
        stacked_dot, stacked_norm = batch._dot(a, b), batch._norm(a)
        for row in range(len(a)):
            assert_same_bits(stacked_dot[row], np.dot(a[row], b[row]))
            assert_same_bits(stacked_norm[row], scalar._norm(a[row]))

    def test_add_reduce(self, n, gen):
        matrices, vectors = stacks_of(n, gen), rows_of(n, gen)
        stacked_axis0 = np.add.reduce(matrices, axis=1)
        stacked_1d = np.add.reduce(vectors, axis=1)
        for row in range(len(matrices)):
            assert_same_bits(stacked_axis0[row], np.add.reduce(matrices[row], axis=0))
        for row in range(len(vectors)):
            assert_same_bits(stacked_1d[row], np.add.reduce(vectors[row]))

    def test_builtin_max_and_sum(self, n, gen):
        values = rows_of(n, gen)
        # A leading NaN stays, a later NaN never replaces.
        values[0, 0], values[1, -1] = np.nan, np.nan
        stacked_max = batch._pymax(np.abs(values))
        stacked_sum = batch._pysum(values)
        for row in range(len(values)):
            assert_same_bits(stacked_max[row], max(abs(values[row])))
            assert_same_bits(stacked_sum[row], sum(values[row]))

    def test_inverse(self, n, gen):
        # initxfc and check_inverse invert SIM[:, :n], a strided view.
        sim = rows_of(n * (n + 1), gen).reshape(-1, n, n + 1)
        singular = [
            row for row in range(len(sim))
            if np.linalg.matrix_rank(np.nan_to_num(sim[row][:, :n])) < n
        ]
        sim = np.delete(sim, singular, axis=0)
        stacked = np.linalg.inv(sim[:, :, :n])
        for row in range(len(sim)):
            assert_same_bits(stacked[row], np.linalg.inv(sim[row][:, :n]))

    def test_hypot(self, n, gen):
        a, b = rows_of(n, gen).ravel(), rows_of(n, gen).ravel()
        stacked = np.hypot(a, b)
        for i in range(len(a)):
            assert_same_bits(stacked[i], np.hypot(a[i], b[i]))

    def test_planerot(self, n, gen):
        pairs = rows_of(2, gen, count=8 * n)
        extremes = np.array([[x0, x1] for x0 in SPECIAL for x1 in SPECIAL])
        pairs = np.concatenate([pairs, extremes, pairs * 1e-160, pairs * 1e160])
        stacked = batch._planerot(pairs)
        for row in range(len(pairs)):
            # The scalar's int zeros: its -s is +0.0, never -0.0.
            assert_same_bits(stacked[row], scalar._planerot(pairs[row]))


@special_values_warn
@pytest.mark.parametrize("n", range(2, 9))
def test_givens_rotation(n, gen):
    q, rot = stacks_of(n, gen), stacks_of(2, gen)
    for k in range(n - 1):
        stacked = batch._rotate(q[:, :, k : k + 2], rot)
        for row in range(len(q)):
            assert_same_bits(stacked[row], q[row][:, [k, k + 1]] @ rot[row].T)


# ---------------------------------------------------------------------------
# Whole runs against the scalar port
# ---------------------------------------------------------------------------
def scalar_run(fun, x0, *, rhobeg, maxiter, tol):
    asked = []
    steps = cobyla_steps(x0, rhobeg=rhobeg, maxiter=maxiter, tol=tol)
    value = None
    while True:
        try:
            x = steps.send(value)
        except StopIteration as stop:
            return asked, stop.value
        asked.append(x.copy())
        value = fun(x)


def batch_runs(funs, x0s, *, rhobeg, maxiter, tol):
    asked = [[] for _ in funs]
    steps = cobyla_batch_steps(x0s, rhobeg=rhobeg, maxiter=maxiter, tol=tol)
    values = None
    while True:
        try:
            rows, points = steps.send(values)
        except StopIteration as stop:
            return asked, stop.value
        values = []
        for row, point in zip(rows, points, strict=True):
            asked[row].append(point.copy())
            values.append(funs[row](point))


def _evaluated_once(fun):
    """``fun`` remembering its value at each point, so the scalar reference
    run does not evaluate again the points the batch asked for."""
    values = {}

    def remembered(x):
        key = x.tobytes()
        if key not in values:
            values[key] = fun(x)
        return values[key]

    return remembered


def assert_runs_match(funs, x0s, *, rhobeg, maxiter, tol=1e-6):
    """Step the runs together: each must ask for the points, and return the
    result, of a scalar run of its own."""
    x0s = np.asarray(x0s, dtype=np.float64)
    funs = [_evaluated_once(fun) for fun in funs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow on infinite objectives
        asked, results = batch_runs(funs, x0s, rhobeg=rhobeg, maxiter=maxiter, tol=tol)
        assert len(results) == len(funs)
        for fun, x0, mine, result in zip(funs, x0s, asked, results, strict=True):
            reference_asked, reference = scalar_run(
                fun, x0.copy(), rhobeg=rhobeg, maxiter=maxiter, tol=tol
            )
            assert len(mine) == len(reference_asked) == result.nfev
            for point, reference_point in zip(mine, reference_asked, strict=True):
                assert_same_bits(point, reference_point)
            assert_same_bits(result.x, reference.x)
            assert_same_bits(result.fun, reference.fun)
            assert (result.nfev, result.nit, result.success, result.message) == (
                reference.nfev, reference.nit, reference.success, reference.message
            )
            assert_same_bits(result.history, reference.history)


def qaoa_objective(seed, layers):
    """-F_p on a seeded 2-10-node graph, from a seeded initialisation."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 11))
    graph = erdos_renyi(
        n, float(gen.uniform(0.3, 0.9)), weighted=bool(gen.integers(2)), rng=seed
    )
    energy = MaxCutEnergy(graph)
    x0 = initial_parameters(layers, ("ramp", "random", "fixed")[seed % 3], rng=seed)
    return (lambda x: -energy.expectation(x)), x0


def qaoa_batch(seed):
    """A mixed batch: 1-23 QAOA runs of one depth, rhobeg and budget."""
    gen = np.random.default_rng(seed)
    layers, size = int(gen.integers(1, 4)), int(gen.integers(1, 24))
    rhobeg = float(gen.choice([0.01, 0.05, 0.1, 0.2, 0.3, 0.5]))
    maxiter = int(gen.choice([5, 10, 20, 40, 100, 200]))
    runs = [qaoa_objective(int(gen.integers(2**31)), layers) for _ in range(size)]
    return [fun for fun, _ in runs], [x0 for _, x0 in runs], rhobeg, maxiter


def random_family_batch(gen):
    """1-8 runs of one random family's dimension, rhobeg, budget and tol."""
    dim, size = int(gen.integers(1, 9)), int(gen.integers(1, 9))
    funs, x0s = [], []
    for _ in range(size):
        centre = gen.normal(size=dim)
        basis = np.linalg.qr(gen.normal(size=(dim, dim)))[0]
        hessian = basis @ np.diag(10.0 ** gen.uniform(-6, 6, size=dim)) @ basis.T
        power = gen.uniform(0.5, 4.0)
        funs.append((
            lambda x, c=centre, h=hessian: float((x - c) @ h @ (x - c)),
            lambda x, c=centre, q=power: float(np.sum(np.abs(x - c) ** q)),
            lambda x, c=centre: float(np.sum(np.floor(3.0 * (x - c)))),
        )[int(gen.integers(3))])
        x0s.append(gen.normal(size=dim) * 10.0 ** gen.uniform(-3, 3))
    return funs, x0s, {
        "rhobeg": 10.0 ** gen.uniform(-4, 1),
        "maxiter": int(gen.choice([5, 20, 100, 500])),
        "tol": 10.0 ** gen.uniform(-12, -2),
    }


class TestBatchParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_qaoa_batches(self, seed):
        funs, x0s, rhobeg, maxiter = qaoa_batch(seed)
        assert_runs_match(funs, x0s, rhobeg=rhobeg, maxiter=maxiter)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases_batched_with_other_runs(self, name):
        fun, x0, rhobeg, maxiter, tol = EDGE_CASES[name]
        n = len(x0)
        assert_runs_match(
            [quadratic, fun, lambda x: float(np.sum(np.cos(x))), fun],
            [np.full(n, 0.3), x0, np.linspace(-1.0, 1.0, n), x0 + 0.25],
            rhobeg=rhobeg,
            maxiter=maxiter,
            tol=tol,
        )

    @pytest.mark.slow
    def test_qaoa_sweep(self):
        runs = 0
        for seed in range(8, 400):
            funs, x0s, rhobeg, maxiter = qaoa_batch(seed)
            assert_runs_match(funs, x0s, rhobeg=rhobeg, maxiter=maxiter)
            runs += len(funs)
            if runs >= 2000:
                break
        assert runs >= 2000

    @pytest.mark.slow
    def test_random_objective_families(self):
        gen = np.random.default_rng(7)
        for _ in range(40):
            funs, x0s, options = random_family_batch(gen)
            assert_runs_match(funs, x0s, **options)


class TestBatchSteps:
    def test_overwritten_points_do_not_reach_results(self):
        # The stepper keeps its own copy of each point it asks for, so the
        # best point returned is the one whose value was the best.
        asked, results = batch_runs(
            [_overwrites_argument] * 3, np.zeros((3, 3)) + [[0.0], [0.1], [-0.2]],
            rhobeg=0.5, maxiter=100, tol=1e-6,
        )
        for points, result in zip(asked, results, strict=True):
            assert_same_bits(result.x, points[result.history.index(result.fun)])
            assert np.all(np.abs(result.x) < 2.0)

    def test_rows_are_the_waiting_runs_in_order(self):
        steps = cobyla_batch_steps(np.zeros((3, 2)), rhobeg=0.5, maxiter=20)
        rows, points = next(steps)
        assert rows == [0, 1, 2]
        assert len(points) == 3 and all(p.shape == (2,) for p in points)
        assert len({id(p) for p in points}) == 3

    def test_invalid_x0s_raise_on_first_ask(self):
        for x0s in (np.array([[0.0, np.inf]]), np.zeros(3), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match="finite 2-D"):
                next(cobyla_batch_steps(x0s))

    def test_wrong_number_of_values_raises(self):
        steps = cobyla_batch_steps(np.zeros((2, 2)))
        next(steps)
        with pytest.raises(ValueError, match="expected 2 values"):
            steps.send([1.0])

    def test_no_runs(self):
        steps = cobyla_batch_steps(np.zeros((0, 2)))
        with pytest.raises(StopIteration) as stop:
            next(steps)
        assert stop.value.value == []
