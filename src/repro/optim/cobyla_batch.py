"""Many COBYLA runs stepped as one array program.

:func:`cobyla_batch_steps` advances K independent unconstrained COBYLA runs
of one dimension n together.  Each run evaluates exactly the points
:func:`repro.optim.cobyla.cobyla_steps` evaluates for it alone, bit for bit,
and returns the same :class:`OptimizationResult`; what is saved is the
interpreter's per-point overhead, paid once per round for all runs instead
of once per run.  A QAOA² level's lock-stepped leaves use it (see
``_solve_lockstep_job`` in :mod:`repro.qaoa2.solver`); a lone run costs 3-4x
more here than in the scalar port, which stays the single-run path.

The runs' simplices, inverses and values are stacked as ``(K, n, n + 1)``,
``(K, n, n)`` and ``(K, n + 1)`` arrays in the scalar port's per-run layout.
Every reduction that reaches a point is the port's NumPy call, applied to
each run through a stacked form that rounds the same way:

- ``g @ simi`` as ``(K, 1, n) @ (K, n, n)`` and ``simi @ d`` as
  ``(K, n, n) @ (K, n, 1)``;
- ``np.dot(a, b)`` and norms as ``(a[:, None, :] @ b[:, :, None])``;
- the Givens rotation ``q[:, [k, k + 1]] @ G.T`` as ``(K, n, 2) @ (K, 2, 2)``
  on the same column-major operand;
- ``np.add.reduce`` along the same axis of each run, ``np.linalg.inv`` and
  ``np.hypot`` stacked;
- Python's builtin ``max`` and ``sum`` as left-to-right column loops that
  keep their NaN behaviour.

``np.einsum`` dots and ``np.linalg.norm(axis=...)`` do not round the same
way and are not used.  ``tests/test_cobyla_batch.py`` pins each form against
the call it stands for and the whole stepper against the port.

PRIMA's ``cobylb`` loop becomes an explicit state per run: the loop top, a
trust-region trial, the branch after a bad step (a geometry step or a
smaller RHO), a geometry trial, stopped, the final short step, and done.  A
settle loop moves every run through the states that evaluate nothing, one
array program per state over the runs in it, until each run waits for a
value or is done; then the stepper asks for all waiting points at once.
"""

# Derived, through repro.optim.cobyla, from SciPy's scipy/_lib/pyprima
# (PRIMA's Python translation by Nickolai Belakovski) under SciPy's
# BSD-3-Clause license; its notice is in LICENSES/SciPy-BSD-3-Clause.txt.

from __future__ import annotations

from typing import Generator, List, Sequence, Tuple

import numpy as np

from repro.optim.base import OptimizationResult
from repro.optim.cobyla import (
    _DAMAGING,
    _EPS,
    _ETA1,
    _ETA2,
    _FUNCMAX,
    _GAMMA1,
    _GAMMA2,
    _GAMMA3,
    _INV_SQRT2,
    _MAXFUN_REACHED,
    _MAXTR_REACHED,
    _NAN_INF_X,
    _REALMAX,
    _REALMIN,
    _REASONS,
    _SAFE_HI,
    _SAFE_LO,
    _SMALL_TR_RADIUS,
    _preproc,
)

# A run's place in PRIMA's loop.  _TR, _GEO and _FINAL hold a point that is
# asked for (``waiting``) until its value arrives.
_TOP, _TR, _BAD, _GEO, _STOPPED, _FINAL, _DONE = range(7)

Ask = Tuple[List[int], List[np.ndarray]]


def cobyla_batch_steps(
    x0s: np.ndarray,
    *,
    rhobeg: float = 0.5,
    maxiter: int = 100,
    tol: float = 1e-6,
) -> Generator[Ask, Sequence[float], List[OptimizationResult]]:
    """One :func:`repro.optim.cobyla.cobyla_steps` run from each row of
    ``x0s`` (K starts of one dimension), stepped together.

    Yields ``(rows, points)``: the runs that wait for a value, in row order,
    and one fresh array per run, which the caller may keep or overwrite.
    Expects their values back as a sequence in the same order, and returns
    the K :class:`OptimizationResult` objects in row order.
    """
    x0s = np.array(x0s, dtype=np.float64)
    if x0s.ndim != 2 or not np.isfinite(x0s).all():
        raise ValueError("x0s must be a finite 2-D array")
    if not len(x0s):
        return []
    runs = _Runs(x0s, float(rhobeg), int(maxiter), float(tol))
    yield from runs.initxfc()
    while True:
        runs.settle()
        rows = np.flatnonzero(runs.waiting)
        if not rows.size:
            return runs.results()
        values = yield rows.tolist(), [runs.ask[row].copy() for row in rows]
        runs.tell(rows, values)


class _Runs:
    """The stacked state of K runs; methods take the rows they act on."""

    def __init__(self, x0s: np.ndarray, rhobeg: float, maxiter: int, tol: float):
        k, n = x0s.shape
        self.n, self.eye = n, np.eye(n)
        self.rhobeg, self.rhoend = _preproc(rhobeg, tol)
        self.maxfun = max(maxiter, n + 2)
        self.sim = np.repeat((np.eye(n, n + 1) * self.rhobeg)[None], k, axis=0)
        self.sim[:, :, n] = x0s
        self.simi = np.empty((k, n, n))
        self.fval = np.empty((k, n + 1))
        self.rho = np.full(k, float(self.rhobeg))
        self.delta = self.rho.copy()
        self.d, self.x, self.ask = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n))
        self.dnorm, self.prerem, self.f = np.zeros(k), np.zeros(k), np.zeros(k)
        self.shortd = np.zeros(k, dtype=bool)
        self.adequate = np.zeros(k, dtype=bool)
        self.jdrop = np.zeros(k, dtype=np.intp)
        self.nf = np.zeros(k, dtype=np.intp)
        self.iters = np.zeros(k, dtype=np.intp)
        self.info = np.full(k, _MAXTR_REACHED)
        self.state = np.full(k, _TOP)
        self.waiting = np.zeros(k, dtype=bool)
        # The recorder: every value, and the best point seen with its value.
        self.history: List[List[float]] = [[] for _ in range(k)]
        self.best_f = np.full(k, np.inf)
        self.best_x = x0s.copy()

    # -- asking and telling ---------------------------------------------
    def request(self, rows: np.ndarray, x: np.ndarray) -> None:
        """Ask for f at ``x`` behind PRIMA's extreme barrier."""
        self.nf[rows] += 1
        self.ask[rows] = np.clip(x, -_REALMAX, _REALMAX)
        self.waiting[rows] = True

    def tell(self, rows: np.ndarray, values: Sequence[float]) -> None:
        """Book the values of the points ``rows`` asked for."""
        if len(values) != len(rows):
            raise ValueError(f"expected {len(rows)} values, got {len(values)}")
        told = [float(value) for value in values]
        for row, value in zip(rows.tolist(), told, strict=True):
            self.history[row].append(value)
        f = np.array(told)
        better = f < self.best_f[rows]
        self.best_f[rows[better]] = f[better]
        self.best_x[rows[better]] = self.ask[rows[better]]
        self.f[rows] = np.where(f != f, _FUNCMAX, np.minimum(np.maximum(f, -_REALMAX), _FUNCMAX))
        self.waiting[rows] = False
        final = rows[self.state[rows] == _FINAL]
        self.state[final] = _DONE

    def stop(self, rows: np.ndarray, info: int) -> None:
        self.info[rows] = info
        self.state[rows] = _STOPPED

    def live(self, rows: np.ndarray) -> np.ndarray:
        return rows[self.state[rows] != _STOPPED]

    def results(self) -> List[OptimizationResult]:
        return [
            OptimizationResult(
                x=self.best_x[row].copy(),
                fun=float(self.best_f[row]),
                nfev=int(self.nf[row]),
                nit=int(self.nf[row]),
                success=bool(self.info[row] == _SMALL_TR_RADIUS),
                message=f"Return from COBYLA because {_REASONS[int(self.info[row])]}",
                history=self.history[row],
            )
            for row in range(len(self.history))
        ]

    # -- PRIMA's initxfc, all runs in step ---------------------------------
    def initxfc(self) -> Generator[Ask, Sequence[float], None]:
        """Evaluate x0 and x0 + rhobeg e_j; the best becomes the pole."""
        sim, fval, n = self.sim, self.fval, self.n
        rows = np.arange(len(sim))
        self.request(rows, sim[:, :, n])
        yield from self._ask_all()
        fval[:, n] = self.f
        for j in range(n):
            x = sim[rows, :, n]
            x[:, j] += self.rhobeg
            self.request(rows, x)
            yield from self._ask_all()
            fval[rows, j] = self.f[rows]
            finite = np.isfinite(x).all(axis=1)
            self.stop(rows[~finite], _NAN_INF_X)
            rows, x = rows[finite], x[finite]
            swap = fval[rows, j] < fval[rows, n]
            rows_swap = rows[swap]
            fval[rows_swap, j], fval[rows_swap, n] = fval[rows_swap, n], fval[rows_swap, j]
            sim[rows_swap, :, n] = x[swap]
            sim[rows_swap, j, : j + 1] = -self.rhobeg
        self.simi[rows] = np.linalg.inv(sim[rows][:, :, :n])

    def _ask_all(self) -> Generator[Ask, Sequence[float], None]:
        rows = np.flatnonzero(self.waiting)
        self.tell(rows, (yield rows.tolist(), [self.ask[row].copy() for row in rows]))

    # -- the settle loop ---------------------------------------------------
    def settle(self) -> None:
        """Step every run through the states that evaluate nothing until it
        waits for a value or is done."""
        handlers = (
            (_TR, self.after_trial),
            (_GEO, self.after_geostep),
            (_BAD, self.after_bad_step),
            (_TOP, self.loop_top),
            (_STOPPED, self.stopped),
        )
        with np.errstate(all="ignore"):  # a row off its branch computes junk
            while True:
                for state, handler in handlers:
                    rows = np.flatnonzero((self.state == state) & ~self.waiting)
                    if rows.size:
                        handler(rows)
                if (self.waiting | (self.state == _DONE)).all():
                    return

    def loop_top(self, rows: np.ndarray) -> None:
        """An iteration of PRIMA's loop up to its trust-region trial."""
        spent = self.iters[rows] >= 10 * self.maxfun
        self.info[rows[spent]] = _MAXTR_REACHED
        self.state[rows[spent]] = _DONE
        rows = rows[~spent]
        self.iters[rows] += 1
        self.updatepole(rows)
        rows = self.live(rows)
        if not rows.size:
            return
        n, fval, delta, rho = self.n, self.fval[rows], self.delta[rows], self.rho[rows]
        sqnorms = _sqnorms(self.sim[rows])
        self.adequate[rows] = (sqnorms <= (4 * (delta * delta))[:, None]).all(axis=1)
        g = _vecmat(fval[:, :n] - fval[:, n:], self.simi[rows])  # the model's gradient
        d = _trstlp(g, delta)
        norm = _norm(d)
        dnorm = np.where(norm < delta, norm, delta)
        shortd = dnorm <= 0.1 * rho
        prerem = -_dot(d, g)
        bad = shortd | ~(prerem > 1e-6 * _EPS * rho)
        self.d[rows], self.dnorm[rows], self.shortd[rows], self.prerem[rows] = (
            d, dnorm, shortd, prerem
        )
        bad_rows = rows[bad]
        delta = delta[bad]
        self.delta[bad_rows] = np.where(0.1 * delta <= _GAMMA3 * rho[bad], rho[bad], 0.1 * delta)
        self.state[bad_rows] = _BAD
        self.trial(rows[~bad], d[~bad], _TR)

    def after_trial(self, rows: np.ndarray) -> None:
        """The trust-region trial's value is in: new radius, then the vertex
        it replaces, if any."""
        actrem = self.fval[rows, self.n] - self.f[rows]
        ratio = actrem / self.prerem[rows]
        self.delta[rows] = _trrad(self.delta[rows], self.dnorm[rows], ratio, self.rho[rows])
        jdrop = self.setdrop_tr(rows, actrem > 0)
        self.accept(rows, jdrop)
        bad = (ratio <= 0) | (jdrop < 0)
        self.state[self.live(rows[bad])] = _BAD
        self.state[self.live(rows[~bad])] = _TOP

    def after_geostep(self, rows: np.ndarray) -> None:
        self.accept(rows, self.jdrop[rows])
        self.state[self.live(rows)] = _TOP

    def after_bad_step(self, rows: np.ndarray) -> None:
        """A geometry step if the simplex was inadequate at the loop top,
        else a smaller RHO once this resolution is done."""
        self.geometry_step(rows[~self.adequate[rows]])
        rows = rows[self.adequate[rows]]
        delta, dnorm = self.delta[rows], self.dnorm[rows]
        done = np.where(dnorm > delta, dnorm, delta) <= self.rho[rows]
        self.state[rows[~done]] = _TOP
        rows = rows[done]
        small = self.rho[rows] <= self.rhoend
        self.stop(rows[small], _SMALL_TR_RADIUS)
        rows = rows[~small]
        if not rows.size:
            return
        rho, rhoend = self.rho[rows], self.rhoend
        quot = rho / rhoend  # PRIMA's redrho
        new_rho = np.where(quot <= 16, rhoend, np.sqrt(quot) * rhoend)
        new_rho = np.where(quot > 250, 0.1 * rho, new_rho)
        self.delta[rows] = np.where(new_rho > 0.5 * rho, new_rho, 0.5 * rho)
        self.rho[rows] = new_rho
        self.state[rows] = _TOP
        self.updatepole(rows)

    def geometry_step(self, rows: np.ndarray) -> None:
        """Replace the farthest vertex where one lies beyond 2 * DELTA."""
        if not rows.size:
            return
        sqnorms, delta = _sqnorms(self.sim[rows]), self.delta[rows]
        far = ~(sqnorms <= (4 * (delta * delta))[:, None]).all(axis=1)
        self.state[rows[~far]] = _TOP
        rows, jdrop = rows[far], sqnorms[far].argmax(axis=1)
        self.jdrop[rows] = jdrop
        self.trial(rows, self.geostep(rows, jdrop, self.delta[rows] / 2), _GEO)

    def stopped(self, rows: np.ndarray) -> None:
        """Try the last trust-region step if it was too short to evaluate."""
        final = (
            (self.info[rows] == _SMALL_TR_RADIUS)
            & self.shortd[rows]
            & (self.nf[rows] < self.maxfun)
        )
        self.state[rows[~final]] = _DONE
        rows = rows[final]
        pole = self.sim[rows, :, self.n]
        x = pole + self.d[rows]
        far = _norm(x - pole) > 1e-3 * self.rhoend
        self.state[rows[~far]] = _DONE
        self.state[rows[far]] = _FINAL
        self.request(rows[far], x[far])

    # -- the simplex -------------------------------------------------------
    def trial(self, rows: np.ndarray, d: np.ndarray, state: int) -> None:
        """Ask for the pole + d, or reuse a vertex within 1e-4 * RHOEND."""
        if not rows.size:
            return
        n, sim = self.n, self.sim[rows]
        pole = sim[:, :, n]
        x = pole + d
        to_pole = x - pole
        diff = x[:, :, None] - (pole[:, :, None] + sim[:, :, :n])
        distsq = np.empty((len(rows), n + 1))
        distsq[:, :n] = np.add.reduce(diff * diff, axis=1)
        distsq[:, n] = np.add.reduce(to_pole * to_pole, axis=1)
        j = distsq.argmin(axis=1)
        tiny = 1e-4 * self.rhoend
        reuse = distsq[np.arange(len(rows)), j] <= tiny * tiny
        self.d[rows], self.x[rows], self.state[rows] = d, x, state
        self.f[rows[reuse]] = self.fval[rows[reuse], j[reuse]]
        self.request(rows[~reuse], x[~reuse])

    def accept(self, rows: np.ndarray, jdrop: np.ndarray) -> None:
        """PRIMA's ``updatexfc`` (vertex ``jdrop`` := pole + d; none where
        ``jdrop`` is -1), then checkbreak."""
        take = jdrop >= 0
        moved, jdrop = rows[take], jdrop[take]
        inner = jdrop < self.n
        self.replace_vertex(moved[inner], jdrop[inner])
        self.move_pole(moved[~inner])
        ok = self.check_inverse(moved)
        self.fval[moved[ok], jdrop[ok]] = self.f[moved[ok]]
        self.updatepole(moved[ok])
        rows = self.live(rows)
        self.stop(rows[self.nf[rows] >= self.maxfun], _MAXFUN_REACHED)
        rows = self.live(rows)
        self.stop(rows[~np.isfinite(self.x[rows]).all(axis=1)], _NAN_INF_X)

    def replace_vertex(self, rows: np.ndarray, j: np.ndarray) -> None:
        """Vertex ``j`` (not the pole) becomes pole + d; SIMI by rank one."""
        if not rows.size:
            return
        d, at = self.d[rows], np.arange(len(rows))
        self.sim[rows, :, j] = d
        simi = self.simi[rows]
        simi_j = simi[at, j, :] / _dot(simi[at, j, :], d)[:, None]
        simi -= _matvec(simi, d)[:, :, None] * simi_j[:, None, :]
        simi[at, j, :] = simi_j
        self.simi[rows] = simi

    def move_pole(self, rows: np.ndarray) -> None:
        """The pole becomes pole + d; SIMI by rank one."""
        if not rows.size:
            return
        n, d = self.n, self.d[rows]
        sim, simi = self.sim[rows], self.simi[rows]
        sim[:, :, n] += d
        sim[:, :, :n] -= d[:, :, None]
        simid, sum_simi = _matvec(simi, d), np.add.reduce(simi, axis=1)
        simi += simid[:, :, None] * (sum_simi / (1 - _pysum(simid))[:, None])[:, None, :]
        self.sim[rows], self.simi[rows] = sim, simi

    def check_inverse(self, rows: np.ndarray) -> np.ndarray:
        """Re-invert SIM[:, :n] where SIMI is off by over 0.1; over 1 is
        damage.  Returns which ``rows`` go on."""
        n, sim, eye = self.n, self.sim[rows], self.eye
        erri = np.abs(self.simi[rows] @ sim[:, :, :n] - eye).max(axis=(1, 2))
        redo = np.flatnonzero((erri > 0.1) | np.isnan(erri))
        if redo.size:
            offsets = sim[redo][:, :, :n]
            simi_test = np.linalg.inv(offsets)
            erri_test = np.abs(simi_test @ offsets - eye).max(axis=(1, 2))
            old = erri[redo]
            better = (erri_test < old) | (np.isnan(old) & ~np.isnan(erri_test))
            self.simi[rows[redo[better]]] = simi_test[better]
            erri[redo[better]] = erri_test[better]
        ok = erri <= 1
        self.stop(rows[~ok], _DAMAGING)
        return ok

    def updatepole(self, rows: np.ndarray) -> None:
        """Make each run's vertex of least f (the first, on ties) its pole."""
        n, fval = self.n, self.fval[rows]
        jopt = fval.argmin(axis=1)
        moved = fval[np.arange(len(rows)), jopt] < fval[:, n]
        m, j = rows[moved], jopt[moved]
        if m.size:
            at = np.arange(len(m))
            sim, simi = self.sim[m], self.simi[m]
            sim[:, :, n] += sim[at, :, j]
            sim_j = sim[at, :, j]
            sim[at, :, j] = 0
            sim[:, :, :n] -= sim_j[:, :, None]
            simi[at, j, :] = -np.add.reduce(simi, axis=1)
            self.sim[m], self.simi[m] = sim, simi
            # PRIMA swaps after the check; a run it stops never reads FVAL.
            self.fval[m, j], self.fval[m, n] = self.fval[m, n], self.fval[m, j]
        self.check_inverse(rows)

    def setdrop_tr(self, rows: np.ndarray, ximproved: np.ndarray) -> np.ndarray:
        """The vertex each trust-region point replaces (-1: none)."""
        n, sim, d = self.n, self.sim[rows], self.d[rows]
        distsq = np.empty((len(rows), n + 1))
        offsets = sim[ximproved][:, :, :n] - d[ximproved][:, :, None]
        distsq[ximproved, :n] = np.add.reduce(offsets * offsets, axis=1)
        distsq[ximproved, n] = np.add.reduce(d[ximproved] * d[ximproved], axis=1)
        distsq[~ximproved, :n] = _sqnorms(sim[~ximproved])
        distsq[~ximproved, n] = 0.0
        delta, rho = self.delta[rows], self.rho[rows]
        floor = np.where(delta / 10 > rho, delta / 10, rho)
        simid = _matvec(self.simi[rows], d)
        score = np.empty((len(rows), n + 1))
        score[:, :n] = simid
        score[:, n] = 1 - np.add.reduce(simid, axis=1)
        score = np.abs(score)
        score *= np.maximum(1, distsq / (floor * floor)[:, None])
        score[~ximproved, n] = -1
        score[np.isnan(score)] = -1
        return np.where(
            (score > 0).any(axis=1),
            score.argmax(axis=1),
            np.where(ximproved, distsq.argmax(axis=1), -1),
        )

    def geostep(self, rows: np.ndarray, jdrop: np.ndarray, delbar: np.ndarray) -> np.ndarray:
        """A downhill ``delbar`` step normal to the face opposite ``jdrop``."""
        n, simi, fval = self.n, self.simi[rows], self.fval[rows]
        d = simi[np.arange(len(rows)), jdrop, :]
        d = delbar[:, None] * (d / _norm(d)[:, None])
        dg = _dot(d, _vecmat(fval[:, :n] - fval[:, n:], simi))
        return np.where((-dg < dg)[:, None], -d, d)


def _trstlp(g: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The scalar port's ``_trstlp`` for each row of ``g``: one step to
    radius ``delta`` along -g, taken from PRIMA's Givens QR of g."""
    k, n = g.shape
    maxval = _pymax(np.abs(g))
    big = maxval > 1e12
    if big.any():
        scale = 1 / maxval[big]
        g = g.copy()
        g[big] *= np.where(scale > 2 * _REALMIN, scale, 2 * _REALMIN)[:, None]
    q = np.repeat(np.eye(n)[None], k, axis=0)
    cq, cqa = _vecmat(g, q), _vecmat(np.abs(g), q)  # PRIMA's c @ Q and |c| @ |Q|
    cq[_isminor(cq, cqa)] = 0.0
    for i in range(n - 2, -1, -1):
        rows = np.flatnonzero(np.abs(cq[:, i + 1]) > 0)
        if rows.size:
            rot = _planerot(cq[rows, i : i + 2])
            q[rows, :, i : i + 2] = _rotate(q[rows, :, i : i + 2], rot)
            cq[rows, i] = np.hypot(cq[rows, i], cq[rows, i + 1])
    zdota = cq[:, 0]
    sdirn = (-1 / zdota)[:, None] * q[:, :, 0]
    ss, dd = _dot(sdirn, sdirn), delta * delta
    step = np.sqrt(ss * dd) / ss  # PRIMA's step, as sdirn . d = 0 at d = 0
    ok = (
        (np.abs(zdota) > _EPS**2)
        & ~_isminor(zdota, cqa[:, 0])
        & ~((dd <= 0) | (ss <= _EPS * delta * delta))
        & (0 < step)
        & (step < np.inf)
    )
    return np.where(ok[:, None], 0.0 + step[:, None] * sdirn, 0.0)


def _planerot(x: np.ndarray) -> np.ndarray:
    """The scalar port's ``_planerot`` for each row of ``x`` (``(m, 2)``), as
    ``(m, 2, 2)``; its int zeros are +0.0, also when negated."""
    x0, x1 = x[:, 0], x[:, 1]
    ax0, ax1 = np.abs(x0), np.abs(x1)
    r = np.sqrt(_dot(x, x))
    c, s = x0 / r, x1 / r  # the usual case: both in range, neither negligible
    usual = (
        (_SAFE_LO < ax0) & (ax0 < _SAFE_HI) & (_SAFE_LO < ax1) & (ax1 < _SAFE_HI)
        & (ax1 > _EPS * ax0) & (ax0 > _EPS * ax1)
    )
    neg_s = -s
    if not usual.all():
        odd = ~usual
        x0, x1, ax0, ax1 = x0[odd], x1[odd], ax0[odd], ax1[odd]
        conditions = [
            np.isnan(x0),
            np.isinf(x0) & np.isinf(x1),
            ax1 <= _EPS * ax0,
            ax0 <= _EPS * ax1,
        ]
        first = ax0 > ax1  # scaled against over/underflow
        big = np.where(first, x0, x1)
        t = np.where(first, x1 / x0, x0 / x1)
        at = np.abs(t)
        u = np.where(at > 1, at, 1.0)  # Python's max(1, |t|, sqrt(1 + t^2))
        root = np.sqrt(1 + t * t)
        u = np.where(root > u, root, u) * np.copysign(1.0, big)
        one, zero = np.ones_like(x0), np.zeros_like(x0)
        c[odd] = np.select(
            conditions,
            [one, np.copysign(_INV_SQRT2, x0), np.copysign(1.0, x0), zero],
            np.where(first, 1 / u, t / u),
        )
        s[odd] = np.select(
            conditions,
            [zero, np.copysign(_INV_SQRT2, x1), zero, np.copysign(1.0, x1)],
            np.where(first, t / u, 1 / u),
        )
        int_zero_s = np.select(conditions, [True, False, True, False], False)
        neg_s[odd] = np.where(int_zero_s, 0.0, -s[odd])
    rot = np.empty((len(x), 2, 2))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, s, neg_s, c
    return rot


def _rotate(pair: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Each run's ``q[:, [k, k + 1]] @ G.T`` for its ``(n, 2)`` column pair
    and Givens ``G``, on the column-major copy that fancy indexing makes."""
    pair = np.ascontiguousarray(pair.transpose(0, 2, 1)).transpose(0, 2, 1)
    return pair @ rot.transpose(0, 2, 1)


def _isminor(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Whether each ``x`` is rounding noise next to ``ref`` (Powell's test)."""
    refa = np.abs(ref) + 0.1 * np.abs(x)
    return (np.abs(ref) >= refa) | (refa >= np.abs(ref) + 0.2 * np.abs(x))


def _trrad(delta, dnorm, ratio, rho) -> np.ndarray:
    """The trust-region radius after a step of length ``dnorm``, per run."""
    shrunk = _GAMMA1 * delta
    grown = _GAMMA2 * dnorm
    delta = np.where(
        ratio <= _ETA1,
        _GAMMA1 * dnorm,
        np.where(
            ratio <= _ETA2,
            np.where(dnorm > shrunk, dnorm, shrunk),
            np.where(grown > shrunk, grown, shrunk),
        ),
    )
    return np.where(delta <= _GAMMA3 * rho, rho, delta)


def _sqnorms(sim: np.ndarray) -> np.ndarray:
    """Squared lengths of each run's offsets SIM[:, :n]."""
    offsets = sim[:, :, : sim.shape[1]]
    return np.add.reduce(offsets * offsets, axis=1)


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Each run's ``v @ m`` (a 1-D ``v``), as the scalar port computes it."""
    return (v[:, None, :] @ m)[:, 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each run's ``m @ v`` (a 1-D ``v``), as the scalar port computes it."""
    return (m @ v[:, :, None])[:, :, 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each run's ``np.dot(a, b)`` of two 1-D arrays."""
    if a.shape[1] == 1:  # np.dot multiplies length-1 vectors as scalars
        return a[:, 0] * b[:, 0]
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Each run's ``_norm``: ``sqrt(v.dot(v))``."""
    return np.sqrt(_dot(v, v))


def _pymax(a: np.ndarray) -> np.ndarray:
    """Python's ``max`` over each row, left to right: a leading NaN stays,
    a later NaN never replaces."""
    out = a[:, 0]
    for j in range(1, a.shape[1]):
        out = np.where(a[:, j] > out, a[:, j], out)
    return out


def _pysum(a: np.ndarray) -> np.ndarray:
    """Python's ``sum`` over each row: ``((0 + a0) + a1) + ...``."""
    out = np.zeros(len(a))
    for j in range(a.shape[1]):
        out = out + a[:, j]
    return out


__all__ = ["cobyla_batch_steps"]
