"""COBYLA — the paper's optimizer (§4), ported in-repo for unconstrained use.

The grid search sweeps ``rhobeg`` (COBYLA's initial trust-region radius), so
it is a first-class argument; results report the best point seen.  This is
Powell's COBYLA (M. J. D. Powell, "A direct search optimization method that
models the objective and constraint functions by linear interpolation",
1994) as modernised in Zaikun Zhang's PRIMA (https://www.libprima.net) and
translated to Python in SciPy's ``scipy/_lib/pyprima``, SciPy's COBYLA since
SciPy 1.16.  It ports that translation's ``cobylb`` loop for problems
without constraints, the only kind this package solves, and evaluates
exactly the points SciPy >= 1.16 evaluates, bit for bit (``TestCobylaParity``
checks it): every reduction that reaches a point stays PRIMA's NumPy call on
arrays of PRIMA's shape and layout (``@``, ``np.dot``, ``np.add.reduce``,
``np.hypot``, ``np.linalg.inv``, norms as ``sqrt(dot)``).

Kept: the simplex updates and inverse checks, the trust-region and geometry
steps, the radius rules, the evaluate-or-reuse test, the final short step and
the exit flags.  Dropped, as none can move a point without constraints: the
constraint arrays (every violation is 0, so the merit ``f + cpen * cstrv``
ranks vertices as ``f`` does); ``getcpen`` (its predicted violation drop is
0, so ``cpen`` stays put); stage 1 of ``trstlp`` (it only cuts violations);
stage 2's ``lstsq`` multiplier (clamped at >= 0, so the step is always the
full ``dnew``); ``redrat``'s NaN/Inf rules (a step is only taken when its
predicted reduction is positive, and moderated values are finite); the
filter, history, messages and ``ScalarFunction`` wrapper (they pick what to
return or print, not where to evaluate).

The loop asks and is told: :func:`cobyla_steps` is a generator that yields
each point to evaluate and receives its value, so a caller can evaluate the
points of many independent runs together (the QAOA² leaf stage does).
:func:`minimize_cobyla` drives it with ``fun``; the arithmetic is the same
either way.
"""

# Derived from SciPy's scipy/_lib/pyprima (PRIMA's Python translation by
# Nickolai Belakovski) under SciPy's BSD-3-Clause license; its notice is
# in LICENSES/SciPy-BSD-3-Clause.txt.

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

import numpy as np

from repro.optim.base import OptimizationResult, RecordingObjective, drive

_EPS = float(np.finfo(float).eps)
_REALMIN, _REALMAX = float(np.finfo(float).tiny), float(np.finfo(float).max)
_SAFE_LO, _SAFE_HI = math.sqrt(_REALMIN), math.sqrt(_REALMAX / 2.1)  # planerot
_INV_SQRT2 = 1 / math.sqrt(2)
_FUNCMAX = 1e30  # extreme barrier: NaN and any f above it read as FUNCMAX
_ETA1, _ETA2 = 0.1, (0.1 + 2) / 3  # PRIMA's reduction-ratio thresholds
_GAMMA1, _GAMMA2, _GAMMA3 = 0.5, 2, 1.5  # radius shrink, growth, snap to RHO
# The exit flags an unconstrained run can reach, in PRIMA's numbering.
_REASONS = {
    0: "the trust region radius reaches its lower bound.",
    3: "the objective function has been evaluated MAXFUN times.",
    20: "the maximal number of trust region iterations has been reached.",
    -1: "NaN or Inf occurs in x.",
    7: "rounding errors are becoming damaging.",
}
_SMALL_TR_RADIUS, _MAXFUN_REACHED, _MAXTR_REACHED, _NAN_INF_X, _DAMAGING = _REASONS


class _Stop(Exception):
    """Carries PRIMA's exit flag out of the loop, where PRIMA breaks."""


def minimize_cobyla(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    rhobeg: float = 0.5,
    maxiter: int = 100,
    tol: float = 1e-6,
) -> OptimizationResult:
    """Minimize ``fun`` from ``x0`` with COBYLA: ``rhobeg`` is the initial
    trust-region radius (the paper's swept parameter), ``tol`` the final one;
    ``maxiter`` bounds evaluations, but not below ``len(x0) + 2``."""
    return drive(cobyla_steps(x0, rhobeg=rhobeg, maxiter=maxiter, tol=tol), fun)


def cobyla_steps(
    x0: np.ndarray,
    *,
    rhobeg: float = 0.5,
    maxiter: int = 100,
    tol: float = 1e-6,
) -> Generator[np.ndarray, float, OptimizationResult]:
    """:func:`minimize_cobyla` as an ask/tell generator: yields each point to
    evaluate (a fresh array the caller may keep or overwrite), expects its
    value to be sent back, and returns the :class:`OptimizationResult`."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or not np.isfinite(x0).all():
        raise ValueError("x0 must be a finite 1-D array")
    recorder = RecordingObjective()
    maxfun = max(int(maxiter), len(x0) + 2)
    info = yield from _cobylb(recorder.record, x0, float(rhobeg), float(tol), maxfun)
    return OptimizationResult(
        x=recorder.best_x if recorder.best_x is not None else x0.copy(),
        fun=recorder.best_f,
        nfev=recorder.nfev,
        nit=recorder.nfev,
        success=info == _SMALL_TR_RADIUS,
        message=f"Return from COBYLA because {_REASONS[info]}",
        history=recorder.history,
    )


def _cobylb(
    record: Callable, x0: np.ndarray, rhobeg: float, rhoend: float, maxfun: int
) -> Generator[np.ndarray, float, int]:
    """PRIMA's ``cobylb`` without constraints: yields each point, books its
    value with ``record(x, value)`` and returns the exit flag."""
    rhobeg, rhoend = _preproc(rhobeg, rhoend)
    try:
        s = _Simplex(record, x0, rhobeg, rhoend, maxfun)
        yield from s.initxfc(x0, rhobeg)
        rho = delta = rhobeg
        for _ in range(10 * maxfun):
            s.updatepole()
            adequate_geo = (s.sqnorms() <= 4 * (delta * delta)).all()
            g = (s.fval[:-1] - s.fval[-1]) @ s.simi  # the linear model's gradient
            d = _trstlp(g, delta)
            dnorm = min(delta, _norm(d))
            shortd = dnorm <= 0.1 * rho
            prerem = -np.dot(d, g)  # preref + cpen * prerec, with prerec = 0
            bad_step = shortd or not prerem > 1e-6 * _EPS * rho
            if bad_step:
                delta = rho if 0.1 * delta <= _GAMMA3 * rho else 0.1 * delta
            else:
                x, f = yield from s.trial(d)
                actrem = s.fval[-1] - f  # the merit function is f: cstrv = 0
                # PRIMA's redrat: its NaN/Inf rules never fire, as prerem > 0
                # passed trfail and moderated values keep actrem finite.
                ratio = actrem / prerem
                delta = _trrad(delta, dnorm, ratio, rho)
                jdrop = s.setdrop_tr(actrem > 0, d, delta, rho)
                s.accept(jdrop, d, x, f)
                bad_step = ratio <= 0 or jdrop is None
            if not bad_step:
                continue
            if not adequate_geo:  # a geometry step replaces the farthest vertex
                sqnorms = s.sqnorms()
                if not (sqnorms <= 4 * (delta * delta)).all():
                    jdrop = int(sqnorms.argmax())
                    d = s.geostep(jdrop, delta / 2)
                    x, f = yield from s.trial(d)
                    s.accept(jdrop, d, x, f)
            elif max(delta, dnorm) <= rho:  # this resolution is done
                if rho <= rhoend:
                    raise _Stop(_SMALL_TR_RADIUS)
                quot = rho / rhoend  # PRIMA's redrho
                new_rho = rhoend if quot <= 16 else math.sqrt(quot) * rhoend
                new_rho = 0.1 * rho if quot > 250 else new_rho
                delta, rho = max(0.5 * rho, new_rho), new_rho
                s.updatepole()
        return _MAXTR_REACHED
    except _Stop as stop:
        info = stop.args[0]
    # Try the last trust-region step if it was too short to evaluate.
    if info == _SMALL_TR_RADIUS and shortd and s.nf < maxfun:
        x = s.sim[:, -1] + d
        if _norm(x - s.sim[:, -1]) > 1e-3 * rhoend:
            yield from s.evaluate(x)
    return info


def _preproc(rhobeg: float, rhoend: float) -> tuple:
    """PRIMA's preproc: repair an invalid or nearly equal RHOBEG/RHOEND."""
    if abs(rhobeg - rhoend) < 1e2 * _EPS * max(abs(rhobeg), 1):
        rhoend = rhobeg
    if not 0 < rhobeg < math.inf:
        rhobeg = max(10 * rhoend, 1) if 0 < rhoend < math.inf else 1
    if not 0 < rhoend < math.inf or rhobeg < rhoend:
        rhoend = max(_EPS, min(0.1 * rhobeg, 1e-6))
    return rhobeg, rhoend


class _Simplex:
    """PRIMA's interpolation set, first built by ``initxfc``: SIM[:, n] is the
    pole (best vertex), SIM[:, j] vertex j's offset from it, SIMI =
    inv(SIM[:, :n]); FVAL holds the values, the pole's last.  The methods
    that evaluate are generators: they yield the point, get its value."""

    def __init__(self, record, x0, rhobeg, rhoend, maxfun) -> None:
        self.record, self.rhoend, self.maxfun, self.nf = record, rhoend, maxfun, 0
        n = self.n = x0.size
        sim = self.sim = np.eye(n, n + 1) * rhobeg
        sim[:, n] = x0
        self.fval = np.empty(n + 1)

    def initxfc(self, x0, rhobeg):
        """Evaluate x0 and x0 + rhobeg e_j; the best becomes the pole."""
        sim, fval, n = self.sim, self.fval, self.n
        fval[n] = yield from self.evaluate(x0)
        for j in range(n):
            x = sim[:, n].copy()
            x[j] += rhobeg
            fval[j] = yield from self.evaluate(x)
            if not np.isfinite(x).all():
                raise _Stop(_NAN_INF_X)
            if fval[j] < fval[n]:
                fval[j], fval[n] = fval[n], fval[j]
                sim[:, n] = x
                sim[j, : j + 1] = -rhobeg
        self.simi = np.linalg.inv(sim[:, :n])

    def evaluate(self, x: np.ndarray):
        """f(x) behind PRIMA's extreme barrier.  The caller gets a copy, so
        what it does to its array cannot reach the point recorded."""
        self.nf += 1
        x = np.clip(x, -_REALMAX, _REALMAX)
        f = self.record(x, (yield x.copy()))
        return _FUNCMAX if f != f else min(max(f, -_REALMAX), _FUNCMAX)

    def trial(self, d: np.ndarray):
        """The pole + d and its value, reused from a vertex within 1e-4 * RHOEND."""
        sim, n = self.sim, self.n
        x = sim[:, n] + d
        to_pole = x - sim[:, n]
        diff = x.reshape(n, 1) - (sim[:, n].reshape(n, 1) + sim[:, :n])
        distsq = np.add.reduce(diff * diff, axis=0)
        distsq = np.append(distsq, np.add.reduce(to_pole * to_pole))
        j = distsq.argmin()
        tiny = 1e-4 * self.rhoend
        if distsq[j] <= tiny * tiny:
            return x, self.fval[j]
        return x, (yield from self.evaluate(x))

    def accept(self, jdrop: Optional[int], d, x, f) -> None:
        """PRIMA's ``updatexfc`` (vertex ``jdrop`` := pole + d), then checkbreak."""
        sim, simi, n = self.sim, self.simi, self.n
        if jdrop is not None:
            if jdrop < n:
                sim[:, jdrop] = d
                simi_jdrop = simi[jdrop, :] / np.dot(simi[jdrop, :], d)
                simi -= np.outer(simi @ d, simi_jdrop)
                simi[jdrop, :] = simi_jdrop
            else:
                sim[:, n] += d
                sim[:, :n] -= d[:, None]
                simid, sum_simi = simi @ d, np.add.reduce(simi, axis=0)
                simi += np.outer(simid, sum_simi / (1 - sum(simid)))
            self.check_inverse()
            self.fval[jdrop] = f
            self.updatepole()
        if self.nf >= self.maxfun:
            raise _Stop(_MAXFUN_REACHED)
        if not np.isfinite(x).all():
            raise _Stop(_NAN_INF_X)

    def sqnorms(self) -> np.ndarray:
        """Squared lengths of the offsets SIM[:, :n]."""
        offsets = self.sim[:, : self.n]
        return np.add.reduce(offsets * offsets, axis=0)

    def check_inverse(self) -> None:
        """Re-invert SIM[:, :n] if SIMI is off by over 0.1; over 1 is damage."""
        offsets, eye = self.sim[:, : self.n], np.eye(self.n)
        erri = abs(self.simi @ offsets - eye).max()
        if erri > 0.1 or np.isnan(erri):
            simi_test = np.linalg.inv(offsets)
            erri_test = abs(simi_test @ offsets - eye).max()
            if erri_test < erri or (np.isnan(erri) and not np.isnan(erri_test)):
                self.simi, erri = simi_test, erri_test
        if not erri <= 1:
            raise _Stop(_DAMAGING)

    def updatepole(self) -> None:
        """Make the vertex of least f (the first, on ties) the pole."""
        sim, fval, n = self.sim, self.fval, self.n
        jopt = int(fval.argmin())
        moved = fval[jopt] < fval[n]
        if moved:
            sim[:, n] += sim[:, jopt]
            sim_jopt = sim[:, jopt].copy()
            sim[:, jopt] = 0
            sim[:, :n] -= sim_jopt[:, None]
            self.simi[jopt, :] = -np.add.reduce(self.simi, axis=0)
        self.check_inverse()
        if moved:
            fval[[jopt, n]] = fval[[n, jopt]]

    def setdrop_tr(self, ximproved, d, delta, rho) -> Optional[int]:
        """The vertex a trust-region point replaces (None: none)."""
        n = self.n
        if ximproved:
            offsets = self.sim[:, :n] - d[:, None]
            distsq = np.add.reduce(offsets * offsets, axis=0)
            distsq = np.append(distsq, np.add.reduce(d * d))
        else:
            distsq = np.append(self.sqnorms(), 0.0)
        floor = max(rho, delta / 10)
        simid = self.simi @ d
        score = abs(np.append(simid, 1 - np.add.reduce(simid)))
        score *= np.maximum(1, distsq / (floor * floor))
        if not ximproved:
            score[n] = -1
        score[np.isnan(score)] = -1
        if (score > 0).any():
            return int(score.argmax())
        return int(distsq.argmax()) if ximproved else None

    def geostep(self, jdrop: int, delbar: float) -> np.ndarray:
        """A downhill ``delbar`` step normal to the face opposite ``jdrop``."""
        d = self.simi[jdrop, :]
        d = delbar * (d / _norm(d))
        dg = np.dot(d, (self.fval[:-1] - self.fval[-1]) @ self.simi)
        return -d if -dg < dg else d


def _trstlp(g: np.ndarray, delta: float) -> np.ndarray:
    """PRIMA's ``trstlp`` stage 2 with no constraints: from d = 0, one step to
    radius ``delta`` along -g, which PRIMA takes from a Givens QR of g."""
    n = g.size
    if (maxval := max(abs(g))) > 1e12:
        g = g * max(2 * _REALMIN, 1 / maxval)
    q = np.eye(n)
    cq, cqa = g @ q, abs(g) @ q  # PRIMA's c @ Q and |c| @ |Q|, with Q = I
    pairs = zip(cq.tolist(), cqa.tolist(), strict=True)
    cq = np.array([0.0 if _isminor(c, a) else c for c, a in pairs])
    for k in range(n - 2, -1, -1):
        if abs(cq[k + 1]) > 0:
            q[:, [k, k + 1]] = q[:, [k, k + 1]] @ _planerot(cq[k : k + 2]).T
            cq[k] = np.hypot(cq[k], cq[k + 1])
    zdota = cq[0]
    if not (abs(zdota) > _EPS**2 and not _isminor(zdota, cqa[0])):
        return np.zeros(n)  # g is zero up to rounding: no step
    sdirn = -1 / zdota * q[:, 0]
    ss, dd = np.dot(sdirn, sdirn), delta * delta
    if dd <= 0 or ss <= _EPS * delta * delta:
        return np.zeros(n)
    step = math.sqrt(ss * dd) / ss  # PRIMA's step, as sdirn . d = 0 at d = 0
    return np.zeros(n) + step * sdirn if 0 < step < math.inf else np.zeros(n)


def _planerot(x: np.ndarray) -> np.ndarray:
    """PRIMA's Givens G, (G @ x)[1] == 0 for x[1] != 0; its ints fix zero signs."""
    x0, x1 = x.tolist()
    if math.isnan(x0):
        c, s = 1, 0
    elif math.isinf(x0) and math.isinf(x1):
        c, s = math.copysign(_INV_SQRT2, x0), math.copysign(_INV_SQRT2, x1)
    elif abs(x1) <= _EPS * abs(x0):
        c, s = math.copysign(1.0, x0), 0
    elif abs(x0) <= _EPS * abs(x1):
        c, s = 0, math.copysign(1.0, x1)
    elif _SAFE_LO < abs(x0) < _SAFE_HI and _SAFE_LO < abs(x1) < _SAFE_HI:
        r = _norm(x)
        c, s = x0 / r, x1 / r
    else:  # scaled against over/underflow
        first = abs(x0) > abs(x1)
        big, t = (x0, x1 / x0) if first else (x1, x0 / x1)
        u = max(1, abs(t), math.sqrt(1 + t * t)) * math.copysign(1.0, big)
        c, s = (1 / u, t / u) if first else (t / u, 1 / u)
    return np.array([[c, s], [-s, c]])


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, which is ``sqrt(v.dot(v))``."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _isminor(x: float, ref: float) -> bool:
    """Whether ``x`` is rounding noise next to ``ref`` (Powell's test)."""
    refa = abs(ref) + 0.1 * abs(x)
    return abs(ref) >= refa or refa >= abs(ref) + 0.2 * abs(x)


def _trrad(delta: float, dnorm: float, ratio: float, rho: float) -> float:
    """The trust-region radius after a step of length ``dnorm``."""
    if ratio <= _ETA1:
        delta = _GAMMA1 * dnorm
    elif ratio <= _ETA2:
        delta = max(_GAMMA1 * delta, dnorm)
    else:
        delta = max(_GAMMA1 * delta, _GAMMA2 * dnorm)
    return rho if delta <= _GAMMA3 * rho else delta


__all__ = ["cobyla_steps", "minimize_cobyla"]
