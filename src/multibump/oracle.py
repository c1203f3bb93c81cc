"""Shooting oracle: DOP853 integration of the ODE u'' + a_mu(t) u^3 = 0 with
restarts at weight breakpoints.

This path is deliberately independent of the FEM machinery: no quadrature
tables or assembly code are shared.  It provides initial-value integration
with dense output (Dormand-Prince 8(5,3) after Hairer, Norsett & Wanner),
Dirichlet shooting on intervals, and a brute-force ground-level computation
used to cross-validate the local solver.

The integration is scipy's DOP853 without ``solve_ivp``: ``_dop853``
repeats, operation for operation, what ``solve_ivp(method="DOP853",
dense_output=True)`` with a terminal event does, so it takes the same steps
to the bit.  It leaves out the machinery around each step (solver,
interpolant and result objects, event bookkeeping), and appends each step's
dense-output coefficients straight into ``_Steps``.  It never imports
``scipy.integrate`` or ``scipy.optimize`` (about 0.35 s and 20 MB of a
process): ``_dop`` is scipy's tableau file, loaded by its path, and
``_initial_step`` (``select_initial_step``), the step-size factors and
``_brentq`` (the C ``brentq``) repeat scipy's operations.

One integrator, ``_integrate_raw``, carries a batch of runs at once.  Run k
goes from its t_from to its t_to, in either direction, on a common
s in [0, 1] (t = t_from + (t_to - t_from) s), with its derivative columns
taken along the direction of travel.  The pieces of s are the union of the
runs' weight knots, one ``_dop853`` call each.  A piece's first step is
twice the larger of the last two steps before it, capped at the piece.
scipy's error norm is a root mean square over all components, so a batch
of n runs divides rtol and atol by sqrt(n): the batch's norm is then the
root-sum-square of the runs' own, and a step it accepts passes each run's
test (DOP853 blends a 5th- and a 3rd-order estimate, which keeps this up to
the runs' mix of the two).  A run whose |u| reaches the cap stops there and
stays frozen, and the other runs go on.

A Dirichlet shot starts at the end where |u| is smaller, t0 on ties: the
solutions are small or large on each interval, and shooting from the large
end is the ill-conditioned direction.  ``shoot_batch`` shoots a set of
intervals in rounds.  Each round is one batched integration holding one
attempt of every open shot; each shot keeps its own Newton/bracket state,
and an accepted shot leaves the batch.  ``shoot_dirichlet`` is its one-shot
case, and ``integrate`` the one-run case of ``_integrate_raw``.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import BlowUp, NewtonFailure, NonConvergence, ScopeError

# scipy's DOP853 tableau, run from its numpy-only file: scipy.integrate's
# package __init__ never runs
_spec = importlib.util.spec_from_file_location(
    "multibump._dop853_coefficients", os.path.join(
        os.path.dirname(scipy.__file__), "integrate", "_ivp",
        "dop853_coefficients.py"))
_dop = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_dop)

_G5X, _G5W = np.polynomial.legendre.leggauss(5)
# s-knots of different runs closer than this are one knot
_S_GAP = 1e-13

_EPS = np.finfo(float).eps
_N_STAGES = _dop.N_STAGES             # stages of a step; 3 more for dense
_ERROR_ORDER = 7                      # order of the error estimator
_ERROR_EXPONENT = -1 / (_ERROR_ORDER + 1)
# scipy's step-size factors (``scipy.integrate._ivp.rk``), and brentq's
# default iteration limit
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_BRENT_ITER = 100

# every integration: the |u| that stops a trajectory, and the bound of the
# step in t
_CAP = 1e6
_MAX_STEP = np.inf
# Dirichlet shots: attempts per shot, and the accepted far-end residual
# relative to max(1, |x|, |y|)
_MAX_SHOTS = 80
_SHOT_TOL = 1e-9


@dataclass
class IvpState:
    t: float
    u: float
    du: float


class _Steps:
    """A batch's accepted steps in s with their DOP853 dense-output
    coefficients: step i spans [S[i], S[i+1]] and carries the t_old, h, F
    and y_old of scipy's ``Dop853DenseOutput``.  ``_dop853`` appends each
    step with ``add``, and ``close`` stacks them once the batch is done.

    ``column`` evaluates one state column at any s, choosing each point's
    step as ``OdeSolution`` does on increasing times and running
    ``Dop853DenseOutput._call_impl``'s recurrence on that column only: the
    same operations in the same order, so the same bits, with one
    ``searchsorted`` instead of one interpolant call per step."""

    def __init__(self):
        self.t_old, self.h, self.F, self.y_old = [], [], [], []

    def add(self, t_old, h, F, y_old):
        self.t_old.append(t_old)
        self.h.append(h)
        self.F.append(F)
        self.y_old.append(y_old)

    def close(self, S):
        self.S = S
        self.t_old = np.array(self.t_old)
        self.h = np.array(self.h)
        self.F = np.array(self.F)
        self.y_old = np.array(self.y_old)

    def column(self, s, j):
        # OdeSolution: side "left", so a step time picks the earlier step,
        # and points outside [S[0], S[-1]] take the end steps
        seg = np.clip(np.searchsorted(self.S, s, side="left") - 1,
                      0, len(self.h) - 1)
        return _dense_at(s, self.t_old[seg], self.h[seg],
                         self.F[seg, :, j].T, self.y_old[seg, j])[()]


class DenseOutput:
    """One run's accepted-step trajectory with DOP853's 7th-order dense output.

    ``ts`` holds the run's accepted step times in increasing t, both ends
    included, and ``ys`` the states there (one row each, layout
    (u, u'[, v, v']), derivatives in t).  ``steps`` is the batch's
    ``_Steps`` in s, whose columns from ``col`` on are this run's, with
    t = t_from + span s.
    """

    def __init__(self, ts, ys, steps, col, t_from, span):
        self.ts = ts
        self.ys = ys
        self._steps = steps
        self._col = col
        self._t_from = t_from
        self._span = span

    @property
    def t_end(self):
        return self.ts[-1]

    def _at(self, t, j):
        v = self._steps.column((np.asarray(t, dtype=float) - self._t_from)
                               / self._span, self._col + j)
        # odd columns are derivatives along the direction of travel
        return -v if j % 2 and self._span < 0 else v

    def eval_u(self, t):
        return self._at(t, 0)

    def eval_du(self, t):
        return self._at(t, 1)

    def first_zero(self, after=None):
        """First time u crosses zero strictly after ``after`` (None if none)."""
        lo = self.ts[0] if after is None else after
        us = self.ys[:, 0]
        for i in range(len(self.ts) - 1):
            if self.ts[i + 1] <= lo:
                continue
            ua = self.eval_u(max(self.ts[i], lo))
            ub = us[i + 1]
            if ua == 0.0 and self.ts[i] >= lo:
                return self.ts[i]
            if ua * ub < 0.0:
                return _brentq(self.eval_u, max(self.ts[i], lo),
                               self.ts[i + 1], 1e-15, 8.9e-16)
            if ub == 0.0:
                return self.ts[i + 1]
        return None

    def quad_du_squared(self, t_end=None):
        """integral of u'(t)^2 over [t_start, t_end] by per-step Gauss rules."""
        t_end = self.t_end if t_end is None else t_end
        a = self.ts[:-1]
        b = np.minimum(self.ts[1:], t_end)
        a, b = a[b > a], b[b > a]
        half = 0.5 * (b - a)
        tq = (0.5 * (a + b))[:, None] + half[:, None] * _G5X
        dq = self.eval_du(tq.ravel()).reshape(tq.shape)
        return float(np.sum(half * ((dq * dq) @ _G5W)))


def piece_amu(coefs, tref, mu):
    """a_mu on one smooth weight piece with ascending coefficients in
    (t - tref): the polynomial p where p >= 0, mu p where p < 0."""
    cs = [float(c) for c in coefs[::-1]]
    if len(cs) == 1 and cs[0] != 0.0:
        # Horner's 0 (t - tref) + c is c itself at every finite t
        value = cs[0] if cs[0] >= 0.0 else mu * cs[0]
        return lambda t: value

    def amu(t):
        s = t - tref
        p = 0.0
        for c in cs:
            p = p * s + c
        return p if p >= 0.0 else mu * p
    return amu


def _rhs(amus, span, live, m):
    """d/ds of the stacked state; run k has layout (u, u'[, v, v']), v
    solving the linearization, amus[k](s) is L a_mu(t(s)), and frozen runs
    stay put.  A plain loop returning a list: a numpy version costs more per
    call at these sizes, and the right-hand side dominates a lone hard
    shot."""
    size = m * len(span)
    runs = [(m * k, amus[k], abs(span[k])) for k in live]
    sens = m == 4

    def f(s, y):
        y = y.tolist()
        out = [0.0] * size
        for j, amu, L in runs:
            u, du = y[j], y[j + 1]
            a = amu(s)
            out[j] = L * du
            out[j + 1] = -a * u * u * u
            if sens:
                out[j + 2] = L * y[j + 3]
                out[j + 3] = -3.0 * a * u * u * y[j + 2]
        return out
    return f


def _error_norm(KT, h, scale):
    """DOP853's scaled error norm of a step from its stages KT (one column
    each): scipy's ``DOP853._estimate_error_norm``, with
    ``np.linalg.norm(x)**2`` written out as the same ``sqrt(x.dot(x))**2``.
    The 5th-order estimate, damped where the 3rd-order one is larger."""
    err5 = np.dot(KT, _dop.E5) / scale
    err3 = np.dot(KT, _dop.E3) / scale
    err5_norm_2 = np.sqrt(err5.dot(err5))**2
    err3_norm_2 = np.sqrt(err3.dot(err3))**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _initial_step(fun, t0, y0, t_bound, max_step, f0, rtol, atol):
    """The first step of a forward run from t0 < t_bound: scipy's
    ``select_initial_step`` (Hairer, Norsett & Wanner, Sec. II.4) at
    DOP853's error order, operation for operation."""
    def _rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
             interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1)))
    return min(100 * h0, h1, interval_length, max_step)


def _brentq(f, xa, xb, xtol, rtol):
    """A root of f between xa and xb: scipy's C ``brentq`` operation for
    operation, with its wrapper's checks.  A NaN value or f(xa), f(xb) of
    one sign raise ValueError, and _BRENT_ITER iterations RuntimeError."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                 # bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry     # good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} "
                       "iterations.")


def _dense_at(t, t_old, h, F, y_old):
    """DOP853's dense output (``Dop853DenseOutput._call_impl``) at t: F holds
    the interpolant's powers on its first axis, and t, t_old, h, y_old and
    each F[k] broadcast together (one step's state at scalar t, or one
    column at one step per point)."""
    x = (np.asarray(t) - t_old) / h
    y = np.zeros_like(y_old)
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def _dop853(rhs, t, t_bound, y, rtol, atol, max_step, first_step, cap, cols,
            steps):
    """One forward DOP853 integration from t to t_bound > t: scipy's
    ``solve_ivp(rhs, (t, t_bound), y, method="DOP853", rtol=rtol,
    atol=atol, max_step=max_step, first_step=first_step, dense_output=True,
    events=cap_hit)`` with ``cap_hit(t, y) = cap - max |y[cols]|``
    terminal, repeated operation for operation without its per-step
    objects.  Each accepted step's dense output goes to ``steps``.  Returns
    (ts, ys, status) as solve_ivp's t, y columns and status: 0 at t_bound,
    1 where |u| reached the cap (the state read from that step's dense
    output at the root), -1 when the step fell below 10 ulp of t."""
    def cap_hit(v):
        return cap - max([abs(v[j]) for j in cols])

    n = len(y)
    K_extended = np.empty((_dop.N_STAGES_EXTENDED, n))
    K = K_extended[:_N_STAGES + 1]
    def stage(s):
        # the slices of K and of the tableau that scipy takes anew at
        # every step, taken once
        return s, K_extended[:s].T, _dop.A[s, :s], _dop.C[s]
    stages = [stage(s) for s in range(1, _N_STAGES)]
    extra = [stage(s) for s in range(_N_STAGES + 1, _dop.N_STAGES_EXTENDED)]
    KB, KE = K[:-1].T, K.T
    f = rhs(t, y)
    if first_step is None:
        h_abs = _initial_step(rhs, t, y, t_bound, max_step,
                              np.asarray(f, dtype=float), rtol, atol)
    else:
        h_abs = first_step
    g = cap_hit(y)
    ts, ys = [t], [y]
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, ys, -1
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            # rk_step
            K[0] = f
            for s, KT, a, c in stages:
                K[s] = rhs(t + c * h, y + np.dot(KT, a) * h)
            y_new = y + h * np.dot(KB, _dop.B)
            K[-1] = f_new = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(KE, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        status = 0 if t_new >= t_bound else None

        # dense output: three more stages, then the interpolant's F
        for s, KT, a, c in extra:
            K_extended[s] = rhs(t + c * h, y + np.dot(KT, a) * h)
        F = np.empty((_dop.INTERPOLATOR_POWER, n))
        f_old = K[0]
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (K[-1] + f_old)
        F[3:] = h * np.dot(_dop.D, K_extended)

        t_end, y_end = t_new, y_new
        g_new = cap_hit(y_new)
        if g <= 0 <= g_new or g_new <= 0 <= g:
            t_end = _brentq(lambda x: cap_hit(_dense_at(x, t, h, F, y)),
                            t, t_new, 4 * _EPS, 4 * _EPS)
            y_end = _dense_at(t_end, t, h, F, y)
            status = 1
        g = g_new
        # solve_ivp drops a step that ends where the last one did
        if not (len(ts) > 1 and ts[-1] == t_end):
            steps.add(t, h, F, y)
            ts.append(t_end)
            ys.append(y_end)
        if status is not None:
            return ts, ys, status
        t, y, f = t_new, y_new, f_new


def _piece_in_s(w, mu, t0, d, sa, sb):
    """L a_mu(t0 + d s) as a function of s on [sa, sb], with L = |d|: since
    t - tref = d (s - sref) with sref = (tref - t0) / d, coefficient i of the
    piece's polynomial scales by L d^i."""
    coefs, tref = w.segment_pack(*sorted((t0 + d * sa, t0 + d * sb)))
    scaled = abs(d) * np.asarray(coefs) * d ** np.arange(len(coefs))
    return piece_amu(scaled, (tref - t0) / d, mu)


def _integrate_raw(w, mu, runs, rtol):
    """DOP853 on a batch of runs (t_from, t_to, y0), one ``_dop853`` call
    per piece of s (see the module docstring), at atol = rtol / 100.  Every
    y0 has the same width and layout (u, u'[, v, v']), derivatives along
    the direction of travel.  _MAX_STEP bounds the step in t.  Returns one
    (DenseOutput, end state, blew_up) per run; the end state is in the
    run's own layout, and |u| reaching _CAP ends that run there."""
    if not rtol > 0.0:
        raise ScopeError("rtol must be positive")
    n, m = len(runs), len(runs[0][2])
    t_from = [float(r[0]) for r in runs]
    span = [float(r[1]) - t0 for r, t0 in zip(runs, t_from)]
    live = [k for k in range(n) if span[k] != 0.0]
    ends = [None if k in live else 0 for k in range(n)]  # last step index
    blown = [False] * n
    knots = [np.array([0.0, 1.0])]
    for k in live:
        lo, hi = sorted((t_from[k], float(runs[k][1])))
        knots.append((w.knots_in_span(lo, hi) - t_from[k]) / span[k])
    s_all = np.sort(np.concatenate(knots))
    s_knots = s_all[np.concatenate(([True], np.diff(s_all) > _S_GAP))]
    s_knots[-1] = 1.0
    root_n = math.sqrt(n)
    # scipy's floor on rtol (validate_tol)
    rtol, atol = max(rtol / root_n, 100 * _EPS), rtol * 1e-2 / root_n
    max_step = _MAX_STEP / (max(map(abs, span)) or 1.0)

    y = np.concatenate([np.asarray(r[2], dtype=float) for r in runs])
    S, Y, steps = [0.0], [y], _Steps()
    n_steps, h = 0, None
    for sa, sb in zip(s_knots[:-1], s_knots[1:]):
        amus = [_piece_in_s(w, mu, t0, d, sa, sb) if d else None
                for t0, d in zip(t_from, span)]
        s0 = float(sa)
        while live and s0 < sb:
            ts, ys, status = _dop853(
                _rhs(amus, span, live, m), s0, float(sb), y, rtol, atol,
                max_step, None if h is None else min(h, sb - s0), _CAP,
                [m * k for k in live], steps)
            if status < 0:
                t_fail = t_from[live[0]] + span[live[0]] * ts[-1]
                raise NonConvergence(f"integrator failed at t = {t_fail:.6g}: "
                                     "Required step size is less than "
                                     "spacing between numbers.")
            S.extend(ts[1:])
            Y.extend(ys[1:])
            n_steps += len(ts) - 1
            # the knot clips the last step, so the larger of the last two
            # only bounds the controller's next step from below: offer twice
            last = ts[-3:]
            h = 2.0 * max([b - a for a, b in zip(last, last[1:])],
                          default=0.0) or h
            y = ys[-1]
            s0 = ts[-1]
            if status == 1:
                top = max(abs(y[m * k]) for k in live)
                for k in live:
                    if abs(y[m * k]) >= min(top, _CAP * (1.0 - 1e-9)):
                        ends[k], blown[k] = n_steps, True
                live = [k for k in live if not blown[k]]
        if not live:
            break

    S, Y = np.array(S), np.array(Y)
    steps.close(S)
    out = []
    for k in range(n):
        j = n_steps if ends[k] is None else ends[k]
        cols = slice(m * k, m * k + m)
        ts = t_from[k] + span[k] * S[:j + 1]
        ts[0] = t_from[k]
        ys = Y[:j + 1, cols].copy()
        if not blown[k]:
            ts[-1] = float(runs[k][1])
        if span[k] < 0:
            ys[:, 1::2] *= -1.0
            ts, ys = ts[::-1].copy(), ys[::-1].copy()
        out.append((DenseOutput(ts, ys, steps, m * k, t_from[k], span[k]),
                    Y[j, cols].copy(), blown[k]))
    return out


def integrate(w, mu, state, t_end, rtol=1e-10):
    """Integrate (u, u') from ``state`` to t_end.  Returns (IvpState,
    DenseOutput).  Raises BlowUp if |u| reaches _CAP."""
    if t_end < state.t:
        raise ScopeError("backward integration is not supported")
    if t_end == state.t:
        raise ScopeError("integration over an empty interval (t_end = t0)")
    ((dense, end, blew_up),) = _integrate_raw(
        w, mu, [(state.t, t_end, [state.u, state.du])], rtol)
    if blew_up:
        raise BlowUp(f"|u| reached {_CAP:g} at t = {dense.t_end:.6g}")
    return IvpState(t=float(dense.t_end), u=float(end[0]),
                    du=float(end[1])), dense


@dataclass
class ShootResult:
    slope: float           # u' at the end the shot starts from
    residual: float        # u at the far end minus its datum
    iters: int
    dense: DenseOutput


def shoots_from_t1(x, y):
    """Whether a Dirichlet shot from u(t0) = x to u(t1) = y starts at t1: a
    shot starts at the end where |u| is smaller, and ties go to t0."""
    return abs(y) < abs(x)


class _Shot:
    """Newton on one shot's far-end value using the variational equation,
    with bracketing and bisection fallback.  The slope ``p`` is taken along
    the direction of travel, so on a negativity interval a larger p raises
    the far-end value from either end, which the one-sided walk relies on.
    On a positive interval R(p) need not be monotone: the bracket keeps a
    sign change either way round, and Newton steps that stall without one
    give way to probes on both sides of the best slope."""

    def __init__(self, t0, t1, x, y, s0):
        if t0 == t1:
            raise ScopeError("shooting over an empty interval (t0 = t1)")
        back = shoots_from_t1(x, y)
        self.sign = -1.0 if back else 1.0
        self.t_from, self.t_to = (t1, t0) if back else (t0, t1)
        self.u_from, self.target = (y, x) if back else (x, y)
        scale = max(1.0, abs(x), abs(y))
        self.tol = _SHOT_TOL * scale
        self.big = 1e9 * scale
        self.p = self.sign * (s0 if s0 is not None else (y - x) / (t1 - t0))
        self.lo = self.hi = None        # bracket: R(lo) < 0 < R(hi)
        self.best = None
        # finite, unbracketed attempts in a row that did not halve the best
        # |R|, and the probes made once they stalled
        self.stall = self.probes = 0
        self.iters = 0
        self.result = None

    def run(self):
        return self.t_from, self.t_to, [self.u_from, self.p, 0.0, 1.0]

    def update(self, dense, end, blew_up):
        """Take one attempt's outcome; True once the shot is accepted."""
        self.iters += 1
        s = self.p
        if blew_up:
            # a blow-up counts as a residual of its sign, which tells which
            # side of the connecting slope the attempt is on
            R, dR = math.copysign(self.big, end[0]), None
        else:
            R, dR = float(end[0]) - self.target, float(end[2])
            if abs(R) <= self.tol:
                self.result = ShootResult(slope=self.sign * s, residual=R,
                                          iters=self.iters, dense=dense)
                return True
        lo, hi = self.lo, self.hi
        if lo is not None and hi is not None:
            # a point inside the bracket replaces the end of its sign, so the
            # bracket shrinks also where R falls with p (a positive interval)
            if min(lo, hi) < s < max(lo, hi):
                if R < 0.0:
                    self.lo = lo = s
                elif R > 0.0:
                    self.hi = hi = s
        elif R < 0.0 and (lo is None or s > lo):
            self.lo = lo = s
        elif R > 0.0 and (hi is None or s < hi):
            self.hi = hi = s
        bracketed = lo is not None and hi is not None
        if not (blew_up or bracketed):
            halved = self.best is None or abs(R) < 0.5 * self.best[0]
            self.stall = 0 if halved else self.stall + 1
        if self.best is None or abs(R) < self.best[0]:
            self.best = (abs(R), s)
        step = None
        if dR is not None and dR != 0.0 and abs(R) < self.big:
            step = -R / dR
            cand = s + step
            if bracketed and not (min(lo, hi) < cand < max(lo, hi)):
                step = None
        if step is None:
            if bracketed:
                cand = 0.5 * (lo + hi)
            else:
                # one-sided: walk against the residual sign
                cand = s - math.copysign(max(1.0, abs(s)) * 0.5, R)
        if not bracketed and self.stall >= 3:
            # Newton circles an extremum of R that misses zero (R need not
            # be monotone on a positive interval): probe ever farther on
            # both sides of the best slope until R changes sign
            k, s_best = self.probes, self.best[1]
            reach = max(1.0, abs(s_best)) * 0.5 * 2.0 ** (k // 2)
            cand = s_best + (reach if k % 2 == 0 else -reach)
            self.probes += 1
        self.p = cand
        return False


def shoot_batch(w, mu, problems, rtol=1e-10):
    """Solve every Dirichlet problem (t0, t1, x, y, s0) -- u(t0) = x,
    u(t1) = y -- by shooting; returns their ShootResults in order.

    Each shot starts at the end where |u| is smaller (``shoots_from_t1``),
    and s0 guesses u' there (None: the chord slope).  A shot is accepted
    when its far-end residual is at most _SHOT_TOL max(1, |x|, |y|).  One
    batched integration per round holds one attempt of every open shot; a
    trajectory whose |u| reaches _CAP counts as a residual of its sign
    and stops only its own run.  Raises NewtonFailure when a shot has made
    _MAX_SHOTS attempts.
    """
    shots = [_Shot(*p) for p in problems]
    todo = shots
    while todo:
        runs = _integrate_raw(w, mu, [s.run() for s in todo], rtol)
        left = []
        for shot, run in zip(todo, runs):
            if shot.update(*run):
                continue
            if shot.iters >= _MAX_SHOTS:
                raise NewtonFailure(
                    f"shooting failed to reach |residual| <= {shot.tol:g}; "
                    f"best {shot.best[0]:g}")
            left.append(shot)
        todo = left
    return [s.result for s in shots]


def shoot_dirichlet(w, mu, t0, t1, x, y, rtol=1e-10, s0=None):
    """Find the slope that joins u(t0) = x to u(t1) = y: the one-shot case of
    ``shoot_batch``, so the shot starts at t1 when |y| < |x| and s0 (and the
    result's slope) is u' at that end."""
    return shoot_batch(w, mu, [(t0, t1, x, y, s0)], rtol)[0]


def _constant_first_return(value=1.0, slope=1.0):
    """First return to zero and int u'^2 for u'' + value*u^3 = 0, u(0)=0, u'(0)=slope."""
    from .weight import Piece, build_weight
    span = 8.0 / math.sqrt(math.sqrt(value) * max(slope, 1e-12))
    w1 = build_weight(2.0 * span, span,
                      [Piece(0.0, span, "poly", (value,)),
                       Piece(span, 2.0 * span, "poly", (-value,))], check=False)
    st = IvpState(t=0.0, u=0.0, du=slope)
    for _ in range(8):
        _, dense = integrate(w1, 0.0, st, span, rtol=1e-12)
        tz = dense.first_zero(after=1e-12)
        if tz is not None:
            return tz, dense.quad_du_squared(t_end=tz)
        st = IvpState(t=dense.t_end, u=float(dense.eval_u(dense.t_end)),
                      du=float(dense.eval_du(dense.t_end)))
        span *= 2.0
    raise NonConvergence("no return to zero found")


def brute_ground_level(w, rtol=1e-12):
    """Ground level c = (1/4) int u'^2 of the positive Dirichlet solution on
    [0, tau], for piecewise-constant a+ only.

    For a constant a+ the scaling u -> lam*u(lam*t) reduces everything to one
    base integration; otherwise the Dirichlet solution is found by shooting
    for a first zero exactly at tau.
    """
    pos = [i for i in range(len(w.seg_coefs)) if w.seg_positive[i]]
    coefs = w.seg_coefs[pos]
    if np.any(np.abs(coefs[:, 1:]) > 1e-12 * max(1.0, np.abs(coefs).max())):
        raise ScopeError("a+ must be piecewise constant on [0, tau]")
    values = coefs[:, 0]
    if np.allclose(values, values[0], rtol=1e-12, atol=0.0):
        k = float(values[0])
        t1, i1 = _constant_first_return(1.0, 1.0)
        lam = t1 / w.tau
        return 0.25 * lam ** 3 * i1 / k

    # piecewise-constant but non-uniform: bisection on the initial slope so the
    # first return lands on tau (larger slopes return sooner)
    def zero_time(s):
        st = IvpState(t=0.0, u=0.0, du=s)
        _, dense = integrate(w, 0.0, st, w.tau * (1.0 + 1e-9), rtol=rtol)
        tz = dense.first_zero(after=1e-12)
        return (tz if tz is not None else math.inf), dense

    s_lo, s_hi = 1.0, 1.0
    for _ in range(200):
        if zero_time(s_lo)[0] > w.tau:
            break
        s_lo *= 0.25
    for _ in range(200):
        if zero_time(s_hi)[0] < w.tau:
            break
        s_hi *= 4.0
    for _ in range(200):
        s = math.sqrt(s_lo * s_hi)
        tz, dense = zero_time(s)
        if abs(tz - w.tau) <= 1e-13 * w.tau:
            break
        if tz > w.tau:
            s_lo = s
        else:
            s_hi = s
        if abs(math.log(s_hi / s_lo)) < 1e-15:
            break
    tz, dense = zero_time(math.sqrt(s_lo * s_hi))
    return 0.25 * dense.quad_du_squared(t_end=min(tz, w.tau))
