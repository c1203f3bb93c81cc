"""Shooting oracle: DOP853 integration of the ODE u'' + a_mu(t) u^3 = 0 with
restarts at weight breakpoints.

This path is deliberately independent of the FEM machinery: no quadrature
tables or assembly code are shared.  It provides initial-value integration
with dense output (scipy's ``solve_ivp``, Dormand-Prince 8(5,3) after Hairer,
Norsett & Wanner), Dirichlet shooting on an interval, and a brute-force
ground-level computation used to cross-validate the local solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp
from scipy.optimize import brentq

from .errors import BlowUp, NewtonFailure, NonConvergence, ScopeError

_G5X, _G5W = np.polynomial.legendre.leggauss(5)


@dataclass
class IvpState:
    t: float
    u: float
    du: float


class DenseOutput:
    """Accepted-step trajectory with DOP853's 7th-order dense output.

    ``ts`` holds t0 and every accepted step time, ``ys`` the states there
    (one row each, layout (u, u'[, v, v'][, q])).  One ``OdeSolution`` spans
    all weight pieces: its segments are the accepted steps.
    """

    def __init__(self, ts, ys, interpolants):
        self.ts = ts
        self.ys = ys
        self._sol = OdeSolution(ts, interpolants)

    @property
    def t_end(self):
        return self.ts[-1]

    def eval_u(self, t):
        return self._sol(t)[0]

    def eval_du(self, t):
        return self._sol(t)[1]

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
                return brentq(lambda t: float(self.eval_u(t)),
                              max(self.ts[i], lo), self.ts[i + 1],
                              xtol=1e-15, rtol=8.9e-16)
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

    def amu(t):
        s = t - tref
        p = 0.0
        for c in cs:
            p = p * s + c
        return p if p >= 0.0 else mu * p
    return amu


def _rhs(amu, n):
    """State layout (u, u'[, v, v'][, q]); q' = u'^2, v solves the
    linearization."""
    def f(t, y):
        a = amu(t)
        u, du = y[0], y[1]
        out = [du, -a * u * u * u]
        if n >= 4:
            out += [y[3], -3.0 * a * u * u * y[2]]
        if n in (3, 5):
            out.append(du * du)
        return out
    return f


def _integrate_raw(w, mu, t0, y0, t_end, rtol, atol, cap, max_step):
    """DOP853 from (t0, y0) to t_end, one ``solve_ivp`` call per smooth weight
    piece.  Returns (DenseOutput, blew_up): |u| reaching ``cap`` ends the
    run there."""
    if t_end < t0:
        raise ScopeError("backward integration is not supported")

    def cap_hit(t, y):
        return cap - abs(y[0])
    cap_hit.terminal = True

    y = np.asarray(y0, dtype=float)
    ts, ys, interps = [np.array([t0])], [y[None, :]], []
    blew_up = False
    knots = w.knots_in_span(t0, t_end)
    for ta, tb in zip(knots[:-1], knots[1:]):
        if tb - ta <= 1e-15 * max(1.0, abs(tb)):
            continue
        amu = piece_amu(*w.segment_pack(ta, tb), mu)
        sol = solve_ivp(_rhs(amu, len(y)), (ta, tb), y, method="DOP853",
                        rtol=rtol, atol=atol, max_step=max_step,
                        events=cap_hit, dense_output=True)
        if sol.status < 0:
            raise NonConvergence(f"integrator failed at t = {sol.t[-1]:.6g}: "
                                 f"{sol.message}")
        ts.append(sol.t[1:])
        ys.append(sol.y[:, 1:].T)
        interps.extend(sol.sol.interpolants)
        y = sol.y[:, -1]
        if sol.status == 1:
            blew_up = True
            break
    return DenseOutput(np.concatenate(ts), np.concatenate(ys), interps), blew_up


def integrate(w, mu, state, t_end, rtol=1e-10, atol=None, cap=1e6,
              with_sensitivity=False, with_quadrature=False, max_step=np.inf):
    """Integrate from ``state`` to t_end.  Returns (IvpState, DenseOutput).

    Raises BlowUp if |u| reaches ``cap``.  With ``with_sensitivity`` the
    variational pair (v, v') with v(t0) = 0, v'(t0) = 1 rides along and is
    available as dense columns 2 and 3; with ``with_quadrature`` the last
    column carries q = int u'^2.
    """
    if atol is None:
        atol = rtol * 1e-2
    y0 = [state.u, state.du]
    if with_sensitivity:
        y0 += [0.0, 1.0]
    if with_quadrature:
        y0.append(0.0)
    dense, blew_up = _integrate_raw(w, mu, state.t, y0, t_end, rtol, atol,
                                    cap, max_step)
    if blew_up:
        raise BlowUp(f"|u| reached {cap:g} at t = {dense.t_end:.6g}")
    end = IvpState(t=float(dense.t_end), u=float(dense.ys[-1, 0]),
                   du=float(dense.ys[-1, 1]))
    return end, dense


@dataclass
class ShootResult:
    slope: float
    residual: float
    iters: int
    dense: DenseOutput


def shoot_dirichlet(w, mu, t0, t1, x, y, rtol=1e-10, s0=None, max_iter=80,
                    cap=1e6, tol=None):
    """Find u'(t0) so that the trajectory from u(t0) = x reaches u(t1) = y.

    Newton on the end value using the variational equation, with bracketing
    and bisection fallback; trajectories that blow up count as infinite
    residuals of the corresponding sign.
    """
    atol = rtol * 1e-2
    scale = max(1.0, abs(x), abs(y))
    if tol is None:
        tol = 1e-9 * scale
    big = 1e9 * scale

    def attempt(s):
        dense, blew_up = _integrate_raw(w, mu, t0, [x, s, 0.0, 1.0], t1,
                                        rtol, atol, cap, np.inf)
        yend = dense.ys[-1]
        if blew_up:
            return math.copysign(big, yend[0]), None, None
        return float(yend[0]) - y, float(yend[2]), dense

    s = s0 if s0 is not None else (y - x) / (t1 - t0)
    lo = hi = None          # bracket: R(lo) < 0 < R(hi)
    best = None
    for it in range(1, max_iter + 1):
        R, dR, dense = attempt(s)
        if dense is not None and abs(R) <= tol:
            return ShootResult(slope=s, residual=R, iters=it, dense=dense)
        if R < 0.0 and (lo is None or s > lo):
            lo = s
        if R > 0.0 and (hi is None or s < hi):
            hi = s
        if best is None or abs(R) < best[0]:
            best = (abs(R), s)
        step = None
        if dR is not None and dR != 0.0 and abs(R) < big:
            step = -R / dR
            cand = s + step
            if lo is not None and hi is not None and not (min(lo, hi) < cand < max(lo, hi)):
                step = None
        if step is None:
            if lo is not None and hi is not None:
                cand = 0.5 * (lo + hi)
            else:
                # one-sided: walk against the residual sign (blow-ups included,
                # their sign tells which side of the connecting slope we are on)
                cand = s - math.copysign(max(1.0, abs(s)) * 0.5, R)
        s = cand
    raise NewtonFailure(
        f"shooting failed to reach |residual| <= {tol:g}; best {best[0]:g}")


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
