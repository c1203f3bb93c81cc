"""Shooting oracle: Taylor-series integration of the ODE u'' + a_mu(t) u^3 = 0
with restarts at weight breakpoints.

This path is deliberately independent of the FEM machinery: no quadrature
tables or assembly code are shared.  It provides initial-value integration
with dense output, Dirichlet shooting on intervals, and a brute-force
ground-level computation used to cross-validate the local solver.  It
imports no scipy, and it has one tolerance, ``RTOL``.

On each weight piece a_mu is a polynomial, so the Taylor coefficients of u
follow from Cauchy products (Jorba & Zou, Exp. Math. 14, 2005).  With A the
piece's polynomial re-expanded at the step's start (``weight.reexpand``,
the package's one re-expansion), in the step's own variable,

    u_{k+2} = -(A * u^3)_k / ((k+1)(k+2)),
    v_{k+2} = -3 (A * u^2 v)_k / ((k+1)(k+2))

for u and for the variational v of a shot (v'' = -3 a_mu u^2 v).  A step
sums its series up to order _ORDER at most.  Its length h is the largest for
which each of the last _TAIL terms, c_k h^k, is at most RTOL max(1, |u|,
|u'|) of its run (and likewise for v); the recurrence stops below _ORDER
once the last _TAIL terms meet this at the end of the piece.  Reading
_TAIL = 6 trailing orders, not 2, matters: on a constant piece started from
u = 0 most coefficients are zero.  The dense output is each step's series
itself.

One integrator, ``_integrate_raw``, carries a batch of runs, as a
vectorisation only: run k goes from its t_from to its t_to, in either
direction, on its own s in [0, 1] (t = t_from + (t_to - t_from) s),
derivatives along the direction of travel, over its own weight pieces in
its own steps, and leaves the batch at its end or once |u| reaches the cap
at a step's end.  Every sum over a run's terms runs along its own axis at
a fixed width, so a run's floats are the same alone or in any batch.

A Dirichlet shot starts at the end where |u| is smaller, t0 on ties: the
solutions are small or large on each interval, and shooting from the large
end is the ill-conditioned direction.  ``shoot_batch`` shoots a set of
intervals in rounds.  Each round is one batched integration holding one
attempt of every open shot; each shot keeps its own root search, and an
accepted shot leaves the batch.  ``shoot_dirichlet`` is its one-shot case,
and ``integrate`` the one-run case of ``_integrate_raw``; a shot's result is
the same alone or in a batch.

``_Root``, a resumable bracketed Newton, is the module's one scalar root
finder: for a shot's slope, for a zero of the dense output
(``DenseOutput.first_zero``) and for the slope whose first return is tau
(``brute_ground_level``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import BlowUp, NewtonFailure, NonConvergence, ScopeError
from .weight import knot_tol, reexpand, sorted_unique

_EPS = np.finfo(float).eps
# the oracle's one tolerance: a step's trailing terms, relative to its scale
RTOL = 1e-12
# the highest Taylor order of a step, and the trailing orders its rule reads
_ORDER = 24
_TAIL = 6
# a step's value, and its end slope times its length, from its terms
_SUMS = np.vstack((np.ones(_ORDER + 1), np.arange(_ORDER + 1)))
# Gauss-Legendre nodes exact for u'^2 on a step (degree 2 _ORDER - 2)
_GX, _GW = np.polynomial.legendre.leggauss(_ORDER)

# every integration: the |u| that stops a trajectory
_CAP = 1e6
# Dirichlet shots: attempts per shot, and the accepted far-end residual
# relative to max(1, |x|, |y|)
_MAX_SHOTS = 80
_SHOT_TOL = 1e-9


@dataclass
class IvpState:
    t: float
    u: float
    du: float


class DenseOutput:
    """One run's trajectory as its steps' Taylor series.

    ``ts`` holds the run's step times in increasing t, both ends included,
    and ``ys`` the states there (one row each, layout (u, u'[, v, v']),
    derivatives in t).  Step i covers s in [S[i], S[i + 1]] of the run
    (t = t_from + span s), where u = sum_k P[i, k] x^k at
    x = (s - S[i]) / (S[i + 1] - S[i]): P holds the terms of u at the
    step's end, zero past the step's order.
    """

    def __init__(self, ts, ys, S, P, t_from, span):
        self.ts, self.ys, self._P = ts, ys, P
        self._S, self._H = S[:-1], np.diff(S)
        self._t_from, self._span = t_from, span

    @cached_property
    def _dP(self):
        """The terms of H du/ds."""
        return polyder(self._P, axis=1)

    def _locate(self, t):
        s = (np.asarray(t, dtype=float) - self._t_from) / self._span
        i = np.clip(np.searchsorted(self._S, s, side="right") - 1,
                    0, len(self._H) - 1)
        return i, (s - self._S[i]) / self._H[i]

    def eval_u(self, t):
        i, x = self._locate(t)
        return polyval(x, np.moveaxis(self._P[i], -1, 0), tensor=False)

    def eval_du(self, t):
        i, x = self._locate(t)
        return polyval(x, np.moveaxis(self._dP[i], -1, 0),
                       tensor=False) / (self._H[i] * self._span)

    def first_zero(self, after=None):
        """First time u crosses zero strictly after ``after`` (None if none)."""
        lo = self.ts[0] if after is None else after
        for i in range(len(self.ts) - 1):
            if self.ts[i + 1] <= lo:
                continue
            a, b = max(self.ts[i], lo), self.ts[i + 1]
            ua, ub = float(self.eval_u(a)), self.ys[i + 1, 0]
            if ua == 0.0 and self.ts[i] >= lo:
                return self.ts[i]
            if ua * ub < 0.0:
                # _Root from the midpoint, with u' from the step's series
                lo_hi = (a, b) if ua < 0.0 else (b, a)
                root = _Root(0.5 * (a + b), 0.0, *lo_hi)
                for _ in range(200):
                    x = root.p
                    if root.update(float(self.eval_u(x)),
                                   float(self.eval_du(x))):
                        break
                return root.p
            if ub == 0.0:
                return b
        return None

    def quad_du_squared(self, t_end=None):
        """integral of u'(t)^2 over [t_start, t_end]: each step's series of
        u' squared and integrated exactly."""
        t_end = self.ts[-1] if t_end is None else t_end
        s_lo, s_hi = sorted(((self.ts[0] - self._t_from) / self._span,
                             (t_end - self._t_from) / self._span))
        xa = np.clip((s_lo - self._S) / self._H, 0.0, 1.0)[:, None]
        xb = np.clip((s_hi - self._S) / self._H, 0.0, 1.0)[:, None]
        half = 0.5 * (xb - xa)
        d = polyval(0.5 * (xa + xb) + half * _GX, self._dP.T[:, :, None],
                    tensor=False)
        per_step = half[:, 0] * ((d * d) @ _GW) / self._H
        return float(np.sum(per_step) / abs(self._span))


# recurrence factors by order k: -1 / ((k+1)(k+2)) for u, 3 times it for v
_FAC = (-1.0 / np.outer(np.arange(1, _ORDER) * np.arange(2, _ORDER + 1),
                        [1.0, 1.0 / 3.0]))[:, None, :, None]


def _orders(n, c, p):
    """(C, AF, views): the Taylor recurrence's arrays for a batch of n runs,
    and each order's views of them, made once: slicing anew cost more than
    the vecdot calls the views feed."""
    C, AF = np.zeros((n, c, _ORDER + 1)), np.empty((_ORDER - 1, n, c, p))
    U, U2 = C[:, 0], np.empty((n, _ORDER - 1))
    # u^3 and u^2 v, after p - 1 zeros: A's p coefficients, reversed, meet
    # the p products that order k needs in one slice
    Q = np.zeros((n, c, _ORDER + p - 2))
    return C, AF, [(U[:, :k + 1], U[:, k::-1], U2[:, k],
                    U2[:, None, :k + 1], C[:, :, k::-1], Q[:, :, k + p - 1],
                    AF[k], Q[:, :, k:k + p], C[:, :, k + 2])
                   for k in range(_ORDER - 1)]


def _step(orders, y, L, A, eta, rest, check_from):
    """One Taylor step of each run of the batch: (terms, h, check_from).

    y (n, c, 2) holds each run's value and d/ds of u (c = 0) and of v
    (c = 1, shots only), L (n,) the runs' |t_to - t_from|, and A (n, p) the
    coefficients of eta^2 L^2 a_mu(t(s0 + eta x)) in x, each run's eta (n,)
    about its step.  The lists rest and check_from hold the rest of each
    run's piece in s and the order its rule reads first (neighbouring steps
    need about as many orders).  The terms c_k h^k come back as terms
    (n, c, _ORDER + 1), zero past the run's order, with each run's step h
    in s and its next check_from.

    Each series is divided by its run's scale max(1, |value|, |d/dt|), and
    A times u's scale squared, so the terms the rule reads are relative.
    Each order takes three vecdot calls for the whole batch: u^2, then u^3
    and u^2 v, then A times them."""
    C, AF, views = orders
    scale = np.maximum(np.maximum(np.abs(y[:, :, 0]),
                                  np.abs(y[:, :, 1]) / L[:, None]), 1.0)
    C[:, :, :2] = y / scale[:, :, None]
    C[:, :, 1] *= eta[:, None]
    np.multiply(_FAC[:_ORDER - 1, :, :y.shape[1]],
                A[:, None, ::-1] * scale[:, :1, None] ** 2, out=AF)
    eta = eta.tolist()
    # each run's step in units of its eta: the rest of its piece, or at
    # its order K the least (RTOL / |term k|)^(1/k) over the last _TAIL
    rho = [r / e for r, e in zip(rest, eta)]
    x, order, todo = rho[:], [_ORDER] * len(rho), list(range(len(rho)))
    start = min(min(check_from), _ORDER)
    for K, (a, b, u2, a2, b2, q, a3, b3, c3) in enumerate(views, 2):
        np.vecdot(a, b, out=u2)
        np.vecdot(a2, b2, out=q)
        np.vecdot(a3, b3, out=c3)
        if K < start:
            continue
        low = max(2, K - _TAIL + 1)
        tops = np.abs(C[:, :, low:K + 1]).max(axis=1).tolist()
        for j in todo[:]:
            if K >= check_from[j]:
                xj = min(rho[j], *((RTOL / t) ** (1.0 / i) if t > 0.0
                                   else math.inf
                                   for i, t in enumerate(tops[j], low)))
                if xj == rho[j] or K == _ORDER:
                    x[j], order[j] = xj, K
                    todo.remove(j)
        if not todo:
            break
    ks = np.arange(_ORDER + 1)
    terms = C * (scale[:, :, None] * np.array(x)[:, None, None] ** ks)
    # past a run's order, C holds other runs' orders or an earlier step's
    np.copyto(terms, 0.0, where=ks > np.array(order)[:, None, None])
    h = [r if xj == q else e * xj for r, xj, q, e in zip(rest, x, rho, eta)]
    return terms, h, [max(_TAIL + 1, K - 1) for K in order]


def _integrate_raw(w, mu, runs):
    """Taylor steps on a batch of runs (t_from, t_to, y0) (see the module
    docstring).  No run is empty (t_from != t_to: ``integrate`` and ``_Shot``
    refuse an empty interval).  Every y0 has the same width and layout
    (u, u'[, v, v']), derivatives along the direction of travel.  Returns
    one (DenseOutput, end state, blew_up) per run; the end state is in the
    run's own layout, and |u| reaching _CAP at a step's end ends that run
    there."""
    n, m = len(runs), len(runs[0][2])
    t_from, t_to = np.array([r[:2] for r in runs], dtype=float).T
    span = t_to - t_from
    L = np.abs(span)

    # every run's pieces, stacked run after run: its own weight knots in
    # its own s (a knot within knot_tol of an end is that end), and
    # (pieces, p) coefficients of L^2 a_mu in s - (the piece's start), each
    # from one lookup of its piece's midpoint
    knots = []
    for r in zip(t_from, t_to):
        lo, hi = sorted(r)
        tk = w.knots_in_span(lo, hi)[1:-1]
        tk = tk[np.minimum(tk - lo, hi - tk) > knot_tol(w.period)]
        knots.append(sorted_unique((np.concatenate(([lo], tk, [hi])) - r[0])
                                   / (r[1] - r[0])))
    piece = np.cumsum([0] + [len(s) - 1 for s in knots])
    run = np.repeat(np.arange(n), np.diff(piece))
    sa = np.concatenate([s[:-1] for s in knots])
    sb = np.concatenate([s[1:] for s in knots])
    T, t0, dt = w.period, t_from[run], span[run]
    seg, k = w.locate(t0 + dt * (0.5 * (sa + sb)))
    powers = np.arange(w.seg_coefs.shape[1])
    a = reexpand(w.seg_coefs[seg], t0 + dt * sa - w.seg_knots[seg] - T * k)
    a *= (np.where(w.seg_positive[seg], 1.0, mu) * L[run] ** 2)[:, None]
    a *= dt[:, None] ** powers
    sa, sb, powers = sa.tolist(), sb.tolist(), powers + 2

    # y[k, c] holds (value, d/ds) of u (c = 0) or v (c = 1); the runs still
    # in the batch keep their own s, piece, eta and check order in lists
    y = np.array([r[2] for r in runs], dtype=float).reshape(n, m // 2, 2)
    y = y * np.stack([np.ones(n), L], axis=1)[:, None, :]
    ids, Lk, s, piece = list(range(n)), L, [0.0] * n, piece[:-1].tolist()
    eta, check_from = [math.inf] * n, [_TAIL + 1] * n
    orders = _orders(n, m // 2, len(powers))
    # each run's (s, y, u's terms) at its start and at each step's end
    steps = [[(0.0, y[k].ravel(), None)] for k in range(n)]
    with np.errstate(divide="ignore", over="ignore"):
        while ids:
            rest = [sb[i] - x for i, x in zip(piece, s)]
            e = np.minimum(rest, 2.0 * np.array(eta))     # this step's eta
            A = reexpand(a.take(piece, axis=0),
                         np.array([x - sa[i] for i, x in zip(piece, s)]))
            terms, h, check_from = _step(orders, y, Lk,
                                         A * e[:, None] ** powers, e, rest,
                                         check_from)
            for i, x, hj, r in zip(ids, s, h, rest):
                if hj < min(r, 10.0 * math.ulp(x)):
                    t = t_from[i] + span[i] * x
                    raise NonConvergence(
                        f"integrator failed at t = {t:.6g}: Required step "
                        "size is less than spacing between numbers.")
            s1 = [x + hj if hj < r else sb[i]
                  for i, x, hj, r in zip(piece, s, h, rest)]
            # each run's value and d/ds at the step's end
            y = np.vecdot(terms[:, :, None, :], _SUMS[:, :terms.shape[2]])
            y[:, :, 1] /= np.array([b - x for b, x in zip(s1, s)])[:, None]
            for i, *step in zip(ids, s1, y.reshape(-1, m), terms[:, 0]):
                steps[i].append(step)
            piece = [i + (b == sb[i]) for i, b in zip(piece, s1)]
            s, eta = s1, h
            # a run leaves once it reaches its end or |u| reaches the cap
            u = np.abs(y[:, 0, 0]).tolist()
            keep = [j for j, uj in enumerate(u) if uj < _CAP and s[j] < 1.0]
            if len(keep) < len(ids):
                ids, s, eta, piece, check_from = (
                    [v[j] for j in keep]
                    for v in (ids, s, eta, piece, check_from))
                y, Lk = y[keep], Lk[keep]
                orders = _orders(len(ids), m // 2, len(powers))

    out = []
    for k in range(n):
        S, ys, P = zip(*steps[k])
        S, ys = np.array(S), np.array(ys)
        blew_up = not abs(ys[-1, 0]) < _CAP
        ts = t_from[k] + span[k] * S
        if not blew_up:
            ts[-1] = t_to[k]
        ys /= [1.0, span[k]] * (m // 2)
        end = ys[-1] * ([1.0, math.copysign(1.0, span[k])] * (m // 2))
        if span[k] < 0:
            ts, ys = ts[::-1].copy(), ys[::-1].copy()
        out.append((DenseOutput(ts, ys, S, np.array(P[1:]), t_from[k],
                                span[k]), end, blew_up))
    return out


def integrate(w, mu, state, t_end):
    """Integrate (u, u') from ``state`` to t_end.  Returns (IvpState,
    DenseOutput).  Raises BlowUp if |u| reaches _CAP."""
    if t_end < state.t:
        raise ScopeError("backward integration is not supported")
    if t_end == state.t:
        raise ScopeError("integration over an empty interval (t_end = t0)")
    ((dense, end, blew_up),) = _integrate_raw(
        w, mu, [(state.t, t_end, [state.u, state.du])])
    if blew_up:
        raise BlowUp(f"|u| reached {_CAP:g} at t = {dense.ts[-1]:.6g}")
    return IvpState(t=float(dense.ts[-1]), u=float(end[0]),
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


class _Root:
    """Bracketed Newton for one scalar equation R(p) = 0, resumable: the
    caller evaluates R, and dR/dp where it has it, at the trial ``p`` and
    hands them to ``update``, which moves ``p`` to the next trial.

    The bracket (R(lo) < 0 < R(hi)) is kept either way round, so it also
    shrinks where R falls with p.  A Newton step that leaves the bracket, or
    has no usable dR, gives way to bisection; with no bracket yet it walks
    against R's sign instead, in steps of half max(1, |p|), which reaches a
    sign change where R rises with p.  Once three finite, unbracketed
    residuals in a row fail to halve the best |R| (Newton circling an
    extremum of R that misses zero), the trials probe ever farther on both
    sides of the best p until R changes sign.  An infinite R (a blow-up)
    counts as a residual of its sign alone."""

    def __init__(self, p, tol, lo=None, hi=None):
        self.p, self.tol = p, tol
        self.lo, self.hi = lo, hi
        self.best = None            # (|R|, p) of the smallest |R| so far
        # unbracketed finite trials in a row that did not halve the best
        # |R|, and the probes made once they stalled
        self.stall = self.probes = 0

    def update(self, R, dR=None):
        """Take R (and dR) at p.  True when |R| <= tol, p then being the
        root, or when the next trial, now p, repeats the last one to
        round-off."""
        if abs(R) <= self.tol:
            return True
        s = self.p
        lo, hi = self.lo, self.hi
        if lo is not None and hi is not None:
            # a point inside the bracket replaces the end of its sign
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
        finite = math.isfinite(R)
        if finite and not bracketed:
            halved = self.best is None or abs(R) < 0.5 * self.best[0]
            self.stall = 0 if halved else self.stall + 1
        if self.best is None or abs(R) < self.best[0]:
            self.best = (abs(R), s)
        cand = None
        if dR is not None and dR != 0.0 and finite:
            cand = s + -R / dR
            if bracketed and not min(lo, hi) < cand < max(lo, hi):
                cand = None
        if cand is None:
            cand = 0.5 * (lo + hi) if bracketed \
                else s - math.copysign(max(1.0, abs(s)) * 0.5, R)
        if not bracketed and self.stall >= 3:
            k, s_best = self.probes, self.best[1]
            reach = max(1.0, abs(s_best)) * 0.5 * 2.0 ** (k // 2)
            cand = s_best + (reach if k % 2 == 0 else -reach)
            self.probes += 1
        self.p = cand
        return abs(cand - s) <= 2.0 * _EPS * abs(s) or cand in (lo, hi)


class _Shot:
    """One Dirichlet shot: ``_Root`` on its far-end residual R(p), with dR
    from the variational equation.  The slope ``p`` is taken along the
    direction of travel, so on a negativity interval a larger p raises the
    far-end value from either end, which the one-sided walk relies on; on a
    positive interval R(p) need not be monotone, which the bracket kept
    either way round and the stall probes cover.  A blow-up is an infinite
    residual of its sign.  Only |R| <= tol accepts a shot."""

    def __init__(self, t0, t1, x, y, s0):
        if t0 == t1:
            raise ScopeError("shooting over an empty interval (t0 = t1)")
        back = shoots_from_t1(x, y)
        self.sign = -1.0 if back else 1.0
        self.t_from, self.t_to = (t1, t0) if back else (t0, t1)
        self.u_from, self.target = (y, x) if back else (x, y)
        self.tol = _SHOT_TOL * max(1.0, abs(x), abs(y))
        self.root = _Root(
            self.sign * (s0 if s0 is not None else (y - x) / (t1 - t0)),
            self.tol)
        self.iters = 0
        self.result = None

    def run(self):
        return self.t_from, self.t_to, [self.u_from, self.root.p, 0.0, 1.0]

    def update(self, dense, end, blew_up):
        """Take one attempt's outcome; True once the shot is accepted."""
        self.iters += 1
        s = self.root.p
        if blew_up:
            R, dR = math.copysign(math.inf, end[0]), None
        else:
            R, dR = float(end[0]) - self.target, float(end[2])
        if self.root.update(R, dR) and abs(R) <= self.tol:
            self.result = ShootResult(slope=self.sign * s, residual=R,
                                      iters=self.iters, dense=dense)
            return True
        return False


def shoot_batch(w, mu, problems):
    """Solve every Dirichlet problem (t0, t1, x, y, s0) -- u(t0) = x,
    u(t1) = y -- by shooting; returns their ShootResults in order.

    Each shot starts at the end where |u| is smaller (``shoots_from_t1``),
    and s0 guesses u' there (None: the chord slope).  A shot is accepted
    when its far-end residual is at most _SHOT_TOL max(1, |x|, |y|).  One
    batched integration per round holds one attempt of every open shot; a
    trajectory whose |u| reaches _CAP counts as a residual of its sign.
    Each result is the shot's own, as alone.  Raises NewtonFailure when a
    shot has made _MAX_SHOTS attempts.
    """
    shots = [_Shot(*p) for p in problems]
    todo = shots
    while todo:
        runs = _integrate_raw(w, mu, [s.run() for s in todo])
        todo = [s for s, run in zip(todo, runs) if not s.update(*run)]
        for shot in todo:
            if shot.iters >= _MAX_SHOTS:
                raise NewtonFailure(
                    f"shooting failed to reach |residual| <= {shot.tol:g}; "
                    f"best {shot.root.best[0]:g}")
    return [s.result for s in shots]


def shoot_dirichlet(w, mu, t0, t1, x, y, s0=None):
    """Find the slope that joins u(t0) = x to u(t1) = y: the one-shot case of
    ``shoot_batch``, so the shot starts at t1 when |y| < |x| and s0 (and the
    result's slope) is u' at that end."""
    return shoot_batch(w, mu, [(t0, t1, x, y, s0)])[0]


def _constant_first_return():
    """First return to zero and int u'^2 for u'' + u^3 = 0, u(0) = 0,
    u'(0) = 1."""
    from .weight import Piece, build_weight
    # a+ = 1 on [0, 8] holds the first return, which is near 3.118
    w1 = build_weight(16.0, 8.0, [Piece(0.0, 8.0, "poly", (1.0,)),
                                  Piece(8.0, 16.0, "poly", (-1.0,))])
    _, dense = integrate(w1, 0.0, IvpState(t=0.0, u=0.0, du=1.0), 8.0)
    tz = dense.first_zero(after=1e-12)
    if tz is None:
        raise NonConvergence("no return to zero found")
    return tz, dense.quad_du_squared(t_end=tz)


def brute_ground_level(w):
    """Ground level c = (1/4) int u'^2 of the positive Dirichlet solution on
    [0, tau], for piecewise-constant a+ only.

    For a constant a+ the scaling u -> lam*u(lam*t) reduces everything to one
    base integration; otherwise ``_Root`` finds the slope at 0 whose first
    return to zero is tau, to 1e-13 tau, with no dR (bisection once the
    slope is bracketed), and the level is read off that integration.
    """
    coefs = w.seg_coefs[w.seg_positive]
    if np.any(np.abs(coefs[:, 1:]) > 1e-12 * max(1.0, np.abs(coefs).max())):
        raise ScopeError("a+ must be piecewise constant on [0, tau]")
    values = coefs[:, 0]
    if np.allclose(values, values[0], rtol=1e-12, atol=0.0):
        k = float(values[0])
        t1, i1 = _constant_first_return()
        lam = t1 / w.tau
        return 0.25 * lam ** 3 * i1 / k

    # piecewise-constant but non-uniform: _Root on R(s) = tau - (first
    # return) of the slope s from u(0) = 0; larger slopes return sooner, so
    # R rises with s, and R(0+) = -inf
    root = _Root(1.0, 1e-13 * w.tau, lo=0.0)
    for _ in range(200):
        st = IvpState(t=0.0, u=0.0, du=root.p)
        _, dense = integrate(w, 0.0, st, w.tau * (1.0 + 1e-9))
        tz = dense.first_zero(after=1e-12)
        tz = math.inf if tz is None else tz
        if root.update(w.tau - tz):
            break
    return 0.25 * dense.quad_du_squared(t_end=min(tz, w.tau))
