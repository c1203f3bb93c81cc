"""Local Nehari problems on a single positivity interval.

Everything here lives on [0, tau] (or a subinterval of it) with Dirichlet
boundary conditions and sees only the positive part of the weight: the ground
level c and its one-signed bump, the pinned-zero level c_zeta, the principal
eigenvalue of the weighted Dirichlet problem, and the scaling projection onto
the constraint set int u'^2 = int a+ u^4.

Every level is solved on one mesh, ``default_cells(w)`` cells on [0, tau],
so a weight has one set of levels and one constant pack
(``LevelEvaluator.pack``), the one every command certifies against.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import assembly, weight
from .assembly import _ARMIJO
from .errors import DegenerateDirection, NonConvergence, WeightError

_EIGEN_TOL = 1e-13         # sup change of the max-normalized eigenvector
_EIGEN_MAX_ITER = 2000
_GROUND_TOL = 1e-10        # weak residual of a ground bump's Newton polish
_GROUND_DESCENT = 400      # descent steps before a ground bump's Newton


@dataclass(eq=False)
class BumpProfile:
    """A one-signed Dirichlet solution of u'' + a+ u^3 = 0 at minimal level."""
    samples: assembly.GridFunction
    level: float
    dleft: float
    dright: float

    @property
    def t(self):
        return self.samples.grid.nodes

    @property
    def u(self):
        return self.samples.values


@dataclass(eq=False)
class PinnedDetail:
    c_zeta: float
    tbar: float        # the pinned zero: an edge of [zeta, tau - zeta]


def default_cells(w):
    """The level mesh: 200 cells per unit length of [0, tau], at least 200."""
    return max(200, int(math.ceil(200.0 * w.tau)))


# -- Nehari-quotient descent ---------------------------------------------------


def _quotient_parts(tb, v):
    return assembly.dirichlet_integral(tb, v), \
        assembly.quartic_integral(tb, 0.0, v)


def _first_minimum(kin, quart, b, e, m1, m2, m3, m4):
    """Exact line search on the quotient K(alpha)^2 / Q(alpha) along
    u - alpha d, where

        K(alpha) = int (u' - alpha d')^2 = kin - 2 b alpha + e alpha^2,
        Q(alpha) = int a+ (u - alpha d)^4 = sum_k C(4, k) (-alpha)^k m_k,

    with b = int u' d', e = int d'^2, m_k = int a+ u^(4-k) d^k and
    m_0 = quart.  The stationary points are the roots of 2 K' Q - K Q'; its
    alpha^5 terms cancel, as the quotient is invariant under scaling, which
    leaves a quartic.  Returns (alpha, K, Q) at its first positive root where
    it turns from negative to positive, the first local minimum along the
    ray, so that a step never jumps to a far basin; None when the ray has no
    minimum with Q > 0.
    """
    k0, k1, k2 = kin, -2.0 * b, e
    q0, q1, q2, q3, q4 = quart, -4.0 * m1, 6.0 * m2, -4.0 * m3, m4
    p = (-2.0 * k1 * q4 + k2 * q3,
         -k1 * q3 + 2.0 * k2 * q2 - 4.0 * k0 * q4,
         3.0 * (k2 * q1 - k0 * q3),
         k1 * q1 + 4.0 * k2 * q0 - 2.0 * k0 * q2,
         2.0 * k1 * q0 - k0 * q1)
    roots = np.roots(p)
    for alpha in np.sort(roots[(roots.imag == 0.0) & (roots.real > 0.0)].real):
        if ((4.0 * p[0] * alpha + 3.0 * p[1]) * alpha + 2.0 * p[2]) * alpha \
                + p[3] > 0.0:
            alpha = float(alpha)
            q = (((q4 * alpha + q3) * alpha + q2) * alpha + q1) * alpha + q0
            if q <= 0.0:
                return None
            return alpha, (k2 * alpha + k1) * alpha + k0, q
    return None


def _descend(tb, u, kin, quart, max_iter, keep=None):
    """Minimize the scale-invariant quotient (int u'^2)^2 / int a+ u^4 over
    the interior nodes, or only the nodes in ``keep``, by
    stiffness-preconditioned descent with an exact line search
    (_first_minimum), from u with its (int u'^2, int a+ u^4) = (kin, quart).

    A step must pass the Armijo sufficient-decrease test; the descent stops
    at the first one that does not, once the slope along the direction falls
    below 1e-13 relative, or once a step lowers the quotient by no more than
    1e-15 relative, where further steps only move round-off.

    Returns (u, int u'^2, int a+ u^4) at the last accepted iterate.
    """
    free = slice(1, -1) if keep is None else keep
    wq = tb.qw * tb.qap
    fval = kin * kin / quart
    d_full = np.zeros_like(u)
    for _ in range(max_iter):
        grad_full = (4.0 * kin / quart) * assembly.stiffness_full(tb, u) \
            - (4.0 * fval / quart) * assembly.cubic_full(tb, 0.0, u)
        g = grad_full[free]
        d = assembly.solve_interior(tb, g, keep=keep)
        slope = -float(g @ d)
        if slope > -1e-13 * max(fval, 1e-300):
            break
        d_full[free] = d
        du, dd = np.diff(u), np.diff(d_full)
        uq, dq = assembly._at_points(tb, u), assembly._at_points(tb, d_full)
        u2, d2, ud = uq * uq, dq * dq, uq * dq
        step = _first_minimum(kin, quart, float(np.sum(du * dd / tb.h)),
                              float(np.sum(dd * dd / tb.h)),
                              float(wq @ (u2 * ud)), float(wq @ (u2 * d2)),
                              float(wq @ (ud * d2)), float(wq @ (d2 * d2)))
        if step is None:
            break
        alpha, k2, q4 = step
        f2 = k2 * k2 / q4
        if f2 > fval + _ARMIJO * alpha * slope:
            break
        stalled = fval - f2 <= 1e-15 * fval
        u = u - alpha * d_full
        kin, quart, fval = k2, q4, f2
        if stalled:
            break
    return u, kin, quart


def _ground_on(w, t0, t1, n):
    """Ground bump of the Dirichlet problem on [t0, t1] with weight a+: at
    most _GROUND_DESCENT descent steps, then Newton to _GROUND_TOL.

    Returns (grid, u_full, level, dleft, dright); level is inf when a+ has no
    mass on the subinterval.
    """
    grid = assembly.segment_grid(w, assembly.knot_mesh(w, [t0, t1], n)[0],
                                add_knots=False)
    tb = grid.tables
    x = grid.nodes
    u = np.sin(math.pi * (x - t0) / (t1 - t0))
    # the descent and the polish hold both ends, and sin(pi) is not 0
    u[0] = u[-1] = 0.0

    kin, quart = _quotient_parts(tb, u)
    if quart <= 1e-14 * kin * float(np.max(u * u)):
        return grid, np.zeros_like(u), float("inf"), 0.0, 0.0
    u, kin, quart = _descend(tb, u, kin, quart, _GROUND_DESCENT)

    # project onto the constraint and polish the Euler-Lagrange system; the
    # weak residual stalls near eps max|u| / h, which exceeds tol on short or
    # finely cut intervals, so the tolerance stays 16 times above that floor
    u *= math.sqrt(kin / quart)
    floor = np.finfo(float).eps * float(np.max(np.abs(u)) / np.min(tb.h))
    op = assembly.Operator(grid, 0.0)
    u, _ = assembly.newton_dirichlet(op, u, max(_GROUND_TOL, 16.0 * floor),
                                     60)
    if np.max(u) < -np.min(u):
        u = -u
    left, right = op.slopes(u)
    level = 0.25 * assembly.dirichlet_integral(tb, u)
    return grid, u, level, float(right[0]), float(left[-1])


# -- public operations --------------------------------------------------------


def ground_state(w):
    """Positive minimal-level solution of u'' + a+ u^3 = 0, u(0) = u(tau) = 0."""
    grid, u, level, dleft, dright = _ground_on(w, 0.0, w.tau, default_cells(w))
    if not math.isfinite(level):
        raise DegenerateDirection("weight has no positive mass on [0, tau]")
    return BumpProfile(samples=assembly.GridFunction(grid, u), level=level,
                       dleft=dleft, dright=dright)


def pinned_zero_detail(w, zeta):
    """Minimal level among constraint-set functions with a zero in
    [zeta, tau - zeta], with the location of that zero.

    The minimizer is a single bump whose support stops at an edge of the pin
    window, leaving a flat tail that carries the zero: the cheaper of
    c(0, tau - zeta) with the zero at tau - zeta and c(zeta, tau) with the
    zero at zeta (a tie goes left).  Extending by zero maps H^1_0(I) into
    H^1_0(J) for I inside J and keeps the constraint, so the ground level
    falls as the domain grows: for zeta <= t <= tau - zeta, c(0, t) >=
    c(0, tau - zeta) and c(t, tau) >= c(zeta, tau).  A function with a bump
    on each side of a zero at t therefore costs at least the sum of the two
    edge levels, more than the cheaper one, so no split is searched for.
    Each edge interval keeps the level mesh's cell density, with at least 60
    cells.
    """
    tau = w.tau
    if not 0.0 < zeta < 0.5 * tau:
        raise WeightError("need 0 < zeta < tau/2")
    base_n = default_cells(w)

    def level(t0, t1):
        n = max(60, int(math.ceil(base_n * (t1 - t0) / tau)))
        return _ground_on(w, t0, t1, n)[2]

    left_only = level(0.0, tau - zeta)
    right_only = level(zeta, tau)
    if left_only <= right_only:
        return PinnedDetail(c_zeta=left_only, tbar=float(tau - zeta))
    return PinnedDetail(c_zeta=right_only, tbar=float(zeta))


def pinned_level_direct(w, tbar):
    """Level of the cheapest constraint-set function forced to vanish at tbar,
    by multistart descent on the full [0, tau] mesh with the pinned node
    eliminated.

    Independent cross-check of pinned_zero_detail: the full-interval mesh
    and minimization never split the domain.  Starts cover a bump on each
    side, the left side only, and the right side only, because a side can
    collapse only along a degenerate descent direction.  With disjoint
    pieces the quotient (K_L + K_R)^2 / (Q_L + Q_R) is at least the smaller
    of K_L^2 / Q_L and K_R^2 / Q_R, so the minimum is the cheaper one-sided
    bump, c(0, tbar) or c(tbar, tau); at an edge tbar of the pin window that
    is the edge level pinned_zero_detail returns.
    """
    tau = w.tau
    nodes = assembly.sorted_unique(np.append(
        assembly.knot_mesh(w, [0.0, tau], default_cells(w))[0], tbar))
    grid = assembly.segment_grid(w, nodes, add_knots=False)
    tb = grid.tables
    pin = int(np.searchsorted(nodes, tbar))
    free = np.array([j for j in range(1, len(nodes) - 1) if j != pin])

    x = grid.nodes
    left = np.where(x <= tbar, np.abs(np.sin(math.pi * x / tbar)), 0.0)
    right = np.where(x >= tbar,
                     np.abs(np.sin(math.pi * (x - tbar) / (tau - tbar))), 0.0)
    starts = [left - right, left, right]
    for s in starts:
        s[0] = s[-1] = s[pin] = 0.0

    best = float("inf")
    for u in starts:
        kin, quart = _quotient_parts(tb, u)
        if quart <= 0:
            continue
        _, kin, quart = _descend(tb, u, kin, quart, 600, keep=free)
        # level of the projected minimizer: (1/4) K^2 / Q
        best = min(best, 0.25 * (kin * kin / quart))
    if not math.isfinite(best):
        raise DegenerateDirection("pinned direction has no quartic mass")
    return best


def principal_eigenvalue(w):
    """Smallest lambda with a nontrivial solution of phi'' + lambda a+ phi = 0,
    phi(0) = phi(tau) = 0; the eigenfunction is positive, normalized to max 1.

    Inverse iteration phi <- K^-1 M phi on the tridiagonal pencil (K the
    stiffness, M the a+-weighted mass), with K factored once by banded
    Cholesky.  K^-1 is entrywise positive and M nonnegative, so a positive
    start stays positive and converges to the principal eigenvector at the
    rate lambda1/lambda2; 1/lambda1 is the Rayleigh quotient of K^-1 M in
    the M inner product.
    """
    grid = assembly.segment_grid(
        w, assembly.knot_mesh(w, [0.0, w.tau], default_cells(w))[0],
        add_knots=False)
    tb = grid.tables

    mLL, mLR, mRR = assembly._cell_blocks(
        tb, *assembly._blocks(tb, tb.qw * tb.qap))
    mdiag = mRR[:-1] + mLL[1:]
    moff = mLR[1:-1]

    inv = 1.0 / tb.h
    chol = assembly.cholesky_factor(inv[:-1] + inv[1:], -inv[1:-1])

    phi = np.sin(math.pi * grid.nodes[1:-1] / w.tau)
    for _ in range(_EIGEN_MAX_ITER):
        m_phi = mdiag * phi
        m_phi[:-1] += moff * phi[1:]
        m_phi[1:] += moff * phi[:-1]
        mass = float(phi @ m_phi)
        if mass <= 0.0:
            raise DegenerateDirection("weighted mass matrix is not positive")
        nxt = assembly.cholesky_solve(chol, m_phi)
        nu = float(nxt @ m_phi) / mass
        nxt /= np.max(nxt)
        step = float(np.max(np.abs(nxt - phi)))
        phi = nxt
        if step <= _EIGEN_TOL:
            break
    else:
        raise NonConvergence(f"inverse iteration for lambda1 stalled at "
                             f"eigenvector change {step:.3e}")
    full = np.zeros(len(grid.nodes))
    full[1:-1] = phi
    return 1.0 / nu, assembly.GridFunction(grid, full)


def nehari_project(u):
    """Scale u onto the constraint int u'^2 = int a+ u^4."""
    tb = u.grid.tables
    full = u.full()
    kin = assembly.dirichlet_integral(tb, full)
    quart = assembly.quartic_integral(tb, 0.0, full)
    if quart <= 1e-14 * kin * float(np.max(full * full, initial=0.0)) \
            or quart <= 0.0:
        raise DegenerateDirection("direction has no positive quartic mass")
    lam = math.sqrt(kin / quart)
    return assembly.GridFunction(u.grid, lam * u.values)


class LevelEvaluator:
    """Caching facade over the local solves of one weight on the level mesh;
    duck-typed for the constant builders (ground_level, pinned_level,
    ground_bump).  ``pack`` is the weight's one ConstantPack.  The arrays it
    hands out are read-only, as it hands the same ones to every caller."""

    def __init__(self, w):
        self.w = w
        self._bump = None
        self._pinned = {}
        self._eigen = None

    @cached_property
    def pack(self):
        """The weight's ConstantPack (``weight.build_constant_pack``)."""
        return weight.build_constant_pack(self.w, self)

    def ground_bump(self):
        if self._bump is None:
            bump = ground_state(self.w)
            bump.samples.values.flags.writeable = False
            self._bump = bump
        return self._bump

    def ground_level(self):
        return self.ground_bump().level

    def pinned_detail(self, zeta):
        key = round(float(zeta), 15)
        if key not in self._pinned:
            self._pinned[key] = pinned_zero_detail(self.w, zeta)
        return self._pinned[key]

    def pinned_level(self, zeta):
        return self.pinned_detail(zeta).c_zeta

    def eigen(self):
        if self._eigen is None:
            lam1, phi = principal_eigenvalue(self.w)
            phi.values.flags.writeable = False
            self._eigen = lam1, phi
        return self._eigen


_levels = OrderedDict()    # digest -> LevelEvaluator, oldest first


def levels_of(w):
    """The process's LevelEvaluator for w's ``digest`` (``assembly.keep``),
    so that each level and the constant pack of a weight are computed once
    per process however many commands and solves ask for them."""
    return assembly.keep(_levels, w.digest, lambda: LevelEvaluator(w))


def clear_levels():
    """Forget every level levels_of holds."""
    _levels.clear()
