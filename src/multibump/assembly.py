"""Piecewise-linear finite elements for the cubic action functional.

The continuous problem lives on windows I_N = [sigma_{-N}, sigma_{N+1}] with
periodic identification, or on clamped sub-blocks.  Meshes always place nodes
on every sigma_i and tau_i.  Stiffness terms are exact for the interpolant;
the quartic weight terms use composite Simpson subdivided at the weight's
polynomial breakpoints, so no order is lost at kinks of a(t).

Newton works through one ``Operator`` per mesh and mu: it forms the
mu-dependent quadrature products once, gives the folded weak residual, and
solves for the step from the residual's own point values.  The same point
values give the one-sided slopes u'(t_j-) and u'(t_j+) at every node, the
flux of the node's half hat on each neighbouring cell (Wheeler, SIAM J.
Numer. Anal. 11, 1974); that is the one slope recovery of the package.
Tridiagonal systems go to LAPACK ?gtsv directly, cyclic ones through a
Sherman-Morrison correction (Press et al., Numerical Recipes, sec. 2.7).
The one-call functions gradient and jacobian_matrix use the same operator.

Grids carry the node index of every sigma_i and tau_i their constructor
placed (``Grid.marks``), which ``Grid.interval_nodes`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgtsv

from .errors import IndexOutOfWindow, NewtonFailure, WeightError

_ARMIJO = 1e-4
_UNDAMPED_BELOW = 1e-4


# -- quadrature tables --------------------------------------------------------


@dataclass(eq=False)
class QuadTables:
    """Per-quadrature-point data for one mesh and one weight.

    Points come in Simpson triples on subsegments that never cross a cell
    boundary or a weight breakpoint, so the raw weight is a single polynomial
    on each subsegment and its sign is constant there.
    """
    nodes: np.ndarray        # mesh nodes, increasing
    h: np.ndarray            # cell widths
    qcell: np.ndarray        # int64 cell index per point
    qlam: np.ndarray         # barycentric position in the cell, in [0, 1]
    qw: np.ndarray           # quadrature weight (length measure)
    qap: np.ndarray          # a+(t) at the point
    qam: np.ndarray          # a-(t) at the point

    def amu(self, mu):
        return self.qap - mu * self.qam

    # mu-independent products, formed once per mesh
    @cached_property
    def rlam(self):
        return 1.0 - self.qlam

    @cached_property
    def qcell1(self):
        return self.qcell + 1

    @cached_property
    def inv_h(self):
        return 1.0 / self.h


def build_tables(w, nodes):
    nodes = np.ascontiguousarray(nodes, dtype=float)
    h = np.diff(nodes)
    if len(h) == 0 or np.any(h <= 0.0):
        raise WeightError("mesh nodes must be strictly increasing")
    T = w.period
    bounds = np.union1d(nodes, w.knots_in_span(nodes[0], nodes[-1]))
    # merge near-duplicates (a weight knot landing on top of a node)
    keep = np.concatenate([[True], np.diff(bounds) > 1e-12 * max(T, 1.0)])
    bounds = bounds[keep]
    bounds[0], bounds[-1] = nodes[0], nodes[-1]

    a, b = bounds[:-1], bounds[1:]
    mid = 0.5 * (a + b)
    d = b - a
    cell = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, len(h) - 1)
    # identify the weight segment by the subsegment midpoint so that endpoint
    # values never get evaluated on the wrong side of a breakpoint
    shift = T * np.floor(mid / T)
    seg = w._segment_index(mid - shift)

    qt = np.concatenate([a, mid, b])
    qw = np.concatenate([d, 4.0 * d, d]) / 6.0
    qcell = np.concatenate([cell, cell, cell]).astype(np.int64)
    qseg = np.concatenate([seg, seg, seg])
    qshift = np.concatenate([shift, shift, shift])

    raw = w.seg_eval(qseg, qt - qshift)
    pos = w.seg_positive[qseg]
    qap = np.where(pos, np.maximum(raw, 0.0), 0.0)
    qam = np.where(pos, 0.0, np.maximum(-raw, 0.0))
    qlam = np.clip((qt - nodes[qcell]) / h[qcell], 0.0, 1.0)
    return QuadTables(nodes=nodes, h=h, qcell=qcell, qlam=qlam,
                      qw=np.ascontiguousarray(qw),
                      qap=np.ascontiguousarray(qap),
                      qam=np.ascontiguousarray(qam))


# -- nodal operations (no boundary conditions applied) ------------------------


def _at_points(tb, full):
    """Interpolant of the nodal values at every quadrature point."""
    return full[tb.qcell] * tb.rlam + full[tb.qcell1] * tb.qlam


def _hat_scatter(tb, coef, n):
    """Vector of sum_q coef_q phi_j(t_q) over the n nodal hats."""
    return (np.bincount(tb.qcell, coef * tb.rlam, n)
            + np.bincount(tb.qcell1, coef * tb.qlam, n))


def _cell_blocks(tb, coef):
    """Cellwise 2x2 blocks (LL, LR, RR) of sum_q coef_q phi_a(t_q) phi_b(t_q)
    over the two hats of each cell."""
    ncell = len(tb.h)
    lam, rlam = tb.qlam, tb.rlam
    left = coef * rlam
    return (np.bincount(tb.qcell, left * rlam, ncell),
            np.bincount(tb.qcell, left * lam, ncell),
            np.bincount(tb.qcell, coef * lam * lam, ncell))


def stiffness_full(tb, u_full):
    """Vector of int u' phi_j' over all nodal hats, clamped-end convention."""
    slopes = np.diff(u_full) / tb.h
    r = np.zeros(len(u_full))
    r[:-1] -= slopes
    r[1:] += slopes
    return r


def cubic_full(tb, mu, u_full):
    """Vector of int a_mu u^3 phi_j."""
    uq = _at_points(tb, u_full)
    return _hat_scatter(tb, tb.qw * tb.amu(mu) * (uq * uq * uq), len(u_full))


def dirichlet_energy(h, u):
    """int u'^2 of the interpolant of nodal values u on the cells h (one
    fewer than the values): the sum of (du/h)^2 h, exact for the
    interpolant.  Every P1 energy of a node range is this expression."""
    slopes = np.diff(u) / h
    return float(np.sum(slopes * slopes * h))


def dirichlet_integral(tb, u_full):
    """int u'^2 over the whole mesh (exact for the interpolant)."""
    return dirichlet_energy(tb.h, u_full)


def quartic_integral(tb, mu, u_full):
    """int a_mu u^4 by the Simpson tables."""
    u2 = _at_points(tb, u_full)
    u2 = u2 * u2
    return float(np.sum(tb.qw * tb.amu(mu) * (u2 * u2)))


def hessian_full(tb, mu, u_full, v_full):
    """Second variation applied to v: int v' phi' - 3 int a_mu u^2 v phi."""
    uq = _at_points(tb, u_full)
    coef = 3.0 * tb.qw * tb.amu(mu) * (uq * uq) * _at_points(tb, v_full)
    return stiffness_full(tb, v_full) - _hat_scatter(tb, coef, len(u_full))


class Operator:
    """Weak residual and Newton step of the action at one mu on one mesh.

    The mu-dependent quadrature products c = qw a_mu and k = 3 qw a_mu are
    formed once, and ``step`` reuses the point values of the last
    ``residual`` when called at the same iterate.  On a periodic mesh
    values and residuals live on the folded dofs and the step solves the
    cyclic system; on a clamped mesh they carry every node, and the step
    solves the interior rows with the end values held (r then holds the
    interior residual rows only).
    """

    def __init__(self, tb, mu, periodic=False):
        self.tb = tb
        self.mu = mu
        self.periodic = periodic
        self._amu = tb.amu(mu)
        self.c = tb.qw * self._amu
        self._last = None          # (values, point values) of the last residual

    @cached_property
    def k(self):
        return 3.0 * self.tb.qw * self._amu

    def _full(self, values):
        values = np.asarray(values, dtype=float)
        return np.concatenate([values, values[:1]]) if self.periodic \
            else values

    def _points(self, values):
        last = self._last
        if last is not None and np.array_equal(last[0], values):
            return last[1]
        return _at_points(self.tb, self._full(values))

    def residual(self, values):
        """Weak residual at values: folded on a periodic mesh, one row per
        node on a clamped one."""
        tb = self.tb
        full = self._full(values)
        uq = _at_points(tb, full)
        self._last = (np.array(values, dtype=float), uq)
        r = stiffness_full(tb, full) - \
            _hat_scatter(tb, self.c * (uq * uq * uq), len(full))
        if self.periodic:
            r, r_end = r[:-1], r[-1]
            r[0] += r_end
        return r

    def bands(self, values):
        """Cellwise 2x2 blocks (LL, LR, RR) of the residual Jacobian."""
        uq = self._points(values)
        cLL, cLR, cRR = _cell_blocks(self.tb, self.k * (uq * uq))
        inv = self.tb.inv_h
        return inv - cLL, -inv - cLR, inv - cRR

    def tridiagonal(self, values):
        """Jacobian on the dofs as bands (diag, off); on a periodic mesh
        ``off[-1]`` is the corner coupling the last dof to the first, the
        cyclic form ``solve_tridiagonal`` takes."""
        dLL, dLR, dRR = self.bands(values)
        if not self.periodic:
            return np.append(dLL, 0.0) + np.insert(dRR, 0, 0.0), dLR
        diag = np.empty(len(dLL))
        diag[0] = dLL[0] + dRR[-1]
        np.add(dLL[1:], dRR[:-1], out=diag[1:])
        return diag, dLR

    def slopes(self, values):
        """(u'(t_j-), u'(t_j+)) at every node: the cell slope corrected by
        the weak residual of the node's half hat on that cell,
        u'(t_j+) = s_j + int a_mu u^3 (1 - lam) on the right cell and
        u'(t_j-) = s_{j-1} - int a_mu u^3 lam on the left one, so that
        left - right is the node's residual row.  One value per dof on a
        periodic mesh (node 0 takes its left cell from the wrap); one per
        node on a clamped mesh, NaN where no cell lies, and there u'(t_0+)
        and u'(t_n-) are the end rows -r_0 and r_n of ``residual``, bit
        for bit.  Reuses the point values of the last ``residual`` at the
        same values."""
        tb = self.tb
        uq = self._points(values)
        f = self.c * (uq * uq * uq)
        n = len(tb.h)
        s = np.diff(self._full(values)) / tb.h
        into = s - np.bincount(tb.qcell, f * tb.qlam, n)   # u'(t_{c+1}-)
        out = s + np.bincount(tb.qcell, f * tb.rlam, n)    # u'(t_c+)
        if self.periodic:
            return np.roll(into, 1), out
        return np.append(np.nan, into), np.append(out, np.nan)

    def step(self, values, r):
        """Newton step for residual rows r at values; raises LinAlgError on
        a singular or non-finite solve."""
        if self.periodic:
            return solve_tridiagonal(*self.tridiagonal(values), r)
        return solve_interior(self.tb, r, self.bands(values))


# -- tridiagonal solves and damped Newton --------------------------------------


def _gtsv(off, diag, b):
    """x with T x = b for the symmetric tridiagonal T = (diag, off), by
    LAPACK ?gtsv (LU with partial pivoting), the routine scipy's
    solve_banded calls for one band on each side; a 1 x 1 system divides,
    as solve_banded does.  Raises LinAlgError on an exactly singular band."""
    if len(diag) == 1:
        return b / diag[0]
    _, _, _, x, info = dgtsv(off, diag, off, b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def solve_tridiagonal(diag, off, rhs):
    """Solve the symmetric tridiagonal system (diag, off) by LAPACK ?gtsv.

    When ``off`` is as long as ``diag`` the system is cyclic: ``off[-1]``
    couples the last unknown to the first.  The corner is then split off as
    a rank-one term and restored by the Sherman-Morrison formula, both
    right-hand sides going through one banded solve.  The Sherman-Morrison
    denominator is not thresholded: the pasted initial guess of adjacent
    bumps has a Jacobian singular to round-off whose right-hand side lies in
    its range, and the corrected step is still accurate there.  Raises
    LinAlgError on an exactly singular band or a non-finite solution (a
    non-finite band, or overflow).
    """
    n = len(diag)
    if len(off) < n:
        x = _gtsv(off, diag, rhs)
    else:
        # A = T + w v^T with w = (gamma, 0, ..., 0, c),
        # v = (1, 0, ..., 0, c/gamma)
        c = off[-1]
        gamma = -diag[0]
        ratio = c / gamma
        d = np.array(diag, dtype=float)
        d[0] -= gamma
        d[-1] -= c * ratio
        w = np.zeros(n)
        w[0], w[-1] = gamma, c
        y, z = _gtsv(off[:n - 1], d, np.column_stack([rhs, w])).T
        den = 1.0 + z[0] + ratio * z[-1]
        # at den == 0, A z = 0 in floating point, so the kernel component of
        # the solution is free; y solves A x = rhs to round-off when rhs is
        # in the range
        x = y if den == 0.0 else y - (y[0] + ratio * y[-1]) / den * z
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("non-finite tridiagonal solve")
    return x


def solve_interior(tb, rhs, bands=None, keep=None):
    """Solve with the interior rows of a clamped mesh's tridiagonal system.

    ``bands`` are cellwise blocks (LL, LR, RR) as from ``Operator.bands``
    and are solved by ``solve_tridiagonal``; without them the system is the
    stiffness matrix, positive definite, and is solved by banded Cholesky.
    The end nodes are eliminated, and with ``keep`` (node indices) every
    node left out of it.
    """
    spd = bands is None
    if spd:
        inv = 1.0 / tb.h
        diag, off = inv[:-1] + inv[1:], -inv[1:-1]
    else:
        LL, LR, RR = bands
        diag, off = RR[:-1] + LL[1:], LR[1:-1]
    if keep is not None:
        k = keep - 1
        diag, off = diag[k], np.where(np.diff(k) == 1, off[k[:-1]], 0.0)
    if not spd:
        return solve_tridiagonal(diag, off, rhs)
    ab = np.zeros((2, len(diag)))
    ab[0, 1:] = off
    ab[1] = diag
    return scipy.linalg.solveh_banded(ab, rhs)


def newton(x, residual, solve, tol, max_iter):
    """Damped Newton for residual(x) = 0; returns (x, steps taken,
    residual at x).

    ``solve(x, r)`` returns the Newton step for residual r at x.  A step is
    halved until |r|^2 falls by the Armijo factor, except below a residual of
    1e-4, where the full step is taken.  ``residual`` may return None to
    reject a trial outside its domain.  Raises NewtonFailure on a non-finite
    step, a failed line search, or no convergence within max_iter steps.
    """
    r = residual(x)
    for it in range(max_iter + 1):
        rn = float(np.max(np.abs(r)))
        if rn <= tol:
            return x, it, r
        if it == max_iter:
            break
        step = solve(x, r)
        if not np.all(np.isfinite(step)):
            raise NewtonFailure(f"non-finite Newton step at residual {rn:.3e}")
        phi0 = float(r @ r)
        alpha = 1.0
        while True:
            trial = x - alpha * step
            rt = residual(trial)
            if rt is not None and (
                    float(rt @ rt) <= (1.0 - 2.0 * _ARMIJO * alpha) * phi0
                    or rn < _UNDAMPED_BELOW):
                x, r = trial, rt
                break
            alpha *= 0.5
            if alpha < 1e-8:
                raise NewtonFailure(f"line search failed at residual {rn:.3e}")
    raise NewtonFailure(f"no convergence in {max_iter} iterations "
                        f"(residual {rn:.3e})")


def newton_dirichlet(op, u_full, tol, max_iter):
    """Damped Newton (``newton``) with the clamped-mesh Operator ``op`` on
    the interior nodes, the end values held; returns (full nodal values,
    steps taken)."""
    full = u_full.copy()          # reused for every trial; never the iterate

    def embed(x):
        full[1:-1] = x
        return full

    def residual(x):
        return op.residual(embed(x))[1:-1]

    def solve(x, r):
        try:
            return op.step(embed(x), r)
        except np.linalg.LinAlgError as e:
            raise NewtonFailure(f"singular Jacobian: {e}") from None

    x, steps, _ = newton(u_full[1:-1], residual, solve, tol, max_iter)
    return embed(x), steps


# -- meshes -------------------------------------------------------------------


@dataclass(eq=False)
class Grid:
    """A mesh over whole weight periods or an arbitrary clamped segment.

    ``values`` arrays carry one scalar per node; when ``periodic`` the
    duplicate right endpoint is collapsed, so len(values) == len(nodes) - 1.
    """
    w: object
    nodes: np.ndarray
    periodic: bool
    i0: int = 0                # first interval index covered (window grids)
    n_int: int = 0             # number of weight periods covered (0: segment)
    m: int = 0                 # cells per subinterval (0: free mesh)
    # node index of each sigma_i ("s", i) and tau_i ("t", i) placed
    marks: dict = field(default_factory=dict, repr=False)
    _tables: QuadTables = field(default=None, repr=False)

    @property
    def tables(self):
        if self._tables is None:
            self._tables = build_tables(self.w, self.nodes)
        return self._tables

    @property
    def ndof(self):
        return len(self.nodes) - 1 if self.periodic else len(self.nodes)

    @property
    def span(self):
        return float(self.nodes[-1] - self.nodes[0])

    def interval_nodes(self, i, which):
        """Node index range (a, b) of I_i^+ or I_i^-, read from ``marks``."""
        if which in ("plus", "+"):
            keys = ("s", i), ("t", i)
        elif which in ("minus", "-"):
            keys = ("t", i), ("s", i + 1)
        else:
            raise ValueError("which must be 'plus' or 'minus'")
        try:
            return self.marks[keys[0]], self.marks[keys[1]]
        except KeyError:
            raise IndexOutOfWindow(f"I_{i}^{which} is not inside the mesh") \
                from None

    def full_values(self, values):
        values = np.asarray(values, dtype=float)
        if not self.periodic:
            return values
        return np.concatenate([values, values[:1]])

    def fold(self, r_full):
        if not self.periodic:
            return r_full
        r = r_full[:-1].copy()
        r[0] += r_full[-1]
        return r

    def dof_of_node(self, j):
        return j % self.ndof if self.periodic else j

    def eval(self, values, ts):
        """Interpolate nodal values at arbitrary times (periodic fold if set)."""
        full = self.full_values(values)
        ts = np.asarray(ts, dtype=float)
        if self.periodic:
            t0 = self.nodes[0]
            ts = t0 + np.mod(ts - t0, self.span)
        return np.interp(ts, self.nodes, full)


def span_grid(w, i0, n_int, cells_per_interval, periodic=True):
    """Mesh covering [sigma_{i0}, sigma_{i0+n_int}], uniform in each I_i^pm."""
    if n_int < 1:
        raise WeightError("need at least one weight period")
    if cells_per_interval < 8:
        raise WeightError("need at least 8 cells per subinterval")
    m = int(cells_per_interval)
    parts, marks = [], {}
    for k, i in enumerate(range(i0, i0 + n_int)):
        marks[("s", i)], marks[("t", i)] = 2 * m * k, 2 * m * k + m
        parts.append(np.linspace(w.sigma(i), w.tau_i(i), m + 1)[:-1])
        parts.append(np.linspace(w.tau_i(i), w.sigma(i + 1), m + 1)[:-1])
    parts.append(np.array([w.sigma(i0 + n_int)]))
    marks[("s", i0 + n_int)] = 2 * m * n_int
    nodes = np.concatenate(parts)
    return Grid(w=w, nodes=nodes, periodic=periodic, i0=i0, n_int=n_int,
                m=m, marks=marks)


def segment_grid(w, nodes):
    """Clamped mesh on an arbitrary strictly increasing node array."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    if len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
        raise WeightError("mesh nodes must be strictly increasing")
    return Grid(w=w, nodes=nodes, periodic=False)


# -- grid functions and the variational interface -----------------------------


@dataclass(eq=False)
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.ndof:
            raise WeightError(
                f"expected {self.grid.ndof} values, got {len(self.values)}")
        if not np.all(np.isfinite(self.values)):
            raise WeightError("grid function values must be finite")

    @classmethod
    def from_callable(cls, grid, f):
        vals = np.asarray(f(grid.nodes), dtype=float)
        if grid.periodic:
            vals = vals[:-1]
        return cls(grid, vals)

    def full(self):
        return self.grid.full_values(self.values)

    def eval(self, ts):
        return self.grid.eval(self.values, ts)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


def action(u, mu):
    """J_mu(u) = 1/2 int u'^2 - 1/4 int a_mu u^4 over the grid."""
    tb = u.grid.tables
    full = u.full()
    return 0.5 * dirichlet_integral(tb, full) - \
        0.25 * quartic_integral(tb, mu, full)


def gradient(u, mu):
    """Weak residual against every hat function (periodic hats when folded)."""
    grid = u.grid
    r = Operator(grid.tables, mu, grid.periodic).residual(u.values)
    return GridFunction(grid, r)


def hessian_apply(u, mu, v):
    """Second variation of the action at u applied to v."""
    if v.grid is not u.grid:
        raise WeightError("u and v must share a grid")
    r = hessian_full(u.grid.tables, mu, u.full(), v.full())
    return GridFunction(u.grid, u.grid.fold(r))


def interval_energy(u, i, which="plus"):
    """int of u'^2 over I_i^+ or I_i^- (exact for the interpolant)."""
    a, b = u.grid.interval_nodes(i, which)
    return dirichlet_energy(u.grid.tables.h[a:b], u.full()[a:b + 1])


def jacobian_matrix(u, mu):
    """Residual Jacobian on the grid's dofs as tridiagonal bands (diag, off).

    On a periodic grid the bands are folded and ``off[-1]`` is the corner
    coupling the last dof to the first, the cyclic form ``solve_tridiagonal``
    takes.
    """
    grid = u.grid
    return Operator(grid.tables, mu, grid.periodic).tridiagonal(u.values)
