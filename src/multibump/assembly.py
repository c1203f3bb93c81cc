"""Piecewise-linear finite elements for the cubic action functional.

The continuous problem lives on windows [sigma_{i0}, sigma_{i0+L}] of whole
weight periods, always with periodic identification (``span_grid``), or on
clamped Dirichlet pieces: the level meshes (``segment_grid``) and the
connection blocks.  Every mesh holds a node on every sigma_i and tau_i and
on every other weight knot (``knot_mesh``), so the weight is one polynomial
on each cell.  Stiffness terms are exact for the interpolant; the quartic
weight terms use Simpson's rule on each cell, so no order is lost at kinks
of a(t).

Newton works through one ``Operator`` per grid and mu: it forms the
mu-dependent quadrature products once, gives the weak residual (folded by
the grid on a window), and solves for the step from the residual's own
point values.  The same point values give the one-sided slopes u'(t_j-)
and u'(t_j+) at every node, the flux of the node's half hat on each
neighbouring cell (Wheeler, SIAM J. Numer. Anal. 11, 1974); that is the
one slope recovery of the package.
The Newton system of every grid is one pair (diag, off) from
``Operator.tridiagonal``: on a window the cyclic system of its dofs, on a
clamped mesh the interior rows with their couplings to the held end
values.  ``solve_tridiagonal`` solves either by LAPACK ?gtsv, the cyclic
one through a Sherman-Morrison correction (Press et al., Numerical
Recipes, sec. 2.7), and ``solve_definite`` a positive definite one by
?ptsv; a factor kept for many solves goes to ?pbtrf and ?pbtrs.  The
four routines come from scipy's f2py module ``scipy.linalg._flapack``,
loaded by its path (``_scipy_files``), so ``scipy.linalg``'s package
``__init__`` never runs.  Each routine gets the
inputs scipy's banded solver for the job gives it (``solve_banded``,
``solveh_banded``, ``cholesky_banded``, ``cho_solve_banded``), so the
results are the same bits, and the definite wrappers keep those functions'
checks and errors.
The one-call functions gradient and jacobian_matrix use the same operator,
whose ``actions`` is the package's one evaluation of the action J_mu.

The process keeps the last _KEPT window grids and connection-block meshes
by content (``kept_grid``), tables included, with read-only arrays, in the
one kept store (``keep``) that ``localfield.levels_of`` shares; no lock
guards them, as the package starts no thread.

The tables hold one Simpson triple per cell, so the left and right ends of
the cells are the nodes: the cubic terms work on node and midpoint arrays
by slices, with u^3 formed once per node, and no point is gathered and no
cell sum scattered.  ``_terms`` gives the operator and ``cubic_full`` each
cell's hat terms L and R; ``_hats`` sums them into hat j's term
L_j + R_{j-1}, the package's one hat-sum rule.

A window grid's ``Grid.rows`` views its data as one row per I_i^+ and
I_i^-: sigma_{i0+k} is node 2 m k, tau_{i0+k} node 2 m k + m.  A connection
block's mesh records its sigma_j and tau_j nodes (``Grid.marks``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._scipy_files import flapack
from .errors import NewtonFailure, WeightError
from .weight import knot_tol, sorted_unique

_flapack = flapack()
dgtsv, dptsv = _flapack.dgtsv, _flapack.dptsv
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs

_ARMIJO = 1e-4
_UNDAMPED_BELOW = 1e-4
_KEPT = 4                  # entries each kept store (``keep``) holds


# -- quadrature tables --------------------------------------------------------


@dataclass(eq=False)
class QuadTables:
    """Per-quadrature-point data for one mesh and one weight.

    Every weight knot of the span is a mesh node, so each cell is one
    Simpson subsegment on which the raw weight is a single polynomial of
    one sign.  The points are stored as three blocks, the cells' left ends,
    midpoints and right ends, so the points of a node range are three
    contiguous slices and the end blocks are the nodal values.
    """
    nodes: np.ndarray        # mesh nodes, increasing
    h: np.ndarray            # cell widths
    lam_m: np.ndarray        # barycentric position of each cell's midpoint
    qw: np.ndarray           # quadrature weight (length measure)
    qap: np.ndarray          # a+(t) at the point
    qam: np.ndarray          # a-(t) at the point

    def amu(self, mu):
        return self.qap - mu * self.qam

    # mu-independent products, formed once per mesh
    @cached_property
    def rlam_m(self):
        return 1.0 - self.lam_m

    @cached_property
    def inv_h(self):
        return 1.0 / self.h

    @cached_property
    def max_inv_h(self):
        return float(np.max(self.inv_h))


def _loose_knots(w, nodes):
    """The weight knots inside [nodes[0], nodes[-1]] that lie farther than
    ``weight.knot_tol`` from every node of the increasing ``nodes``."""
    knots = w.knots_in_span(nodes[0], nodes[-1])[1:-1]
    j = np.searchsorted(nodes, knots)
    return knots[np.minimum(knots - nodes[j - 1], nodes[j] - knots)
                 > knot_tol(w.period)]


def build_tables(w, nodes):
    """Simpson tables on the cells of a mesh that holds every weight knot
    of its span as a node (``_loose_knots``); a knot inside a cell is a
    WeightError."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    h = np.diff(nodes)
    if len(h) == 0 or np.any(h <= 0.0):
        raise WeightError("mesh nodes must be strictly increasing")
    loose = _loose_knots(w, nodes)
    if len(loose):
        raise WeightError(f"weight knot {loose[0]!r} lies inside a cell")
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    # identify the weight segment by the cell midpoint so that endpoint
    # values never get evaluated on the wrong side of a breakpoint
    seg, k = w.locate(mid)
    shift = w.period * k

    qt = np.concatenate([a, mid, b])
    qw = np.concatenate([h, 4.0 * h, h]) / 6.0
    qseg = np.concatenate([seg, seg, seg])
    qshift = np.concatenate([shift, shift, shift])

    raw = w.seg_eval(qseg, qt - qshift)
    pos = w.seg_positive[qseg]
    qap = np.where(pos, np.maximum(raw, 0.0), 0.0)
    qam = np.where(pos, 0.0, np.maximum(-raw, 0.0))
    return QuadTables(nodes=nodes, h=h, lam_m=np.clip((mid - a) / h, 0.0, 1.0),
                      qw=qw, qap=qap, qam=qam)


# -- nodal operations (no boundary conditions applied) ------------------------
#
# The residual's routines take one vector of nodal values or a stack of them,
# one per row, and give each row the bits its vector alone gets.  Point data
# come in the tables' three blocks; a cell's left and right ends are its
# nodes, at barycentric positions 0 and 1, so the terms of a cell on its two
# hats are sums of a left-end, a midpoint and a right-end term, in that order.


def _blocks(tb, a):
    """The left-end, midpoint and right-end blocks of point data a."""
    n = len(tb.h)
    return a[..., :n], a[..., n:2 * n], a[..., 2 * n:]


def _midpoints(tb, full):
    """The interpolant of the nodal values at the cells' midpoints."""
    return full[..., :-1] * tb.rlam_m + full[..., 1:] * tb.lam_m


def _points(full, um):
    """Every point's value from the nodal and midpoint values."""
    return np.concatenate([full[..., :-1], um, full[..., 1:]], axis=-1)


def _at_points(tb, full):
    """Interpolant of the nodal values at every quadrature point."""
    return _points(full, _midpoints(tb, full))


def _hats(L, R):
    """Each node's term from its cells' terms: L_j + R_{j-1} for hat j,
    where L and R are a cell's terms on its left and right hats; the
    package's one hat-sum rule."""
    hats = np.empty(L.shape[:-1] + (L.shape[-1] + 1,))
    hats[..., 0] = L[..., 0]
    np.add(L[..., 1:], R[..., :-1], out=hats[..., 1:-1])
    hats[..., -1] = R[..., -1]
    return hats


def _cell_terms(tb, fl, fm, fr):
    """Each cell's terms (L, R) = (sum f (1 - lam), sum f lam) on its left
    and right hats, of point data f given by its three blocks."""
    return fl + fm * tb.rlam_m, fm * tb.lam_m + fr


def _cell_blocks(tb, cl, cm, cr):
    """Cellwise 2x2 blocks (LL, LR, RR) of sum_q coef_q phi_a(t_q) phi_b(t_q)
    over the two hats of each cell, of coef given by its three blocks."""
    lam, rlam = tb.lam_m, tb.rlam_m
    left = cm * rlam
    return cl + left * rlam, left * lam, cm * lam * lam + cr


def _terms(tb, c, full):
    """((full, um), L, R): the nodal and midpoint values, and each cell's
    terms L = sum c u^3 (1 - lam) and R = sum c u^3 lam of the residual of
    its left and right hats, u^3 formed once per node."""
    um = _midpoints(tb, full)
    cl, cm, cr = _blocks(tb, c)
    u3 = full * full * full
    fm = cm * (um * um * um)
    return ((full, um),
            *_cell_terms(tb, cl * u3[..., :-1], fm, cr * u3[..., 1:]))


def stiffness_full(tb, u_full):
    """Vector of int u' phi_j' over all nodal hats, clamped-end convention."""
    slopes = (u_full[..., 1:] - u_full[..., :-1]) / tb.h
    r = np.zeros(np.shape(u_full))
    r[..., :-1] -= slopes
    r[..., 1:] += slopes
    return r


def cubic_full(tb, mu, u_full):
    """Vector of int a_mu u^3 phi_j."""
    return _hats(*_terms(tb, tb.qw * tb.amu(mu), u_full)[1:])


def dirichlet_energy(h, u):
    """int u'^2 of the interpolant of nodal values u on the cells h (one
    fewer than the values), one per row of a stack of ranges: the sum of
    (du/h)^2 h, exact for the interpolant.  Every P1 energy of a node range
    is this expression, and a row's sum has the bits of its range's."""
    slopes = (u[..., 1:] - u[..., :-1]) / h
    return (slopes * slopes * h).sum(axis=-1)


def dirichlet_integral(tb, u_full):
    """int u'^2 over the whole mesh (exact for the interpolant)."""
    return float(dirichlet_energy(tb.h, u_full))


def quartic_integral(tb, mu, u_full):
    """int a_mu u^4 by the Simpson tables."""
    u2 = _at_points(tb, u_full)
    u2 = u2 * u2
    return float(np.sum(tb.qw * tb.amu(mu) * (u2 * u2)))


def hessian_full(tb, mu, u_full, v_full):
    """Second variation applied to v: int v' phi' - 3 int a_mu u^2 v phi,
    one row per row of a stack v."""
    uq = _at_points(tb, u_full)
    coef = 3.0 * tb.qw * tb.amu(mu) * (uq * uq) * _at_points(tb, v_full)
    return stiffness_full(tb, v_full) - \
        _hats(*_cell_terms(tb, *_blocks(tb, coef)))


def _kept(last, values):
    """data of last = (values, data) when it is at values, else None."""
    if last is not None and last[0].shape == np.shape(values) and \
            (last[0] == values).all():
        return last[1]
    return None


class Operator:
    """Weak residual and Newton step of the action at one mu on one grid.

    The mu-dependent quadrature products c = qw a_mu and k = 3 qw a_mu are
    formed once.  ``step``, ``slopes``, ``points`` and ``actions`` reuse the
    point data of the last ``residual`` when called at the same values, the
    one thing the operator keeps; the Newton system is formed on each
    ``tridiagonal`` call.  Values carry the grid's
    dofs: on a periodic window the residual is folded by ``Grid.fold`` and
    the step solves the cyclic system; on a clamped mesh they carry every
    node, and the step solves the interior rows with the end values held
    (r then holds the interior residual rows only).  ``residual`` and
    ``actions`` also take a stack of values, one per row.  The point data
    kept are ``_terms``'s nodal and midpoint values, and each cell's hat
    terms L and R, which ``_hats`` sums per node and ``slopes`` reads per
    cell.
    """

    def __init__(self, grid, mu):
        self.grid = grid
        self.tb = grid.tables
        self.mu = mu
        self.c = self.tb.qw * self.tb.amu(mu)
        self._last = None          # (values, point data) of the last residual

    @cached_property
    def k(self):
        return 3.0 * self.tb.qw * self.tb.amu(self.mu)

    def _data(self, values):
        """The point data at values, kept or formed afresh."""
        data = _kept(self._last, values)
        if data is not None:
            return data
        return _terms(self.tb, self.c, self.grid.full_values(values))

    def points(self, values):
        """The interpolant of values at the quadrature points: those of the
        last ``residual`` when it was at the same values."""
        data = _kept(self._last, values)
        if data is None:
            return _at_points(self.tb, self.grid.full_values(values))
        return _points(*data[0])

    def residual(self, values):
        """Weak residual at values: folded on a periodic grid, one entry per
        node on a clamped one; one row per row of a stack."""
        values = np.array(values, dtype=float)
        full = self.grid.full_values(values)
        data = _terms(self.tb, self.c, full)
        self._last = (values, data)
        return self.grid.fold(stiffness_full(self.tb, full) - _hats(*data[1:]))

    def actions(self, values):
        """J_mu = 1/2 int u'^2 - 1/4 int a_mu u^4 at values, one per row of
        a stack, from the point values of the last ``residual`` at the same
        values.  A stack is summed in one pass: each row runs along
        contiguous memory, so it keeps the bits of that row alone (summed
        along a column-major stack's rows, about half the sums move)."""
        u2 = self.points(values)
        u2 = u2 * u2
        full = np.ascontiguousarray(self.grid.full_values(values))
        return 0.5 * dirichlet_energy(self.tb.h, full) - \
            0.25 * (self.c * (u2 * u2)).sum(axis=-1)

    def tridiagonal(self, values):
        """The Newton system at values as (diag, off), which ``step``
        solves: on a periodic mesh the cyclic system of the dofs,
        ``off[-1]`` coupling the last dof to the first; on a clamped mesh
        the interior rows, off one per cell, so ``off[0]`` and ``off[-1]``
        couple them to the held end values."""
        full, um = self._data(values)[0]
        u2 = full * full
        kl, km, kr = _blocks(self.tb, self.k)
        cLL, cLR, cRR = _cell_blocks(self.tb, kl * u2[:-1], km * (um * um),
                                     kr * u2[1:])
        inv = self.tb.inv_h
        dLL, dRR = inv - cLL, inv - cRR
        off = -inv - cLR
        if self.grid.periodic:
            diag = np.empty(len(dLL))
            diag[0] = dLL[0] + dRR[-1]
            np.add(dLL[1:], dRR[:-1], out=diag[1:])
        else:
            diag = dLL[1:] + dRR[:-1]
        return diag, off

    def slopes(self, values):
        """(u'(t_j-), u'(t_j+)) at every node: the cell slope corrected by
        the weak residual of the node's half hat on that cell,
        u'(t_j+) = s_j + L_j on the right cell and u'(t_j-) = s_{j-1} -
        R_{j-1} on the left one, with ``_terms``'s cell terms
        L = int a_mu u^3 (1 - lam) and R = int a_mu u^3 lam, so that left -
        right is the node's residual row.  One value per dof on a periodic
        mesh (node 0 takes its left cell from the wrap); one per node on a
        clamped mesh, NaN where no cell lies, and there u'(t_0+) and
        u'(t_n-) are the end rows -r_0 and r_n of ``residual``, bit for
        bit.  Reuses the cell terms of the last ``residual`` at the same
        values."""
        _, L, R = self._data(values)
        full = self.grid.full_values(values)
        s = (full[1:] - full[:-1]) / self.tb.h
        into, out = s - R, s + L             # u'(t_{c+1}-), u'(t_c+)
        if self.grid.periodic:
            return np.roll(into, 1), out
        return np.append(np.nan, into), np.append(out, np.nan)

    def step(self, values, r):
        """Newton step for residual rows r at values, by ``tridiagonal``;
        raises NewtonFailure on a singular or non-finite solve."""
        try:
            return solve_tridiagonal(*self.tridiagonal(values), r)
        except np.linalg.LinAlgError as e:
            raise NewtonFailure(f"singular Jacobian: {e}") from None


# -- tridiagonal solves and damped Newton --------------------------------------


def _gtsv(off, diag, b, overwrite_b=False):
    """x with T x = b for the symmetric tridiagonal T = (diag, off), by
    LAPACK ?gtsv (LU with partial pivoting), the routine scipy's
    solve_banded calls for one band on each side.  With ``overwrite_b`` a
    Fortran-ordered b is solved in place, not copied.  Raises LinAlgError
    on an exactly singular band."""
    _, _, _, x, info = dgtsv(off, diag, off, b, overwrite_b=overwrite_b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def solve_tridiagonal(diag, off, rhs):
    """Solve the symmetric tridiagonal system (diag, off) by LAPACK ?gtsv.

    ``off`` one longer than ``diag`` holds a clamped mesh's end couplings
    (``Operator.tridiagonal``).  When ``off`` is as long as ``diag`` the
    system is cyclic: ``off[-1]`` couples the last unknown to the first.
    The corner is then split off as a rank-one term and restored by the
    Sherman-Morrison formula, both right-hand sides going through one
    banded solve.  The Sherman-Morrison denominator is not thresholded: the
    pasted initial guess of adjacent bumps has a Jacobian singular to
    round-off whose right-hand side lies in its range, and the corrected
    step is still accurate there.  Raises LinAlgError on an exactly
    singular band or a non-finite solution (a non-finite band, or
    overflow).
    """
    n = len(diag)
    off = off[1:-1] if len(off) > n else off
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
        # the right-hand sides rhs and w as the columns of one Fortran-ordered
        # array, which dgtsv solves in place
        b = np.zeros((n, 2), order="F")
        b[:, 0] = rhs
        b[0, 1], b[-1, 1] = gamma, c
        y, z = _gtsv(off[:n - 1], d, b, overwrite_b=True).T
        den = 1.0 + z[0] + ratio * z[-1]
        # at den == 0, A z = 0 in floating point, so the kernel component of
        # the solution is free; y solves A x = rhs to round-off when rhs is
        # in the range
        x = y if den == 0.0 else y - (y[0] + ratio * y[-1]) / den * z
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("non-finite tridiagonal solve")
    return x


def solve_interior(tb, rhs, keep=None):
    """Solve with the interior rows of a clamped mesh's stiffness matrix,
    positive definite, by ``solve_definite``.  The end nodes are
    eliminated, and with ``keep`` (node indices) every node left out of
    it."""
    inv = 1.0 / tb.h
    diag, off = inv[:-1] + inv[1:], -inv[1:-1]
    if keep is not None:
        k = keep - 1
        diag, off = diag[k], np.where(np.diff(k) == 1, off[k[:-1]], 0.0)
    return solve_definite(diag, off, rhs)


def solve_definite(diag, off, b):
    """x with T x = b for the symmetric positive definite tridiagonal
    T = (diag, off), by LAPACK ?ptsv (the root-free Cholesky L D L^T), the
    call scipy's solveh_banded makes for one band, with its checks:
    ValueError on a non-finite input, LinAlgError when T is not positive
    definite."""
    _, _, x, info = dptsv(np.asarray_chkfinite(diag),
                          np.asarray_chkfinite(off), np.asarray_chkfinite(b))
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}th argument of internal pbsv")
    return x


def cholesky_factor(diag, off):
    """Upper banded Cholesky factor of the symmetric positive definite
    tridiagonal (diag, off), by LAPACK ?pbtrf: what scipy's cholesky_banded
    returns for the bands ((0, off), diag), with its checks (ValueError on
    a non-finite input, LinAlgError when not positive definite)."""
    ab = np.empty((2, len(diag)))
    ab[0, 0] = 0.0
    ab[0, 1:] = off
    ab[1] = diag
    c, info = dpbtrf(np.asarray_chkfinite(ab))
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(
            f"illegal value in {info}-th argument of internal pbtrf")
    return c


def cholesky_solve(factor, b):
    """x with T x = b for T factored by ``cholesky_factor``, by LAPACK
    ?pbtrs: scipy's cho_solve_banded((factor, False), b), with its checks."""
    x, info = dpbtrs(np.asarray_chkfinite(factor), np.asarray_chkfinite(b))
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}th argument of internal pbtrs")
    return x


def newton(x, residual, solve, tol, max_iter, r=None):
    """Damped Newton for residual(x) = 0; returns (x, steps taken,
    residual at x).  ``r`` is residual(x) when the caller has it.

    ``solve(x, r)`` returns the Newton step for residual r at x.  A step is
    halved until |r|^2 falls by the Armijo factor, except below a residual of
    1e-4, where the full step is taken.  ``residual`` may return None to
    reject a trial outside its domain.  Raises NewtonFailure on a non-finite
    step, a failed line search, or no convergence within max_iter steps.
    """
    if r is None:
        r = residual(x)
    for it in range(max_iter + 1):
        rn = float(np.abs(r).max())
        if rn <= tol:
            return x, it, r
        if it == max_iter:
            break
        step = solve(x, r)
        if not np.isfinite(step).all():
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


def newton_dirichlet(op, u_full, tol, max_iter, r=None):
    """Damped Newton (``newton``) with the Operator ``op`` of a clamped mesh on
    the interior nodes, the end values held, from the interior residual
    rows ``r`` at u_full when the caller has them; returns (full nodal
    values, steps taken)."""
    full = u_full.copy()          # reused for every trial; never the iterate

    def embed(x):
        full[1:-1] = x
        return full

    def residual(x):
        return op.residual(embed(x))[1:-1]

    x, steps, _ = newton(u_full[1:-1], residual,
                         lambda x, r: op.step(embed(x), r), tol, max_iter, r)
    return embed(x), steps


# -- meshes -------------------------------------------------------------------


@dataclass(eq=False)
class Grid:
    """A periodic window over whole weight periods (``span_grid``) or a
    clamped mesh of a Dirichlet piece (``segment_grid``, connection blocks).

    ``values`` arrays carry one scalar per node; when ``periodic`` the
    duplicate right endpoint is collapsed, so len(values) == len(nodes) - 1.
    """
    w: object
    nodes: np.ndarray
    periodic: bool
    i0: int = 0                # first interval index covered (window grids)
    n_int: int = 0             # number of weight periods covered (0: segment)
    m: int = 0                 # cells per subinterval (0: free mesh)
    # node of each sigma_j ("s", j) and tau_j ("t", j) of a connection block
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

    def rows(self, a):
        """A window grid's data by subinterval, as a read-only view: row 2k
        is I^+ and row 2k+1 is I^- of interval i0 + k.  Data with one entry
        per node (``full_values``, ``nodes``) gives m + 1 columns, each row
        sharing its last node with the next row; data with one per cell
        gives m."""
        if self.m <= 0:
            raise WeightError("rows need one cell count per subinterval")
        if len(a) == len(self.nodes):
            return np.lib.stride_tricks.sliding_window_view(
                a, self.m + 1)[::self.m]
        return a.reshape(2 * self.n_int, self.m)

    def full_values(self, values):
        values = np.asarray(values, dtype=float)
        if not self.periodic:
            return values
        return np.concatenate([values, values[..., :1]], axis=-1)

    def fold(self, r_full):
        if not self.periodic:
            return r_full
        r = r_full[..., :-1].copy()
        r[..., 0] += r_full[..., -1]
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


def keep(store, key, build):
    """``store[key]`` of an OrderedDict, built by ``build()`` the first time
    it is asked for: the _KEPT most recently asked keys stay, the oldest
    goes, and a build that raises stores nothing."""
    value = store.get(key)
    if value is None:
        value = store[key] = build()
        if len(store) > _KEPT:
            store.popitem(last=False)
    else:
        store.move_to_end(key)
    return value


_grids = OrderedDict()     # key -> Grid, oldest first


def kept_grid(key, build):
    """The process's Grid for ``key``, which names the grid's content,
    built by ``build()`` the first time it is asked for (``keep``), so that
    a mesh and its quadrature tables are built once per process however
    many solves ask for them.  A kept grid's node and table arrays are
    read-only, as every caller gets the same ones."""
    def frozen():
        grid = build()
        tb = grid.tables
        for arr in (grid.nodes, tb.nodes, tb.h, tb.lam_m, tb.qw, tb.qap,
                    tb.qam, tb.rlam_m, tb.inv_h):
            arr.flags.writeable = False
        return grid

    return keep(_grids, key, frozen)


def clear_grids():
    """Forget every grid kept_grid holds."""
    _grids.clear()


def knot_cells(w, bounds, n):
    """The pieces of the stretches between the increasing ``bounds``: their
    ends (the bounds and every weight knot farther than ``weight.knot_tol``
    from them), each stretch's first piece, each piece's cell count
    (ceil(n len / stretch) to rounding, at least one) and each stretch's
    total.  No piece's count falls as n grows, so the totals fix them."""
    bounds = np.asarray(bounds, dtype=float)
    ends = np.sort(np.concatenate([bounds, _loose_knots(w, bounds)]))
    stretch = np.searchsorted(bounds, ends[:-1], side="right") - 1
    share = n * (np.diff(ends) / np.diff(bounds)[stretch])
    # a share within rounding of a whole count is that count, so that the
    # pieces of a stretch cut evenly by its knots keep their counts when
    # asked again for the counts they got
    cells = np.maximum(np.ceil(share * (1.0 - 1e-9)), 1.0).astype(np.int64)
    first = np.searchsorted(ends, bounds[:-1])
    return ends, first, cells, np.add.reduceat(cells, first)


def knot_mesh(w, bounds, n, even=False):
    """Nodes on the stretches between the increasing ``bounds`` with a node
    on every weight knot, and the cell count of each stretch.

    Each piece of a stretch between knots gets ``knot_cells``'s count, so a
    weight's knots set a floor on the count that no n lowers; a knot within
    ``weight.knot_tol`` of a bound counts as that bound.  A piece's c nodes
    are uniform, a + k ((b - a) / c), the bits of ``np.linspace``.  With
    ``even`` every stretch gets the largest stretch's count, the extra
    cells going to its longest piece.
    """
    ends, first, cells, per = knot_cells(w, bounds, n)
    length = np.diff(ends)
    if even:
        stretch = np.searchsorted(first, np.arange(len(cells)), "right") - 1
        longest = np.lexsort((-length, stretch))[first]
        cells[longest] += per.max() - per
        per[:] = per.max()
    piece = np.repeat(np.arange(len(cells)), cells)
    k = np.arange(len(piece)) - (np.cumsum(cells) - cells)[piece]
    steps = k * (length / cells)[piece]
    return np.concatenate([ends[:-1][piece] + steps, ends[-1:]]), per


def span_grid(w, i0, n_int, cells_per_interval):
    """Periodic window over [sigma_{i0}, sigma_{i0+n_int}] with the same
    count of cells on each I_i^pm (``knot_mesh``, uniform and even), at
    least ``cells_per_interval``; its right end is identified with its
    left.  The process keeps it (``kept_grid``) by the weight's digest,
    (i0, n_int) and each I_i^pm's count before the evening, which fix its
    nodes (``knot_cells``), so counts floored to one mesh get one grid."""
    if n_int < 1:
        raise WeightError("need at least one weight period")
    if cells_per_interval < 8:
        raise WeightError("need at least 8 cells per subinterval")
    n = int(cells_per_interval)
    i = np.arange(i0, i0 + n_int)
    bounds = np.append(np.column_stack([w.sigma(i), w.tau_i(i)]),
                       w.sigma(i0 + n_int))
    per = knot_cells(w, bounds, n)[3]
    return kept_grid((w.digest, i0, n_int, per.tobytes()), lambda: Grid(
        w=w, nodes=knot_mesh(w, bounds, n, even=True)[0], periodic=True,
        i0=i0, n_int=n_int, m=int(per.max())))


def segment_grid(w, nodes, add_knots=True):
    """Clamped mesh on strictly increasing nodes.  With ``add_knots``, of
    two nodes within ``weight.knot_tol`` one stays (an end, else one on a
    weight knot, else the left one), and every knot farther than that from
    the nodes is added; ``knot_mesh``'s nodes, which hold every knot, are
    taken as they are with ``add_knots=False`` (``build_tables`` checks)."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    if len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
        raise WeightError("mesh nodes must be strictly increasing")
    if add_knots:
        knots = w.knots_in_span(nodes[0], nodes[-1])
        rank = (knots[np.searchsorted(knots, nodes)] == nodes) * 1
        rank[[0, -1]] = 2
        close = np.diff(nodes) <= knot_tol(w.period)
        keep = np.append(~(close & (rank[:-1] < rank[1:])), True)
        keep[1:] &= ~(close & (rank[1:] <= rank[:-1]))
        nodes = np.sort(np.concatenate([nodes[keep],
                                        _loose_knots(w, nodes[keep])]))
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
        if not np.isfinite(self.values).all():
            raise WeightError("grid function values must be finite")

    def full(self):
        return self.grid.full_values(self.values)

    def eval(self, ts):
        return self.grid.eval(self.values, ts)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


def gradient(u, mu):
    """Weak residual against every hat function (periodic hats when folded)."""
    return GridFunction(u.grid, Operator(u.grid, mu).residual(u.values))


def jacobian_matrix(u, mu):
    """Residual Jacobian on the grid's dofs as its Newton system (diag,
    off) (``Operator.tridiagonal``): the folded cyclic bands on a periodic
    grid, the interior rows with their end couplings on a clamped one.
    """
    return Operator(u.grid, mu).tridiagonal(u.values)
