"""Piecewise-linear finite elements for the cubic action functional.

The continuous problem lives on windows [sigma_{i0}, sigma_{i0+L}] of whole
weight periods, always with periodic identification (``span_grid``), or on
clamped Dirichlet pieces: the level meshes (``segment_grid``) and the
connection blocks.  Meshes always place nodes on every sigma_i and tau_i.
Stiffness terms are exact for the interpolant; the quartic weight terms use
composite Simpson subdivided at the weight's polynomial breakpoints, so no
order is lost at kinks of a(t).

Newton works through one ``Operator`` per grid and mu: it forms the
mu-dependent quadrature products once, gives the weak residual (folded by
the grid on a window), and solves for the step from the residual's own
point values.  The same point values give the one-sided slopes u'(t_j-)
and u'(t_j+) at every node, the flux of the node's half hat on each
neighbouring cell (Wheeler, SIAM J. Numer. Anal. 11, 1974); that is the
one slope recovery of the package.
Tridiagonal systems go to LAPACK ?gtsv directly, cyclic ones through a
Sherman-Morrison correction (Press et al., Numerical Recipes, sec. 2.7);
positive definite ones go to ?ptsv, and a factor kept for many solves to
?pbtrf and ?pbtrs.  The four routines come from scipy's f2py module
``scipy.linalg._flapack``, loaded by its path (``_scipy_files``), so
``scipy.linalg``'s package ``__init__`` never runs.  Each routine gets the
inputs scipy's banded solver for the job gives it (``solve_banded``,
``solveh_banded``, ``cholesky_banded``, ``cho_solve_banded``), so the
results are the same bits, and the definite wrappers keep those functions'
checks and errors.
The one-call functions gradient and jacobian_matrix use the same operator,
whose ``actions`` is the package's one evaluation of the action J_mu.

The process keeps the last _GRIDS_KEPT window grids and connection-block
meshes by their content (``kept_grid``), tables included, with read-only
arrays.  Sorted node sets come from ``sorted_unique``, not ``np.unique``,
which imports ``numpy.ma`` on its first call.

On a node-aligned mesh (``QuadTables.aligned``) every cell is one Simpson
subsegment, so two of the three point blocks are nodal values: the step
weight's windows, the level meshes and the connection blocks are such
meshes, and there the cubic terms work on node and midpoint arrays by
slices, with u^3 formed once per node.  A weight knot inside a cell (the
sine weight, generated two-level weights) keeps the general gather and
per-cell bincount.  The form is chosen in one seam, the kernels ``_terms``,
``_points`` and ``_jac_blocks``, which give the operator and ``cubic_full``
each cell's hat terms L and R in either form; ``_hats`` sums them into
hat j's term L_j + R_{j-1}, the package's one hat-sum rule.  Both forms
give the same bits.

A window grid's ``Grid.rows`` views its data as one row per I_i^+ and
I_i^-: sigma_{i0+k} is node 2 m k, tau_{i0+k} node 2 m k + m.  A connection
block's mesh records its sigma_j and tau_j nodes (``Grid.marks``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._scipy_files import flapack
from .errors import NewtonFailure, WeightError
from .weight import weight_key

_flapack = flapack()
dgtsv, dptsv = _flapack.dgtsv, _flapack.dptsv
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs

_ARMIJO = 1e-4
_UNDAMPED_BELOW = 1e-4
_GRIDS_KEPT = 4            # grids kept_grid keeps, as levels_of keeps levels


# -- quadrature tables --------------------------------------------------------


@dataclass(eq=False)
class QuadTables:
    """Per-quadrature-point data for one mesh and one weight.

    Points come in Simpson triples on subsegments that never cross a cell
    boundary or a weight breakpoint, so the raw weight is a single polynomial
    on each subsegment and its sign is constant there.  The points are
    stored as three blocks, the subsegments' left ends, midpoints and right
    ends, each sorted by cell, so the points of a node range are three
    contiguous slices.  The tables are ``aligned`` when cell c is subsegment
    c: then its left and right ends are its nodes, at lam exactly 0 and 1.
    """
    nodes: np.ndarray        # mesh nodes, increasing
    h: np.ndarray            # cell widths
    qcell: np.ndarray        # int64 cell index per point
    qlam: np.ndarray         # barycentric position in the cell, in [0, 1]
    qw: np.ndarray           # quadrature weight (length measure)
    qap: np.ndarray          # a+(t) at the point
    qam: np.ndarray          # a-(t) at the point

    def __post_init__(self):
        # the index the kernels gather and scatter by: qcell's own array,
        # writable also where kept_grid hands out qcell read-only
        self._qcell = self.qcell

    def amu(self, mu):
        return self.qap - mu * self.qam

    # mu-independent products, formed once per mesh
    @cached_property
    def rlam(self):
        return 1.0 - self.qlam

    @cached_property
    def aligned(self):
        """Cell c is subsegment c, ending on its nodes.  A knot merged into
        a node may be kept in its place, just left of it, and then the right
        end's qlam falls short of 1."""
        n = len(self.h)
        return bool(len(self.qw) == 3 * n and (self.qlam[:n] == 0.0).all()
                    and (self.qlam[2 * n:] == 1.0).all())

    # qlam and 1 - qlam of the midpoint block
    @cached_property
    def lam_m(self):
        n = len(self.h)
        return self.qlam[n:2 * n]

    @cached_property
    def rlam_m(self):
        n = len(self.h)
        return self.rlam[n:2 * n]

    @cached_property
    def qcell1(self):
        return self._qcell + 1

    @cached_property
    def inv_h(self):
        return 1.0 / self.h

    @cached_property
    def max_inv_h(self):
        return float(np.max(self.inv_h))


def sorted_unique(a):
    """The sorted distinct values of a 1-D array, as ``np.unique`` gives
    them, by a sort and an equality mask: ``np.unique`` imports
    ``numpy.ma`` on its first call, 15-19 ms of a fresh process."""
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def build_tables(w, nodes):
    nodes = np.ascontiguousarray(nodes, dtype=float)
    h = np.diff(nodes)
    if len(h) == 0 or np.any(h <= 0.0):
        raise WeightError("mesh nodes must be strictly increasing")
    T = w.period
    bounds = sorted_unique(
        np.concatenate([nodes, w.knots_in_span(nodes[0], nodes[-1])]))
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
#
# The residual's routines take one vector of nodal values or a stack of them,
# one per row, and give each row the bits its vector alone gets.


def _at_points(tb, full):
    """Interpolant of the nodal values at every quadrature point.  ``take``
    gathers a stack's rows 6x faster than indexing after an Ellipsis (9 us
    against 55 us for four rows of 2400 points on a 2-core x86-64 host)."""
    return (full.take(tb._qcell, axis=-1) * tb.rlam
            + full.take(tb.qcell1, axis=-1) * tb.qlam)


def _cell_sums(tb, a):
    """Each cell's sum of point data a, its points added in table order,
    one row per row of a stack.  A stack's rows go through bincount one by
    one: for four rows of 2400 points that took 31 us on a 2-core x86-64
    host, and one bincount of the stack, its rows offset by n bins, 51 us
    with its index."""
    if a.ndim == 2:
        return np.array([_cell_sums(tb, row) for row in a])
    return np.bincount(tb._qcell, a, len(tb.h))


def _hats(L, R):
    """Each node's term from its cells' terms: L_j + R_{j-1} for hat j,
    where L and R are a cell's terms on its left and right hats; the
    package's one hat-sum rule."""
    hats = np.empty(L.shape[:-1] + (L.shape[-1] + 1,))
    hats[..., 0] = L[..., 0]
    np.add(L[..., 1:], R[..., :-1], out=hats[..., 1:-1])
    hats[..., -1] = R[..., -1]
    return hats


def _cell_blocks(tb, coef):
    """Cellwise 2x2 blocks (LL, LR, RR) of sum_q coef_q phi_a(t_q) phi_b(t_q)
    over the two hats of each cell."""
    left = coef * tb.rlam
    return (_cell_sums(tb, left * tb.rlam), _cell_sums(tb, left * tb.qlam),
            _cell_sums(tb, coef * tb.qlam * tb.qlam))


# The seam between the tables' two forms.  On node-aligned tables a left end
# has lam 0 and a right end lam 1, so ``_cell_sums`` adds, per cell and in
# its order, a left-end term, a midpoint term and a right-end term, and
# terms times 0 that change no bit but a zero's sign; the node-aligned form
# adds the same terms in that order, from node and midpoint arrays by slices.


def _blocks(tb, a):
    """The left-end, midpoint and right-end blocks of point data a."""
    n = len(tb.h)
    return a[..., :n], a[..., n:2 * n], a[..., 2 * n:]


def _terms(tb, c, full):
    """(pts, L, R): the interpolant of the nodal values at the quadrature
    points, and each cell's terms L = sum c u^3 (1 - lam) and
    R = sum c u^3 lam of the residual of its left and right hats.  On
    node-aligned tables pts is (full, midpoint values) and u^3 is formed
    once per node; elsewhere pts is every point's value."""
    if not tb.aligned:
        uq = _at_points(tb, full)
        f = c * (uq * uq * uq)
        return uq, _cell_sums(tb, f * tb.rlam), _cell_sums(tb, f * tb.qlam)
    um = full[..., :-1] * tb.rlam_m + full[..., 1:] * tb.lam_m
    cl, cm, cr = _blocks(tb, c)
    u3 = full * full * full
    fm = cm * (um * um * um)
    return ((full, um), cl * u3[..., :-1] + fm * tb.rlam_m,
            fm * tb.lam_m + cr * u3[..., 1:])


def _points(tb, pts):
    """Every point's value from the pts of ``_terms``: on node-aligned
    tables the left ends are the cells' left nodes and the right ends their
    right nodes."""
    if not tb.aligned:
        return pts
    full, um = pts
    return np.concatenate([full[..., :-1], um, full[..., 1:]], axis=-1)


def _jac_blocks(tb, k, pts):
    """``_cell_blocks`` of k u^2 from the pts of ``_terms``."""
    if not tb.aligned:
        return _cell_blocks(tb, k * (pts * pts))
    full, um = pts
    u2 = full * full
    kl, km, kr = _blocks(tb, k)
    cl, cm, cr = kl * u2[:-1], km * (um * um), kr * u2[1:]
    lam, rlam = tb.lam_m, tb.rlam_m
    left = cm * rlam
    return cl + left * rlam, left * lam, cm * lam * lam + cr


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
    return stiffness_full(tb, v_full) - _hats(_cell_sums(tb, coef * tb.rlam),
                                              _cell_sums(tb, coef * tb.qlam))


class Operator:
    """Weak residual and Newton step of the action at one mu on one grid.

    The mu-dependent quadrature products c = qw a_mu and k = 3 qw a_mu are
    formed once, and ``step`` reuses the point values of the last
    ``residual`` when called at the same iterate.  Values carry the grid's
    dofs: on a periodic window the residual is folded by ``Grid.fold`` and
    the step solves the cyclic system; on a clamped mesh they carry every
    node, and the step solves the interior rows with the end values held
    (r then holds the interior residual rows only).  ``residual`` and
    ``actions`` also take a stack of values, one per row.  The point data
    kept are ``_terms``'s point values, in the form the tables take and read
    only through ``_points`` and ``_jac_blocks``, and each cell's hat terms
    L and R, the same in either form, which ``_hats`` sums per node and
    ``slopes`` reads per cell.
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

    def _kept(self, values):
        """The point data of the last ``residual`` when it was at values."""
        last = self._last
        if last is not None and last[0].shape == np.shape(values) and \
                (last[0] == values).all():
            return last[1]
        return None

    def _data(self, values):
        """The point data at values, kept or formed afresh."""
        data = self._kept(values)
        if data is not None:
            return data
        return _terms(self.tb, self.c, self.grid.full_values(values))

    def points(self, values):
        """The interpolant of values at the quadrature points: those of the
        last ``residual`` when it was at the same values."""
        data = self._kept(values)
        if data is None:
            return _at_points(self.tb, self.grid.full_values(values))
        return _points(self.tb, data[0])

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

    def bands(self, values):
        """Cellwise 2x2 blocks (LL, LR, RR) of the residual Jacobian."""
        cLL, cLR, cRR = _jac_blocks(self.tb, self.k, self._data(values)[0])
        inv = self.tb.inv_h
        return inv - cLL, -inv - cLR, inv - cRR

    def tridiagonal(self, values):
        """Jacobian on the dofs as bands (diag, off); on a periodic mesh
        ``off[-1]`` is the corner coupling the last dof to the first, the
        cyclic form ``solve_tridiagonal`` takes."""
        dLL, dLR, dRR = self.bands(values)
        if not self.grid.periodic:
            return np.append(dLL, 0.0) + np.insert(dRR, 0, 0.0), dLR
        diag = np.empty(len(dLL))
        diag[0] = dLL[0] + dRR[-1]
        np.add(dLL[1:], dRR[:-1], out=diag[1:])
        return diag, dLR

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
        """Newton step for residual rows r at values; raises NewtonFailure
        on a singular or non-finite solve."""
        try:
            if self.grid.periodic:
                return solve_tridiagonal(*self.tridiagonal(values), r)
            return solve_interior(self.tb, r, self.bands(values))
        except np.linalg.LinAlgError as e:
            raise NewtonFailure(f"singular Jacobian: {e}") from None


# -- tridiagonal solves and damped Newton --------------------------------------


def _gtsv(off, diag, b, overwrite_b=False):
    """x with T x = b for the symmetric tridiagonal T = (diag, off), by
    LAPACK ?gtsv (LU with partial pivoting), the routine scipy's
    solve_banded calls for one band on each side; a 1 x 1 system divides,
    as solve_banded does.  With ``overwrite_b`` a Fortran-ordered b is
    solved in place, not copied.  Raises LinAlgError on an exactly singular
    band."""
    if len(diag) == 1:
        return b / diag[0]
    _, _, _, x, info = dgtsv(off, diag, off, b, overwrite_b=overwrite_b)
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


def solve_interior(tb, rhs, bands=None, keep=None, definite=False):
    """Solve with the interior rows of a clamped mesh's tridiagonal system.

    ``bands`` are cellwise blocks (LL, LR, RR) as from ``Operator.bands``
    and are solved by ``solve_tridiagonal``, or by ``_ptsv`` (the
    root-free Cholesky L D L^T) when ``definite``, which raises LinAlgError
    on a system that is not positive definite; without them the system is
    the stiffness matrix, positive definite, and is solved by ``_ptsv``.
    The end nodes are eliminated, and with ``keep`` (node indices) every
    node left out of it.
    """
    if bands is None:
        inv = 1.0 / tb.h
        diag, off = inv[:-1] + inv[1:], -inv[1:-1]
        definite = True
    else:
        LL, LR, RR = bands
        diag, off = RR[:-1] + LL[1:], LR[1:-1]
    if keep is not None:
        k = keep - 1
        diag, off = diag[k], np.where(np.diff(k) == 1, off[k[:-1]], 0.0)
    if not definite:
        return solve_tridiagonal(diag, off, rhs)
    return _ptsv(diag, off, rhs)


def _ptsv(diag, off, b):
    """x with T x = b for the symmetric positive definite tridiagonal
    T = (diag, off), by LAPACK ?ptsv (L D L^T), the call scipy's
    solveh_banded makes for one band, with its checks: ValueError on a
    non-finite input, LinAlgError when T is not positive definite."""
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
            raise WeightError("rows need uniform cells per subinterval")
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


_grids = OrderedDict()     # key -> Grid, oldest first
_grids_lock = threading.Lock()


def kept_grid(key, build):
    """The process's Grid for ``key``, which names the grid's content,
    built by ``build()`` the first time it is asked for, so that a mesh and
    its quadrature tables are built once per process however many solves
    ask for them.  The _GRIDS_KEPT most recently asked keys are kept.  A
    kept grid's node and table arrays are read-only, as every caller gets
    the same ones; the private index arrays the kernels use are not."""
    with _grids_lock:
        grid = _grids.get(key)
        if grid is not None:
            _grids.move_to_end(key)
            return grid
        grid = build()
        tb = grid.tables
        # qcell is handed out as a read-only view; the kernels index by the
        # writable _qcell and qcell1, which numpy would copy on every take
        # and bincount were they read-only
        tb.qcell = tb._qcell.view()
        for arr in (grid.nodes, tb.nodes, tb.h, tb.qcell, tb.qlam, tb.qw,
                    tb.qap, tb.qam, tb.rlam, tb.inv_h):
            arr.flags.writeable = False
        _grids[key] = grid
        if len(_grids) > _GRIDS_KEPT:
            _grids.popitem(last=False)
    return grid


def clear_grids():
    """Forget every grid kept_grid holds."""
    with _grids_lock:
        _grids.clear()


def span_grid(w, i0, n_int, cells_per_interval):
    """Periodic window over [sigma_{i0}, sigma_{i0+n_int}], uniform in each
    I_i^pm; its right end is identified with its left.  The process keeps
    it by the weight's content and (i0, n_int, cells) (``kept_grid``)."""
    if n_int < 1:
        raise WeightError("need at least one weight period")
    if cells_per_interval < 8:
        raise WeightError("need at least 8 cells per subinterval")
    m = int(cells_per_interval)

    def build():
        parts = []
        for i in range(i0, i0 + n_int):
            parts.append(np.linspace(w.sigma(i), w.tau_i(i), m + 1)[:-1])
            parts.append(np.linspace(w.tau_i(i), w.sigma(i + 1), m + 1)[:-1])
        parts.append(np.array([w.sigma(i0 + n_int)]))
        return Grid(w=w, nodes=np.concatenate(parts), periodic=True, i0=i0,
                    n_int=n_int, m=m)

    return kept_grid((weight_key(w), i0, n_int, m), build)


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
    """Residual Jacobian on the grid's dofs as tridiagonal bands (diag, off).

    On a periodic grid the bands are folded and ``off[-1]`` is the corner
    coupling the last dof to the first, the cyclic form ``solve_tridiagonal``
    takes.
    """
    return Operator(u.grid, mu).tridiagonal(u.values)
