import dataclasses
import hashlib
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibump import assembly, connection, localfield, solver, weight
from multibump.errors import NewtonFailure, WeightError


def segment(w, a, b, n):
    return assembly.segment_grid(w, np.linspace(a, b, n + 1))


def action(grid, mu, values):
    """J_mu = 1/2 int u'^2 - 1/4 int a_mu u^4 of nodal values, from the two
    integrals; the reference of ``Operator.actions``."""
    tb, full = grid.tables, grid.full_values(values)
    return 0.5 * assembly.dirichlet_integral(tb, full) - \
        0.25 * assembly.quartic_integral(tb, mu, full)


def hessian(grid, mu, u, v):
    """The second variation at u applied to v on the grid's dofs."""
    full = grid.full_values
    return grid.fold(assembly.hessian_full(grid.tables, mu, full(u), full(v)))


def p1_l2_squared(grid, full):
    """Exact int u^2 of the P1 interpolant: sum h/3 (uL^2 + uL uR + uR^2)."""
    h = grid.tables.h
    uL, uR = full[:-1], full[1:]
    return float(np.sum(h / 3.0 * (uL * uL + uL * uR + uR * uR)))


def test_dirichlet_integral_exact_p1(step_weight, rng):
    grid = segment(step_weight, 0.0, 2.0, 37)
    for _ in range(10):
        vals = rng.standard_normal(grid.ndof)
        full = grid.full_values(vals)
        h = grid.tables.h
        exact = np.sum(np.diff(full) ** 2 / h)
        got = assembly.dirichlet_integral(grid.tables, full)
        assert math.isclose(got, exact, rel_tol=1e-13)


def test_dirichlet_integral_trig(step_weight):
    # interpolated sin(pi t) on [0, 2]: int u'^2 -> pi^2 at rate h^2
    errs = []
    for n in (64, 128):
        grid = segment(step_weight, 0.0, 2.0, n)
        u = np.sin(np.pi * grid.nodes)
        errs.append(abs(assembly.dirichlet_integral(grid.tables, u)
                        - np.pi ** 2))
    assert errs[1] < errs[0] / 3.5


def test_gradient_matches_fd_of_action(step_weight, rng):
    """The weak residual is the exact derivative of the discrete action."""
    grid = assembly.span_grid(step_weight, 0, 1, 24)
    mu = 37.0
    for _ in range(5):
        u = assembly.GridFunction(grid, 0.5 * rng.standard_normal(grid.ndof))
        g = assembly.gradient(u, mu).values
        for j in rng.integers(0, grid.ndof, 4):
            e = np.zeros(grid.ndof)
            e[j] = 1e-6
            Jp = action(grid, mu, u.values + e)
            Jm = action(grid, mu, u.values - e)
            fd = (Jp - Jm) / 2e-6
            assert math.isclose(g[j], fd, rel_tol=2e-8, abs_tol=2e-8)


def test_hessian_symmetry_and_fd(step_weight, rng):
    grid = assembly.span_grid(step_weight, -1, 2, 16)
    mu = 12.0
    u = assembly.GridFunction(grid, 0.4 * rng.standard_normal(grid.ndof))
    v = assembly.GridFunction(grid, rng.standard_normal(grid.ndof))
    wv = assembly.GridFunction(grid, rng.standard_normal(grid.ndof))
    Hv = hessian(grid, mu, u.values, v.values)
    Hw = hessian(grid, mu, u.values, wv.values)
    assert math.isclose(float(wv.values @ Hv), float(v.values @ Hw),
                        rel_tol=1e-11, abs_tol=1e-11)
    # directional FD of the gradient
    eps = 1e-6
    gp = assembly.gradient(assembly.GridFunction(
        grid, u.values + eps * v.values), mu).values
    gm = assembly.gradient(assembly.GridFunction(
        grid, u.values - eps * v.values), mu).values
    fd = (gp - gm) / (2 * eps)
    scale = max(1.0, np.max(np.abs(Hv)))
    assert np.max(np.abs(fd - Hv)) / scale < 5e-9


def test_stiffness_annihilates_linear(step_weight):
    grid = segment(step_weight, 0.2, 1.8, 40)
    full = 3.0 * grid.nodes - 1.0
    Ku = assembly.stiffness_full(grid.tables, full)
    # interior hat rows integrate u'' = 0; boundary rows carry the flux
    assert np.max(np.abs(Ku[1:-1])) < 1e-12
    assert math.isclose(Ku[0], -3.0, rel_tol=1e-12)
    assert math.isclose(Ku[-1], 3.0, rel_tol=1e-12)


def test_interval_energy_partition(step_weight, rng):
    """Grid.rows partitions a window: row 2k is I^+ and row 2k+1 is I^- of
    interval i0 + k (nodes m r to m (r + 1) of row r), each row's energy
    has the bits of its node range's, and the energies sum to the whole."""
    grid = assembly.span_grid(step_weight, -1, 3, 20)
    u = assembly.GridFunction(grid, rng.standard_normal(grid.ndof))
    full = u.full()
    h = grid.tables.h
    rows = grid.rows(full)
    assert rows.shape == (6, 21) and grid.rows(h).shape == (6, 20)
    energies = assembly.dirichlet_energy(grid.rows(h), rows)
    for r in range(6):
        a, b = 20 * r, 20 * (r + 1)
        assert np.array_equal(rows[r], full[a:b + 1])
        assert energies[r] == assembly.dirichlet_energy(h[a:b], full[a:b + 1])
    total = assembly.dirichlet_integral(grid.tables, full)
    assert math.isclose(total, float(np.sum(energies)), rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.5, 8.0), frac=st.floats(0.1, 0.9),
       i0=st.integers(-4, 4), L=st.integers(1, 6), m=st.integers(8, 64),
       l=st.integers(0, 3), mu=st.floats(1.0, 1e4), x=st.floats(-1.0, 1.0),
       y=st.floats(-1.0, 1.0))
def test_rows_and_block_marks_land_on_the_knots(T, frac, i0, L, m, l, mu, x,
                                                y):
    """Each row of a window grid starts and ends exactly on its sigma_i and
    tau_i, and a block mesh's marks name the nodes that are exactly
    tau_{-1}, sigma_j, tau_j and sigma_l."""
    tau = frac * T
    w = weight.build_weight(T, tau, [weight.Piece(0.0, tau, "poly", (1.0,)),
                                     weight.Piece(tau, T, "poly", (-1.0,))])
    grid = assembly.span_grid(w, i0, L, m)
    t = grid.rows(grid.nodes)
    i = np.arange(i0, i0 + L)
    assert np.array_equal(t[::2, 0], [w.sigma(k) for k in i])
    assert np.array_equal(t[::2, -1], [w.tau_i(k) for k in i])
    assert np.array_equal(t[1::2, 0], [w.tau_i(k) for k in i])
    assert np.array_equal(t[1::2, -1], [w.sigma(k + 1) for k in i])
    p = connection.ConnectionProblem(w=w, mu=mu, x=x, y=y, l=l)
    block = connection.connection_grid(p, cells=8)
    want = {("t", -1): w.tau_i(-1), ("s", l): w.sigma(l)}
    for j in range(l):
        want[("s", j)], want[("t", j)] = w.sigma(j), w.tau_i(j)
    assert {key: block.nodes[j] for key, j in block.marks.items()} == want


def test_periodic_fold_conserves_mass(step_weight, rng):
    grid = assembly.span_grid(step_weight, 0, 1, 16)
    r_full = rng.standard_normal(len(grid.nodes))
    folded = grid.fold(r_full)
    assert len(folded) == grid.ndof
    assert math.isclose(folded.sum(), r_full.sum(), rel_tol=1e-12)
    assert math.isclose(folded[0], r_full[0] + r_full[-1], rel_tol=1e-12)


def test_gridfunction_validation(step_weight):
    grid = assembly.span_grid(step_weight, 0, 1, 16)
    with pytest.raises(WeightError):
        assembly.GridFunction(grid, np.zeros(grid.ndof + 1))
    bad = np.zeros(grid.ndof)
    bad[3] = np.nan
    with pytest.raises(WeightError):
        assembly.GridFunction(grid, bad)


def test_periodic_eval_wraps(step_weight, rng):
    grid = assembly.span_grid(step_weight, 0, 1, 16)
    u = assembly.GridFunction(grid, rng.standard_normal(grid.ndof))
    ts = np.array([0.31, 1.57, 1.99])
    assert np.allclose(u.eval(ts), u.eval(ts + grid.span), atol=1e-12)
    assert np.allclose(u.eval(ts), u.eval(ts - 3 * grid.span), atol=1e-12)


def test_quadrature_weight_split(step_weight):
    """Cells never straddle a sign change: a_mu is single-signed per cell.
    The three blocks of the tables are each cell's left end, midpoint and
    right end, so cell c's points are column c of the blocks."""
    grid = assembly.span_grid(step_weight, 0, 2, 10)
    signs = np.sign(grid.tables.amu(50.0)).reshape(3, -1)
    assert ((signs >= 0).all(axis=0) | (signs <= 0).all(axis=0)).all()


def test_sobolev_poincare_random_grid_functions(step_weight, rng):
    """For u vanishing somewhere on [s1, s2]:
    sup|u|^2 <= L int u'^2 and int u^2 <= L^2 int u'^2."""
    for _ in range(200):
        a = float(rng.uniform(-1.0, 0.5))
        L = float(rng.uniform(0.3, 2.5))
        n = int(rng.integers(12, 60))
        grid = segment(step_weight, a, a + L, n)
        vals = rng.standard_normal(grid.ndof)
        vals[rng.integers(0, grid.ndof)] = 0.0
        u = assembly.GridFunction(grid, vals)
        full = u.full()
        ddot = assembly.dirichlet_integral(grid.tables, full)
        sup = np.max(np.abs(full))
        l2sq = p1_l2_squared(grid, full)
        assert sup * sup <= L * ddot * (1 + 1e-12)
        assert l2sq <= L * L * ddot * (1 + 1e-12)


def test_fundamental_inequality_random(step_weight, rng):
    """sup|u| <= min|u| + sqrt(L) ||u'||_2 without any vanishing assumption."""
    for _ in range(200):
        L = float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(10, 50))
        grid = segment(step_weight, 0.0, L, n)
        vals = rng.standard_normal(grid.ndof) + rng.uniform(-2, 2)
        u = assembly.GridFunction(grid, vals)
        full = u.full()
        ddot = assembly.dirichlet_integral(grid.tables, full)
        sup = np.max(np.abs(full))
        lo = np.min(np.abs(full))
        assert sup <= lo + math.sqrt(L * ddot) + 1e-12


def test_newton_rejects_non_finite_step():
    def solve(x, r):
        step = r / (3.0 * x * x)
        step[0] = np.nan
        return step

    with pytest.raises(NewtonFailure, match="non-finite"):
        assembly.newton(np.array([2.0, 3.0]), lambda x: x ** 3 - 1.0, solve,
                        1e-12, 20)
    # the same iteration converges once the step is finite
    x, steps, r = assembly.newton(np.array([2.0, 3.0]),
                                  lambda x: x ** 3 - 1.0,
                                  lambda x, r: r / (3.0 * x * x), 1e-12, 20)
    assert np.allclose(x, 1.0) and 0 < steps < 20
    # the residual handed back is the one at the returned iterate
    assert np.array_equal(r, x ** 3 - 1.0)


@settings(max_examples=100, deadline=None)
@given(code=st.lists(st.integers(0, 1), min_size=1, max_size=4).filter(any),
       i0=st.integers(-2, 2), m=st.integers(8, 64), mu=st.floats(1.0, 1e4),
       pasted=st.booleans(), periodic=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# adjacent bumps pasted on the bump's own mesh: the periodic Jacobian is
# singular to round-off with the residual in its range (cond 6.1e16 and a
# Sherman-Morrison denominator of 4.4e-15 for 110; exactly 0 for 111111)
@example(code=[1, 1, 0], i0=-1, m=200, mu=10.0, pasted=True, periodic=True,
         seed=0)
@example(code=[1] * 6, i0=0, m=200, mu=10.0, pasted=True, periodic=True,
         seed=0)
def test_newton_step_solves_the_second_variation(step_weight, code, i0, m,
                                                 mu, pasted, periodic, seed):
    """The Newton step from the tridiagonal bands reproduces the residual
    under the second variation, on periodic windows (cyclic solve) and on
    clamped meshes of the same nodes (interior solve)."""
    w = step_weight
    grid = assembly.span_grid(w, i0, len(code), m)
    if pasted:
        window = solver.SymbolWindow(tuple(code), i0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localfield, "default_cells", lambda w: m)
            bump = localfield.ground_state(w)
        u = solver.initial_guess(window, bump, grid)
    else:
        rng = np.random.default_rng(seed)
        u = assembly.GridFunction(grid, rng.uniform(-2.0, 2.0, grid.ndof))
    if not periodic:
        grid = assembly.segment_grid(w, grid.nodes)
        u = assembly.GridFunction(grid, u.full())
    r = assembly.gradient(u, mu).values
    if not periodic:
        r = r[1:-1]
    step = assembly.solve_tridiagonal(*assembly.jacobian_matrix(u, mu), r)
    if periodic:
        applied = hessian(grid, mu, u.values, step)
    else:
        full = np.concatenate([[0.0], step, [0.0]])
        applied = assembly.hessian_full(grid.tables, mu, u.values, full)[1:-1]
    assert np.max(np.abs(applied - r)) <= 1e-9 * np.max(np.abs(r))


def test_definite_solve_of_the_newton_system(step_weight, rng):
    """?ptsv on a clamped mesh's Newton system (``Operator.tridiagonal``):
    the stiffness solve at u = 0, the ?gtsv solve's answer where the
    Hessian is positive definite, and LinAlgError where it is not."""
    grid = assembly.segment_grid(
        step_weight, assembly.span_grid(step_weight, 0, 1, 40).nodes)
    tb = grid.tables
    op = assembly.Operator(grid, 10.0)
    rhs = rng.normal(size=len(tb.nodes) - 2)
    def definite(values):
        diag, off = op.tridiagonal(values)
        return assembly.solve_definite(diag, off[1:-1], rhs)

    zero = np.zeros(len(tb.nodes))
    assert np.array_equal(definite(zero), assembly.solve_interior(tb, rhs))
    small = np.full(len(tb.nodes), 0.1)
    lu = assembly.solve_tridiagonal(*op.tridiagonal(small), rhs)
    assert np.max(np.abs(definite(small) - lu)) <= 1e-12 * np.max(np.abs(lu))
    with pytest.raises(np.linalg.LinAlgError):
        definite(100.0 * small)


# -- the LAPACK wrappers against the scipy.linalg functions they replace -------


def _spd_system(n, seed, columns):
    """Cell blocks (LL, LR, RR) of a random diagonally dominant, so
    positive definite, clamped system with n interior unknowns, the nodes
    of a clamped mesh of n + 1 random cells, and a right-hand side of
    ``columns`` columns (0: one vector)."""
    rng = np.random.default_rng(seed)
    LR = rng.uniform(-1.0, 1.0, n + 1)
    LL = np.abs(LR) + rng.uniform(1e-3, 2.0, n + 1)
    RR = np.abs(LR) + rng.uniform(1e-3, 2.0, n + 1)
    nodes = np.cumsum(np.concatenate([[0.0], rng.uniform(0.01, 1.0, n + 1)]))
    rhs = rng.normal(size=(n, columns) if columns else n)
    return (LL, LR, RR), nodes, rhs


def _upper_bands(diag, off):
    return np.vstack([np.concatenate([[0.0], off]), diag])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1),
       columns=st.sampled_from([0, 1, 2]))
@example(n=2, seed=0, columns=0)
def test_lapack_wrappers_match_scipy_bits(step_weight, n, seed, columns):
    """``solve_definite`` and ``solve_interior``'s stiffness solve are
    scipy's ``solveh_banded``, and ``cholesky_factor`` with
    ``cholesky_solve`` are ``cholesky_banded`` with ``cho_solve_banded``,
    bit for bit.  (One
    unknown is refused by both; see the next test.)"""
    (LL, LR, RR), nodes, rhs = _spd_system(n, seed, columns)
    # within [sigma_0, tau_0], where the mesh needs no knot as a node
    tb = assembly.segment_grid(step_weight, nodes / nodes[-1]).tables
    diag, off = RR[:-1] + LL[1:], LR[1:-1]
    assert np.array_equal(
        assembly.solve_definite(diag, off, rhs),
        scipy.linalg.solveh_banded(_upper_bands(diag, off), rhs))
    inv = 1.0 / tb.h
    assert np.array_equal(
        assembly.solve_interior(tb, rhs),
        scipy.linalg.solveh_banded(
            _upper_bands(inv[:-1] + inv[1:], -inv[1:-1]), rhs))
    factor = assembly.cholesky_factor(diag, off)
    ref = scipy.linalg.cholesky_banded(_upper_bands(diag, off))
    assert np.array_equal(factor, ref)
    assert np.array_equal(assembly.cholesky_solve(factor, rhs),
                          scipy.linalg.cho_solve_banded((ref, False), rhs))


def _linalg_message(f, *args, **kwargs):
    with pytest.raises(np.linalg.LinAlgError) as e:
        f(*args, **kwargs)
    return str(e.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lapack_wrappers_raise_scipys_errors(step_weight, bad):
    """A non-finite input raises ValueError, not LinAlgError, and a band
    that is not positive definite raises LinAlgError with scipy's message,
    as the scipy.linalg functions do."""
    (LL, LR, RR), nodes, rhs = _spd_system(6, 3, 0)
    tb = assembly.segment_grid(step_weight, nodes).tables
    diag, off = RR[:-1] + LL[1:], LR[1:-1]
    factor = assembly.cholesky_factor(diag, off)
    poisoned = rhs.copy()
    poisoned[2] = bad
    bad_diag = diag.copy()
    bad_diag[2] = bad
    for call in (
            lambda: assembly.solve_definite(diag, off, poisoned),
            lambda: assembly.solve_interior(tb, poisoned),
            lambda: assembly.cholesky_factor(bad_diag, off),
            lambda: assembly.cholesky_solve(factor, poisoned)):
        with pytest.raises(ValueError) as e:
            call()
        assert not isinstance(e.value, np.linalg.LinAlgError)
    # row 3 of the interior system is RR[3] + LL[4]
    RR_bad = RR.copy()
    RR_bad[3] = -1.0 - LL[4]
    indefinite = RR_bad[:-1] + LL[1:]
    ab = _upper_bands(indefinite, off)
    assert _linalg_message(assembly.solve_definite, indefinite, off, rhs) \
        == _linalg_message(scipy.linalg.solveh_banded, ab, rhs)
    assert _linalg_message(assembly.cholesky_factor, indefinite, off) \
        == _linalg_message(scipy.linalg.cholesky_banded, ab)
    # ?ptsv's f2py signature refuses one unknown (its empty off-diagonal),
    # through solveh_banded too; no level mesh or block has fewer than two
    (LL, LR, RR), nodes, rhs = _spd_system(1, 3, 0)
    tb = assembly.segment_grid(step_weight, nodes).tables
    inv = 1.0 / tb.h
    with pytest.raises(ValueError) as ours:
        assembly.solve_interior(tb, rhs)
    with pytest.raises(ValueError) as theirs:
        scipy.linalg.solveh_banded(
            _upper_bands(inv[:-1] + inv[1:], -inv[1:-1]), rhs)
    assert str(ours.value) == str(theirs.value)


def test_scipy_files_load_by_path(monkeypatch, tmp_path):
    """The LAPACK module is scipy's own, which scipy.linalg reuses when
    imported later; a scipy without the file fails at import with an
    ImportError naming the path and scipy's version."""
    import importlib.metadata

    import scipy.linalg.lapack

    from multibump import _scipy_files

    assert assembly.dgtsv is scipy.linalg.lapack.dgtsv
    assert _scipy_files.flapack() is assembly._flapack
    monkeypatch.setattr(_scipy_files, "_scipy_dir", lambda: str(tmp_path))
    version = importlib.metadata.version("scipy")
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError) as e:
        _scipy_files.flapack()
    assert str(tmp_path) in str(e.value)
    assert f"scipy {version} " in str(e.value)


# -- the operator against the expressions it replaced --------------------------
#
# Kept verbatim as the reference: every product of the operator must keep
# their association, so the results are equal bit for bit, not to a tolerance.


def _ref_tables(w, nodes):
    """build_tables with one Horner pass per weight segment (np.unique),
    each point's cell found by a search and its barycentric position by
    division: the cells are the Simpson subsegments, as every weight knot
    is a node."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    h = np.diff(nodes)
    T = w.period
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    d = b - a
    cell = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, len(h) - 1)
    shift = T * np.floor(mid / T)
    seg = np.clip(np.searchsorted(w.seg_knots, mid - shift, side="right") - 1,
                  0, len(w.seg_coefs) - 1)
    qt = np.concatenate([a, mid, b])
    qw = np.concatenate([d, 4.0 * d, d]) / 6.0
    qcell = np.concatenate([cell, cell, cell]).astype(np.int64)
    qseg = np.concatenate([seg, seg, seg])
    qshift = np.concatenate([shift, shift, shift])
    raw = np.empty_like(qt)
    for s in np.unique(qseg):
        m = qseg == s
        x = qt[m] - qshift[m] - w.seg_knots[s]
        c = w.seg_coefs[s]
        p = np.zeros_like(x)
        for i in range(len(c) - 1, -1, -1):
            p = p * x + c[i]
        raw[m] = p
    pos = w.seg_positive[qseg]
    qap = np.where(pos, np.maximum(raw, 0.0), 0.0)
    qam = np.where(pos, 0.0, np.maximum(-raw, 0.0))
    return SimpleNamespace(
        nodes=nodes, h=h, qcell=qcell,
        qlam=np.clip((qt - nodes[qcell]) / h[qcell], 0.0, 1.0), qw=qw,
        qap=qap, qam=qam, amu=lambda mu: qap - mu * qam)


def _ref_points(tb, full):
    return full[tb.qcell] * (1.0 - tb.qlam) + full[tb.qcell + 1] * tb.qlam


def _ref_residual_full(tb, mu, full):
    slopes = np.diff(full) / tb.h
    stiff = np.zeros(len(full))
    stiff[:-1] -= slopes
    stiff[1:] += slopes
    uq = _ref_points(tb, full)
    coef = tb.qw * tb.amu(mu) * (uq * uq * uq)
    return stiff - (np.bincount(tb.qcell, coef * (1.0 - tb.qlam), len(full))
                    + np.bincount(tb.qcell + 1, coef * tb.qlam, len(full)))


def _ref_jacobian_bands(tb, mu, full):
    uq = _ref_points(tb, full)
    coef = 3.0 * tb.qw * tb.amu(mu) * (uq * uq)
    ncell, lam = len(tb.h), tb.qlam
    left = coef * (1.0 - lam)
    inv = 1.0 / tb.h
    return (inv - np.bincount(tb.qcell, left * (1.0 - lam), ncell),
            -inv - np.bincount(tb.qcell, left * lam, ncell),
            inv - np.bincount(tb.qcell, coef * lam * lam, ncell))


def _ref_solve_tridiagonal(diag, off, rhs):
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = off[:n - 1]
    ab[1] = diag
    ab[2, :-1] = off[:n - 1]
    if len(off) < n:
        return scipy.linalg.solve_banded((1, 1), ab, rhs)
    c = off[-1]
    gamma = -diag[0]
    ratio = c / gamma
    ab[1, 0] -= gamma
    ab[1, -1] -= c * ratio
    w = np.zeros(n)
    w[0], w[-1] = gamma, c
    y, z = scipy.linalg.solve_banded((1, 1), ab, np.column_stack([rhs, w])).T
    den = 1.0 + z[0] + ratio * z[-1]
    if den == 0.0:
        return y
    return y - (y[0] + ratio * y[-1]) / den * z


def _ref_residual_and_step(tb, mu, values, periodic):
    """(residual, Newton system (diag, off), Newton step) on the dofs as
    the solver formed them: on a clamped mesh the system's interior rows
    with their end couplings, and the step of the interior rows."""
    full = np.concatenate([values, values[:1]]) if periodic else values
    r = _ref_residual_full(tb, mu, full)
    dLL, dLR, dRR = _ref_jacobian_bands(tb, mu, full)
    if periodic:
        r_end = r[-1]
        r = r[:-1].copy()
        r[0] += r_end
        diag = dLL + np.roll(dRR, 1)
        return r, (diag, dLR), _ref_solve_tridiagonal(diag, dLR, r)
    diag = dRR[:-1] + dLL[1:]
    return r, (diag, dLR), _ref_solve_tridiagonal(diag, dLR[1:-1], r[1:-1])


def _two_level(tau, frac, lo, hi):
    """a+ = lo on [0, frac tau), hi on [frac tau, tau]; a- = 1."""
    return weight.build_weight(tau + 1.0, tau, [
        weight.Piece(0.0, frac * tau, "poly", (lo,)),
        weight.Piece(frac * tau, tau, "poly", (hi,)),
        weight.Piece(tau, tau + 1.0, "poly", (-1.0,)),
    ])


_weights = st.one_of(
    st.sampled_from(["step", "sine"]),
    st.builds(_two_level, tau=st.floats(0.5, 1.5), frac=st.floats(0.25, 0.75),
              lo=st.floats(0.5, 2.0), hi=st.floats(0.5, 2.0)))


def _resolve(w):
    """A drawn weight, built here when it was drawn by name, so that a
    failing example reports the name and not a built weight's repr (the
    sine weight's runs to 17 kB, too large for hypothesis to print)."""
    make = {"step": weight.make_step_weight, "sine": weight.make_sine_weight}
    return make[w]() if isinstance(w, str) else w


@settings(max_examples=60, deadline=None)
@given(w=_weights,
       code=st.lists(st.integers(0, 1), min_size=1, max_size=3).filter(any),
       cells=st.integers(8, 400), mu=st.floats(1.0, 1e5),
       periodic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_operator_matches_reference_bits(w, code, cells, mu, periodic, seed):
    """The operator's residual, Newton system and Newton step, at a fresh
    iterate and reusing the residual's point values, equal the reference
    bit for bit on periodic windows and on clamped meshes of the same
    nodes; there ``jacobian_matrix`` gives the interior rows with their end
    couplings, and the step is ``solve_tridiagonal`` of that pair."""
    w = _resolve(w)
    grid = assembly.span_grid(w, -1, len(code), cells)
    if not periodic:
        grid = assembly.segment_grid(w, grid.nodes)
    ref = _ref_tables(w, grid.nodes)
    rng = np.random.default_rng(seed)
    # a plateau of height 1-3 on each coded I_i^+ over noise
    plateau = np.append(np.repeat([[s, 0] for s in code], grid.m), 0.0)
    values = rng.uniform(-0.5, 0.5, grid.ndof) + \
        rng.uniform(1.0, 3.0) * plateau[:grid.ndof]
    r_ref, pair_ref, step_ref = _ref_residual_and_step(ref, mu, values,
                                                       periodic)
    op = assembly.Operator(grid, mu)
    r = op.residual(values)
    rows = r if periodic else r[1:-1]
    assert np.array_equal(r, r_ref)
    assert np.array_equal(op.step(values, rows), step_ref)
    fresh = assembly.Operator(grid, mu)
    assert np.array_equal(fresh.step(values, rows), step_ref)
    pair = assembly.jacobian_matrix(assembly.GridFunction(grid, values), mu)
    for got, want in zip(pair, pair_ref):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(assembly.solve_tridiagonal(*pair, rows), step_ref)


def _ref_one_sided_slope(tb, mu, full, uq, node, side):
    """(u'(t_node+) or u'(t_node-), its two terms' size): the half-hat flux
    as the identities once computed it, one masked sum per node, kept as
    the reference of Operator.slopes."""
    if side == "+":
        c = node if node < len(tb.h) else 0
        ramp, sign = 1.0 - tb.qlam, 1.0
    else:
        c = node - 1 if node > 0 else len(tb.h) - 1
        ramp, sign = tb.qlam, -1.0
    mask = tb.qcell == c
    slope = (full[c + 1] - full[c]) / tb.h[c]
    corr = float(np.sum(tb.qw[mask] * tb.amu(mu)[mask] * uq[mask] ** 3
                        * ramp[mask]))
    return slope + sign * corr, abs(slope) + abs(corr)


@settings(max_examples=60, deadline=None)
@given(w=_weights,
       code=st.lists(st.integers(0, 1), min_size=1, max_size=3).filter(any),
       cells=st.integers(8, 400), mu=st.floats(1.0, 1e5),
       periodic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_operator_slopes(w, code, cells, mu, periodic, seed):
    """Operator.slopes: left - right is the residual row, the clamped end
    slopes are the residual's end rows bit for bit, and every slope agrees
    with the per-node half-hat sum to 1e-13 relative, on periodic windows
    and on clamped meshes of the same nodes."""
    w = _resolve(w)
    grid = assembly.span_grid(w, -1, len(code), cells)
    if not periodic:
        grid = assembly.segment_grid(w, grid.nodes)
    ref = _ref_tables(w, grid.nodes)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, grid.ndof)
    op = assembly.Operator(grid, mu)
    r = op.residual(values)
    left, right = op.slopes(values)
    assert len(left) == len(right) == grid.ndof
    fresh = assembly.Operator(grid, mu).slopes(values)
    assert np.array_equal(fresh[0], left, equal_nan=True)
    assert np.array_equal(fresh[1], right, equal_nan=True)

    rows = slice(None) if periodic else slice(1, -1)
    scale = max(float(np.max(np.abs(left[rows]))),
                float(np.max(np.abs(right[rows]))), 1.0)
    assert np.max(np.abs(left[rows] - right[rows] - r[rows])) <= 1e-12 * scale
    if not periodic:
        assert np.isnan(left[0]) and np.isnan(right[-1])
        assert right[0] == -r[0] and left[-1] == r[-1]

    full = grid.full_values(values)
    uq = _ref_points(ref, full)
    n = len(grid.nodes) - 1
    nodes = {0, n - 1, *rng.integers(0, n, 12).tolist()}
    checks = [(j, "+", right) for j in nodes] + \
        [(j, "-", left) for j in nodes | {n} if j or periodic]
    for j, side, got in checks:
        want, size = _ref_one_sided_slope(ref, mu, full, uq, j, side)
        assert abs(got[grid.dof_of_node(j)] - want) <= 1e-13 * size


@settings(max_examples=60, deadline=None)
@given(w=_weights, t0=st.floats(-3.0, 3.0), span=st.floats(0.1, 8.0),
       n=st.integers(2, 300), near=st.sampled_from([0.0, 1e-14, 1e-13, 1e-9]),
       seed=st.integers(0, 2 ** 32 - 1))
# the mesh's left end and the knot 3.0 a node, one ulp apart: a cell 4.4e-16
# wide whose midpoint rounds onto its right node
@example(w="step", t0=2.9999999999999996, span=1.0, n=2, near=0.0, seed=0)
def test_build_tables_matches_reference_bits(w, t0, span, n, near, seed):
    """Tables on the meshes ``segment_grid`` makes of random nodes, some
    within ``near`` of a knot (a knot farther than 1e-12 max(T, 1) from
    every node becomes a node), equal the reference field by field: the
    midpoint block's barycentric positions are ``lam_m``, and the end
    blocks sit on the nodes."""
    w = _resolve(w)
    rng = np.random.default_rng(seed)
    knots = w.knots_in_span(t0, t0 + span)[1:-1]
    nodes = np.concatenate([[t0, t0 + span], rng.uniform(t0, t0 + span, n),
                            knots[rng.random(len(knots)) < 0.5] + near])
    nodes = np.unique(nodes[(nodes >= t0) & (nodes <= t0 + span)])
    nodes = assembly.segment_grid(w, nodes).nodes
    tb = assembly.build_tables(w, nodes)
    ref = _ref_tables(w, nodes)
    cells = len(tb.h)
    assert np.array_equal(ref.qcell, np.tile(np.arange(cells), 3))
    assert (ref.qlam[:cells] == 0.0).all()
    assert (ref.qlam[2 * cells:] == 1.0).all()
    for name in ("nodes", "h", "lam_m", "qw", "qap", "qam"):
        got = getattr(tb, name)
        want = ref.qlam[cells:2 * cells] if name == "lam_m" else \
            getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _knots_in_span_loop(w, t0, t1):
    """``WeightSpec.knots_in_span`` as a loop over periods and segment
    starts, kept as its reference."""
    T = w.period
    ks = []
    p = math.floor(t0 / T)
    while p * T < t1 + T:
        for s in w.seg_knots[:-1]:
            tk = p * T + s
            if t0 < tk < t1:
                ks.append(tk)
        p += 1
    return np.array(sorted({t0, t1, *ks}))


@settings(max_examples=100, deadline=None)
@given(w=_weights, t0=st.floats(-40.0, 40.0), span=st.floats(0.0, 30.0))
@example(w="step", t0=-3.0, span=6.0)
def test_knots_in_span_is_the_loop(w, t0, span):
    """The vectorized knots of a span are the loop's, bit for bit."""
    w = _resolve(w)
    got = w.knots_in_span(t0, t0 + span)
    want = _knots_in_span_loop(w, t0, t0 + span)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _knot_gap(w, nodes, knots):
    """How far each knot lies from the nearest node."""
    j = np.clip(np.searchsorted(nodes, knots), 1, len(nodes) - 1)
    return np.minimum(np.abs(knots - nodes[j - 1]), np.abs(nodes[j] - knots))


@settings(max_examples=80, deadline=None)
@given(w=_weights, t0=st.floats(-6.0, 6.0),
       cuts=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
       n=st.integers(1, 40), even=st.booleans(),
       i0=st.integers(-3, 3), L=st.integers(1, 3), m=st.integers(8, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_meshes_hold_every_knot(w, t0, cuts, n, even, i0, L, m, seed):
    """``knot_mesh`` puts a node on every weight knot (to 1e-12 max(T, 1)),
    gives each piece between knots at least its rounded-up share of its
    stretch's n cells, at least one, and with ``even`` the same count to
    every stretch; its nodes increase strictly, and a stretch of one piece
    has ``np.linspace``'s nodes.  A window has the same count on every row,
    each row from its sigma_i to its tau_i.  ``segment_grid`` adds every
    knot to arbitrary nodes and takes ``knot_mesh``'s as they are, and
    ``build_tables`` refuses a knot inside a cell."""
    w = _resolve(w)
    tol = 1e-12 * max(w.period, 1.0)
    bounds = t0 + np.cumsum(np.concatenate([[0.0], cuts]))
    nodes, per = assembly.knot_mesh(w, bounds, n, even=even)
    starts = np.append(0, np.cumsum(per))
    assert np.all(np.diff(nodes) > 0.0) and len(nodes) == starts[-1] + 1
    assert np.array_equal(nodes[starts], bounds)
    knots = w.knots_in_span(bounds[0], bounds[-1])
    assert np.all(_knot_gap(w, nodes, knots) <= tol)
    if even:
        assert np.all(per == per[0])
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        inner = knots[(knots > a + tol) & (knots < b - tol)]
        ends = np.concatenate([[a], inner, [b]])
        j = np.searchsorted(nodes, ends)
        j[np.abs(nodes[np.minimum(j, len(nodes) - 1)] - ends) > tol] -= 1
        share = np.ceil(n * (np.diff(ends) / (b - a)) * (1.0 - 1e-9))
        assert np.all(np.diff(j) >= np.maximum(share, 1.0))
        if len(inner) == 0:
            assert np.array_equal(nodes[starts[s]:starts[s + 1] + 1],
                                  np.linspace(a, b, per[s] + 1))

    grid = assembly.span_grid(w, i0, L, m)
    rows = grid.rows(grid.nodes)
    i = np.arange(i0, i0 + L)
    assert grid.m >= m and rows.shape == (2 * L, grid.m + 1)
    assert np.array_equal(rows[::2, 0], w.sigma(i))
    assert np.array_equal(rows[1::2, 0], w.tau_i(i))
    assert np.array_equal(rows[1::2, -1], w.sigma(i + 1))
    tb = grid.tables
    assert len(tb.qw) == 3 * len(tb.h)

    rng = np.random.default_rng(seed)
    free = np.unique(rng.uniform(bounds[0], bounds[-1], 3 * n))
    free = np.concatenate([[bounds[0]], free[(free > bounds[0])
                                            & (free < bounds[-1])],
                           [bounds[-1]]])
    seg = assembly.segment_grid(w, free)
    assert np.all(np.isin(free, seg.nodes))
    assert np.array_equal(
        assembly.segment_grid(w, nodes, add_knots=False).nodes, nodes)
    assert np.all(_knot_gap(w, seg.nodes, knots) <= tol)
    inner = knots[(knots > bounds[0] + tol) & (knots < bounds[-1] - tol)]
    for k in inner[:1]:
        cut = np.delete(nodes, np.argmin(np.abs(nodes - k)))
        with pytest.raises(WeightError, match="inside a cell"):
            assembly.build_tables(w, cut)


def test_segment_grid_keeps_one_of_close_nodes(step_weight):
    """Of two nodes within weight.knot_tol ``segment_grid`` keeps one: an
    end, else the one on a weight knot, else the left one; a knot within
    that of a node is not added, and a farther one is."""
    w, eps = step_weight, 1e-13
    cases = [([3.0 - 4e-16, 3.0, 3.5, 4.0], [3.0 - 4e-16, 3.5, 4.0]),
             ([0.5, 2.0, 2.0 + eps], [0.5, 1.0, 2.0 + eps]),
             ([0.2, 1.0 - eps, 1.0, 1.5], [0.2, 1.0, 1.5]),
             ([0.2, 0.5, 0.5 + eps, 0.9], [0.2, 0.5, 0.9]),
             ([0.2, 1.0 + eps, 1.5], [0.2, 1.0 + eps, 1.5])]
    for nodes, want in cases:
        assert assembly.segment_grid(w, nodes).nodes.tolist() == want


def test_one_window_per_mesh(monkeypatch, step_weight):
    """Two cell counts that a weight's knots floor to one mesh get one
    window grid in one kept slot (sine at 4096 samples a period: 712 and 89
    both give m = 2048), and a weight with no knot inside its subintervals
    gets the count asked for."""
    monkeypatch.setattr(weight, "_SINE_SAMPLES", 4096)
    w = weight.make_sine_weight()
    grid = assembly.span_grid(w, 0, 2, 712)
    assert grid.m == 2048 and len(assembly._grids) == 1
    for m in (89, 2048):
        assert assembly.span_grid(w, 0, 2, m) is grid
    assert len(assembly._grids) == 1
    assert assembly.span_grid(w, 0, 2, 2049).m > 2048
    for m in (8, 160, 161):
        step = assembly.span_grid(step_weight, -1, 2, m)
        assert step.m == m and step is assembly.span_grid(step_weight, -1, 2, m)
        assert np.array_equal(step.nodes, assembly.knot_mesh(
            step_weight, [-2.0, -1.0, 0.0, 1.0, 2.0], m, even=True)[0])


@pytest.mark.parametrize("order", [(100, 50), (50, 100)])
def test_window_is_kept_by_its_nodes(order):
    """Two counts that give one m but different nodes get their own
    windows, whichever is asked first: 200 sample pieces floor I+ at 200
    cells, and I-'s pieces (0.3, 0.7) get (30, 170) cells at n = 100 and
    (15, 185) at n = 50."""
    t = np.linspace(0.0, 1.0, 201)
    P = weight.Piece
    w = weight.build_weight(2.0, 1.0, [
        P(0.0, 1.0, "samples", (tuple(t), tuple(np.sin(np.pi * t)))),
        P(1.0, 1.3, "poly", (-1.0,)), P(1.3, 2.0, "poly", (-2.0,))])
    for n in order:
        grid = assembly.span_grid(w, 0, 1, n)
        nodes, per = assembly.knot_mesh(w, [0.0, 1.0, 2.0], n, even=True)
        assert grid.m == per.max() == 200
        assert np.array_equal(grid.nodes, nodes)
    assert len(assembly._grids) == 2


# -- grids kept per process ---------------------------------------------------


def _two_step(neg_level):
    return weight.build_weight(2.0, 1.0, [
        weight.Piece(0.0, 1.0, "poly", (1.0,)),
        weight.Piece(1.0, 2.0, "poly", (-neg_level,))])


def test_weight_file_loaded_twice_shares_its_grids(tmp_path):
    """Two loads of one weight file are two objects with one content: they
    get the same window grid and the same block mesh."""
    from multibump import connection

    path = tmp_path / "w.json"
    weight.save_weight_json(weight.make_step_weight(), path)
    w1, w2 = weight.load_weight_json(path), weight.load_weight_json(path)
    assert w1 is not w2
    assert assembly.span_grid(w1, -1, 2, 16) is \
        assembly.span_grid(w2, -1, 2, 16)
    blocks = [connection.make_connection_problem(w, 1e3, 0.5, 0.5, K=1.0,
                                                 r=1.0) for w in (w1, w2)]
    assert connection.connection_grid(blocks[0]) is \
        connection.connection_grid(blocks[1])


def test_weight_content_is_hashed_once(monkeypatch):
    """The window, block and level caches key by the weight's digest, the
    sha256 of its segment table, taken once per WeightSpec however many
    hits follow; a second spec of equal content takes its own once and
    shares the kept grids and levels.  A one-ulp change of any table entry
    changes the digest."""
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *a: hashed.append(a) or sha256(*a))
    w1, w2 = weight.make_sine_weight(), weight.make_sine_weight()
    block = connection.make_connection_problem(w1, 1e3, 0.5, 0.5, K=1.0,
                                               r=1.0)
    for _ in range(3):
        window = assembly.span_grid(w1, 0, 2, 64)
        mesh = connection.connection_grid(block)
        levels = localfield.levels_of(w1)
    assert len(hashed) == 1
    assert assembly.span_grid(w2, 0, 2, 64) is window
    assert localfield.levels_of(w2) is levels
    assert len(hashed) == 2
    assert mesh is connection.connection_grid(block)
    assert w1.digest == w2.digest
    for name in ("seg_knots", "seg_coefs"):
        arr = getattr(w1, name).copy()
        arr.flat[1] = np.nextafter(arr.flat[1], np.inf)
        assert dataclasses.replace(w1, **{name: arr}).digest != w1.digest
    flipped = w1.seg_positive.copy()
    flipped[-1] = True
    assert dataclasses.replace(w1, seg_positive=flipped).digest != w1.digest


def test_step_as_samples_shares_the_builtins_results():
    """The step weight written as two samples pieces is the built-in's
    table, so it gets the built-in's digest, levels and window grid."""
    step = weight.make_step_weight()
    samples = weight.build_weight(2.0, 1.0, [
        weight.Piece(0.0, 1.0, "samples", ((0.0, 1.0), (1.0, 1.0))),
        weight.Piece(1.0, 2.0, "samples", ((1.0, 2.0), (-1.0, -1.0)))])
    assert samples.pieces != step.pieces
    assert samples.digest == step.digest
    assert localfield.levels_of(samples) is localfield.levels_of(step)
    assert assembly.span_grid(samples, 0, 2, 16) is \
        assembly.span_grid(step, 0, 2, 16)


def test_grid_keyed_by_negative_pieces_too():
    """Weights equal on [0, tau] but not on [tau, T] get different grids,
    whose tables read their own a-."""
    g1 = assembly.span_grid(_two_step(1.0), 0, 1, 16)
    g2 = assembly.span_grid(_two_step(2.0), 0, 1, 16)
    assert g1 is not g2
    assert np.max(g2.tables.qam) == 2.0 * np.max(g1.tables.qam)


def test_at_most_four_grids_kept():
    """The most recently asked grids are kept, at most _KEPT = 4; the
    oldest is rebuilt when asked again."""
    w = weight.make_step_weight()
    first = assembly.span_grid(w, 0, 1, 8)
    for m in range(9, 14):
        assembly.span_grid(w, 0, 1, m)
        assert len(assembly._grids) <= assembly._KEPT == 4
    assert assembly.span_grid(w, 0, 1, 13) is assembly.span_grid(w, 0, 1, 13)
    rebuilt = assembly.span_grid(w, 0, 1, 8)
    assert rebuilt is not first
    assert np.array_equal(rebuilt.tables.qw, first.tables.qw)


def test_kept_grid_arrays_are_read_only():
    grid = assembly.span_grid(weight.make_step_weight(), 0, 1, 16)
    for arr in (grid.nodes, grid.tables.qw, grid.tables.lam_m,
                grid.tables.inv_h):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_stacked_residual_rows_match_single_rows(rng):
    """A stack's residual and actions are each row's own, bit for bit, on
    a periodic window and on a clamped mesh."""
    w = weight.make_step_weight()
    for grid in (assembly.span_grid(w, -1, 3, 20), segment(w, -1.0, 2.0, 90)):
        stack = rng.standard_normal((3, grid.ndof))
        op = assembly.Operator(grid, 300.0)
        rows = op.residual(stack)
        actions = op.actions(stack)
        for k, values in enumerate(stack):
            one = assembly.Operator(grid, 300.0).residual(values.copy())
            assert np.array_equal(rows[k], one)
            assert actions[k] == action(grid, 300.0, values.copy())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 3000), rows=st.integers(1, 5), periodic=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_actions_sum_each_row_alone(n, rows, periodic, seed):
    """A stack's actions, summed in one pass, are each row's own action bit
    for bit, for rows long enough to run numpy's pairwise sum in blocks."""
    w = weight.make_step_weight()
    grid = (assembly.span_grid(w, 0, 1, max(8, n // 2)) if periodic
            else segment(w, -1.0, 2.0, n))
    stack = np.random.default_rng(seed).standard_normal((rows, grid.ndof))
    op = assembly.Operator(grid, 700.0)
    op.residual(stack)
    got = op.actions(stack)
    for k, values in enumerate(stack):
        assert got[k] == action(grid, 700.0, values)


def test_newton_from_a_given_residual_is_newton(rng):
    """newton_dirichlet handed the residual at its start takes the steps it
    takes when it forms that residual itself."""
    w = weight.make_step_weight()
    grid = segment(w, -1.0, 2.0, 120)
    start = 0.3 + 0.05 * rng.standard_normal(grid.ndof)
    op = assembly.Operator(grid, 50.0)
    r = op.residual(start)[1:-1]
    got = assembly.newton_dirichlet(op, start, 1e-10, 40, r)
    want = assembly.newton_dirichlet(assembly.Operator(grid, 50.0), start,
                                     1e-10, 40)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1] > 0


def test_sorted_unique_is_numpys(rng):
    for a in (rng.integers(0, 20, 50).astype(float), rng.standard_normal(7),
              np.array([1.0]), np.array([2.0, 2.0, 1.0])):
        assert np.array_equal(assembly.sorted_unique(a), np.unique(a))
