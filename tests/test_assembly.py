import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
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
    """Cells never straddle a sign change: a_mu is single-signed per cell."""
    grid = assembly.span_grid(step_weight, 0, 2, 10)
    tb = grid.tables
    amu = tb.amu(50.0)
    cell_sign = {}
    for q in range(len(amu)):
        c = int(tb.qcell[q])
        s = np.sign(amu[q])
        if c in cell_sign and s != 0:
            assert cell_sign[c] * s >= 0
        cell_sign.setdefault(c, s)


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
        u = solver.initial_guess(window, localfield.ground_state(w, m), grid)
    else:
        rng = np.random.default_rng(seed)
        u = assembly.GridFunction(grid, rng.uniform(-2.0, 2.0, grid.ndof))
    if not periodic:
        grid = assembly.segment_grid(w, grid.nodes)
        u = assembly.GridFunction(grid, u.full())
    if periodic:
        r = assembly.gradient(u, mu).values
        step = assembly.solve_tridiagonal(*assembly.jacobian_matrix(u, mu), r)
        applied = hessian(grid, mu, u.values, step)
    else:
        tb, full = grid.tables, u.values
        op = assembly.Operator(grid, mu)
        r = op.residual(full)[1:-1]
        step = np.zeros(len(full))
        step[1:-1] = assembly.solve_interior(tb, r, op.bands(full))
        applied = assembly.hessian_full(tb, mu, full, step)[1:-1]
    assert np.max(np.abs(applied - r)) <= 1e-9 * np.max(np.abs(r))


def test_solve_interior_definite_bands(step_weight, rng):
    """Banded Cholesky on the Jacobian bands: the stiffness solve at u = 0,
    the LU solve's answer where the Hessian is positive definite, and
    LinAlgError where it is not."""
    grid = assembly.segment_grid(
        step_weight, assembly.span_grid(step_weight, 0, 1, 40).nodes)
    tb = grid.tables
    op = assembly.Operator(grid, 10.0)
    rhs = rng.normal(size=len(tb.nodes) - 2)
    zero = np.zeros(len(tb.nodes))
    assert np.array_equal(
        assembly.solve_interior(tb, rhs, op.bands(zero), definite=True),
        assembly.solve_interior(tb, rhs))
    small = np.full(len(tb.nodes), 0.1)
    chol = assembly.solve_interior(tb, rhs, op.bands(small), definite=True)
    lu = assembly.solve_interior(tb, rhs, op.bands(small))
    assert np.max(np.abs(chol - lu)) <= 1e-12 * np.max(np.abs(lu))
    with pytest.raises(np.linalg.LinAlgError):
        assembly.solve_interior(tb, rhs, op.bands(100.0 * small),
                                definite=True)


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
    """``solve_interior``'s definite and stiffness solves are scipy's
    ``solveh_banded``, and ``cholesky_factor`` with ``cholesky_solve`` are
    ``cholesky_banded`` with ``cho_solve_banded``, bit for bit.  (One
    unknown is refused by both; see the next test.)"""
    (LL, LR, RR), nodes, rhs = _spd_system(n, seed, columns)
    tb = assembly.segment_grid(step_weight, nodes).tables
    diag, off = RR[:-1] + LL[1:], LR[1:-1]
    assert np.array_equal(
        assembly.solve_interior(tb, rhs, (LL, LR, RR), definite=True),
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
            lambda: assembly.solve_interior(tb, poisoned, (LL, LR, RR),
                                            definite=True),
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
    assert _linalg_message(assembly.solve_interior, tb, rhs,
                           (LL, LR, RR_bad), definite=True) \
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
    """build_tables with one Horner pass per weight segment (np.unique)."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    h = np.diff(nodes)
    T = w.period
    bounds = np.union1d(nodes, w.knots_in_span(nodes[0], nodes[-1]))
    keep = np.concatenate([[True], np.diff(bounds) > 1e-12 * max(T, 1.0)])
    bounds = bounds[keep]
    bounds[0], bounds[-1] = nodes[0], nodes[-1]
    a, b = bounds[:-1], bounds[1:]
    mid = 0.5 * (a + b)
    d = b - a
    cell = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, len(h) - 1)
    shift = T * np.floor(mid / T)
    seg = w._segment_index(mid - shift)
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
    return dict(nodes=nodes, h=h, qcell=qcell,
                qlam=np.clip((qt - nodes[qcell]) / h[qcell], 0.0, 1.0), qw=qw,
                qap=np.where(pos, np.maximum(raw, 0.0), 0.0),
                qam=np.where(pos, 0.0, np.maximum(-raw, 0.0)))


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
    """(residual, Newton step) on the dofs as the solver formed them."""
    full = np.concatenate([values, values[:1]]) if periodic else values
    r = _ref_residual_full(tb, mu, full)
    dLL, dLR, dRR = _ref_jacobian_bands(tb, mu, full)
    if periodic:
        r_end = r[-1]
        r = r[:-1].copy()
        r[0] += r_end
        return r, _ref_solve_tridiagonal(dLL + np.roll(dRR, 1), dLR, r)
    return r, _ref_solve_tridiagonal(dRR[:-1] + dLL[1:], dLR[1:-1], r[1:-1])


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
    """The operator's residual and Newton step, at a fresh iterate and
    reusing the residual's point values, equal the reference bit for bit on
    periodic windows and on clamped meshes of the same nodes."""
    w = _resolve(w)
    grid = assembly.span_grid(w, -1, len(code), cells)
    if not periodic:
        grid = assembly.segment_grid(w, grid.nodes)
    tb = grid.tables
    rng = np.random.default_rng(seed)
    # a plateau of height 1-3 on each coded I_i^+ over noise
    plateau = np.append(np.repeat([[s, 0] for s in code], cells), 0.0)
    values = rng.uniform(-0.5, 0.5, grid.ndof) + \
        rng.uniform(1.0, 3.0) * plateau[:grid.ndof]
    r_ref, step_ref = _ref_residual_and_step(tb, mu, values, periodic)
    op = assembly.Operator(grid, mu)
    r = op.residual(values)
    rows = r if periodic else r[1:-1]
    assert np.array_equal(r, r_ref)
    assert np.array_equal(op.step(values, rows), step_ref)
    fresh = assembly.Operator(grid, mu)
    assert np.array_equal(fresh.step(values, rows), step_ref)


def _ref_one_sided_slope(tb, mu, full, uq, node, side):
    """(u'(t_node+) or u'(t_node-), its two terms' size): the half-hat flux
    as the identities once computed it, one masked sum per node, kept as
    the reference of Operator.slopes."""
    if side == "+":
        c = node if node < len(tb.h) else 0
        ramp, sign = tb.rlam, 1.0
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
    tb = grid.tables
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
    uq = assembly._at_points(tb, full)
    n = len(grid.nodes) - 1
    nodes = {0, n - 1, *rng.integers(0, n, 12).tolist()}
    checks = [(j, "+", right) for j in nodes] + \
        [(j, "-", left) for j in nodes | {n} if j or periodic]
    for j, side, got in checks:
        ref, size = _ref_one_sided_slope(tb, mu, full, uq, j, side)
        assert abs(got[grid.dof_of_node(j)] - ref) <= 1e-13 * size


def _general_form(tb, run):
    """run() with tb's node-aligned flag off: the general gather and
    scatter on the same tables."""
    assert tb.aligned
    tb.aligned = False
    try:
        return run()
    finally:
        tb.aligned = True


def _operator_outputs(grid, mu, values, stack):
    """Everything the operator and ``cubic_full`` give at values (and a
    stack), each from an operator of its own or after its residual."""
    op = assembly.Operator(grid, mu)
    r = op.residual(values)
    rows = r if grid.periodic else r[1:-1]
    stacked = assembly.Operator(grid, mu)
    fresh = assembly.Operator(grid, mu)
    return {
        "residual": r, "bands": op.bands(values),
        "step": op.step(values, rows), "slopes": op.slopes(values),
        "points": op.points(values), "actions": op.actions(values),
        "fresh bands": fresh.bands(values),
        "fresh step": fresh.step(values, rows),
        "fresh slopes": fresh.slopes(values),
        "fresh points": fresh.points(values),
        "fresh actions": fresh.actions(values),
        "stack residual": stacked.residual(stack),
        "stack actions": stacked.actions(stack),
        "stack points": stacked.points(stack),
        "cubic_full": assembly.cubic_full(grid.tables, mu,
                                          grid.full_values(values)),
    }


@settings(max_examples=60, deadline=None)
@given(w=_weights, mesh=st.sampled_from(["window", "clamped", "knots"]),
       code=st.lists(st.integers(0, 1), min_size=1, max_size=3).filter(any),
       cells=st.integers(8, 400), mu=st.floats(1.0, 1e5),
       rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_node_aligned_form_matches_general_bits(w, mesh, code, cells, mu,
                                                rows, seed):
    """On node-aligned tables (step windows, clamped meshes of their nodes,
    and clamped meshes holding every weight knot as a node) the operator,
    its Newton step and ``cubic_full`` give the bits of the general gather
    and scatter on the same tables, for one vector and a stack."""
    w = _resolve("step" if mesh == "window" else w)
    grid = assembly.span_grid(w, -1, len(code), cells)
    if mesh == "clamped":
        grid = assembly.segment_grid(w, grid.nodes)
    elif mesh == "knots":
        knots = w.knots_in_span(grid.nodes[0], grid.nodes[-1])
        grid = assembly.segment_grid(w, assembly.sorted_unique(
            np.concatenate([grid.nodes[::3], knots])))
    tb = grid.tables
    assume(tb.aligned)     # no knot merged into a node
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-3.0, 3.0, (rows, grid.ndof))
    values = stack[0].copy()
    got = _operator_outputs(grid, mu, values, stack)
    want = _general_form(tb, lambda: _operator_outputs(grid, mu, values,
                                                       stack))
    for name, ref in want.items():
        if isinstance(ref, tuple):
            assert all(np.array_equal(a, b, equal_nan=True)
                       for a, b in zip(got[name], ref)), name
        else:
            assert np.array_equal(got[name], ref, equal_nan=True), name


def test_knot_by_a_node_takes_the_general_form(step_weight):
    """A weight knot within 1e-12 T left of a node is kept in its place, so
    the cell left of it ends short of its node: the tables are not
    node-aligned, and the operator still gives the reference's bits."""
    T = step_weight.period
    nodes = np.linspace(-1.5, 1.5, 121)
    knot = step_weight.tau_i(0)
    nodes[np.argmin(np.abs(nodes - knot))] = knot + 0.5e-12 * T
    grid = assembly.segment_grid(step_weight, nodes)
    tb = grid.tables
    assert not tb.aligned and len(tb.qw) == 3 * len(tb.h)
    values = np.random.default_rng(5).uniform(-1.0, 3.0, grid.ndof)
    r_ref, step_ref = _ref_residual_and_step(tb, 700.0, values, False)
    op = assembly.Operator(grid, 700.0)
    r = op.residual(values)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(op.step(values, r[1:-1]), step_ref)


@settings(max_examples=60, deadline=None)
@given(w=_weights, t0=st.floats(-3.0, 3.0), span=st.floats(0.1, 8.0),
       n=st.integers(2, 300), near=st.sampled_from([0.0, 1e-14, 1e-13, 1e-9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_build_tables_matches_reference_bits(w, t0, span, n, near, seed):
    """Tables on random meshes, with weight knots inside cells and nodes
    within ``near`` of a knot (merged below 1e-12 T), equal the reference
    field by field."""
    w = _resolve(w)
    rng = np.random.default_rng(seed)
    knots = w.knots_in_span(t0, t0 + span)[1:-1]
    nodes = np.concatenate([[t0, t0 + span], rng.uniform(t0, t0 + span, n),
                            knots[rng.random(len(knots)) < 0.5] + near])
    nodes = np.unique(nodes[(nodes >= t0) & (nodes <= t0 + span)])
    tb = assembly.build_tables(w, nodes)
    for name, ref in _ref_tables(w, nodes).items():
        got = getattr(tb, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


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


def test_grid_keyed_by_negative_pieces_too():
    """Weights equal on [0, tau] but not on [tau, T] get different grids,
    whose tables read their own a-."""
    g1 = assembly.span_grid(_two_step(1.0), 0, 1, 16)
    g2 = assembly.span_grid(_two_step(2.0), 0, 1, 16)
    assert g1 is not g2
    assert np.max(g2.tables.qam) == 2.0 * np.max(g1.tables.qam)


def test_at_most_four_grids_kept():
    """The most recently asked grids are kept, at most _GRIDS_KEPT = 4; the
    oldest is rebuilt when asked again."""
    w = weight.make_step_weight()
    first = assembly.span_grid(w, 0, 1, 8)
    for m in range(9, 14):
        assembly.span_grid(w, 0, 1, m)
        assert len(assembly._grids) <= assembly._GRIDS_KEPT == 4
    assert assembly.span_grid(w, 0, 1, 13) is assembly.span_grid(w, 0, 1, 13)
    rebuilt = assembly.span_grid(w, 0, 1, 8)
    assert rebuilt is not first
    assert np.array_equal(rebuilt.tables.qw, first.tables.qw)


def test_kept_grids_under_threads():
    """No command starts a thread, but a library caller may share the kept
    grids across threads: more threads than cores asking for more keys than
    are kept, with a short switch interval, each get a grid of their key
    and never see more than _GRIDS_KEPT kept."""
    w = weight.make_step_weight()
    errors, sizes = [], []

    def work(k):
        try:
            for j in range(300):
                m = 8 + (j * (k + 1)) % 10
                assert assembly.span_grid(w, 0, 1, m).m == m
                sizes.append(len(assembly._grids))
        except Exception as e:          # reported by the main thread
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(sizes) == 2400 and max(sizes) <= assembly._GRIDS_KEPT


def test_kept_grid_arrays_are_read_only():
    grid = assembly.span_grid(weight.make_step_weight(), 0, 1, 16)
    for arr in (grid.nodes, grid.tables.qw, grid.tables.qcell,
                grid.tables.inv_h):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_kept_grid_kernels_index_writable_arrays():
    """The kernels gather and scatter through writable index arrays (numpy
    copies a read-only index on every ``take`` and ``bincount``), and the
    read-only ``qcell`` handed out is a view of the same memory."""
    tb = assembly.span_grid(weight.make_step_weight(), 0, 1, 16).tables
    assert tb._qcell.flags.writeable and tb.qcell1.flags.writeable
    assert not tb.qcell.flags.writeable
    assert tb.qcell.base is tb._qcell


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
