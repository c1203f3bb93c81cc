import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibump import assembly, localfield, oracle, weight
from multibump.errors import DegenerateDirection, NonConvergence

C_STEP = 15.756060010769785
T1 = 3.118169499510998


def test_ground_level_vs_oracle_richardson(step_weight, level_mesh):
    """FEM ground level converges to the shooting value at rate ~2; the
    Richardson combination of two meshes lands much closer."""
    c_ref = oracle.brute_ground_level(step_weight)
    level_mesh(1000)
    c1 = localfield.ground_state(step_weight).level
    level_mesh(2000)
    c2 = localfield.ground_state(step_weight).level
    e1, e2 = abs(c1 - c_ref), abs(c2 - c_ref)
    rate = math.log(e1 / e2) / math.log(2.0)
    assert 1.7 <= rate <= 2.3
    rich = (4.0 * c2 - c1) / 3.0
    assert abs(rich - c_ref) / c_ref < 1e-8
    assert math.isclose(c_ref, C_STEP, rel_tol=1e-12)


def test_ground_bump_shape(step_weight, level_mesh):
    level_mesh(1200)
    bump = localfield.ground_state(step_weight)
    u = bump.samples.full()
    assert abs(u[0]) < 1e-14 and abs(u[-1]) < 1e-14
    assert np.all(u[1:-1] > 0.0)
    # u = lam w(lam t) with lam = T1 gives endpoint slopes +-lam^2
    assert math.isclose(bump.dleft, T1 ** 2, rel_tol=1e-5)
    assert math.isclose(bump.dright, -T1 ** 2, rel_tol=1e-5)
    # symmetric weight: symmetric bump
    assert np.max(np.abs(u - u[::-1])) < 1e-9 * np.max(u)


def test_principal_eigenvalue_step(step_weight, level_mesh):
    """a+ = 1 on [0, 1]: the eigenvalue is exactly pi^2."""
    level_mesh(1500)
    lam, phi = localfield.principal_eigenvalue(step_weight)
    assert math.isclose(lam, math.pi ** 2, rel_tol=1e-5)
    full = phi.full()
    assert full[0] == 0.0 and full[-1] == 0.0
    assert np.all(full[1:-1] > 0.0)
    assert math.isclose(np.max(full), 1.0, rel_tol=1e-12)
    # against the exact eigenfunction sin(pi t)
    assert np.max(np.abs(full - np.sin(np.pi * phi.grid.nodes))) < 1e-4
    # the shared levels hand out the same eigenpair, exactly max-normalized
    level_mesh(1200)
    lam1, phi1 = localfield.levels_of(step_weight).eigen()
    assert math.isclose(lam1, math.pi ** 2, rel_tol=1e-5)
    assert phi1.sup_norm() == 1.0


def _closed_form_errors(values, exact):
    """Relative errors against ``exact`` and the ratios of successive ones."""
    errs = [abs(v - exact) / exact for v in values]
    return errs, [e0 / e1 for e0, e1 in zip(errs, errs[1:])]


_MESHES = (200, 400, 800, 1600)
# lemniscate constant Gamma(1/4)^2 / (2 sqrt(2 pi)): a+ = 1 on [0, 1] has
# ground level varpi^4 / 3 and end slope sqrt(2) varpi^2
_VARPI = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi))


def test_principal_eigenvalue_methods_agree(step_weight, sine_weight,
                                            level_mesh):
    """The eigensolve agrees with the closed form: lambda1 = pi^2 on
    step at O(h^2), and constant-weight bounds on sine."""
    lams = []
    for n in _MESHES:
        level_mesh(n)
        lams.append(localfield.principal_eigenvalue(step_weight)[0])
    errs, ratios = _closed_form_errors(lams, math.pi ** 2)
    assert all(3.9 <= r <= 4.1 for r in ratios), (errs, ratios)
    level_mesh(800)
    lam_d, _ = localfield.principal_eigenvalue(sine_weight)
    # comparison with constant-weight bounds: sin <= 1 on (0, pi) pushes
    # the eigenvalue above lambda1(a = 1) = 1
    assert lam_d > 1.0
    assert lam_d < math.pi ** 2  # and far below the a+ = sup on tiny support


def _dense_principal_eigenvalue(w, n):
    """Reference: the dense generalized eigensolve of the same pencil, for
    the largest eigenvalue 1/lambda1 of M phi = nu K phi."""
    grid = assembly.segment_grid(w, assembly.knot_mesh(w, [0.0, w.tau], n)[0])
    tb = grid.tables
    mLL, mLR, mRR = assembly._cell_blocks(
        tb, *assembly._blocks(tb, tb.qw * tb.qap))
    inv = 1.0 / tb.h
    K = np.diag(inv[:-1] + inv[1:]) - np.diag(inv[1:-1], 1) \
        - np.diag(inv[1:-1], -1)
    M = np.diag(mRR[:-1] + mLL[1:]) + np.diag(mLR[1:-1], 1) \
        + np.diag(mLR[1:-1], -1)
    top = len(K) - 1
    vals, vecs = scipy.linalg.eigh(M, K, subset_by_index=[top, top])
    phi = vecs[:, 0]
    if abs(np.min(phi)) > abs(np.max(phi)):
        phi = -phi
    return 1.0 / float(vals[0]), phi / np.max(phi)


@pytest.mark.parametrize("n", _MESHES)
def test_principal_eigenvalue_matches_dense(step_weight, sine_weight,
                                            level_mesh, n):
    """Banded inverse iteration reproduces the dense eigenpair."""
    level_mesh(n)
    for w in (step_weight, sine_weight):
        lam, phi = localfield.principal_eigenvalue(w)
        lam_d, phi_d = _dense_principal_eigenvalue(w, n)
        assert abs(lam - lam_d) <= 1e-12 * lam_d, (n, lam, lam_d)
        assert np.max(np.abs(phi.full()[1:-1] - phi_d)) < 1e-10


def test_ground_level_closed_form_convergence(step_weight, level_mesh):
    """On step the FEM ground level and end slope converge to the
    lemniscate closed forms at O(h^2)."""
    bumps = []
    for n in _MESHES:
        level_mesh(n)
        bumps.append(localfield.ground_state(step_weight))
    errs, ratios = _closed_form_errors([b.level for b in bumps],
                                       _VARPI ** 4 / 3.0)
    assert all(3.9 <= r <= 4.1 for r in ratios), (errs, ratios)
    assert errs[-1] < 1e-6
    errs, ratios = _closed_form_errors([b.dleft for b in bumps],
                                       math.sqrt(2.0) * _VARPI ** 2)
    assert all(3.9 <= r <= 4.1 for r in ratios), (errs, ratios)


def test_pinned_level_boundary_configuration(step_weight, level_mesh):
    """For the flat weight the pinned minimizer parks its zero on the
    boundary of the admissible band and carries a single bump."""
    level_mesh(1500)
    det = localfield.pinned_zero_detail(step_weight, 0.125)
    assert math.isclose(det.tbar, 0.875, rel_tol=1e-9)
    # single bump on [0, 1 - zeta]: level scales like length^-3
    c = localfield.ground_state(step_weight).level
    assert math.isclose(det.c_zeta, c / 0.875 ** 3, rel_tol=1e-5)


def test_pinned_level_solves_two_edge_levels(step_weight, monkeypatch):
    """The pinned level costs the two window-edge ground solves, no more."""
    calls = []
    real = localfield._ground_on

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(localfield, "_ground_on", counted)
    localfield.pinned_zero_detail(step_weight, 0.125)
    assert calls == [(0.0, 0.875), (0.125, 1.0)]


@pytest.mark.parametrize("name", ["step", "sine"])
def test_dirichlet_bumps_end_at_zero(step_weight, sine_weight, monkeypatch,
                                     name):
    """The ground bump and both edge solves of the pinned level end at +0.0
    exactly: the descent and the polish hold the ends of their start, whose
    sine reads sin(pi) = 1.2e-16 there."""
    w = step_weight if name == "step" else sine_weight
    ends = []
    real = localfield._ground_on

    def recorded(*args):
        out = real(*args)
        ends.append(out[1][[0, -1]].tolist())
        return out

    monkeypatch.setattr(localfield, "_ground_on", recorded)
    bump = localfield.ground_state(w)
    localfield.pinned_zero_detail(w, w.tau / 8.0)
    assert len(ends) == 3
    for left, right in ends:
        assert (left, right) == (0.0, 0.0)
        assert math.copysign(1.0, left) == math.copysign(1.0, right) == 1.0
    assert bump.u[0] == bump.u[-1] == 0.0


def test_pinned_level_two_entries_agree(step_weight, level_mesh):
    level_mesh(1200)
    a = localfield.pinned_zero_detail(step_weight, 0.125).c_zeta
    b = localfield.pinned_level_direct(step_weight, 0.875)
    assert math.isclose(a, b, rel_tol=1e-6)


def test_nehari_project_identity(step_weight, rng):
    grid = assembly.segment_grid(step_weight, np.linspace(0.0, 1.0, 201))
    for _ in range(10):
        vals = np.abs(rng.standard_normal(grid.ndof)) + 0.05
        vals[0] = vals[-1] = 0.0
        u = localfield.nehari_project(assembly.GridFunction(grid, vals))
        tb = grid.tables
        kin = assembly.dirichlet_integral(tb, u.full())
        quart = assembly.quartic_integral(tb, 0.0, u.full())
        assert math.isclose(kin, quart, rel_tol=1e-11)
        # on the constraint the action reduces to (1/4) int u'^2
        act = 0.5 * kin - 0.25 * quart
        assert math.isclose(act, 0.25 * kin, rel_tol=1e-11)


def test_nehari_project_scales_toward_ground_level(step_weight):
    """Projecting the exact eigenfunction-like hump lands above c."""
    grid = assembly.segment_grid(step_weight, np.linspace(0.0, 1.0, 801))
    u0 = assembly.GridFunction(grid, np.sin(np.pi * grid.nodes))
    u = localfield.nehari_project(u0)
    level = 0.25 * assembly.dirichlet_integral(grid.tables, u.full())
    assert level >= C_STEP * (1.0 - 1e-6)
    assert level < 1.05 * C_STEP  # sine is a decent trial function


def test_nehari_project_degenerate(step_weight):
    # supported where a+ vanishes: no quartic mass to scale against
    grid = assembly.segment_grid(step_weight, np.linspace(1.0, 2.0, 101))
    mid = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    vals = np.exp(-40.0 * (grid.nodes - 1.5) ** 2)
    with pytest.raises(DegenerateDirection):
        localfield.nehari_project(assembly.GridFunction(grid, vals))


def test_level_evaluator_caches(step_weight):
    ev = localfield.LevelEvaluator(step_weight)
    b1 = ev.ground_bump()
    b2 = ev.ground_bump()
    assert b1 is b2
    p1 = ev.pinned_level(0.125)
    p2 = ev.pinned_level(0.125)
    assert p1 == p2
    assert ev.ground_level() == b1.level
    assert ev.pack is ev.pack and ev.pack.c == b1.level


@pytest.mark.parametrize("name,c,c_zeta", [
    ("step", 15.756802489165743, 23.520697506848535),
    ("sine", 0.5514245240879266, 0.8211635195656415),
])
def test_default_mesh_levels_pinned(name, c, c_zeta):
    """c and c_zeta at the default mesh, as computed before the descent's
    line search started from the last accepted step: the faster descent
    must land on the same minimizers."""
    w = weight.make_step_weight() if name == "step" else \
        weight.make_sine_weight()
    ev = localfield.LevelEvaluator(w)
    zeta, got_zeta, _ = weight.choose_zeta(w, ev)
    if name == "step":
        assert zeta == 0.125
    assert math.isclose(ev.ground_level(), c, rel_tol=1e-12)
    assert math.isclose(got_zeta, c_zeta, rel_tol=1e-12)


def _two_level_weight(tau, frac, lo, hi, k=1.0):
    """a+ = k lo on [0, frac tau), k hi on [frac tau, tau]; a- = 1."""
    tb = frac * tau
    return weight.build_weight(tau + 1.0, tau, [
        weight.Piece(0.0, tb, "poly", (k * lo,)),
        weight.Piece(tb, tau, "poly", (k * hi,)),
        weight.Piece(tau, tau + 1.0, "poly", (-1.0,)),
    ])


_two_levels = dict(tau=st.floats(0.5, 1.5), frac=st.floats(0.25, 0.75),
                   lo=st.floats(0.5, 2.0), hi=st.floats(0.5, 2.0))


@settings(max_examples=5, deadline=None)
@given(k=st.floats(0.25, 4.0), **_two_levels)
def test_ground_level_scales_inversely_with_weight(tau, frac, lo, hi, k):
    """u -> u / sqrt(k) maps solutions for a+ to solutions for k a+, so the
    ground level scales as 1/k on the same mesh (the level mesh depends on
    tau alone)."""
    w = _two_level_weight(tau, frac, lo, hi)
    c = localfield.ground_state(w).level
    ck = localfield.ground_state(_two_level_weight(tau, frac, lo, hi, k)).level
    assert math.isclose(k * ck, c, rel_tol=1e-9)


@settings(max_examples=5, deadline=None)
@given(**_two_levels)
def test_ground_level_matches_oracle_two_level(tau, frac, lo, hi):
    w = _two_level_weight(tau, frac, lo, hi)
    c = localfield.ground_state(w).level
    assert math.isclose(c, oracle.brute_ground_level(w), rel_tol=2e-4)


def _step_levels_weight(tau, frac, levels):
    """Piecewise constant: levels[0] on [0, frac tau), levels[1] on
    [frac tau, tau], -levels[2] on [tau, tau + 1]."""
    tb = frac * tau
    return weight.build_weight(tau + 1.0, tau, [
        weight.Piece(0.0, tb, "poly", (levels[0],)),
        weight.Piece(tb, tau, "poly", (levels[1],)),
        weight.Piece(tau, tau + 1.0, "poly", (-levels[2],)),
    ])


@settings(max_examples=8, deadline=None)
@given(tau=st.floats(0.5, 1.5), frac=st.floats(0.25, 0.75),
       levels=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       moved=st.integers(0, 2))
def test_levels_of_keyed_by_content(tau, frac, levels, moved):
    """levels_of hands out one evaluator per weight content: a rebuilt
    equal weight gets it, a one-ulp change of one piece level gets a new
    one, the memo never outgrows its bound, and the shared levels and pack
    equal a fresh evaluator's bit for bit."""
    localfield.clear_levels()
    kept = assembly._KEPT

    def shared(w):
        ev = localfield.levels_of(w)
        assert len(localfield._levels) <= kept
        return ev

    w = _step_levels_weight(tau, frac, levels)
    ev = shared(w)
    assert shared(_step_levels_weight(tau, frac, levels)) is ev
    bumped = list(levels)
    bumped[moved] = float(np.nextafter(bumped[moved], np.inf))
    assert shared(_step_levels_weight(tau, frac, bumped)) is not ev
    assert shared(w) is ev

    fresh = localfield.LevelEvaluator(w)
    assert ev.pack == fresh.pack
    assert ev.eigen()[0] == fresh.eigen()[0]
    assert shared(_step_levels_weight(tau, frac, levels)) is ev

    for extra in range(kept):
        bumped[moved] = float(np.nextafter(bumped[moved], np.inf))
        shared(_step_levels_weight(tau, frac, bumped))
    assert shared(w) is not ev


def test_failed_level_solve_is_not_cached(step_weight, monkeypatch):
    """A shared level whose solve raised is solved again on the next ask."""
    def broken(*args, **kwargs):
        raise NonConvergence("broken on purpose")

    monkeypatch.setattr(localfield, "_ground_on", broken)
    monkeypatch.setattr(localfield.assembly, "cholesky_factor", broken)
    ev = localfield.levels_of(step_weight)
    for solve in (ev.ground_bump, ev.eigen):
        with pytest.raises(NonConvergence):
            solve()
    monkeypatch.undo()
    assert localfield.levels_of(step_weight) is ev
    assert ev.ground_level() == localfield.ground_state(step_weight).level
    assert ev.eigen()[0] > 0.0


def _sub_level(w, t0, t1, mesh):
    """Ground level on [t0, t1] at the cell density of ``mesh`` on [0, tau]."""
    n = max(60, math.ceil(mesh * (t1 - t0) / w.tau))
    return localfield._ground_on(w, t0, t1, n)[2]


@settings(max_examples=8, deadline=None)
@given(zfrac=st.floats(0.05, 0.45), **_two_levels)
# the shortest split piece: Newton in _ground_on stalled at round-off there
@example(zfrac=0.05, tau=0.5, frac=0.5, lo=0.5, hi=1.0)
def test_pinned_split_never_wins(tau, frac, lo, hi, zfrac):
    """A bump on each side of a zero at t in [zeta, tau - zeta] costs at
    least the two window-edge levels together, since the ground level falls
    as the domain grows; so the pinned level is the cheaper edge level, and
    the unsplit full-interval descent pinned at its zero agrees."""
    w = _two_level_weight(tau, frac, lo, hi)
    zeta, mesh = zfrac * tau, 400
    left_only = _sub_level(w, 0.0, tau - zeta, mesh)
    right_only = _sub_level(w, zeta, tau, mesh)
    for t in np.linspace(zeta, tau - zeta, 5):
        split = _sub_level(w, 0.0, t, mesh) + _sub_level(w, t, tau, mesh)
        assert split >= (1.0 - 1e-3) * (left_only + right_only)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(localfield, "default_cells", lambda w: mesh)
        det = localfield.pinned_zero_detail(w, zeta)
        direct = localfield.pinned_level_direct(w, det.tbar)
    assert det.c_zeta == min(left_only, right_only)
    assert math.isclose(det.c_zeta, direct, rel_tol=1e-6)


def _armijo_descend(tb, u, kin, quart, max_iter, keep=None):
    """Reference: the quotient descent with Armijo backtracking, each line
    search starting at twice the last accepted step (at most 1)."""
    free = slice(1, -1) if keep is None else keep
    fval = kin * kin / quart
    alpha = 0.5
    for _ in range(max_iter):
        grad_full = (4.0 * kin / quart) * assembly.stiffness_full(tb, u) \
            - (4.0 * fval / quart) * assembly.cubic_full(tb, 0.0, u)
        g = grad_full[free]
        d = assembly.solve_interior(tb, g, keep=keep)
        slope = -float(g @ d)
        if slope > -1e-13 * max(fval, 1e-300):
            break
        alpha = min(1.0, 2.0 * alpha)
        while True:
            trial = u.copy()
            trial[free] -= alpha * d
            k2, q4 = localfield._quotient_parts(tb, trial)
            if q4 > 0:
                f2 = k2 * k2 / q4
                if f2 <= fval + 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
            if alpha <= 1e-12:
                return u, kin, quart
        stalled = fval - f2 <= 1e-15 * fval
        u, kin, quart, fval = trial, k2, q4, f2
        if stalled:
            break
    return u, kin, quart


@settings(max_examples=15, deadline=None)
@given(lo_frac=st.floats(0.0, 0.4), hi_frac=st.floats(0.6, 1.0),
       pin_frac=st.floats(0.1, 0.9), n=st.integers(60, 800), **_two_levels)
def test_exact_line_search_matches_armijo(tau, frac, lo, hi, lo_frac, hi_frac,
                                          pin_frac, n):
    """The exact line search lands on the levels of Armijo backtracking:
    the polished ground level on a subinterval, and the raw descent level of
    pinned_level_direct, whose minimizer has no Newton polish."""
    w = _two_level_weight(tau, frac, lo, hi)
    t0, t1, tbar = lo_frac * tau, hi_frac * tau, pin_frac * tau
    with pytest.MonkeyPatch.context() as m:
        m.setattr(localfield, "default_cells", lambda w: n)
        exact = (localfield._ground_on(w, t0, t1, n)[2],
                 localfield.pinned_level_direct(w, tbar))
        m.setattr(localfield, "_descend", _armijo_descend)
        ref = (localfield._ground_on(w, t0, t1, n)[2],
               localfield.pinned_level_direct(w, tbar))
    for got, want in zip(exact, ref):
        assert math.isclose(got, want, rel_tol=1e-12)


def test_pinned_edge_solve_descent_steps(step_weight, monkeypatch):
    """The edge solve [0, 0.875] of the accepted pinned level on step at
    its default 175 cells: with Armijo backtracking the descent made 79
    stiffness solves, one per step; with the exact line search it makes 8."""
    solves = []
    real = assembly.solve_interior

    def counted(tb, rhs, keep=None):
        solves.append(len(rhs))
        return real(tb, rhs, keep=keep)

    monkeypatch.setattr(assembly, "solve_interior", counted)
    level = localfield._ground_on(step_weight, 0.0, 0.875, 175)[2]
    assert len(solves) <= 12
    assert math.isclose(level, 23.520697506848535, rel_tol=1e-12)


def _ray_coefficients(tb, u, d):
    """(int u'^2, int a+ u^4, int u' d', int d'^2, int a+ u^3 d, ...,
    int a+ d^4): the arguments of _first_minimum for the ray u - alpha d."""
    du, dd = np.diff(u), np.diff(d)
    uq = assembly._at_points(tb, u)
    dq = assembly._at_points(tb, d)
    wq = tb.qw * tb.qap
    kin, quart = localfield._quotient_parts(tb, u)
    return (kin, quart, float(np.sum(du * dd / tb.h)),
            float(np.sum(dd * dd / tb.h)),
            *(float(wq @ (uq ** (4 - k) * dq ** k)) for k in range(1, 5)))


def test_line_search_takes_the_first_minimum(step_weight):
    """Along a ray that first improves a tent on [0, 0.3] and then moves
    into a bump on [0.35, 1], whose level is far lower, the quotient has two
    local minima; the step stops at the first, near alpha = 0.067."""
    grid = assembly.segment_grid(step_weight, np.linspace(0.0, 1.0, 201))
    tb, x = grid.tables, grid.nodes
    tent = np.where(x <= 0.3, np.minimum(x, 0.3 - x) / 0.15, 0.0)
    sine_a = np.where(x <= 0.3, np.sin(math.pi * x / 0.3), 0.0)
    sine_b = np.where(x >= 0.35, np.sin(math.pi * (x - 0.35) / 0.65), 0.0)
    d = 1.6 * tent - sine_a - 2.0 * sine_b

    def quotient(alpha):
        kin, quart = localfield._quotient_parts(tb, tent - alpha * d)
        return kin * kin / quart

    alphas = np.linspace(0.0, 4.0, 4001)
    f = np.array([quotient(a) for a in alphas])
    minima = [i for i in range(1, len(f) - 1)
              if f[i] < f[i - 1] and f[i] <= f[i + 1]]
    assert len(minima) == 2 and f[minima[1]] < 0.2 * f[minima[0]]

    alpha, kin, quart = localfield._first_minimum(
        *_ray_coefficients(tb, tent, d))
    assert abs(alpha - alphas[minima[0]]) <= 1e-3
    # K and Q expanded in alpha agree with the quotient parts of the step
    want = localfield._quotient_parts(tb, tent - alpha * d)
    assert math.isclose(kin, want[0], rel_tol=1e-12)
    assert math.isclose(quart, want[1], rel_tol=1e-12)
    assert kin * kin / quart <= f[minima[0]]
