"""Audit-suite checks on certified fixture solutions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, linregress

from multibump import assembly, cli, localfield, oracle, solver, verify
from multibump.errors import WeightError


def _solve(w, code, mu, cells):
    return solver.solve_multibump(w, solver.make_window(code), mu, cells)


# -- window identities ----------------------------------------------------------


def test_identities_certified(sol_10):
    ids = verify.nehari_identities(sol_10)
    assert ids["i"] < 1e-12
    assert ids["ii"] < 1e-12
    assert ids["iii"] < 1e-12
    # (iv) re-samples the interpolant under a smooth cutoff, so it carries
    # the h^2 interpolation error rather than solver noise
    assert ids["iv"] < 1e-5


def test_audits_reuse_the_certificate_operator(step_weight, monkeypatch):
    """The identities and the oracle's start slopes read the Operator the
    certificate ran on, with its residual, slopes and point values at u:
    neither builds an Operator or evaluates u at the quadrature points,
    and both give what they give from an Operator of their own."""
    sol = _solve(step_weight, (1, 0), 1e3, 200)
    fresh = solver.Solution(u=sol.u, mu=sol.mu, window=sol.window,
                            report=None)
    want = (verify.nehari_identities(fresh),
            verify.oracle_residual(fresh).per_interval)
    calls = []
    for name in ("__init__", "residual", "slopes"):
        real = getattr(assembly.Operator, name)
        monkeypatch.setattr(assembly.Operator, name,
                            lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    for name in ("_at_points", "_terms"):
        real = getattr(assembly, name)
        monkeypatch.setattr(assembly, name,
                            lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    got = (verify.nehari_identities(sol),
           verify.oracle_residual(sol).per_interval)
    assert calls == []
    assert got == want


def test_identities_three_bump(sol_110):
    ids = verify.nehari_identities(sol_110)
    assert ids["i"] < 1e-12
    assert ids["ii"] < 1e-12
    assert ids["iii"] < 1e-12
    assert ids["iv"] < 2e-5


def test_identity_iv_mesh_rate(step_weight):
    """Residual (iv) drops at the h^2 rate under mesh doubling."""
    coarse = _solve(step_weight, (1,), 1e3, 200)
    fine = _solve(step_weight, (1,), 1e3, 400)
    r_c = verify.nehari_identities(coarse)["iv"]
    r_f = verify.nehari_identities(fine)["iv"]
    assert r_c / r_f > 3.0


# -- cutoff family ---------------------------------------------------------------


def test_cutoff_shape(step_weight):
    w = step_weight
    delta = 0.25 * (w.period - w.tau)
    ts = np.linspace(-1.0, 4.0, 2001)
    eta, _ = verify.cutoff(w, 0, ts)
    assert np.all((eta >= 0.0) & (eta <= 1.0))
    core = (ts >= w.sigma(0)) & (ts <= w.tau_i(0))
    assert np.all(eta[core] == 1.0)
    outside = (ts <= w.sigma(0) - delta) | (ts >= w.tau_i(0) + delta)
    assert np.all(eta[outside] == 0.0)
    # consecutive cutoffs never overlap
    assert np.all(eta * verify.cutoff(w, 1, ts)[0] == 0.0)


def test_cutoff_derivative_fd(step_weight):
    w = step_weight
    delta = 0.25 * (w.period - w.tau)
    ts = np.array([w.sigma(0) - 0.5 * delta, w.sigma(0) - 0.1 * delta,
                   w.tau_i(0) + 0.3 * delta, w.tau_i(0) + 0.9 * delta])
    h = 1e-5
    fd = (verify.cutoff(w, 0, ts + h)[0] - verify.cutoff(w, 0, ts - h)[0]) \
        / (2 * h)
    got = verify.cutoff(w, 0, ts)[1]
    assert np.max(np.abs(fd - got)) < 1e-6


# -- minimal period ---------------------------------------------------------------


@pytest.mark.parametrize("code,expect", [
    ((1,), 1),
    ((1, 1, 1), 1),
    ((1, 0), 2),
    ((1, 1, 0), 3),
])
def test_minimal_period(step_weight, code, expect):
    sol = _solve(step_weight, code, 400.0, 200)
    assert verify.minimal_period(sol) == expect


# -- singular-limit distances ------------------------------------------------------


def test_limit_distance_decreases(step_weight, sol_10):
    bump = localfield.levels_of(step_weight).ground_bump()
    lo = verify.limit_distance(sol_10, bump)
    hi = verify.limit_distance(_solve(step_weight, (1, 0), 1e4, 400), bump)
    assert hi.sup < lo.sup
    assert hi.holder < lo.holder
    for i in lo.per_interval:
        assert hi.per_interval[i] < lo.per_interval[i]
    # the Lipschitz seminorm saturates near the bump slope instead of decaying
    assert lo.lipschitz > 1.0 and hi.lipschitz > 1.0


def test_limit_profile_support(step_weight, sol_10):
    bump = localfield.levels_of(step_weight).ground_bump()
    prof = solver.initial_guess(sol_10.window, bump, sol_10.grid)
    plus = sol_10.grid.rows(prof.full())[::2]       # I_0^+ and I_1^+
    assert np.max(plus[0]) > 1.0
    assert np.all(plus[1] == 0.0)


def _limit_profile_per_node(sol, bump):
    """Reference: one scalar bump evaluation per node."""
    grid = sol.grid
    vals = np.zeros(grid.ndof)
    for j, s in enumerate(sol.window.symbols):
        if s != 1:
            continue
        i = sol.window.i_start + j
        a = 2 * grid.m * j                  # the nodes of sigma_i and tau_i
        b = a + grid.m
        shift = grid.w.period * i
        for node in range(a, b + 1):
            vals[grid.dof_of_node(node)] = float(
                bump.samples.eval(grid.nodes[node] - shift))
    return vals


@settings(max_examples=60, deadline=None)
@given(code=st.lists(st.integers(0, 1), min_size=1, max_size=4).filter(any),
       i0=st.integers(-2, 2), m=st.integers(8, 300))
@example(code=[1, 1, 0], i0=-1, m=200)
@example(code=[0, 1], i0=0, m=200)
@example(code=[1, 0], i0=0, m=200)
def test_limit_profile_matches_per_node_evaluation(step_weight, code, i0, m):
    """The singular-limit profile (solver.initial_guess) is the bump read
    node by node, its zero ends included."""
    grid = assembly.span_grid(step_weight, i0, len(code), m)
    win = solver.SymbolWindow(tuple(code), i0)
    sol = solver.Solution(u=assembly.GridFunction(grid, np.zeros(grid.ndof)),
                          mu=1e3, window=win, report=None)
    bump = localfield.levels_of(step_weight).ground_bump()
    prof = solver.initial_guess(win, bump, grid)
    assert np.array_equal(prof.values, _limit_profile_per_node(sol, bump))


def _holder_dense(ts, d, alpha, min_sep):
    """Reference: the pair max over full n x n difference arrays."""
    stride = max(1, int(math.ceil(len(ts) / verify._HOLDER_NODES)))
    t, v = ts[::stride], d[::stride]
    dt = np.abs(t[:, None] - t[None, :])
    dv = np.abs(v[:, None] - v[None, :])
    mask = dt >= min_sep
    if not np.any(mask):
        return 0.0
    return float(np.max(dv[mask] / dt[mask] ** alpha))


def _holder_data(n, seed, smooth):
    """Increasing times and values: white noise, or a smooth profile with a
    kink and a sharp bump like a solution's distance to its limit, where the
    band leaves most pairs out."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(1e-3, 1.0, n))
    if not smooth:
        return ts, rng.normal(size=n)
    s = (ts - ts[0]) / max(ts[-1] - ts[0], 1e-300)
    a, f, c = rng.uniform(0.1, 2.0, 3), rng.uniform(0.5, 6.0, 3), rng.random()
    d = (a[0] * np.sin(2.0 * math.pi * f[0] * s) + a[1] * np.abs(s - c)
         + a[2] * np.exp(-((s - c) * 4.0 * f[2]) ** 2))
    return ts, d


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4000), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.0, 1.0, exclude_min=True),
       sep=st.floats(1e-6, 1.2), smooth=st.booleans())
@example(n=6401, seed=0, alpha=0.5, sep=1e-4, smooth=False)
@example(n=6401, seed=0, alpha=0.5, sep=1e-4, smooth=True)
# every pair closer than min_sep
@example(n=3201, seed=1, alpha=1.0, sep=1.1, smooth=False)
@example(n=50, seed=4, alpha=0.5, sep=1.1, smooth=True)
# alpha = 1: no lower band end
@example(n=2000, seed=2, alpha=1.0, sep=1e-4, smooth=True)
# (reach / best)^(1 / alpha) overflows a float
@example(n=3, seed=0, alpha=1e-6, sep=1.0, smooth=False)
@example(n=800, seed=3, alpha=1e-6, sep=1e-3, smooth=True)
def test_holder_seminorm_matches_dense_pair_max(n, seed, alpha, sep, smooth):
    ts, d = _holder_data(n, seed, smooth)
    min_sep = sep * (ts[-1] - ts[0])
    got = verify._holder_seminorm(ts, d, alpha, min_sep)
    assert got == _holder_dense(ts, d, alpha, min_sep)
    if sep > 1.0:
        assert got == 0.0


# -- decay fits --------------------------------------------------------------------


def test_decay_rate_two_decades(step_weight):
    sweep, _ = verify.run_sweep(step_weight, (1, 0),
                                [100.0, 1000.0, 10000.0], cells=240)
    assert sweep["fitted_slopes"]["decay"][0] < -0.25
    assert all(s <= b for s, b in zip(sweep["decay_samples"],
                                      sweep["decay_bounds"]))
    assert sweep["c_delta"] > 0.0
    assert len(sweep["decay_samples"]) == len(sweep["decay_bounds"]) == 3


def test_decay_rate_guards(step_weight, monkeypatch):
    # a margin of 0.6 (T - tau) leaves no interior on a negativity interval
    monkeypatch.setattr(verify, "DELTA_FRAC", 0.6)
    with pytest.raises(WeightError):
        verify.run_sweep(step_weight, (1, 0), [100.0, 10000.0], cells=200)


def _scipy_loglog_fit(mu_list, values):
    """The fit as scipy.stats computes it."""
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0.0):
        return float("nan"), float("nan"), float("nan")
    fit = linregress(np.log(mu_list), np.log(vals))
    return float(fit.slope), float(fit.intercept), float(fit.stderr)


def _same(a, b):
    """Equal numbers, NaN matching NaN."""
    return np.array_equal(np.array(a), np.array(b), equal_nan=True)


@st.composite
def _fit_tables(draw):
    """(mu, values) of 1-12 points: free, tied or constant positive values,
    with a NaN or a non-positive value mixed in, against distinct or tied
    mu."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        mu = sorted(draw(st.lists(st.floats(1e-2, 1e6), min_size=n,
                                  max_size=n, unique=True)))
    else:
        mu = sorted(draw(st.lists(st.sampled_from([1e2, 1e3, 1e4]),
                                  min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["free", "tied", "constant", "nan",
                                 "nonpositive"]))
    if kind == "tied":
        vals = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n,
                             max_size=n))
    elif kind == "constant":
        vals = [draw(st.floats(1e-3, 1e3))] * n
    else:
        vals = draw(st.lists(st.floats(1e-8, 1e8), min_size=n, max_size=n))
        if kind != "free":
            bad = float("nan") if kind == "nan" else draw(
                st.floats(-1e3, 0.0))
            vals[draw(st.integers(0, n - 1))] = bad
    return mu, vals


@settings(max_examples=300, deadline=None)
@given(table=_fit_tables())
@example(table=([1e2, 1e3], [0.5, 0.25]))
@example(table=([1e2, 1e3, 1e4], [2.0, 2.0, 2.0]))
@example(table=([1e2, 1e3, 1e4], [0.1, 0.2, 0.3]))
@example(table=([1e2], [0.3]))
def test_fits_equal_scipy_stats(table):
    """loglog_fit and kendall_tau give scipy.stats' linregress (slope,
    intercept, stderr) and kendalltau bit for bit, NaN where it does."""
    mu, vals = table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ref = _scipy_loglog_fit(mu, vals)
        except ValueError:
            with pytest.raises(ValueError):
                verify.loglog_fit(mu, vals)
        else:
            assert _same(verify.loglog_fit(mu, vals), ref)
        for x, y in ((mu, vals), (vals, mu)):
            assert _same(verify.kendall_tau(x, y),
                         float(kendalltau(x, y).statistic))


# -- sweeps ------------------------------------------------------------------------


def test_run_sweep_smoke(step_weight):
    rep, sol = verify.run_sweep(step_weight, (1, 0),
                                [300.0, 1000.0, 3000.0], cells=240)
    assert rep["symbols"] == [1, 0]
    for key in ("sup_distances", "p2", "p3", "holder_distances",
                "decay_samples", "p1"):
        seq = rep[key]
        assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(v > 0.0 for v in rep["min_values"])
    assert all(v > 1.0 for v in rep["lipschitz_distances"])
    assert rep["fitted_slopes"]["decay"][0] < 0.0
    assert rep["kendall"]["sup"] == -1.0
    assert rep["mu_list"] == [300.0, 1000.0, 3000.0]
    assert len(rep["sup_slopes"]) == 3
    assert sol.mu == 3000.0


# -- independent re-integration ------------------------------------------------------


def test_oracle_residual(sol_10, monkeypatch):
    check = verify.oracle_residual(sol_10)
    assert set(check.per_interval) == {(0, "+"), (0, "-"), (1, "+"), (1, "-")}
    assert check.gap == max(check.per_interval.values())
    assert check.rel < 2e-5
    monkeypatch.setattr(verify, "ORACLE_BOUND", 1e-4)
    assert check.ok()
    monkeypatch.setattr(verify, "ORACLE_BOUND", 1e-7)
    assert not check.ok()


def _shoot_window(monkeypatch, sol):
    """verify.oracle_residual on sol, with the problems it hands to
    oracle.shoot_batch, its ShootResults and its Taylor steps."""
    seen = {"steps": 0}
    real_batch, real_step = oracle.shoot_batch, oracle._step

    def batch(w, mu, problems, **kw):
        seen["problems"] = problems
        seen["results"] = real_batch(w, mu, problems, **kw)
        return seen["results"]

    def step(*args):
        seen["steps"] += 1
        return real_step(*args)

    monkeypatch.setattr(oracle, "shoot_batch", batch)
    monkeypatch.setattr(oracle, "_step", step)
    check = verify.oracle_residual(sol)
    monkeypatch.undo()
    return check, seen


@pytest.mark.parametrize("name, cells", [("step", 1600), ("sine", 0)])
def test_oracle_batch_equals_lone_shots(monkeypatch, name, cells):
    """Each interval's gap from the window's batched shots equals the gap
    from shoot_dirichlet shooting that interval alone."""
    w = cli.resolve_weight(name)[0]
    sol = _solve(w, (1, 0), 1e3, cells)
    check, seen = _shoot_window(monkeypatch, sol)
    full, nodes = sol.u.full(), sol.grid.nodes
    keys = list(check.per_interval)
    assert len(seen["problems"]) == len(keys) == 4
    grid = sol.grid
    for key, (t0, t1, x, y, s0) in zip(keys, seen["problems"]):
        # sigma_i is node 2 m (i - i0), tau_i the m-th after it
        a = grid.m * (2 * (key[0] - grid.i0) + (key[1] == "-"))
        b = a + grid.m
        assert (nodes[a], nodes[b], full[a], full[b]) == (t0, t1, x, y)
        lone = oracle.shoot_dirichlet(w, sol.mu, t0, t1, x, y, rtol=1e-12,
                                      s0=s0)
        gap = float(np.max(np.abs(lone.dense.eval_u(nodes[a:b + 1])
                                  - full[a:b + 1])))
        assert abs(gap - check.per_interval[key]) <= 1e-9


# the ids end in the rounds and the step counts of the DOP853 integrator
# the oracle used before its Taylor steps; they stay as the cases' names
@pytest.mark.parametrize("code, mu, cells, rounds, steps, ok", [
    pytest.param((1, 0), 1e3, 1600, 2, 24, True, id="1000.0-1600-2-136"),
    pytest.param((1, 0), 1e4, 0, 3, 41, True, id="10000.0-0-3-244"),
    # the default mesh misses the bound at mu 1e3 (rel 2.4e-6, the FEM's
    # own error); pinned here for the oracle's cost
    pytest.param((1, 1, 0), 1e3, 0, 6, 103, False, id="1000.0-0-6-545")])
def test_oracle_rounds_pinned(monkeypatch, step_weight, code, mu, cells,
                              rounds, steps, ok):
    """Shot from their smaller ends and started from the FEM's half-hat
    slope there, the intervals finish in a few rounds: one shot from a
    large end took 5 attempts at mu 1e3 with 1600 cells and 17 at mu 1e4."""
    sol = _solve(step_weight, code, mu, cells)
    check, seen = _shoot_window(monkeypatch, sol)
    assert max(r.iters for r in seen["results"]) == rounds
    assert seen["steps"] == steps
    assert check.ok() == ok
