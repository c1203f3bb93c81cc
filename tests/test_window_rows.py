"""The certificate and the audits read a window by its subintervals
(``assembly.Grid.rows``).  These tests hold them to the per-interval loops
the row pass replaced, kept here as references, value for value with ``==``,
and check that the pass makes a fixed number of window copies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibump import assembly, localfield, solver, verify


# -- per-interval references ---------------------------------------------------


def _nodes(grid, i, which):
    """Node range (a, b) of I_i^+ ("plus") or I_i^- ("minus") of a window
    grid: sigma_{i0+k} is node 2 m k and tau_{i0+k} node 2 m k + m."""
    a = 2 * grid.m * (i - grid.i0) + (grid.m if which == "minus" else 0)
    return a, a + grid.m


def _energy(u, i, which):
    a, b = _nodes(u.grid, i, which)
    return float(assembly.dirichlet_energy(u.grid.tables.h[a:b],
                                           u.full()[a:b + 1]))


def ref_paste(window, bump, grid):
    """Reference of the singular-limit profile, Newton's start and the
    audits' limit: the bump on each coded I_i^+, its ends held at zero."""
    vals = np.zeros(grid.ndof)
    for p, sym in enumerate(window.symbols):
        if not sym:
            continue
        i = grid.i0 + p
        a, b = _nodes(grid, i, "plus")
        vv = bump.samples.eval(grid.nodes[a:b + 1] - grid.w.sigma(i))
        vv[0] = vv[-1] = 0.0
        vals[np.arange(a, b + 1) % grid.ndof] = vv
    return vals


def ref_check_membership(u, mu, consts, window):
    grid = u.grid
    w = grid.w
    full = u.full()
    nodes = grid.nodes
    r2 = consts.r ** 2
    upper = 2.0 * (consts.c + consts.c_zeta)
    op = assembly.Operator(grid, mu)
    residual = float(np.max(np.abs(op.residual(u.values))))
    left, right = op.slopes(u.values)
    energies, c1, c2, c3, c4, dich, ties = {}, {}, {}, {}, {}, {}, {}
    for p, sym in enumerate(window.symbols):
        i = grid.i0 + p
        ep = _energy(u, i, "plus")
        em = _energy(u, i, "minus")
        energies[i] = {"plus": ep, "minus": em}
        ties[i] = abs(ep - r2) <= 1e-12 * max(r2, 1.0)
        dich[i] = "large" if ep > r2 or ties[i] else "small"
        c1[i] = (r2 < ep < upper) if sym else (ep < r2)
        ta, tb = _nodes(grid, i, "minus")
        c3[i] = bool(np.max(np.abs(full[ta:tb + 1])) < consts.K)
        if not sym:
            continue
        lo = w.sigma(i) + consts.zeta
        hi = w.tau_i(i) - consts.zeta
        a = int(np.searchsorted(nodes, lo))
        b = int(np.searchsorted(nodes, hi, side="right"))
        inner = full[a:b] if b > a else np.array([])
        ends = u.eval(np.array([lo, hi]))
        c2[i] = bool(np.all(inner > 0.0) and np.all(ends > 0.0))
        sn, tn = _nodes(grid, i, "plus")
        us, slope_in = full[sn], left[sn]
        ut, slope_out = full[tn], right[tn]
        ok = True
        if us >= 0.0:
            ok = ok and slope_in < consts.rho
        if us <= 0.0:
            ok = ok and slope_in > -consts.rho
        if ut >= 0.0:
            ok = ok and slope_out > -consts.rho
        if ut <= 0.0:
            ok = ok and slope_out < consts.rho
        c4[i] = bool(ok)
    return solver.SolveReport(
        residual_inf=residual, interval_energies=energies,
        condition_flags={"C1": c1, "C2": c2, "C3": c3, "C4": c4},
        positivity=bool(np.all(u.values > 0.0)), dichotomy=dich, ties=ties,
        mu=float(mu))


def ref_interior_maxima(sol, delta):
    grid = sol.grid
    full = sol.u.full()
    out = []
    for j, _ in enumerate(sol.window.symbols):
        a, b = _nodes(grid, sol.window.i_start + j, "minus")
        t0, t1 = grid.nodes[a], grid.nodes[b]
        mask = (grid.nodes >= t0 + delta) & (grid.nodes <= t1 - delta)
        out.append((float(np.max(np.abs(full[mask]))),
                    max(abs(float(full[a])), abs(float(full[b])))))
    return out


def ref_limit_per_interval(sol, bump):
    grid = sol.grid
    w = grid.w
    lvals = ref_paste(sol.window, bump, grid)
    dfull = grid.full_values(sol.u.values - lvals)
    ufull = sol.u.full()
    lfull = grid.full_values(lvals)
    h = grid.tables.h
    per = {}
    for j, _ in enumerate(sol.window.symbols):
        i = sol.window.i_start + j
        a, b = _nodes(grid, i, "plus")
        d0 = float(np.max(np.abs(dfull[a:b + 1])))
        d1 = float(np.max(np.abs(np.diff(dfull[a:b + 1]) / h[a:b])))
        eps = 1e-9 * w.period
        tw = np.clip(grid.nodes[a:b + 1], grid.nodes[a] + eps,
                     grid.nodes[b] - eps)
        d2 = float(np.max(np.abs(w.a_plus(tw) * (ufull[a:b + 1] ** 3
                                                 - lfull[a:b + 1] ** 3))))
        per[i] = max(d0, d1, d2)
    return per


def ref_identities_ii_iv(sol):
    w = sol.window
    grid = sol.grid
    mu = sol.mu
    full = sol.u.full()
    tb = grid.tables
    wspec = grid.w
    left, right = assembly.Operator(grid, mu).slopes(sol.u.values)
    coded = [w.i_start + j for j, s in enumerate(w.symbols) if s == 1]
    res_ii = 0.0
    uq_all = assembly._at_points(tb, full)
    n = len(tb.h)
    for i in coded:
        a, b = _nodes(grid, i, "plus")
        kin = float(assembly.dirichlet_energy(tb.h[a:b], full[a:b + 1]))
        # cells a..b of each of the tables' three blocks, in table order
        mask = np.concatenate([np.arange(a, b) + k * n for k in range(3)])
        quart = float(np.sum(tb.qw[mask] * tb.amu(mu)[mask]
                             * uq_all[mask] ** 4))
        bdry = right[b] * full[b] - left[a] * full[a]
        res_ii = max(res_ii, abs(kin - quart - bdry) / max(kin, 1.0))
    res_iv = 0.0
    delta = 0.25 * (wspec.period - wspec.tau)
    for i in coded:
        lo = wspec.sigma(i) - delta
        hi = wspec.tau_i(i) + delta
        joints = [lo, wspec.sigma(i), wspec.tau_i(i), hi]
        span = grid.span
        k0 = math.floor((lo - grid.nodes[-1]) / span)
        k1 = math.ceil((hi - grid.nodes[0]) / span)
        cand = np.concatenate(
            [grid.nodes[:-1] + k * span for k in range(k0, k1 + 1)])
        inner = cand[(cand > lo) & (cand < hi)]
        breaks = np.unique(np.concatenate(
            [joints, inner, wspec.knots_in_span(lo, hi)]))
        tq, wq = verify._gauss_segments(breaks)
        uq, duq = verify._sample(grid, full, tq)
        eta, deta = verify.cutoff(wspec, i, tq)
        amu = wspec.a_mu(mu, tq)
        lhs = float(np.sum(wq * (eta * duq + deta * uq) ** 2))
        rhs = float(np.sum(wq * (amu * eta ** 2 * uq ** 4
                                 + deta ** 2 * uq ** 2)))
        res_iv = max(res_iv, abs(lhs - rhs) / max(lhs, 1.0))
    return res_ii, res_iv


# -- windows -------------------------------------------------------------------


def _window_solution(w, code, i_start, cells, mu, scale, lift, noise, seed):
    """A Solution-shaped window, not a solve: scaled pasted bumps, lifted
    by a constant, plus noise, so that across draws every condition and
    positivity both pass and fail."""
    win = solver.SymbolWindow(code, i_start)
    grid = assembly.span_grid(w, i_start, len(code), cells)
    bump = localfield.levels_of(w).ground_bump()
    vals = solver.initial_guess(win, bump, grid).values
    rng = np.random.default_rng(seed)
    vals = scale * vals + lift + noise * rng.standard_normal(len(vals))
    return solver.Solution(u=assembly.GridFunction(grid, vals), mu=mu,
                           window=win, report=None)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["step", "sine"]),
       code=st.lists(st.integers(0, 1), min_size=1, max_size=8).filter(any),
       i_start=st.integers(-4, 4),
       cells=st.integers(8, 300),
       mu=st.floats(10.0, 1e4),
       scale=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
       lift=st.sampled_from([0.0, 1e-3, 3.0, 10.0]),
       noise=st.sampled_from([0.0, 1e-3, 0.05]),
       seed=st.integers(0, 2 ** 16))
def test_rows_match_per_interval_loops(step_weight, sine_weight, name, code,
                                       i_start, cells, mu, scale, lift,
                                       noise, seed):
    w = step_weight if name == "step" else sine_weight
    sol = _window_solution(w, tuple(code), i_start, cells, mu, scale, lift,
                           noise, seed)
    grid = sol.grid
    bump = localfield.levels_of(w).ground_bump()
    consts = solver._prepare(w)[0]

    assert np.array_equal(solver.initial_guess(sol.window, bump, grid).values,
                          ref_paste(sol.window, bump, grid))
    got = solver.check_membership(sol.u, mu, consts, sol.window)
    ref = ref_check_membership(sol.u, mu, consts, sol.window)
    assert got.to_dict() == ref.to_dict()
    delta = verify._decay_margin(w)
    assert verify.interior_maxima(sol, delta) == \
        ref_interior_maxima(sol, delta)
    assert verify.limit_distance(sol, bump).per_interval == \
        ref_limit_per_interval(sol, bump)
    ids = verify.nehari_identities(sol)
    assert (ids["ii"], ids["iv"]) == ref_identities_ii_iv(sol)


def test_long_window_certifies(step_weight):
    """A 256-symbol window at mu 1e3 on 60 cells a subinterval certifies,
    and its minimal period is the whole window."""
    code = tuple(np.random.default_rng(256).integers(0, 2, 256).tolist())
    sol = solver.solve_multibump(step_weight, solver.make_window(code), 1e3,
                                 cells=60)
    assert sol.report.certified
    assert verify.minimal_period(sol) == 256


@pytest.mark.parametrize("audit", ["check_membership", "interior_maxima",
                                   "nehari_identities"])
def test_window_copies_do_not_grow_with_the_window(step_weight, monkeypatch,
                                                   audit):
    """The row pass copies the window a fixed number of times, whatever its
    length: no copy per interval."""
    calls = []
    real = assembly.Grid.full_values

    def counted(self, values):
        calls.append(1)
        return real(self, values)

    monkeypatch.setattr(assembly.Grid, "full_values", counted)
    consts = solver._prepare(step_weight)[0]
    run = {
        "check_membership": lambda s: solver.check_membership(
            s.u, s.mu, consts, s.window),
        "interior_maxima": lambda s: verify.interior_maxima(
            s, verify._decay_margin(step_weight)),
        "nehari_identities": verify.nehari_identities,
    }[audit]
    counts = []
    for length in (4, 64):
        code = (1, 0) * (length // 2)
        sol = _window_solution(step_weight, code, 0, 16, 1e3, 1.0, 0.0, 0.0,
                               0)
        calls.clear()
        run(sol)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
