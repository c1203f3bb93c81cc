"""Acceptance gate: the ten quantitative criteria, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every criterion line.
Criterion 5 checks the interior decay on the step weight against the
closed-form tail of ``u'' = mu a- u^3`` next to the junction, and the
explicit ``C_delta (data/mu)^(1/3)`` estimate as an upper bound; -1/3 is the
exponent of that bound, not the decay rate.
"""

import math
import time

import numpy as np
from scipy.stats import linregress

from multibump import (
    assembly,
    cli,
    connection,
    localfield,
    oracle,
    solver,
    verify,
    weight,
)

MU_CERT = 1e3
CELLS_CERT = 1600
CODES = ((1,), (1, 0), (1, 1, 0))

_CERT = {}


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _certified(w):
    """Certified solutions shared by criteria 3, 4, 8 and 9."""
    if not _CERT:
        for code in CODES:
            win = solver.make_window(code)
            _CERT[code] = solver.solve_multibump(w, win, MU_CERT,
                                                 cells=CELLS_CERT)
    return _CERT


def test_criterion_01_constants(step_weight, sine_weight, consts):
    t0 = time.perf_counter()
    closed = []
    for w in (step_weight, sine_weight):
        expect = (32.0 * w.sup_a_plus * w.tau ** 3) ** -0.5
        closed.append(math.isclose(weight.compute_r(w), expect,
                                   rel_tol=1e-13))
    zeta_ok = consts.zeta_margin >= 0.10
    level_gap = (consts.c_zeta - consts.c) / consts.c
    level_ok = consts.c < consts.c_zeta
    elapsed = time.perf_counter() - t0
    ok = all(closed) and zeta_ok and level_ok and elapsed < 60.0
    _line(1, ok, f"r closed form on both weights, zeta margin "
          f"{consts.zeta_margin:.3f} >= 0.10, c < c_zeta by "
          f"{level_gap:.3f} relative ({elapsed:.1f}s)")
    assert all(closed)
    assert zeta_ok
    assert level_ok
    assert elapsed < 60.0


def test_criterion_02_ground_level_oracle(step_weight, level_mesh):
    t0 = time.perf_counter()
    c_ref = oracle.brute_ground_level(step_weight)
    errs = []
    for m in (2000, 4000):
        level_mesh(m)
        errs.append(abs(localfield.ground_state(step_weight).level - c_ref)
                    / c_ref)
    rate = math.log(errs[0] / errs[1]) / math.log(2.0)
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-6 and abs(rate - 2.0) <= 0.3 and elapsed < 60.0
    _line(2, ok, f"c rel errs {errs[0]:.2e}/{errs[1]:.2e} <= 1e-6 on two "
          f"meshes, refinement slope {rate:.3f} in 2+-0.3 ({elapsed:.1f}s)")
    assert max(errs) <= 1e-6
    assert abs(rate - 2.0) <= 0.3
    assert elapsed < 60.0


def test_criterion_03_certification(step_weight):
    t0 = time.perf_counter()
    sols = _certified(step_weight)
    r2 = weight.compute_r(step_weight) ** 2
    failures = []
    for code, sol in sols.items():
        rep = sol.report
        if not rep.mu <= 1e5:
            failures.append((code, "mu"))
        walk = [m for m, _ in rep.continuation_path]
        if walk[0] != max(10.0, MU_CERT) or walk != sorted(walk, reverse=True):
            failures.append((code, "schedule"))
        if not rep.residual_inf <= 1e-9:
            failures.append((code, "residual"))
        if not rep.positivity:
            failures.append((code, "positivity"))
        for name, flags in rep.condition_flags.items():
            if not all(flags.values()):
                failures.append((code, name))
        for j, s in enumerate(sol.window.symbols):
            i = sol.window.i_start + j
            ep = rep.interval_energies[i]["plus"]
            want = "large" if s == 1 else "small"
            if rep.dichotomy[i] != want:
                failures.append((code, f"dichotomy {i}"))
            if s == 1 and not ep > r2:
                failures.append((code, f"energy {i}"))
            if s == 0 and not ep < r2:
                failures.append((code, f"energy {i}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    _line(3, ok, f"codes {list(sols)} certified at mu={MU_CERT:g} <= 1e5 "
          f"(walk down from max(10, mu)), residual <= 1e-9, C1-C4, "
          f"dichotomy ({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < 600.0


def test_criterion_04_window_identities(step_weight):
    sols = _certified(step_weight)
    worst = {"ii": 0.0, "iii": 0.0, "iv": 0.0}
    for sol in sols.values():
        ids = verify.nehari_identities(sol)
        for k in worst:
            worst[k] = max(worst[k], ids[k])
    ok = worst["ii"] <= 1e-6 and worst["iii"] <= 1e-6 and worst["iv"] <= 1e-5
    _line(4, ok, f"identities over all certified solutions: "
          f"(ii) {worst['ii']:.2e} <= 1e-6, (iii) {worst['iii']:.2e} <= 1e-6, "
          f"(iv) {worst['iv']:.2e} <= 1e-5")
    assert worst["ii"] <= 1e-6
    assert worst["iii"] <= 1e-6
    assert worst["iv"] <= 1e-5


def _junction_tail(mu, a_minus, d, delta):
    """u(tau + delta) for the decaying solution of u'' = mu a- u^3, u(tau) = d,
    a- constant: u' = -sqrt(mu a- / 2) u^2 integrates to this closed form."""
    return d / (1.0 + math.sqrt(0.5 * mu * a_minus) * d * delta)


def test_criterion_05_decay_law(step_weight):
    t0 = time.perf_counter()
    w = step_weight
    mus = list(np.geomspace(100.0, 1e4, 9))
    sweep, _ = verify.run_sweep(w, (1, 0), mus, cells=400)
    elapsed = time.perf_counter() - t0
    delta = sweep["delta"]
    mu_list, samples = sweep["mu_list"], sweep["decay_samples"]
    slope, half_width = sweep["fitted_slopes"]["decay"]
    pairs = list(zip(samples, sweep["decay_bounds"]))
    bound_hits = sum(s <= b for s, b in pairs)
    ratios = [s / b for s, b in pairs]
    bound_ok = bound_hits == len(pairs)
    # the closed form needs a- constant on the negativity interval
    a_minus = w.a_minus(np.linspace(w.tau, w.period, 201)[1:-1])
    flat_ok = bool(a_minus[0] > 0.0 and np.ptp(a_minus) == 0.0)
    tails = [_junction_tail(mu, float(a_minus[0]), d, delta)
             for mu, d in zip(mu_list, sweep["end_data"])]
    tail_err = max(abs(s / c - 1.0) for s, c in zip(samples, tails))
    tail_ok = tail_err <= 0.01
    tail_slope = float(linregress(np.log(mu_list), np.log(tails)).slope)
    slope_ok = abs(slope - tail_slope) <= 0.05
    local = np.diff(np.log(samples)) / np.diff(np.log(mu_list))
    local_ok = bool(np.all(np.diff(local) < 0.0)
                    and np.all((local > -0.5) & (local < -1.0 / 3.0)))
    ok = (flat_ok and tail_ok and slope_ok and local_ok and bound_ok
          and elapsed < 900.0)
    _line(5, ok, f"a- = {a_minus[0]:g} constant on the negativity interval; "
          f"samples within {tail_err:.2%} <= 1% of the closed-form tail "
          f"d/(1+sqrt(mu a-/2) d delta); fitted exponent "
          f"{slope:.4f}+-{half_width / 2.0:.4f} vs closed form "
          f"{tail_slope:.4f}+-0.05; local exponents {local[0]:.3f} -> "
          f"{local[-1]:.3f}, decreasing inside (-1/2, -1/3): {local_ok}; "
          f"C_delta bound holds at {bound_hits}/{len(mus)} points, "
          f"sample/bound in [{min(ratios):.2f}, {max(ratios):.2f}] "
          f"({elapsed:.1f}s)")
    assert flat_ok
    assert tail_ok, tail_err
    assert slope_ok
    # decays at least as fast as the bound's cube root, at most as fast as
    # the mu^(-1/2) limit of the closed form
    assert local_ok, local
    assert bound_ok
    assert elapsed < 900.0


def test_criterion_06_singular_limit(step_weight):
    rep, _ = verify.run_sweep(step_weight, (1, 0),
                              [300.0, 1000.0, 3000.0, 10000.0], cells=400)
    decreasing = {name: all(a > b for a, b in zip(rep[key], rep[key][1:]))
                  for name, key in (("sup", "sup_distances"), ("p2", "p2"),
                                    ("p3", "p3"),
                                    ("holder", "holder_distances"))}
    lip_floor = min(rep["lipschitz_distances"])
    ok = all(decreasing.values()) and lip_floor > 1.0
    _line(6, ok, f"sup/P2/P3/Holder all decrease along the sweep; Lipschitz "
          f"distance stays >= {lip_floor:.2f} > 1")
    assert all(decreasing.values()), decreasing
    assert lip_floor > 1.0


def test_criterion_07_connection_diagnostics(step_weight):
    p = connection.make_connection_problem(step_weight, 2000.0, 0.6, 0.4)
    sol = connection.solve_connection(p, cells=400)
    v, z = sol.sensitivities
    vz_ok = (bool(np.all(v.full()[:-1] > 0))
             and bool(np.all(np.diff(v.full()) < 0))
             and bool(np.all(z.full()[1:] > 0))
             and bool(np.all(np.diff(z.full()) > 0)))
    connection.energy_derivatives(sol)
    fd_rel = max(sol.fd_check["rel_err"])
    probe_ok = connection.uniqueness_probe(p, 10, cells=140,
                                           rng=np.random.default_rng(11))
    grid_bad = []
    for x in (-0.6, -0.3, 0.3, 0.6, 0.9):
        for y in (-0.6, -0.3, 0.3, 0.6, 0.9):
            q = connection.make_connection_problem(step_weight, 2000.0, x, y)
            s = connection.solve_connection(q, cells=160)
            f = s.u.full()
            # zeros as connection.json's "zeros" lists them
            nz = len(cli._crossings(s.grid.nodes, f))
            if x * y > 0:
                good = nz == 0 and np.all(np.sign(f[1:-1]) == np.sign(x))
            else:
                d = np.diff(f)
                good = nz == 1 and (np.all(d > 0) or np.all(d < 0))
            if not good:
                grid_bad.append((x, y))
    ok = vz_ok and fd_rel <= 1e-5 and probe_ok and not grid_bad
    _line(7, ok, f"v/z monotone sign pattern, dJ finite differences "
          f"{fd_rel:.1e} <= 1e-5, uniqueness over 10 starts, 25/25 (x,y) "
          f"sign patterns")
    assert vz_ok
    assert fd_rel <= 1e-5
    assert probe_ok
    assert not grid_bad, grid_bad


def test_criterion_08_subharmonics(step_weight):
    sols = _certified(step_weight)
    got = {code: verify.minimal_period(sols[code]) for code in CODES}
    for code in ((1, 1), (1, 1, 1)):
        win = solver.make_window(code)
        s = solver.solve_multibump(step_weight, win, 400.0, cells=200)
        got[code] = verify.minimal_period(s)
    want = {(1,): 1, (1, 0): 2, (1, 1, 0): 3, (1, 1): 1, (1, 1, 1): 1}
    ok = got == want
    _line(8, ok, f"minimal periods (in units of T) {got}")
    assert got == want


def test_criterion_09_oracle_cross_validation(step_weight):
    sols = _certified(step_weight)
    worst_rel = max(verify.oracle_residual(s).rel for s in sols.values())
    p = connection.make_connection_problem(step_weight, 2000.0, 0.6, 0.4)
    sol = connection.solve_connection(p, cells=2000)
    grid = sol.u.grid
    full = sol.u.full()
    h = grid.tables.h
    gap = 0.0
    bounds = sorted(grid.marks.values())
    for a, b in zip(bounds[:-1], bounds[1:]):
        s0 = (full[a + 1] - full[a]) / h[a]
        res = oracle.shoot_dirichlet(step_weight, p.mu, grid.nodes[a],
                                     grid.nodes[b], full[a], full[b], s0=s0)
        ts = grid.nodes[a:b + 1]
        gap = max(gap, float(np.max(np.abs(res.dense.eval_u(ts)
                                           - full[a:b + 1]))))
    ok = worst_rel <= 1e-6 and gap <= 1e-6
    _line(9, ok, f"periodic re-integration rel {worst_rel:.2e} <= 1e-6; "
          f"connection FEM vs shooting sup gap {gap:.2e} <= 1e-6")
    assert worst_rel <= 1e-6
    assert gap <= 1e-6


def test_criterion_10_invariant_suite(step_weight, rng):
    w = step_weight
    viol = 0
    for _ in range(1000):
        a = float(rng.uniform(-1.0, 0.5))
        L = float(rng.uniform(0.3, 2.5))
        n = int(rng.integers(12, 60))
        grid = assembly.segment_grid(w, np.linspace(a, a + L, n + 1))
        vals = rng.standard_normal(grid.ndof)
        vals[rng.integers(0, grid.ndof)] = 0.0
        full = grid.full_values(vals)
        ddot = assembly.dirichlet_integral(grid.tables, full)
        sup = float(np.max(np.abs(full)))
        h = grid.tables.h
        uL, uR = full[:-1], full[1:]
        l2sq = float(np.sum(h / 3.0 * (uL * uL + uL * uR + uR * uR)))
        if sup * sup > L * ddot * (1 + 1e-12):
            viol += 1
        if l2sq > L * L * ddot * (1 + 1e-12):
            viol += 1

    grid = assembly.span_grid(w, 0, 1, 24)
    mu = 37.0
    t = grid.nodes[:-1]
    u = assembly.GridFunction(grid, 0.8 * np.sin(np.pi * t))
    v = assembly.GridFunction(grid, np.cos(2 * np.pi * t) + 0.3)
    g = assembly.gradient(u, mu).values
    gv = float(g @ v.values)
    Hv = grid.fold(assembly.hessian_full(grid.tables, mu, u.full(), v.full()))
    op = assembly.Operator(grid, mu)
    hs = [1e-3, 1e-4, 1e-5]
    eg, eh = [], []
    for hstep in hs:
        up = assembly.GridFunction(grid, u.values + hstep * v.values)
        um = assembly.GridFunction(grid, u.values - hstep * v.values)
        eg.append(abs((op.actions(up.values) - op.actions(um.values))
                      / (2 * hstep) - gv))
        gp = assembly.gradient(up, mu).values
        eh.append(float(np.max(np.abs((gp - g) / hstep - Hv))))
    slope_g = float(linregress(np.log(hs), np.log(eg)).slope)
    slope_h = float(linregress(np.log(hs), np.log(eh)).slope)

    neh_bad = 0
    seg = assembly.segment_grid(w, np.linspace(0.1, 0.9, 40))
    for _ in range(50):
        vals = np.abs(rng.standard_normal(seg.ndof)) + 0.1
        proj = localfield.nehari_project(assembly.GridFunction(seg, vals))
        kin = assembly.dirichlet_integral(seg.tables, proj.full())
        quart = assembly.quartic_integral(seg.tables, 0.0, proj.full())
        act = assembly.Operator(seg, 0.0).actions(proj.values)
        if abs(kin - quart) > 1e-10 * kin or abs(act - kin / 4.0) > 1e-10 * kin:
            neh_bad += 1

    ok = (viol == 0 and abs(slope_g - 2.0) <= 0.3 and
          abs(slope_h - 1.0) <= 0.3 and neh_bad == 0)
    _line(10, ok, f"Sobolev/Poincare 1000/1000, gradient FD slope "
          f"{slope_g:.2f} (2+-0.3), Hessian FD slope {slope_h:.2f} "
          f"(1+-0.3), Nehari projection identities 50/50")
    assert viol == 0
    assert abs(slope_g - 2.0) <= 0.3
    assert abs(slope_h - 1.0) <= 0.3
    assert neh_bad == 0
