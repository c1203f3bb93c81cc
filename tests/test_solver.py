import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibump import assembly, localfield, solver, weight
from multibump.errors import CertificationFailure, NewtonFailure, WeightError


def test_parse_symbols():
    assert solver.parse_symbols("110") == (1, 1, 0)
    assert solver.parse_symbols("1,0,1") == (1, 0, 1)
    assert solver.parse_symbols("1 0") == (1, 0)


def test_make_window_validation():
    win = solver.make_window((1, 1, 0))
    assert win.i_start == -1  # symmetric placement for odd length
    with pytest.raises(WeightError):
        solver.make_window(())
    with pytest.raises(WeightError):
        solver.make_window((0, 0))
    with pytest.raises(WeightError):
        solver.make_window((1, 2))


def test_certified_single_bump(step_weight):
    window = solver.make_window((1,))
    sol = solver.solve_multibump(step_weight, window, 1e3, cells=300)
    rep = sol.report
    assert rep.certified
    assert rep.positivity
    assert rep.residual_inf <= 1e-9
    assert rep.dichotomy[0] == "large"
    assert not rep.failing()


def test_certified_alternating(sol_10, consts):
    rep = sol_10.report
    assert rep.certified
    assert rep.residual_inf <= 1e-9
    # coded interval carries a bump, uncoded stays small
    assert rep.dichotomy[0] == "large"
    assert rep.dichotomy[1] == "small"
    r2 = consts.r ** 2
    assert rep.interval_energies[0]["plus"] > r2
    assert rep.interval_energies[1]["plus"] < r2
    assert all(all(d.values()) for d in rep.condition_flags.values())


def test_certified_two_bumps(sol_110):
    rep = sol_110.report
    assert rep.certified
    labels = [rep.dichotomy[i] for i in sorted(rep.dichotomy)]
    assert labels == ["large", "large", "small"]
    # neighboring coded bumps look alike in energy
    keys = sorted(rep.interval_energies)
    e = rep.interval_energies
    assert math.isclose(e[keys[0]]["plus"], e[keys[1]]["plus"], rel_tol=0.05)


def test_positivity_everywhere(sol_10):
    assert np.all(sol_10.u.values > 0.0)
    # small interval max stays below the cap by a wide margin at mu = 1e3
    # row 2 of the window is I_1^+
    assert np.max(sol_10.grid.rows(sol_10.u.full())[2]) < 0.75


def test_certification_failure_carries_report(step_weight):
    window = solver.make_window((1, 0))
    with pytest.raises(CertificationFailure) as exc:
        solver.solve_multibump(step_weight, window, 0.5, cells=200)
    rep = exc.value.report
    assert rep is not None
    assert not rep.certified
    assert rep.failing()


def test_report_roundtrip(sol_10):
    d = sol_10.report.to_dict()
    assert d["certified"] is True
    assert d["mu"] == 1e3
    assert set(d["condition_flags"]) == {"C1", "C2", "C3", "C4"}
    assert isinstance(d["continuation_path"], list)
    walk = [m for m, _ in d["continuation_path"]]
    assert walk[0] == max(10.0, 1e3)
    assert walk == sorted(walk, reverse=True)


def test_one_gradient_per_iterate(step_weight, monkeypatch):
    """A solve evaluates the gradient once per (iterate, mu): the counted
    extra Newton step reuses the residual Newton returns at its iterate,
    and every Newton step reuses the point values of that residual: an
    evaluation is one ``_terms`` call, and ``_at_points`` never runs."""
    # the levels are solved before
    weight.build_constant_pack(step_weight, localfield.levels_of(step_weight))
    seen = []
    points = []
    residual = assembly.Operator.residual
    at_points = assembly._at_points
    terms = assembly._terms

    def counted(op, values):
        seen.append((op.mu, np.asarray(values).tobytes()))
        return residual(op, values)

    def counted_points(tb, full):
        points.append(len(full))
        return at_points(tb, full)

    def counted_terms(tb, c, full):
        points.append(len(full))
        return terms(tb, c, full)

    monkeypatch.setattr(assembly.Operator, "residual", counted)
    monkeypatch.setattr(assembly, "_at_points", counted_points)
    monkeypatch.setattr(assembly, "_terms", counted_terms)
    sol = solver.solve_multibump(step_weight, solver.make_window((1, 0)),
                                 1e3, cells=200)
    assert sol.report.certified
    # Newton's residuals plus the one certificate; no iterate twice
    assert len(seen) == len(set(seen)) > 1
    assert len(points) == len(seen)


def test_continuation_states_reuse(step_weight):
    window = solver.make_window((1, 0))
    mus = [200.0, 800.0, 3200.0]
    seen = []
    for mu, gf, rep in solver.continuation_states(step_weight, window, mus,
                                                  cells=200):
        seen.append((mu, rep.certified, gf.sup_norm()))
    assert [m for m, _, _ in seen] == mus
    assert all(ok for _, ok, _ in seen)
    # sup norm grows mildly with mu while the small interval drains
    assert seen[-1][2] >= seen[0][2] - 0.1


@settings(max_examples=20, deadline=None)
@given(code=st.lists(st.integers(0, 1), min_size=1, max_size=6).filter(any),
       mus=st.lists(st.floats(30.0, 1e3), min_size=1, max_size=3,
                    unique=True),
       sine=st.just(False))
@example(code=[1, 1, 0], mus=[30.0, 1e3], sine=True)
def test_walk_down_from_pasted_bumps(step_weight, sine_weight, code, mus,
                                     sine):
    """Newton starts from the pasted bumps at max(MU0, max(mus)), walks mu
    downward, and certifies every scheduled state."""
    w = sine_weight if sine else step_weight
    states = list(solver.continuation_states(w, solver.make_window(code),
                                             mus, cells=200))
    assert [mu for mu, _, _ in states] == sorted(mus)
    assert all(rep.certified for _, _, rep in states)
    path = states[-1][2].continuation_path
    walk = [mu for mu, _ in path]
    assert walk[0] == max(solver.MU0, max(mus))
    assert walk == sorted(walk, reverse=True)
    # from the coarse solution, at most 3 Newton iterations plus the counted
    # extra step (all 120 codes of length 1-6 at mu 30, 1e2, 3e2 and 1e3 on
    # step: 3 to 4; from the pasted bumps it took 7 to 13)
    assert path[0][1] <= 4


def _fine_walk(w, window, mus, cells):
    """The states of the walk on the solve mesh alone: Newton from the
    pasted bumps at the top, each lower mu from the last iterate."""
    cells = cells or solver.auto_cells(max(mus))
    grid = assembly.span_grid(w, window.i_start, len(window.symbols), cells)
    bump = localfield.levels_of(w).ground_bump()
    u = solver.initial_guess(window, bump, grid).values
    top = [solver.MU0] if solver.MU0 > max(mus) else []
    states = {}
    for mu in top + sorted(mus, reverse=True):
        u, _ = solver._converge(grid, u, mu)
        states[mu] = u
    return states


def _assert_same_states(w, window, mus, states, rel):
    """Where the walk on the solve mesh alone (_fine_walk) certifies, the
    states of continuation_states equal its states to rel, with the same
    flags; where it does not, they certify or carry its flags."""
    consts = weight.build_constant_pack(w, localfield.levels_of(w))
    ref = _fine_walk(w, window, mus, states[0][1].grid.m)
    for mu, gf, rep in states:
        u = ref[mu]
        want = solver.check_membership(assembly.GridFunction(gf.grid, u), mu,
                                       consts, window)
        if not want.certified:
            assert rep.certified or (
                rep.condition_flags, rep.positivity) == \
                (want.condition_flags, want.positivity)
            continue
        assert np.max(np.abs(gf.values - u)) <= rel * np.max(np.abs(u))
        assert rep.condition_flags == want.condition_flags
        assert (rep.positivity, rep.dichotomy, rep.ties) == \
            (want.positivity, want.dichotomy, want.ties)


@settings(max_examples=12, deadline=None)
@given(code=st.lists(st.integers(0, 1), min_size=1, max_size=5).filter(any),
       mus=st.lists(st.floats(30.0, 1e4), min_size=1, max_size=3,
                    unique=True),
       sine=st.booleans(), cells=st.sampled_from([0, 200, 1600]))
# the walk from the pasted bumps on the solve mesh ends on a small
# near-constant state here (C1 fails); the nested walk certifies
@example(code=[1, 1, 0, 1, 1], mus=[32.71631679352486], sine=False,
         cells=1600)
# the largest gap between two certified Newton limits seen: 2.5e-12
@example(code=[0, 0, 1, 0], mus=[5884.653967871251], sine=True, cells=1600)
def test_nested_start_reaches_the_fine_walk(step_weight, sine_weight, code,
                                            mus, sine, cells):
    """Each stop's Newton started from the coarse solution converges to the
    state the walk on the solve mesh alone reaches where that walk
    certifies, with the same flags.  The bound is 1e-11 relative: two
    Newton limits at rounding level differed by up to 2.5e-12 (sine, mu
    near 6e3, 1600 cells) and by at most 2e-16 at 200 cells.  At 1600 cells
    and mu below 50, the walk from the pasted bumps on the solve mesh
    reached -u or a small near-constant state on about 1 draw in 700; the
    nested walk certified each of those."""
    w = sine_weight if sine else step_weight
    window = solver.make_window(code)
    states = list(solver.continuation_states(w, window, mus, cells))
    coarse = states[-1][2].coarse_path
    assert [mu for mu, _ in coarse] == \
        [mu for mu, _ in states[-1][2].continuation_path]
    assert all(steps is not None for _, steps in coarse)
    _assert_same_states(w, window, mus, states, 1e-11)


def test_failed_coarse_newton_falls_back(step_weight, monkeypatch):
    """Where the coarse Newton fails, the stop starts from the last fine
    iterate (the pasted bumps at the top), as the walk on the solve mesh
    alone does, and the coarse walk resumes from the fine solution: failing
    at every stop gives that walk's states bit for bit, failing at the top
    only the same states to rounding."""
    window = solver.make_window((1, 1, 0))
    mus = [100.0, 300.0, 1000.0]
    converge = solver._converge

    def failing_on_coarse(fail_at):
        def wrapped(grid, values, mu):
            if grid.m < 200 and mu in fail_at:
                raise NewtonFailure("coarse Newton failed on purpose")
            return converge(grid, values, mu)
        return wrapped

    for fail_at, rel in ((set(mus), 0.0), ({1000.0}, 1e-12)):
        monkeypatch.setattr(solver, "_converge", failing_on_coarse(fail_at))
        states = list(solver.continuation_states(step_weight, window, mus,
                                                 cells=200))
        monkeypatch.undo()
        assert [mu for mu, _, _ in states] == mus
        assert [mu for mu, steps in states[-1][2].coarse_path
                if steps is None] == sorted(fail_at, reverse=True)
        _assert_same_states(step_weight, window, mus, states, rel)


def test_no_coarse_walk_on_the_solve_mesh(monkeypatch):
    """On sine sampled at 4096 points a period the knots floor both the
    solve mesh (712 cells asked at mu 1e3) and the coarse one (89 asked) at
    2048 cells: there is no coarse walk, the solve mesh's Newton runs once,
    from the pasted bumps, and it reaches the state of a coarse walk on
    that count followed by a Newton on the solve mesh to 1e-12."""
    monkeypatch.setattr(weight, "_SINE_SAMPLES", 4096)
    w = weight.make_sine_weight()
    window = solver.make_window((1, 0))
    cells = solver.auto_cells(1e3)
    grid, coarse = (assembly.span_grid(w, 0, 2, m)
                    for m in (cells, cells // solver.COARSE_DIV))
    assert grid.m == coarse.m == 2048
    sol = solver.solve_multibump(w, window, 1e3)
    v, steps = solver._converge(
        coarse, solver.initial_guess(window, localfield.levels_of(
            w).ground_bump(), coarse).values, 1e3)
    u, _ = solver._converge(grid, coarse.eval(v, grid.nodes[:grid.ndof]), 1e3)
    assert sol.grid is grid and sol.report.certified
    assert sol.report.coarse_path == [(1e3, None)]
    assert sol.report.continuation_path == [(1e3, steps)]
    assert np.max(np.abs(sol.u.values - u)) <= 1e-12 * np.max(np.abs(u))


@given(st.lists(st.tuples(st.floats(1e-3, 1e6), st.booleans()),
                unique_by=lambda t: t[0], max_size=30))
def test_bracket_property(outcomes):
    mu_fail, mu_pass = solver.bracket(outcomes)
    ok = dict(outcomes)
    if math.isinf(mu_pass):
        # nothing certified above the last failure
        assert not any(ok[mu] for mu in ok if mu > mu_fail)
        return
    assert ok[mu_pass]
    assert all(ok[mu] for mu in ok if mu > mu_pass)
    assert mu_fail == max((mu for mu in ok if mu < mu_pass and not ok[mu]),
                          default=0.0)


def test_auto_cells_monotone():
    cells = [solver.auto_cells(mu) for mu in (1e2, 1e3, 1e4, 1e6)]
    assert all(a <= b for a, b in zip(cells, cells[1:]))
    assert cells[0] >= 400
    assert cells[-1] <= 6000


def test_initial_guess_supports(step_weight):
    window = solver.make_window((1, 0, 1))
    grid = assembly.span_grid(step_weight, window.i_start, 3, 40)
    bump = localfield.levels_of(step_weight).ground_bump()
    guess = solver.initial_guess(window, bump, grid)
    plus = grid.rows(guess.full())[::2]
    for p, sym in enumerate(window.symbols):
        m = np.max(np.abs(plus[p]))
        if sym:
            assert m > 1.0
        else:
            assert m == 0.0
