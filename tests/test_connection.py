import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibump import assembly, cli, connection, weight
from multibump.errors import (InteriorityFailure, MultibumpError,
                              SingularLinearization, WeightError)


def action(grid, mu, full):
    """J_mu = 1/2 int u'^2 - 1/4 int a_mu u^4 of a block's nodal values,
    from the two integrals; the reference of ``Operator.actions``."""
    return 0.5 * assembly.dirichlet_integral(grid.tables, full) - \
        0.25 * assembly.quartic_integral(grid.tables, mu, full)


@pytest.fixture(scope="module")
def problem(step_weight):
    return connection.make_connection_problem(step_weight, 2000.0, 0.6, 0.4,
                                              l=1)


@pytest.fixture(scope="module")
def sol(problem):
    return connection.solve_connection(problem, cells=200)


def test_problem_geometry(problem, step_weight):
    p = problem
    assert p.t_lo == step_weight.tau_i(-1)
    assert p.t_hi == step_weight.sigma(1)
    assert list(p.plus_indices()) == [0]


@pytest.mark.parametrize("caps", [{"K": 0.0}, {"K": -1.0}, {"r": 0.0},
                                  {"r": -0.5}])
def test_caps_must_be_positive(step_weight, caps):
    with pytest.raises(WeightError):
        connection.make_connection_problem(step_weight, 500.0, 0.0, 0.0,
                                           **caps)


def test_zero_data_gives_zero(step_weight):
    p = connection.make_connection_problem(step_weight, 500.0, 0.0, 0.0)
    s = connection.solve_connection(p, cells=120)
    assert s.u.sup_norm() < 1e-12


def test_boundary_values_and_sign(sol, problem):
    full = sol.u.full()
    assert math.isclose(full[0], problem.x, rel_tol=1e-12)
    assert math.isclose(full[-1], problem.y, rel_tol=1e-12)
    # same-sign data: the connecting orbit never crosses zero
    assert np.all(full > 0.0)


def test_symmetric_slope_pair(step_weight):
    p = connection.make_connection_problem(step_weight, 1000.0, 0.5, 0.5)
    s = connection.solve_connection(p, cells=200)
    dlo, dhi = s.boundary_slopes
    assert math.isclose(dlo, -dhi, rel_tol=1e-9)
    assert dlo < 0.0 < dhi


def test_opposite_sign_single_crossing(step_weight):
    p = connection.make_connection_problem(step_weight, 1000.0, 0.5, -0.5)
    s = connection.solve_connection(p, cells=200)
    full = s.u.full()
    crossings = np.sum(full[:-1] * full[1:] < 0.0)
    assert crossings == 1
    # the derivative never vanishes for data of opposite signs
    h = s.grid.tables.h
    slopes = np.diff(full) / h
    assert np.min(np.abs(slopes)) > 0.01


def test_cap_margins_nonnegative(sol, problem):
    margins = connection.cap_margins(problem, sol.grid, sol.u.full())
    for k_slack, r_slack in margins:
        assert k_slack > 0.0
        assert r_slack > 0.0


def test_energy_derivatives_match_fd(sol):
    pair = connection.energy_derivatives(sol)
    assert sol.fd_check["rel_err"][0] < 1e-7
    assert sol.fd_check["rel_err"][1] < 1e-7
    # derivatives are the boundary fluxes
    dlo, dhi = sol.boundary_slopes
    assert pair == (-dlo, dhi)


@pytest.fixture(scope="module")
def default_caps(step_weight):
    """(K, r) of a ``connection`` call that gives neither."""
    p = connection.make_connection_problem(step_weight, 1.0, 0.0, 0.0)
    return p.K, p.r


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(1e2, 1e4),
       x=st.floats(0.01, 1.0, exclude_max=True),
       y=st.floats(0.01, 1.0, exclude_max=True),
       l=st.sampled_from([1, 2]))
def test_fd_check_starts_from_the_tangent_predictor(step_weight, default_caps,
                                                    mu, x, y, l):
    """u + dx v + dy z lands inside Newton's full-step region, so none of
    the four perturbed solves takes a descent step, and the differences
    match the derivative of the action at the converged iterate.

    That derivative is the gradient against the tangents (1, v) and (z, 1):
    the boundary flux dJ/dx plus r . v over the interior residual r that
    Newton leaves, which at mu = 100, x = y = 1/32 is 3.1e-6 of dJ/dx.
    Below data of 0.01 the check stops resolving the derivative: Newton's
    tolerance is absolute, and at x = y = 1e-4 the step 1e-6 leaves a
    truncation error of 7.7e-6.
    """
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, mu, x, y, l=l,
                                           K=K, r=r)
    s = connection.solve_connection(p)
    pair = connection.energy_derivatives(s)
    assert s.fd_check["descent_iters"] == (0, 0, 0, 0)
    grad = assembly.Operator(s.grid, mu).residual(s.u.values)
    v, z = s.sensitivities
    exact = (float(grad @ v.values), float(grad @ z.values))
    scale = max(abs(pair[0]), abs(pair[1]))
    for fd, want in zip(s.fd_check["fd"], exact):
        assert abs(fd - want) < 1e-6 * scale


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(1e2, 1e4),
       x=st.floats(0.01, 1.0, exclude_max=True),
       y=st.floats(0.01, 1.0, exclude_max=True),
       l=st.sampled_from([1, 2]))
def test_descent_takes_one_hessian_step(step_weight, default_caps, mu, x, y,
                                        l):
    """On the benchmark's block ranges the block's Hessian is positive
    definite along the descent, so the decay profile hands over to the
    polish after one projected Newton step, and the polish converges in
    at most three more, clear of both caps."""
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, mu, x, y, l=l,
                                           K=K, r=r)
    s = connection.solve_connection(p)
    assert s.descent_iters <= 1
    assert s.descent_iters + s.newton_iters <= 4
    for mK, mr in connection.cap_margins(p, s.grid, s.u.full()):
        assert mK > 2.0 * connection._CAP_SLACK * K
        assert mr > 2.0 * connection._CAP_SLACK * r ** 2
    # the interior Hessian at the minimizer factors by ?ptsv
    rhs = np.ones(len(s.grid.nodes) - 2)
    diag, off = s.op.tridiagonal(s.u.values)
    d = assembly.solve_definite(diag, off[1:-1], rhs)
    assert np.all(np.isfinite(d))


def test_gridfunction_init_keeps_its_mesh(sol, problem):
    """A GridFunction start is solved on its own block mesh, whatever
    ``cells`` would have built; a mesh of another interval, or a mesh of
    the block that records no sigma_j and tau_j nodes, is refused."""
    s = connection.solve_connection(problem, cells=40, init=sol.u)
    assert s.grid is sol.grid
    assert (s.descent_iters, s.newton_iters) == (0, 0)
    assert np.array_equal(s.u.values, sol.u.values)
    other = connection.make_connection_problem(
        problem.w, problem.mu, problem.x, problem.y, l=2, K=problem.K,
        r=problem.r)
    with pytest.raises(WeightError):
        connection.solve_connection(other, init=sol.u)
    bare = assembly.segment_grid(problem.w, sol.grid.nodes)
    with pytest.raises(WeightError):
        connection.solve_connection(
            problem, init=assembly.GridFunction(bare, sol.u.values))


def test_sensitivity_signs(sol):
    v, z = sol.sensitivities
    vf, zf = v.full(), z.full()
    assert math.isclose(vf[0], 1.0) and abs(vf[-1]) < 1e-14
    assert abs(zf[0]) < 1e-14 and math.isclose(zf[-1], 1.0)
    assert np.all(vf[:-1] > 0.0)
    assert np.all(np.diff(vf) < 0.0)
    assert np.all(zf[1:] > 0.0)
    assert np.all(np.diff(zf) > 0.0)


def test_sensitivity_fd(step_weight):
    """v approximates the x-derivative of the solution itself."""
    mu, x, y = 1500.0, 0.5, 0.45
    h = 1e-5
    sols = {}
    for dx in (0.0, h, -h):
        p = connection.make_connection_problem(step_weight, mu, x + dx, y)
        sols[dx] = connection.solve_connection(p, cells=160)
    v, _ = sols[0.0].sensitivities
    fd = (sols[h].u.full() - sols[-h].u.full()) / (2 * h)
    assert np.max(np.abs(fd - v.full())) < 1e-5


def test_uniqueness_probe(problem):
    assert connection.uniqueness_probe(problem, 4, cells=140, rng=3) is True


def test_interiority_failure_small_mu(step_weight, default_caps):
    K, _ = default_caps
    p = connection.make_connection_problem(step_weight, 0.05, K, K)
    with pytest.raises(InteriorityFailure):
        connection.solve_connection(p, cells=120)


def _two_level():
    """Two levels on each sign interval, so a knot inside each subinterval."""
    P = weight.Piece
    return weight.build_weight(2.6, 1.45, [
        P(0.0, 0.8, "poly", (1.7,)), P(0.8, 1.45, "poly", (0.9,)),
        P(1.45, 2.1, "poly", (-1.4,)), P(2.1, 2.6, "poly", (-1.5,))])


@pytest.mark.parametrize("case", [("sine", 2000.0, 0.6, 0.4),
                                  ("two_level", 300.0, 0.2, 0.9)],
                         ids=["sine", "two_level"])
def test_knots_inside_subintervals_keep_the_layers(case, sine_weight):
    """On weights with knots inside the subintervals, the block's default
    mesh holds every knot and stays cosine-graded over each subinterval:
    the cells at every subinterval end resolve the decay layer, and the
    solution and its end slopes lie within 1e-4 and 3e-3 of an 8x-refined
    solve."""
    name, mu, x, y = case
    w = sine_weight if name == "sine" else _two_level()
    p = connection.make_connection_problem(w, mu, x, y)
    s = connection.solve_connection(p)
    grid, h = s.grid, s.grid.tables.h
    ends = sorted(grid.marks.values())
    lam = math.sqrt(0.5 * mu) * max(abs(x), abs(y))
    for a, b in zip(ends[:-1], ends[1:]):
        target = min(float(grid.nodes[b] - grid.nodes[a]) / 16.0,
                     1.0 / (10.0 * lam))
        assert h[a] <= target and h[b - 1] <= target
    fine = connection.solve_connection(p, cells=8 * 160)
    assert np.max(np.abs(s.u.full() - fine.u.eval(grid.nodes))) <= 1e-4
    assert np.max(np.abs(np.subtract(s.boundary_slopes,
                                     fine.boundary_slopes))) <= 3e-3


def test_block_action_positive(sol):
    # x = y > 0 data forces kinetic energy through the negativity wells
    assert sol.op.actions(sol.u.values) > 0.0


def test_longer_block(step_weight):
    p = connection.make_connection_problem(step_weight, 3000.0, 0.5, 0.5,
                                           l=2)
    s = connection.solve_connection(p, cells=160)
    assert list(p.plus_indices()) == [0, 1]
    assert np.all(s.u.full() > 0.0)


# -- one-pass FD check and two-column sensitivities against the loops ---------


def ref_sensitivities(sol):
    """Reference of compute_sensitivities: one solve and one defect check
    for each of v and z."""
    p, grid, full = sol.problem, sol.grid, sol.u.values
    diag, off = sol.op.tridiagonal(full)
    out = []
    for left_val, right_val in ((1.0, 0.0), (0.0, 1.0)):
        rhs = np.zeros(len(full) - 2)
        rhs[0] -= off[0] * left_val
        rhs[-1] -= off[-1] * right_val
        interior = assembly.solve_tridiagonal(diag, off[1:-1], rhs)
        vals = np.concatenate([[left_val], interior, [right_val]])
        res = assembly.hessian_full(grid.tables, p.mu, full, vals)[1:-1]
        scale = float(np.max(np.abs(vals))) * \
            float(np.max(1.0 / grid.tables.h))
        assert float(np.max(np.abs(res))) <= 1e-6 * max(scale, 1.0)
        out.append(vals)
    return out


def ref_fd_check(sol):
    """Reference of energy_derivatives' check: each of the four perturbed
    blocks solved by solve_connection from its tangent predictor."""
    p = sol.problem
    v, z = sol.sensitivities
    h = connection._FD_STEP * max(1.0, abs(p.x), abs(p.y))
    vals, steps = {}, []
    for name, (dx, dy) in (("x+", (h, 0.0)), ("x-", (-h, 0.0)),
                           ("y+", (0.0, h)), ("y-", (0.0, -h))):
        q = connection.ConnectionProblem(w=p.w, mu=p.mu, x=p.x + dx,
                                         y=p.y + dy, l=p.l, K=p.K, r=p.r)
        start = assembly.GridFunction(sol.grid, sol.u.values + dx * v.values
                                      + dy * z.values)
        s = connection.solve_connection(q, init=start)
        vals[name] = action(s.grid, p.mu, s.u.values)
        steps.append(s.descent_iters)
    dlo, dhi = sol.boundary_slopes
    fd = ((vals["x+"] - vals["x-"]) / (2.0 * h),
          (vals["y+"] - vals["y-"]) / (2.0 * h))
    scale = max(abs(dlo), abs(dhi), 1e-30)
    return {"step": h, "fd": fd,
            "rel_err": (abs(fd[0] + dlo) / scale, abs(fd[1] - dhi) / scale),
            "descent_iters": tuple(steps)}


_blocks = dict(mu=st.floats(1e2, 1e4),
               x=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
               y=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
               l=st.sampled_from([1, 2]))
# data of opposite signs near the corners at mu near 1e2 have no interior
# minimizer: here the r^2 margin on I_0^+ reads -4.5e-4
_capped_block = example(mu=100.0, x=0.875, y=-0.75, l=1)


def _failed_margins(e):
    """(K margin, r^2 margin) an InteriorityFailure names, to the four
    digits its message prints."""
    margins = str(e).split("(margins K: ")[1].split(")")[0]
    return tuple(float(m.split()[-1]) for m in margins.split(","))


def solve_or_verdict(p):
    """solve_connection(p), or None when it raises InteriorityFailure; the
    margins that failure names must then be an active cap's, at or below
    the verdict's slack."""
    try:
        return connection.solve_connection(p)
    except InteriorityFailure as e:
        mK, mr = _failed_margins(e)
        assert mK <= 2.0 * connection._CAP_SLACK * p.K or \
            mr <= 2.0 * connection._CAP_SLACK * p.r ** 2
        return None


def outcome(f):
    """f()'s value, or the type and message of the package error it
    raises."""
    try:
        return f()
    except MultibumpError as e:
        return type(e), str(e)


def stacked_fd_check(sol):
    connection.energy_derivatives(sol)
    return sol.fd_check


@settings(max_examples=40, deadline=None)
@given(**_blocks)
@_capped_block
def test_fd_check_equals_the_four_solves(step_weight, default_caps, mu, x, y,
                                         l):
    """The stacked pass gives the four-solve check's values bit for bit,
    or raises the error the four solves in turn raise first."""
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, mu, x, y, l=l,
                                           K=K, r=r)
    s = solve_or_verdict(p)
    if s is not None:
        assert outcome(lambda: stacked_fd_check(s)) == \
            outcome(lambda: ref_fd_check(s))


@settings(max_examples=15, deadline=None)
@given(**_blocks)
@_capped_block
def test_fd_check_falls_back_to_solves(step_weight, default_caps, mu, x, y,
                                       l):
    """At a step of 1e-2 the predictors miss the polish tolerance, so the
    perturbed blocks go through solve_connection, and the check still
    equals the four-solve reference, errors included."""
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, mu, x, y, l=l,
                                           K=K, r=r)
    s = solve_or_verdict(p)
    if s is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connection, "_FD_STEP", 1e-2)
        solves = []
        real = connection.solve_connection

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        mp.setattr(connection, "solve_connection", counted)
        got = outcome(lambda: stacked_fd_check(s))
        assert solves
        mp.setattr(connection, "solve_connection", real)
        assert got == outcome(lambda: ref_fd_check(s))


@settings(max_examples=40, deadline=None)
@given(**_blocks)
@_capped_block
def test_sensitivities_equal_two_solves(step_weight, default_caps, mu, x, y,
                                        l):
    """v and z from one two-column solve are the two one-column solves."""
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, mu, x, y, l=l,
                                           K=K, r=r)
    s = solve_or_verdict(p)
    if s is None:
        return
    v, z = connection.compute_sensitivities(s)
    ref_v, ref_z = ref_sensitivities(s)
    assert np.array_equal(v.values, ref_v) and np.array_equal(z.values, ref_z)


def test_connection_grid_kept_per_process(problem):
    """Block data with the same cell counts get the same kept mesh; data
    whose layers need more cells than the minimum get another."""
    g = connection.connection_grid(problem, cells=8)
    again = connection.make_connection_problem(
        problem.w, problem.mu + 1.0, problem.x, problem.y, K=problem.K,
        r=problem.r)
    assert connection.connection_grid(again, cells=8) is g
    steep = connection.make_connection_problem(
        problem.w, 1e4, 0.9, 0.9, K=problem.K, r=problem.r)
    assert len(connection.connection_grid(steep, cells=8).nodes) > \
        len(g.nodes)


# -- the stacked verdict against the row loop ----------------------------------


def ref_cap_margins(p, grid, full):
    """Reference of cap_margins: one range at a time."""
    h = grid.tables.h
    return [(p.K - abs(float(full[a])),
             p.r ** 2 - assembly.dirichlet_energy(h[a:b], full[a:b + 1]))
            for a, b in ((grid.marks[("s", j)], grid.marks[("t", j)])
                         for j in p.plus_indices())]


@pytest.mark.parametrize("l", [1, 2])
def test_stacked_retraction_is_the_row_loop(step_weight, default_caps, l):
    """Rows over the amplitude cap, over the energy cap (even affinely),
    within both, or on the edge of either are retracted as ``_retract``
    retracts each alone, bit for bit, with the margins of the row loop."""
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, 500.0, 0.5, 0.4, l=l,
                                           K=K, r=r)
    s = connection.solve_connection(p)
    grid, u = s.grid, s.u.values
    K_eff = K * (1.0 - connection._CAP_SLACK)
    r2_eff = r ** 2 * (1.0 - connection._CAP_SLACK)
    rows = []
    for a, b in connection._plus_ranges(p, grid):
        t = grid.nodes[a:b + 1]
        bump = np.sin(math.pi * (t - t[0]) / (t[-1] - t[0]))
        dev = np.zeros_like(u)
        dev[a:b + 1] = bump
        e = assembly.dirichlet_energy(grid.tables.h[a:b], bump)
        for amp in (K, -1.001 * K, K_eff, math.nextafter(K_eff, 2.0 * K)):
            row = u.copy()
            row[a] = amp
            rows.append(row)
        # energies over, at and just below the cap, and a jump no affine
        # interpolant fits
        for target in (4.0 * r ** 2, r2_eff, 0.5 * r2_eff):
            rows.append(u + math.sqrt(target / e) * dev)
        row = u.copy()
        row[b] = row[a] + 10.0 * r
        rows.append(row)
    rows.append(u.copy())
    stack = np.array(rows)
    want = stack.copy()
    for row in want:
        connection._retract(p, grid, row)
    mK, mr = connection._retract_rows(p, grid, stack)
    assert np.array_equal(stack, want)
    assert [list(zip(a, b)) for a, b in zip(mK.tolist(), mr.tolist())] == \
        [ref_cap_margins(p, grid, row) for row in want]
    assert not np.array_equal(want, np.array(rows))


@pytest.mark.parametrize("cap", ["K", "r"])
@pytest.mark.parametrize("row", range(4))
def test_fd_check_raises_the_first_failing_row(step_weight, default_caps, cap,
                                               row):
    """With a cap set on the edge of one perturbed block's verdict, the
    stacked check raises the InteriorityFailure the four solves in turn
    raise first: the blocks past that cap are solved and fail their own
    verdict, the one on its edge fails the stacked verdict unsolved."""
    K, r = default_caps
    p = connection.make_connection_problem(step_weight, 800.0, 0.6, 0.5, l=1,
                                           K=K, r=r)
    s = connection.solve_connection(p)
    v, z = s.sensitivities
    h = connection._FD_STEP * max(1.0, abs(p.x), abs(p.y))
    dx = np.array([h, -h, 0.0, 0.0])
    dy = np.array([0.0, 0.0, h, -h])
    starts = s.u.values + dx[:, None] * v.values + dy[:, None] * z.values
    (a, b), = connection._plus_ranges(p, s.grid)
    edge = 1.0 - 1.5 * connection._CAP_SLACK     # between slack and 2 slack
    if cap == "K":
        q = dataclasses.replace(p, K=abs(starts[row, a]) / edge)
    else:
        energy = assembly.dirichlet_energy(s.grid.tables.h[a:b],
                                           starts[row, a:b + 1])
        q = dataclasses.replace(p, r=math.sqrt(energy / edge))
    edged = dataclasses.replace(s, problem=q)
    got = outcome(lambda: stacked_fd_check(edged))
    assert got[0] is InteriorityFailure
    assert got == outcome(lambda: ref_fd_check(edged))


def test_actions_of_one_vector_are_the_action(step_weight, rng):
    """``Operator.actions`` of one vector, from the point values of the
    last residual, is its action from the two integrals."""
    grid = connection.connection_grid(
        connection.make_connection_problem(step_weight, 500.0, 0.5, 0.4,
                                           l=2))
    for _ in range(5):
        values = rng.standard_normal(grid.ndof)
        op = assembly.Operator(grid, 500.0)
        op.residual(values)
        assert op.actions(values) == action(grid, 500.0, values)


def test_solve_forms_each_residual_once(problem):
    """A block solve forms no residual twice at the same iterate: the
    descent's trials give their actions and the next direction's rows, and
    the polish starts from the descent's last residual."""
    seen = []
    residual = assembly.Operator.residual

    def counted(op, values):
        seen.append(np.asarray(values).tobytes())
        return residual(op, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly.Operator, "residual", counted)
        s = connection.solve_connection(problem)
    assert s.descent_iters == 1
    assert len(seen) == len(set(seen)) > 1


# -- numerical failures are never bad input -----------------------------------


def _corrupt_directions(monkeypatch, first_only):
    """Give the descent's direction (and with ``first_only`` False every
    later direction and Newton step) one infinite entry."""
    calls = []

    def corrupting(real):
        def corrupt(diag, off, rhs):
            x = real(diag, off, rhs)
            calls.append(1)
            if len(calls) == 1 or not first_only:
                x = x.copy()
                x[len(x) // 2] = np.inf
            return x
        return corrupt

    for name in ("solve_definite", "solve_tridiagonal"):
        monkeypatch.setattr(assembly, name,
                            corrupting(getattr(assembly, name)))


def test_non_finite_direction_hands_over_to_the_polish(step_weight,
                                                       monkeypatch, tmp_path):
    """A descent direction that is not finite stalls the descent before any
    trial is retracted, and the polish converges from the start: no
    warning, no WeightError, and the minimizer of the intact solve."""
    p = connection.make_connection_problem(step_weight, 500.0, 0.5, 0.4, l=1)
    want = connection.solve_connection(p)
    _corrupt_directions(monkeypatch, first_only=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = connection.solve_connection(p)
    assert s.descent_iters == 0
    assert np.max(np.abs(s.u.values - want.u.values)) < 1e-9
    _corrupt_directions(monkeypatch, first_only=True)
    rc = cli.main(["connection", "--mu", "500", "--x", "0.5", "--y", "0.4",
                   "--l", "1", "--outdir", str(tmp_path)])
    assert rc == 0


def test_one_newton_system_per_iterate(step_weight, monkeypatch):
    """The sensitivities' right-hand side, solve and defect check read one
    Newton system, and a block solve forms the system once per iterate."""
    p = connection.make_connection_problem(step_weight, 500.0, 0.5, 0.4)
    real = assembly.Operator.tridiagonal
    asked = {}

    def recorded(self, values):
        key = np.asarray(values).tobytes()
        asked[key] = asked.get(key, 0) + 1
        return real(self, values)

    monkeypatch.setattr(assembly.Operator, "tridiagonal", recorded)
    s = connection.solve_connection(p)
    assert s.descent_iters > 0 and s.newton_iters > 0
    assert set(asked.values()) == {1}
    asked.clear()
    connection.compute_sensitivities(s)
    assert asked == {s.u.values.tobytes(): 1}


def test_non_finite_steps_exit_4(monkeypatch, tmp_path):
    """When every direction and Newton step is non-finite the polish's
    NewtonFailure stands: a numerical failure, exit 4, never exit 2."""
    _corrupt_directions(monkeypatch, first_only=False)
    rc = cli.main(["connection", "--mu", "500", "--x", "0.5", "--y", "0.4",
                   "--l", "1", "--outdir", str(tmp_path)])
    assert rc == 4
    assert (tmp_path / "FAILED").read_text().startswith("NewtonFailure")


def test_sensitivity_guard_catches_a_bad_solve(step_weight, monkeypatch,
                                               tmp_path):
    """A two-column solve whose v is off by 1e-3 at one node fails the
    product of the Newton system: SingularLinearization, and
    ``connection`` exits 4."""
    real = assembly.solve_tridiagonal

    def off(diag, band, rhs):
        x = real(diag, band, rhs)
        if np.ndim(rhs) == 2:
            x = x.copy()
            x[len(x) // 2, 0] += 1e-3
        return x

    monkeypatch.setattr(assembly, "solve_tridiagonal", off)
    p = connection.make_connection_problem(step_weight, 2000.0, 0.6, 0.4)
    s = connection.solve_connection(p)
    with pytest.raises(SingularLinearization):
        connection.compute_sensitivities(s)
    rc = cli.main(["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4",
                   "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")
