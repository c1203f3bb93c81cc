import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibump import assembly, connection, weight
from multibump.errors import InteriorityFailure, WeightError


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
    assert math.isclose(p.length, p.t_hi - p.t_lo)
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
    grad = assembly.Operator(s.grid.tables, mu).residual(s.u.values)
    v, z = s.sensitivities
    exact = (float(grad @ v.values), float(grad @ z.values))
    scale = max(abs(pair[0]), abs(pair[1]))
    for fd, want in zip(s.fd_check["fd"], exact):
        assert abs(fd - want) < 1e-6 * scale


def test_gridfunction_init_keeps_its_mesh(sol, problem):
    """A GridFunction start is solved on its own mesh, whatever ``cells``
    would have built; a mesh of another interval is refused."""
    s = connection.solve_connection(problem, cells=40, init=sol.u)
    assert s.grid is sol.grid
    assert (s.descent_iters, s.newton_iters) == (0, 0)
    assert np.array_equal(s.u.values, sol.u.values)
    other = connection.make_connection_problem(
        problem.w, problem.mu, problem.x, problem.y, l=2, K=problem.K,
        r=problem.r)
    with pytest.raises(WeightError):
        connection.solve_connection(other, init=sol.u)


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


def test_block_action_positive(sol):
    # x = y > 0 data forces kinetic energy through the negativity wells
    assert assembly.action(sol.u, sol.problem.mu) > 0.0


def test_longer_block(step_weight):
    p = connection.make_connection_problem(step_weight, 3000.0, 0.5, 0.5,
                                           l=2)
    s = connection.solve_connection(p, cells=160)
    assert list(p.plus_indices()) == [0, 1]
    assert np.all(s.u.full() > 0.0)
