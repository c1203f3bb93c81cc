"""Shooting oracle: frozen reference constants and convergence behavior.

The autonomous normal form w'' + w^3 = 0 with w(0) = 0, w'(0) = 1 has a
closed-form first-return time and kinetic integral in terms of Gamma
functions (energy w'^2/2 + w^4/4 = 1/2 reduces both to Beta integrals):

    t1 = 2^(1/4) Gamma(1/4)^2 / (2 sqrt(2 pi))
    I1 = 2^(-3/4) Gamma(1/4) Gamma(3/2) / Gamma(7/4)

Everything else scales out of these two numbers for constant weights.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as G

from multibump import oracle, weight
from multibump.errors import BlowUp, NewtonFailure, ScopeError

T1 = 3.118169499510998
I1 = 2.0787796663402367
C_STEP = 15.756060010769785


def test_first_return_closed_form():
    t1_gamma = 2.0 ** 0.25 * G(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi))
    i1_gamma = 2.0 ** -0.75 * G(0.25) * G(1.5) / G(1.75)
    assert math.isclose(T1, t1_gamma, rel_tol=5e-13)
    assert math.isclose(I1, i1_gamma, rel_tol=5e-13)
    t1, i1 = oracle._constant_first_return(1.0, 1.0)
    assert math.isclose(t1, t1_gamma, rel_tol=1e-11)
    assert math.isclose(i1, i1_gamma, rel_tol=1e-11)


def test_ground_level_frozen(step_weight):
    c = oracle.brute_ground_level(step_weight)
    assert math.isclose(c, C_STEP, rel_tol=1e-12)
    # c = t1^3 I1 / 4 for a+ = 1 on [0, 1]
    assert math.isclose(c, T1 ** 3 * I1 / 4.0, rel_tol=1e-12)


def test_ground_level_scaling():
    """c scales like tau^-3 and like 1/k for a+ = k."""
    P = weight.Piece
    stretched = weight.build_weight(4.0, 2.0, [P(0.0, 2.0, "poly", (1.0,)),
                                               P(2.0, 4.0, "poly", (-1.0,))])
    assert math.isclose(oracle.brute_ground_level(stretched), C_STEP / 8.0,
                        rel_tol=1e-12)
    strong = weight.build_weight(2.0, 1.0, [P(0.0, 1.0, "poly", (5.0,)),
                                            P(1.0, 2.0, "poly", (-1.0,))])
    assert math.isclose(oracle.brute_ground_level(strong), C_STEP / 5.0,
                        rel_tol=1e-12)


def test_ground_level_piecewise_constant():
    """Non-uniform a+ goes through the slope bisection branch."""
    P = weight.Piece
    w = weight.build_weight(2.0, 1.0, [P(0.0, 0.5, "poly", (1.0,)),
                                       P(0.5, 1.0, "poly", (4.0,)),
                                       P(1.0, 2.0, "poly", (-1.0,))])
    c = oracle.brute_ground_level(w)
    # between the uniform bounds c(a=4) = C/4 and c(a=1) = C
    assert C_STEP / 4.0 < c < C_STEP
    # a+ = 4 everywhere is the same problem as a+ = 1 at doubled length:
    # sanity floor from monotonicity in the weight
    w2 = weight.build_weight(2.0, 1.0, [P(0.0, 0.5, "poly", (4.0,)),
                                        P(0.5, 1.0, "poly", (1.0,)),
                                        P(1.0, 2.0, "poly", (-1.0,))])
    assert math.isclose(c, oracle.brute_ground_level(w2), rel_tol=1e-9)


def test_ground_level_scope(sine_weight):
    with pytest.raises(ScopeError):
        oracle.brute_ground_level(sine_weight)


def test_hamiltonian_conservation(step_weight):
    """Inside one smooth piece the energy u'^2/2 + a u^4/4 is conserved."""
    st = oracle.IvpState(t=0.1, u=0.4, du=1.3)
    end, dense = oracle.integrate(step_weight, 1.0, st, 0.9, rtol=1e-11)
    ts = np.linspace(0.1, 0.9, 500)
    u = dense.eval_u(ts)
    du = dense.eval_du(ts)
    E = 0.5 * du ** 2 + 0.25 * u ** 4
    assert np.max(np.abs(E - E[0])) < 1e-9 * max(1.0, E[0])


def test_integrate_order(step_weight, monkeypatch):
    """Error vs forced max step decays at the scheme's order (8).

    The steps are coarse because at h = 0.05 the error already sits at
    round-off."""
    st = oracle.IvpState(t=0.0, u=0.0, du=1.0)
    ref, _ = oracle.integrate(step_weight, 1.0, st, 1.0, rtol=1e-13)
    errs = []
    hs = (0.5, 0.25, 0.125)
    for h in hs:
        st = oracle.IvpState(t=0.0, u=0.0, du=1.0)
        monkeypatch.setattr(oracle, "_MAX_STEP", h)
        end, _ = oracle.integrate(step_weight, 1.0, st, 1.0, rtol=1e-3)
        errs.append(abs(end.u - ref.u) + abs(end.du - ref.du))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 7.5


def test_blowup_raises(step_weight, monkeypatch):
    monkeypatch.setattr(oracle, "_CAP", 1e5)
    st = oracle.IvpState(t=1.05, u=2.0, du=0.0)
    with pytest.raises(BlowUp):
        oracle.integrate(step_weight, 1e4, st, 1.95)


def test_shoot_symmetric_chord(step_weight):
    res = oracle.shoot_dirichlet(step_weight, 0.0, 0.0, 1.0, 0.3, 0.3,
                                 rtol=1e-11)
    assert abs(res.residual) <= 1e-9
    # symmetric data on a sign-definite interval: u'(mid) = 0
    mid_du = res.dense.eval_du(0.5)
    assert abs(mid_du) < 1e-8


def test_shoot_recovers_ground_bump(step_weight):
    """Dirichlet shooting from 0 to 0 with a positive hump hits the ground
    level (1/4) int u'^2 = c."""
    # u = lam w(lam t) with lam = T1 returns to zero at t = 1, so the exact
    # slope is u'(0) = lam^2; start close but not on it
    res = oracle.shoot_dirichlet(step_weight, 0.0, 0.0, 1.0, 0.0, 0.0,
                                 rtol=1e-11, s0=0.9 * T1 ** 2)
    assert abs(res.residual) <= 1e-8
    kinetic = res.dense.quad_du_squared()
    assert math.isclose(0.25 * kinetic, C_STEP, rel_tol=1e-8)


def test_shoot_dirichlet_monotone_negativity(step_weight):
    """On a negativity interval the connecting orbit stays one-signed and
    small in the middle (large mu pushes it down)."""
    mu = 1e4
    res = oracle.shoot_dirichlet(step_weight, mu, 1.0, 2.0, 0.4, 0.4,
                                 rtol=1e-10)
    assert abs(res.residual) <= 1e-8
    ts = np.linspace(1.0, 2.0, 201)
    u = res.dense.eval_u(ts)
    assert np.all(u > 0)
    assert u.min() < 0.05


def test_shoot_reports_failure(monkeypatch):
    """An unreachable right value must not loop forever."""
    w = weight.make_step_weight()
    monkeypatch.setattr(oracle, "_MAX_SHOTS", 8)
    with pytest.raises((NewtonFailure, BlowUp)):
        oracle.shoot_dirichlet(w, 1e6, 1.0, 2.0, 1e5, 1e5, rtol=1e-8)


def test_dense_output_eval_consistency(step_weight):
    st = oracle.IvpState(t=0.0, u=0.2, du=0.5)
    end, dense = oracle.integrate(step_weight, 1.0, st, 0.8, rtol=1e-10)
    assert math.isclose(dense.eval_u(0.8), end.u, rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(dense.eval_du(0.8), end.du, rel_tol=1e-10,
                        abs_tol=1e-12)
    # derivative of the interpolant matches a FD of eval_u
    t = 0.37
    h = 1e-6
    fd = (dense.eval_u(t + h) - dense.eval_u(t - h)) / (2 * h)
    assert math.isclose(fd, dense.eval_du(t), rel_tol=1e-7)


def _record_ode_solutions(monkeypatch):
    """Give every batch's steps scipy's own ``OdeSolution`` of them, built
    from one ``Dop853DenseOutput`` per recorded step."""
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput
    real = oracle._Steps.close

    def close(self, S):
        real(self, S)
        interps = []
        for t_old, h, F, y_old in zip(self.t_old, self.h, self.F,
                                      self.y_old):
            p = Dop853DenseOutput(t_old, t_old + h, y_old, F)
            p.h = h
            interps.append(p)
        self.reference = OdeSolution(S, interps)
    monkeypatch.setattr(oracle._Steps, "close", close)


def _ode_solution_at(dense, t, j):
    """Column j of a run read through scipy's OdeSolution of its batch."""
    s = (np.asarray(t, dtype=float) - dense._t_from) / dense._span
    v = dense._steps.reference(s)[dense._col + j]
    return -v if j % 2 and dense._span < 0 else v


def test_dense_output_equals_scipy_ode_solution(step_weight, monkeypatch):
    """eval_u and eval_du read DOP853's dense output as scipy's OdeSolution
    of the same batch does, bit for bit: at scalar and array t, inside, at
    and past the step times, on a forward run, a backward run across a knot
    and a run frozen where it blew up."""
    _record_ode_solutions(monkeypatch)
    monkeypatch.setattr(oracle, "_CAP", 10.0)
    runs = oracle._integrate_raw(step_weight, 1e3, [
        (0.0, 1.0, [0.3, 0.4, 0.0, 1.0]),
        (3.9, 2.3, [0.05, -0.1, 0.0, 1.0]),
        (1.0, 2.0, [0.4, 30.0, 0.0, 1.0])], 1e-10)
    assert [blew_up for _, _, blew_up in runs] == [False, False, True]
    for dense, _, _ in runs:
        ts = np.concatenate([np.linspace(dense.ts[0] - 0.1,
                                         dense.ts[-1] + 0.1, 513), dense.ts])
        for j, ev in ((0, dense.eval_u), (1, dense.eval_du)):
            assert np.array_equal(ev(ts), _ode_solution_at(dense, ts, j))
            for t in ts[::17]:
                got, ref = ev(t), _ode_solution_at(dense, t, j)
                assert got == ref and type(got) is type(ref)


def test_steps_choose_steps_like_ode_solution():
    """On random coefficients, where neighbouring steps disagree at their
    common time, each point still takes OdeSolution's step: the earlier one
    at a step time, and the end steps outside the range."""
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput
    rng = np.random.default_rng(7)
    S = np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, 6)])
    interps = [Dop853DenseOutput(a, b, rng.normal(size=3),
                                 rng.normal(size=(7, 3)))
               for a, b in zip(S[:-1], S[1:])]
    steps = oracle._Steps()
    for p in interps:
        steps.add(p.t_old, p.h, p.F, p.y_old)
    steps.close(S)
    ref = OdeSolution(S, interps)
    s = np.concatenate([S, rng.uniform(S[0] - 1.0, S[-1] + 1.0, 50)])
    for j in range(3):
        assert np.array_equal(steps.column(s, j), ref(s)[j])
        assert all(steps.column(x, j) == ref(x)[j] for x in s)


def _solve_ivp_dop853(rhs, t, t_bound, y, rtol, atol, max_step, first_step,
                      cap, cols, steps):
    """``oracle._dop853`` done by scipy's solve_ivp itself."""
    from scipy.integrate import solve_ivp

    def cap_hit(s, v):
        return cap - max([abs(v[j]) for j in cols])
    cap_hit.terminal = True
    sol = solve_ivp(rhs, (t, t_bound), y, method="DOP853", rtol=rtol,
                    atol=atol, max_step=max_step, first_step=first_step,
                    events=cap_hit, dense_output=True)
    for p in sol.sol.interpolants:
        steps.add(p.t_old, p.h, p.F, p.y_old)
    return list(sol.t), list(sol.y.T), sol.status


@pytest.mark.parametrize("max_step", [np.inf, 0.05])
def test_dop853_loop_equals_solve_ivp(step_weight, monkeypatch, max_step):
    """The loop takes solve_ivp's DOP853 steps bit for bit: the same step
    times, states, ends and dense-output coefficients, on a batch with a
    forward run, a backward run across a knot and a run that blows up,
    whose first piece starts from select_initial_step and whose later
    pieces and the restart after the blow-up start from a given step."""
    runs = [(0.0, 1.0, [0.3, 0.4, 0.0, 1.0]),
            (3.9, 2.3, [0.05, -0.1, 0.0, 1.0]),
            (1.0, 2.0, [0.4, 30.0, 0.0, 1.0])]
    calls = []
    real = oracle._dop853

    def spy(*args):
        calls.append(args[7])                 # first_step
        return real(*args)

    monkeypatch.setattr(oracle, "_CAP", 10.0)
    monkeypatch.setattr(oracle, "_MAX_STEP", max_step)
    monkeypatch.setattr(oracle, "_dop853", spy)
    got = oracle._integrate_raw(step_weight, 1e3, runs, 1e-10)
    monkeypatch.setattr(oracle, "_dop853", _solve_ivp_dop853)
    ref = oracle._integrate_raw(step_weight, 1e3, runs, 1e-10)
    assert calls[0] is None and len(calls) >= 3
    assert all(h is not None for h in calls[1:])
    assert [b for _, _, b in got] == [b for _, _, b in ref] == \
        [False, False, True]
    for (dense, end, _), (dense_ref, end_ref, _) in zip(got, ref):
        assert np.array_equal(dense.ts, dense_ref.ts)
        assert np.array_equal(dense.ys, dense_ref.ys)
        assert np.array_equal(end, end_ref)
    steps, steps_ref = got[0][0]._steps, ref[0][0]._steps
    for name in ("S", "t_old", "h", "F", "y_old"):
        assert np.array_equal(getattr(steps, name), getattr(steps_ref, name))


def test_ground_level_reads_like_ode_solution(step_weight, monkeypatch):
    """brute_ground_level on step is the same number read through scipy's
    OdeSolution."""
    got = oracle.brute_ground_level(step_weight)
    _record_ode_solutions(monkeypatch)
    monkeypatch.setattr(oracle.DenseOutput, "_at", _ode_solution_at)
    assert oracle.brute_ground_level(step_weight) == got


def test_tableau_is_scipys():
    """The tableau loaded from scipy's file is scipy's own, array for
    array."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(oracle._dop, name) == getattr(ref, name)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(oracle._dop, name), getattr(ref, name))


# the tolerances of DenseOutput.first_zero and of _dop853's cap event
_BRENT_TOLS = [(1e-15, 8.9e-16), (4 * oracle._EPS, 4 * oracle._EPS)]


def _brent_outcome(find):
    try:
        return find()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(-2.0, 2.0), left=st.floats(0.0, 3.0),
       right=st.floats(0.0, 3.0), c=st.lists(st.floats(-1.0, 1.0),
                                             min_size=3, max_size=3),
       flip=st.booleans(), tols=st.sampled_from(_BRENT_TOLS))
@example(r=0.5, left=0.0, right=1.0, c=[0.3, -0.2, 0.5], flip=False,
         tols=_BRENT_TOLS[0])
@example(r=0.5, left=1.0, right=0.0, c=[0.3, -0.2, 0.5], flip=True,
         tols=_BRENT_TOLS[1])
def test_brentq_is_scipys(r, left, right, c, flip, tols):
    """_brentq finds scipy's brentq root to the bit on smooth functions with
    one sign change at r, from either end, at both call sites' tolerances,
    also where the root is an end point; it raises scipy's errors for ends
    of one sign, a NaN value and too few iterations."""
    from scipy.optimize import brentq

    def f(x):
        return (x - r) * (2.5 + c[0] * math.sin(3.0 * x)
                          + c[1] * x * x / (1.0 + x * x)
                          + abs(c[2]) * (x - r) ** 2)

    a, b = r - left, r + right
    if flip:
        a, b = b, a
    xtol, rtol = tols
    for g, maxiter in [(f, 100), (lambda x: 1.0 + f(x) ** 2, 100),
                       (lambda x: f(x) if x in (a, b) else math.nan, 100),
                       (f, 1)]:
        with mock.patch.object(oracle, "_BRENT_ITER", maxiter):
            got = _brent_outcome(lambda: oracle._brentq(g, a, b, xtol, rtol))
        ref = _brent_outcome(lambda: brentq(g, a, b, xtol=xtol, rtol=rtol,
                                            maxiter=maxiter))
        assert got == ref


# below the absolute tolerance, a state's scaled norm d0 falls under 1e-5
_component = st.one_of(st.just(0.0), st.floats(-1e-20, 1e-20),
                       st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(y0=st.lists(_component, min_size=4, max_size=4),
       coef=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
       span=st.floats(0.01, 10.0), rtol=st.floats(1e-13, 1e-3),
       t0=st.floats(0.0, 0.9), length=st.floats(1e-9, 0.5),
       max_step=st.sampled_from([np.inf, 0.05, 1e-7]))
# d0 < 1e-5 (tiny state), and d1, d2 <= 1e-15 (zero state)
@example(y0=[1e-20, 1e-20, 0.0, 0.0], coef=3.0, span=1.0, rtol=1e-10,
         t0=0.0, length=0.5, max_step=np.inf)
@example(y0=[0.0, 0.0, 0.0, 0.0], coef=3.0, span=1.0, rtol=1e-10, t0=0.0,
         length=0.5, max_step=np.inf)
def test_initial_step_is_scipys(y0, coef, span, rtol, t0, length, max_step):
    """_initial_step is scipy's select_initial_step to the bit on the
    oracle's own right-hand side with sensitivity columns, across its
    branches."""
    from scipy.integrate._ivp.common import select_initial_step
    fun = oracle._rhs([oracle.piece_amu([coef], 0.0, 100.0)], [span], [0], 4)
    y0 = np.array(y0)
    f0 = np.asarray(fun(t0, y0), dtype=float)
    args = (fun, t0, y0, t0 + length, max_step, f0)
    got = oracle._initial_step(*args, rtol, rtol / 100)
    ref = select_initial_step(*args, 1.0, oracle._ERROR_ORDER, rtol,
                              rtol / 100)
    assert got == ref


def test_first_zero(step_weight):
    """u = lam w(lam t) with lam = T1/0.5 returns to zero at exactly 0.5."""
    lam = T1 / 0.5
    st = oracle.IvpState(t=0.0, u=0.0, du=lam ** 2)
    end, dense = oracle.integrate(step_weight, 1.0, st, 0.9, rtol=1e-12)
    z = dense.first_zero(after=1e-6)
    assert z is not None
    assert math.isclose(z, 0.5, rel_tol=1e-9)


def test_integrate_blowup_flag():
    """u'' = +u^3 from u = 1, u' = 1 escapes in finite time."""
    P = weight.Piece
    w = weight.build_weight(100.0, 1e-3, [P(0.0, 1e-3, "poly", (1.0,)),
                                          P(1e-3, 100.0, "poly", (-1.0,))])
    st0 = oracle.IvpState(t=1e-3, u=1.0, du=1.0)
    with pytest.raises(BlowUp):
        oracle.integrate(w, 1.0, st0, 50.0, rtol=1e-8)


def test_piece_amu_signs():
    # positive piece kept, negative piece scaled by mu
    assert oracle.piece_amu([2.0], 0.0, 30.0)(0.3) == 2.0
    assert oracle.piece_amu([-2.0], 0.0, 30.0)(0.3) == -60.0
    # linear piece changing sign inside: evaluation is pointwise
    lin = oracle.piece_amu([-1.0, 2.0], 0.0, 10.0)
    assert lin(1.0) == 1.0
    assert lin(0.25) == -5.0


def test_negative_piece_uses_mu(step_weight):
    """On the negativity interval the energy u'^2/2 - mu a- u^4/4 is the
    conserved one, so the integration really sees a_mu = -mu."""
    mu = 30.0
    st0 = oracle.IvpState(t=1.1, u=0.3, du=-0.2)
    _, dense = oracle.integrate(step_weight, mu, st0, 1.4, rtol=1e-11)
    ts = np.linspace(1.1, 1.4, 200)
    u, du = dense.eval_u(ts), dense.eval_du(ts)
    E = 0.5 * du ** 2 - 0.25 * mu * u ** 4
    scale = np.max(0.5 * du ** 2 + 0.25 * mu * u ** 4)
    assert np.max(np.abs(E - E[0])) < 1e-9 * scale


def test_integrate_is_deterministic(sine_weight):
    """Two identical runs, the variational pair (v, v') riding along as a
    shot's does, take the same steps and end in the same state."""
    runs = [oracle._integrate_raw(sine_weight, 100.0,
                                  [(0.2, 1.7, [0.3, 0.7, 0.0, 1.0])],
                                  1e-10)[0]
            for _ in range(2)]
    (d1, e1, b1), (d2, e2, b2) = runs
    assert d1.ys.shape[1] == 4
    assert np.array_equal(d1.ts, d2.ts)
    assert np.array_equal(d1.ys, d2.ys)
    assert np.array_equal(e1, e2) and not (b1 or b2)


def test_dense_ts_are_the_accepted_steps(step_weight, monkeypatch):
    """``ts`` runs strictly increasing from t0 to t1 with one entry per
    accepted step after t0; the benchmark's step count reads it."""
    steps = []
    real = oracle._dop853

    def counting(*args):
        ts, ys, status = real(*args)
        steps.append(len(ts) - 1)
        return ts, ys, status

    monkeypatch.setattr(oracle, "_dop853", counting)
    _, dense = oracle.integrate(step_weight, 1.0,
                                oracle.IvpState(t=0.3, u=0.1, du=0.1), 3.7)
    res = oracle.shoot_dirichlet(step_weight, 50.0, 1.0, 2.0, 0.4, 0.3)
    for d, t0, t1, n_calls in ((dense, 0.3, 3.7, 4), (res.dense, 1.0, 2.0, 1)):
        assert d.ts[0] == t0 and d.ts[-1] == t1
        assert np.all(np.diff(d.ts) > 0)
        assert len(d.ys) == len(d.ts)
    assert len(dense.ts) - 1 == sum(steps[:4])
    assert len(res.dense.ts) - 1 == steps[-1]


def _two_level_weight(tau, frac, lo, hi, nfrac, nlo, nhi):
    """a+ = lo, hi split at frac tau; a- = nlo, nhi split at nfrac."""
    tb, nb = frac * tau, tau + nfrac
    P = weight.Piece
    return weight.build_weight(tau + 1.0, tau, [
        P(0.0, tb, "poly", (lo,)), P(tb, tau, "poly", (hi,)),
        P(tau, nb, "poly", (-nlo,)), P(nb, tau + 1.0, "poly", (-nhi,))])


_level = st.floats(0.5, 2.0)
_datum = st.floats(0.05, 1.0)


def _assert_hits_and_conserves(w, mu, t0, t1, x, y, res):
    """The shot hits its data, and inside each constant piece the energy
    u'^2/2 + a_mu u^4/4 stays constant."""
    assert abs(res.residual) <= 1e-9
    assert res.dense.ts[0] == t0 and res.dense.ts[-1] == t1
    assert np.all(np.diff(res.dense.ts) > 0)
    assert abs(res.dense.eval_u(t0) - x) <= 1e-9
    assert abs(res.dense.eval_u(t1) - y) <= 1e-9
    # slope and every u' column are u' in t, whichever end the shot left from
    start = t1 if oracle.shoots_from_t1(x, y) else t0
    assert math.isclose(res.dense.eval_du(start), res.slope, rel_tol=1e-9,
                        abs_tol=1e-9)
    assert np.allclose(res.dense.eval_du(res.dense.ts), res.dense.ys[:, 1],
                       rtol=1e-9, atol=1e-9)
    knots = w.knots_in_span(t0, t1)
    tm, h = 0.5 * (knots[0] + knots[1]), 1e-6 * (knots[1] - knots[0])
    fd = (res.dense.eval_u(tm + h) - res.dense.eval_u(tm - h)) / (2 * h)
    assert math.isclose(fd, res.dense.eval_du(tm), rel_tol=1e-5, abs_tol=1e-6)
    for ta, tb in zip(knots[:-1], knots[1:]):
        amu = oracle.piece_amu(*w.segment_pack(ta, tb), mu)(0.5 * (ta + tb))
        ts = np.linspace(ta, tb, 101)
        u, du = res.dense.eval_u(ts), res.dense.eval_du(ts)
        E = 0.5 * du ** 2 + 0.25 * amu * u ** 4
        scale = np.max(0.5 * du ** 2 + 0.25 * abs(amu) * u ** 4)
        assert np.max(np.abs(E - E[0])) <= 1e-8 * scale


@settings(max_examples=8, deadline=None)
@given(tau=st.floats(0.5, 1.5), frac=st.floats(0.25, 0.75), lo=_level,
       hi=_level, nfrac=st.floats(0.25, 0.75), nlo=_level, nhi=_level,
       mu=st.floats(1.0, 1e3), x=_datum, y=_datum, negative=st.booleans())
# R(p) is not monotone on these positive intervals, and the chord start
# once failed on both: on the first the bracket repeated one midpoint, on the
# second Newton circled a maximum of R below zero
@example(tau=1.5, frac=0.5, lo=1.0, hi=2.0, nfrac=0.5, nlo=1.0, nhi=1.0,
         mu=1.0, x=0.6796875, y=1.0, negative=False)
@example(tau=1.171875, frac=0.375, lo=1.0, hi=1.5625, nfrac=0.5, nlo=1.0,
         nhi=1.0, mu=1.0, x=0.68359375, y=1.0, negative=False)
def test_shoot_two_level_property(tau, frac, lo, hi, nfrac, nlo, nhi, mu,
                                  x, y, negative):
    """Shooting hits the Dirichlet data and conserves the piecewise energy:
    from t1 (the smaller datum on the right), and in a batch with an interval
    of the other sign."""
    w = _two_level_weight(tau, frac, lo, hi, nfrac, nlo, nhi)
    spans = [(tau, tau + 1.0), (0.0, tau)]
    if not negative:
        spans.reverse()
    (t0, t1), other = spans
    big, small = max(x, y), min(x, y)
    assert oracle.shoots_from_t1(big, small) or big == small
    from_t1 = oracle.shoot_dirichlet(w, mu, t0, t1, big, small, rtol=1e-12)
    batch = oracle.shoot_batch(w, mu, [(t0, t1, x, y, None),
                                       (*other, x, y, None)], rtol=1e-12)
    for (a, b, u0, u1), res in zip(
            [(t0, t1, big, small), (t0, t1, x, y), (*other, x, y)],
            [from_t1, *batch]):
        _assert_hits_and_conserves(w, mu, a, b, u0, u1, res)


def test_blowup_stays_in_its_shot(step_weight, monkeypatch):
    """A shot that blows up in a batch is frozen there, and the other shot of
    the batch converges to its lone slope; _MAX_SHOTS still bounds each
    shot."""
    mu = 1e4
    with pytest.raises(BlowUp):
        oracle.integrate(step_weight, mu, oracle.IvpState(1.0, 0.4, 0.0), 2.0)
    well = (3.0, 4.0, 0.4, 0.05, 0.1678)
    lone = oracle.shoot_dirichlet(step_weight, mu, *well[:4], s0=well[4])
    wild, tame = oracle.shoot_batch(step_weight, mu,
                                    [(1.0, 2.0, 0.4, 0.4, 0.0), well])
    assert abs(wild.residual) <= 1e-9 and abs(tame.residual) <= 1e-9
    assert tame.iters < wild.iters
    assert math.isclose(tame.slope, lone.slope, rel_tol=1e-10)
    assert math.isclose(wild.slope, -11.3134, rel_tol=1e-5)
    monkeypatch.setattr(oracle, "_MAX_SHOTS", 5)
    with pytest.raises(NewtonFailure):
        oracle.shoot_batch(step_weight, mu, [(1.0, 2.0, 0.4, 0.4, 0.0), well])


def test_bracket_shrinks_where_R_falls():
    """Once R changes sign between two slopes, an attempt between them
    replaces the end of its sign, also where R falls as the slope grows (a
    positive interval); the bracket then shrinks instead of repeating its
    midpoint."""
    shot = oracle._Shot(0.0, 1.0, 0.0, 1.0, 5.0)

    def attempt(p, R):
        shot.p = p
        # far-end value 1 + R against the datum 1; no usable derivative
        assert not shot.update(None, [1.0 + R, 0.0, 0.0, 0.0], False)
        return shot.p

    attempt(5.0, -3.0)
    assert attempt(-9.0, 2.0) == -2.0
    assert attempt(-2.0, -2.3) == -5.5
    assert (shot.lo, shot.hi) == (-2.0, -9.0)
