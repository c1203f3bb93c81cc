"""Shooting oracle: frozen reference constants and convergence behavior.

The autonomous normal form w'' + w^3 = 0 with w(0) = 0, w'(0) = 1 has a
closed-form first-return time and kinetic integral in terms of Gamma
functions (energy w'^2/2 + w^4/4 = 1/2 reduces both to Beta integrals):

    t1 = 2^(1/4) Gamma(1/4)^2 / (2 sqrt(2 pi))
    I1 = 2^(-3/4) Gamma(1/4) Gamma(3/2) / Gamma(7/4)

Everything else scales out of these two numbers for constant weights.
"""

import math

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
    t1, i1 = oracle._constant_first_return()
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


def test_hamiltonian_conservation(step_weight, monkeypatch):
    """Inside one smooth piece the energy u'^2/2 + a u^4/4 is conserved."""
    monkeypatch.setattr(oracle, "RTOL", 1e-11)
    st = oracle.IvpState(t=0.1, u=0.4, du=1.3)
    end, dense = oracle.integrate(step_weight, 1.0, st, 0.9)
    ts = np.linspace(0.1, 0.9, 500)
    u = dense.eval_u(ts)
    du = dense.eval_du(ts)
    E = 0.5 * du ** 2 + 0.25 * u ** 4
    assert np.max(np.abs(E - E[0])) < 1e-9 * max(1.0, E[0])


def test_integrate_order(monkeypatch):
    """With the series cut at order N, the error falls like h^(N-1) in u'
    (the series of u' ends at N - 1).  Each constant piece of length h is
    one step: at RTOL 0.5 the step rule never binds."""
    P = weight.Piece

    def pieces(n):
        return weight.build_weight(2.0, 1.0, [
            *(P(i / n, (i + 1) / n, "poly", (1.0,)) for i in range(n)),
            P(1.0, 2.0, "poly", (-1.0,))])

    st = oracle.IvpState(t=0.0, u=0.5, du=1.0)
    monkeypatch.setattr(oracle, "RTOL", 1e-13)
    ref, _ = oracle.integrate(pieces(1), 1.0, st, 1.0)
    monkeypatch.setattr(oracle, "RTOL", 0.5)
    ns = (4, 8, 16)
    for order in (4, 6, 8):
        monkeypatch.setattr(oracle, "_ORDER", order)
        errs = []
        for n in ns:
            end, dense = oracle.integrate(pieces(n), 1.0, st, 1.0)
            assert len(dense.ts) - 1 == n
            errs.append(abs(end.du - ref.du))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope - (order - 1)) < 0.4


def test_blowup_raises(step_weight, monkeypatch):
    monkeypatch.setattr(oracle, "_CAP", 1e5)
    st = oracle.IvpState(t=1.05, u=2.0, du=0.0)
    with pytest.raises(BlowUp):
        oracle.integrate(step_weight, 1e4, st, 1.95)


def test_shoot_symmetric_chord(step_weight, monkeypatch):
    monkeypatch.setattr(oracle, "RTOL", 1e-11)
    res = oracle.shoot_dirichlet(step_weight, 0.0, 0.0, 1.0, 0.3, 0.3)
    assert abs(res.residual) <= 1e-9
    # symmetric data on a sign-definite interval: u'(mid) = 0
    mid_du = res.dense.eval_du(0.5)
    assert abs(mid_du) < 1e-8


def test_shoot_recovers_ground_bump(step_weight, monkeypatch):
    """Dirichlet shooting from 0 to 0 with a positive hump hits the ground
    level (1/4) int u'^2 = c."""
    monkeypatch.setattr(oracle, "RTOL", 1e-11)
    # u = lam w(lam t) with lam = T1 returns to zero at t = 1, so the exact
    # slope is u'(0) = lam^2; start close but not on it
    res = oracle.shoot_dirichlet(step_weight, 0.0, 0.0, 1.0, 0.0, 0.0,
                                 s0=0.9 * T1 ** 2)
    assert abs(res.residual) <= 1e-8
    kinetic = res.dense.quad_du_squared()
    assert math.isclose(0.25 * kinetic, C_STEP, rel_tol=1e-8)


def test_shoot_dirichlet_monotone_negativity(step_weight):
    """On a negativity interval the connecting orbit stays one-signed and
    small in the middle (large mu pushes it down)."""
    mu = 1e4
    res = oracle.shoot_dirichlet(step_weight, mu, 1.0, 2.0, 0.4, 0.4)
    assert abs(res.residual) <= 1e-8
    ts = np.linspace(1.0, 2.0, 201)
    u = res.dense.eval_u(ts)
    assert np.all(u > 0)
    assert u.min() < 0.05


def test_shoot_reports_failure(monkeypatch):
    """An unreachable right value must not loop forever."""
    w = weight.make_step_weight()
    monkeypatch.setattr(oracle, "_MAX_SHOTS", 8)
    monkeypatch.setattr(oracle, "RTOL", 1e-8)
    with pytest.raises((NewtonFailure, BlowUp)):
        oracle.shoot_dirichlet(w, 1e6, 1.0, 2.0, 1e5, 1e5)


def test_dense_output_eval_consistency(step_weight):
    st = oracle.IvpState(t=0.0, u=0.2, du=0.5)
    end, dense = oracle.integrate(step_weight, 1.0, st, 0.8)
    assert math.isclose(dense.eval_u(0.8), end.u, rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(dense.eval_du(0.8), end.du, rel_tol=1e-10,
                        abs_tol=1e-12)
    # derivative of the interpolant matches a FD of eval_u
    t = 0.37
    h = 1e-6
    fd = (dense.eval_u(t + h) - dense.eval_u(t - h)) / (2 * h)
    assert math.isclose(fd, dense.eval_du(t), rel_tol=1e-7)


def test_first_zero(step_weight):
    """u = lam w(lam t) with lam = T1/0.5 returns to zero at exactly 0.5."""
    lam = T1 / 0.5
    st = oracle.IvpState(t=0.0, u=0.0, du=lam ** 2)
    end, dense = oracle.integrate(step_weight, 1.0, st, 0.9)
    z = dense.first_zero(after=1e-6)
    assert z is not None
    assert math.isclose(z, 0.5, rel_tol=1e-9)


def test_integrate_blowup_flag(monkeypatch):
    """u'' = +u^3 from u = 1, u' = 1 escapes in finite time."""
    monkeypatch.setattr(oracle, "RTOL", 1e-8)
    P = weight.Piece
    w = weight.build_weight(100.0, 1e-3, [P(0.0, 1e-3, "poly", (1.0,)),
                                          P(1e-3, 100.0, "poly", (-1.0,))])
    st0 = oracle.IvpState(t=1e-3, u=1.0, du=1.0)
    with pytest.raises(BlowUp):
        oracle.integrate(w, 1.0, st0, 50.0)


def test_negative_piece_uses_mu(step_weight, monkeypatch):
    """On the negativity interval the energy u'^2/2 - mu a- u^4/4 is the
    conserved one, so the integration really sees a_mu = -mu."""
    monkeypatch.setattr(oracle, "RTOL", 1e-11)
    mu = 30.0
    st0 = oracle.IvpState(t=1.1, u=0.3, du=-0.2)
    _, dense = oracle.integrate(step_weight, mu, st0, 1.4)
    ts = np.linspace(1.1, 1.4, 200)
    u, du = dense.eval_u(ts), dense.eval_du(ts)
    E = 0.5 * du ** 2 - 0.25 * mu * u ** 4
    scale = np.max(0.5 * du ** 2 + 0.25 * mu * u ** 4)
    assert np.max(np.abs(E - E[0])) < 1e-9 * scale


def test_integrate_is_deterministic(sine_weight):
    """Two identical runs, the variational pair (v, v') riding along as a
    shot's does, take the same steps and end in the same state."""
    runs = [oracle._integrate_raw(sine_weight, 100.0,
                                  [(0.2, 1.7, [0.3, 0.7, 0.0, 1.0])])[0]
            for _ in range(2)]
    (d1, e1, b1), (d2, e2, b2) = runs
    assert d1.ys.shape[1] == 4
    assert np.array_equal(d1.ts, d2.ts)
    assert np.array_equal(d1.ys, d2.ys)
    assert np.array_equal(e1, e2) and not (b1 or b2)


def test_dense_ts_are_the_accepted_steps(step_weight, monkeypatch):
    """``ts`` runs strictly increasing from t0 to t1 with one entry per
    Taylor step after t0; the benchmark's step count reads it."""
    steps = []
    real_raw, real_step = oracle._integrate_raw, oracle._step

    def counting_raw(*args):
        steps.append(0)
        return real_raw(*args)

    def counting_step(*args):
        steps[-1] += 1
        return real_step(*args)

    monkeypatch.setattr(oracle, "_integrate_raw", counting_raw)
    monkeypatch.setattr(oracle, "_step", counting_step)
    _, dense = oracle.integrate(step_weight, 1.0,
                                oracle.IvpState(t=0.3, u=0.1, du=0.1), 3.7)
    res = oracle.shoot_dirichlet(step_weight, 50.0, 1.0, 2.0, 0.4, 0.3)
    for d, t0, t1 in ((dense, 0.3, 3.7), (res.dense, 1.0, 2.0)):
        assert d.ts[0] == t0 and d.ts[-1] == t1
        assert np.all(np.diff(d.ts) > 0)
        assert len(d.ys) == len(d.ts)
    # [0.3, 3.7] holds four pieces of the weight, each at least one step
    assert len(dense.ts) - 1 == steps[0] >= 4
    assert len(res.dense.ts) - 1 == steps[-1]


def _reference(w, mu, t_from, t_to, y0):
    """scipy's solve_ivp(method="DOP853") on the same run, restarted at
    every weight knot: (the state at t_to, and the state at any t)."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        a = float(w.a_mu(mu, t)[0])
        out = [y[1], -a * y[0] ** 3]
        if len(y) == 4:
            out += [y[3], -3.0 * a * y[0] ** 2 * y[2]]
        return out

    sign = math.copysign(1.0, t_to - t_from)
    y = np.array(y0, dtype=float)
    y[1::2] *= sign                     # derivatives in t
    # scipy's DOP853 error norm divides 0 by 0 when its scaled errors square
    # to subnormals (u near 1e-59 with u' = 0 does it); an entry below 1e-30
    # moves the solution by far less than the 1e-10 asked for, so it is 0
    y[np.abs(y) < 1e-30] = 0.0
    # a knot within 1e-9 of the one before it bounds no piece solve_ivp can
    # start on (its first step would divide by the piece's length)
    knots = w.knots_in_span(*sorted((t_from, t_to)))
    knots = knots[np.concatenate(([True], np.diff(knots) > 1e-9))]
    knots[-1] = max(t_from, t_to)
    knots = knots[::int(sign)]
    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        pieces.append((min(a, b), max(a, b), sol.sol))
        y = sol.y[:, -1]

    def at(t):
        for lo, hi, f in pieces:
            if lo <= t <= hi:
                return f(t)
    return y, at


_WEIGHTS = {"step": weight.make_step_weight,
            "sine": weight.make_sine_weight,
            "two-level": lambda: _two_level_weight(1.0, 0.4, 1.0, 2.0, 0.6,
                                                   1.0, 1.5)}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_WEIGHTS)), t0=st.floats(-1.0, 4.0),
       length=st.floats(0.05, 1.5), mu=st.floats(1.0, 10.0),
       y0=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
       sens=st.booleans(), xs=st.lists(st.floats(0.0, 1.0), min_size=8,
                                       max_size=8))
# a start a denormal away from the knot at 0
@example(name="step", t0=-2.2250738585072014e-308, length=1.0, mu=1.0,
         y0=[0.0, 0.0, 0.0, 0.5], sens=False, xs=[0.0] * 8)
# a backward run whose state is a lone tiny u
@example(name="step", t0=0.0, length=1.0, mu=2.0,
         y0=[0.0, 0.0, 1.5557644255828464e-59, 0.0], sens=False,
         xs=[0.0] * 8)
def test_matches_scipy_dop853(name, t0, length, mu, y0, sens, xs):
    """A batch of a forward and a backward run across the same span agrees
    with scipy's DOP853 at rtol 1e-13 to 1e-10 of each column's size, at
    the end and in the dense output at random t: on the step, sine and
    two-level weights, with and without the variational pair (v, v')."""
    w = _WEIGHTS[name]()
    m = 4 if sens else 2
    fwd = [y0[0], y0[1], 0.0, 1.0][:m]
    bwd = [y0[2], y0[3], 0.0, 1.0][:m]
    runs = [(t0, t0 + length, fwd), (t0 + length, t0, bwd)]
    got = oracle._integrate_raw(w, mu, runs)
    for (t_from, t_to, y), (dense, end, blew_up) in zip(runs, got):
        assert not blew_up
        ref_end, ref_at = _reference(w, mu, t_from, t_to, y)
        ref_end[1::2] *= math.copysign(1.0, t_to - t_from)
        size = np.maximum(1.0, np.abs(dense.ys).max(axis=0))
        assert np.all(np.abs(end - ref_end) <= 1e-10 * size)
        for x in xs:
            t = t0 + x * length
            ref = ref_at(t)
            assert abs(dense.eval_u(t) - ref[0]) <= 1e-10 * size[0]
            assert abs(dense.eval_du(t) - ref[1]) <= 1e-10 * size[1]


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
        amu = float(w.a_mu(mu, 0.5 * (ta + tb))[0])
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
    from_t1 = oracle.shoot_dirichlet(w, mu, t0, t1, big, small)
    batch = oracle.shoot_batch(w, mu, [(t0, t1, x, y, None),
                                       (*other, x, y, None)])
    for (a, b, u0, u1), res in zip(
            [(t0, t1, big, small), (t0, t1, x, y), (*other, x, y)],
            [from_t1, *batch]):
        _assert_hits_and_conserves(w, mu, a, b, u0, u1, res)


def test_blowup_stays_in_its_shot(step_weight, monkeypatch):
    """A shot that blows up in a batch leaves the batch's integration there,
    and the other shot of the batch converges to its lone slope; _MAX_SHOTS
    still bounds each shot."""
    mu = 1e4
    with pytest.raises(BlowUp):
        oracle.integrate(step_weight, mu, oracle.IvpState(1.0, 0.4, 0.0), 2.0)
    well = (3.0, 4.0, 0.4, 0.05, 0.1678)
    lone = oracle.shoot_dirichlet(step_weight, mu, *well[:4], s0=well[4])
    wild, tame = oracle.shoot_batch(step_weight, mu,
                                    [(1.0, 2.0, 0.4, 0.4, 0.0), well])
    assert abs(wild.residual) <= 1e-9 and abs(tame.residual) <= 1e-9
    assert tame.iters < wild.iters
    assert tame.slope == lone.slope
    assert math.isclose(wild.slope, -11.3134, rel_tol=1e-5)
    monkeypatch.setattr(oracle, "_MAX_SHOTS", 5)
    with pytest.raises(NewtonFailure):
        oracle.shoot_batch(step_weight, mu, [(1.0, 2.0, 0.4, 0.4, 0.0), well])


def _assert_same_result(got, want, t0, t1):
    """Two ShootResults agree bit for bit, dense output included."""
    assert (got.slope, got.residual, got.iters) == \
        (want.slope, want.residual, want.iters)
    assert np.array_equal(got.dense.ts, want.dense.ts)
    assert np.array_equal(got.dense.ys, want.dense.ys)
    nodes = np.linspace(t0, t1, 33)
    assert np.array_equal(got.dense.eval_u(nodes), want.dense.eval_u(nodes))


def test_blowup_partner_moves_no_bit(step_weight):
    """At oracle.RTOL, a shot that blows up on its first attempts and a tame
    shot converge in one batch, each as it does alone (29 and 4 attempts).
    While the batch stepped its runs together, on the union of their knots
    and at the smallest of their steps, the tame shot's residual stalled at
    1.24e-9 against 1e-9 here, and the batch raised NewtonFailure."""
    problems = [(1.0, 2.0, 0.4, 0.4, 0.0), (3.0, 4.0, 0.4, 0.05, 0.1678)]
    batch = oracle.shoot_batch(step_weight, 1e4, problems)
    assert [res.iters for res in batch] == [29, 4]
    for (t0, t1, x, y, s0), res in zip(problems, batch):
        lone = oracle.shoot_dirichlet(step_weight, 1e4, t0, t1, x, y, s0=s0)
        _assert_same_result(res, lone, t0, t1)


def _lone_runs_spy(monkeypatch, seen):
    """Wrap oracle._integrate_raw so that every run of every batch is
    checked against its lone integration; seen collects blew_up flags."""
    real = oracle._integrate_raw

    def spy(w, mu, runs):
        out = real(w, mu, runs)
        for run, (dense, end, blew_up) in zip(runs, out):
            ((d1, e1, b1),) = real(w, mu, [run])
            assert np.array_equal(dense.ts, d1.ts)
            assert np.array_equal(dense.ys, d1.ys)
            assert np.array_equal(end, e1) and blew_up == b1
            ts = np.linspace(d1.ts[0], d1.ts[-1], 17)
            assert np.array_equal(dense.eval_u(ts), d1.eval_u(ts))
            assert np.array_equal(dense.eval_du(ts), d1.eval_du(ts))
            seen.append(blew_up)
        return out

    monkeypatch.setattr(oracle, "_integrate_raw", spy)


@settings(max_examples=6, deadline=None)
@given(tau=st.floats(0.5, 1.5), frac=st.floats(0.25, 0.75), lo=_level,
       hi=_level, nfrac=st.floats(0.25, 0.75), nlo=_level, nhi=_level,
       mu=st.floats(1e2, 1e3),
       data=st.lists(st.tuples(st.booleans(), _datum, _datum), min_size=1,
                     max_size=2),
       shuffle=st.randoms(use_true_random=False))
def test_batch_runs_equal_lone_runs(tau, frac, lo, hi, nfrac, nlo, nhi, mu,
                                    data, shuffle):
    """A batch is a vectorisation only: every shoot_batch result is its lone
    shoot_dirichlet bit for bit, and every run of every batched integration
    is its lone integration, whatever its partners, one of which blows up
    (u = 1 at rest on the negativity interval)."""
    w = _two_level_weight(tau, frac, lo, hi, nfrac, nlo, nhi)
    spans = [(0.0, tau), (tau, tau + 1.0)]
    problems = [(*spans[neg], x, y, None) for neg, x, y in data]
    problems.append((tau, tau + 1.0, 1.0, 1.0, 0.0))
    shuffle.shuffle(problems)
    lone = []
    for t0, t1, x, y, s0 in problems:
        try:
            lone.append(oracle.shoot_dirichlet(w, mu, t0, t1, x, y, s0=s0))
        except NewtonFailure:
            lone.append(None)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        _lone_runs_spy(mp, seen)
        if None in lone:
            with pytest.raises(NewtonFailure):
                oracle.shoot_batch(w, mu, problems)
        else:
            batch = oracle.shoot_batch(w, mu, problems)
            for (t0, t1, *_), got, want in zip(problems, batch, lone):
                _assert_same_result(got, want, t0, t1)
    assert any(seen)


def test_bracket_shrinks_where_R_falls():
    """Once R changes sign between two trials, a trial between them
    replaces the end of its sign, also where R falls as p grows (a shot on
    a positive interval); the bracket then shrinks instead of repeating its
    midpoint."""
    root = oracle._Root(5.0, 1e-9)

    def attempt(p, R):
        root.p = p
        # no usable derivative
        assert not root.update(R)
        return root.p

    attempt(5.0, -3.0)
    assert attempt(-9.0, 2.0) == -2.0
    assert attempt(-2.0, -2.3) == -5.5
    assert (root.lo, root.hi) == (-2.0, -9.0)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(-10.0, 10.0), m=st.floats(-10.0, 10.0),
       q=st.floats(0.01, 10.0), k=st.sampled_from([-1.0, 1.0]),
       start=st.floats(-20.0, 20.0), newton=st.booleans(),
       bracket=st.booleans())
def test_root_converges_inside_its_bracket(r, m, q, k, start, newton,
                                           bracket):
    """On a cubic R = k (p - r)((p - m)^2 + q), whose one real root is r,
    _Root reaches |R| <= tol from any start, with or without dR, handed a
    bracket or not, and rising or falling; every trial once the bracket has
    formed lies strictly inside it.  As a shot does, the caller goes on
    after a round-off stop that leaves |R| > tol."""
    def R(p):
        return k * (p - r) * ((p - m) ** 2 + q)

    def dR(p):
        return k * (((p - m) ** 2 + q) + 2.0 * (p - r) * (p - m))

    tol = 1e-9
    lo, hi = (r - 10.0, r + 17.0) if bracket else (None, None)
    if k < 0.0:
        lo, hi = hi, lo
    if bracket:
        start = min(max(start, r - 9.0), r + 16.0)
    root = oracle._Root(start, tol, lo, hi)
    for _ in range(200):
        p = root.p
        if root.lo is not None and root.hi is not None:
            assert min(root.lo, root.hi) < p < max(root.lo, root.hi)
        value = R(p)
        done = root.update(value, dR(p) if newton else None)
        if abs(value) <= tol:
            assert done and root.p == p
            break
    else:
        pytest.fail("no root in 200 updates")

