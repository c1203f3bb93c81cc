import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from multibump import localfield, weight
from multibump.errors import (EdgeMassViolation, NoAdmissibleZeta,
                              SignStructureViolation, WeightError)


def test_step_weight_basic(step_weight):
    w = step_weight
    assert w.period == 2.0
    assert w.tau == 1.0
    assert w.sup_a_plus == 1.0
    ts = np.array([0.1, 0.9, 1.1, 1.9, 2.1, -0.5])
    vals = w.a_mu(1.0, ts)
    assert np.allclose(vals, [1, 1, -1, -1, 1, -1])
    # mu scales only the negative part
    vals = w.a_mu(25.0, ts)
    assert np.allclose(vals, [1, 1, -25, -25, 1, -25])


def test_sine_weight_values(sine_weight):
    w = sine_weight
    assert math.isclose(w.period, 2 * math.pi)
    assert math.isclose(w.tau, math.pi)
    ts = np.linspace(0.05, 2 * math.pi - 0.05, 40)
    vals = w.a_mu(1.0, ts)
    # piecewise-linear interpolation of sin on 256 panels: err <= h^2/8
    assert np.max(np.abs(vals - np.sin(ts))) < (2 * math.pi / 256) ** 2 / 8


def test_compute_r_closed_form(step_weight, sine_weight):
    # r = (32 sup(a+) tau^3)^(-1/2)
    assert math.isclose(weight.compute_r(step_weight), 0.5 / math.sqrt(8.0))
    assert math.isclose(weight.compute_r(sine_weight),
                        (32.0 * math.pi ** 3) ** -0.5)


def test_build_weight_rejects_bad_tilings():
    P = weight.Piece
    with pytest.raises(WeightError):
        weight.build_weight(2.0, 1.0, [P(0.0, 0.8, "poly", (1.0,)),
                                       P(1.0, 2.0, "poly", (-1.0,))])
    with pytest.raises(WeightError):
        weight.build_weight(2.0, 1.0, [P(0.2, 1.0, "poly", (1.0,)),
                                       P(1.0, 2.0, "poly", (-1.0,))])
    with pytest.raises(WeightError):
        weight.build_weight(2.0, 2.5, [P(0.0, 2.0, "poly", (1.0,))])


def test_build_weight_rejects_malformed_values():
    """Non-finite values and unpaired samples are input errors, not a
    numerical failure further down."""
    P = weight.Piece
    with pytest.raises(WeightError):
        weight.build_weight(2.0, 1.0, [P(0.0, 1.0, "poly", (math.nan,)),
                                       P(1.0, 2.0, "poly", (-1.0,))])
    with pytest.raises(WeightError):
        weight.build_weight(2.0, 1.0, [
            P(0.0, 1.0, "samples", ((0.0, 0.5, 1.0), (0.0, 1.0))),
            P(1.0, 2.0, "poly", (-1.0,))])


def test_build_weight_rejects_sign_violations():
    P = weight.Piece
    # negative mass inside the positivity interval
    with pytest.raises(SignStructureViolation):
        weight.build_weight(2.0, 1.0, [P(0.0, 1.0, "poly", (-0.5, 1.0)),
                                       P(1.0, 2.0, "poly", (-1.0,))])
    # positive value inside the negativity interval
    with pytest.raises(SignStructureViolation):
        weight.build_weight(2.0, 1.0, [P(0.0, 1.0, "poly", (1.0,)),
                                       P(1.0, 2.0, "poly", (0.5,))])


def test_build_weight_interior_extrema():
    """A quadratic's extremum between its ends sets sup a+, and a dip below
    zero that both ends miss is a sign violation."""
    P = weight.Piece
    w = weight.build_weight(2.0, 1.0, [P(0.0, 1.0, "poly", (1.0, 4.0, -4.0)),
                                       P(1.0, 2.0, "poly", (-1.0,))])
    assert w.sup_a_plus == 2.0          # 1 + 4t - 4t^2 at t = 1/2
    with pytest.raises(SignStructureViolation, match="dips to -2.500e-01"):
        weight.build_weight(2.0, 1.0, [P(0.0, 1.0, "poly", (1.0, -5.0, 5.0)),
                                       P(1.0, 2.0, "poly", (-1.0,))])


def test_build_weight_splits_a_piece_at_tau():
    """One cubic over [0, T] that changes sign at tau is cut there, and the
    half re-centred at tau evaluates as the uncut polynomial."""
    coefs = (1.0, -1.0, 1.0, -1.0)            # (1 - t)(1 + t^2)
    w = weight.build_weight(2.0, 1.0, [weight.Piece(0.0, 2.0, "poly", coefs)])
    assert list(w.seg_knots) == [0.0, 1.0, 2.0]
    assert list(w.seg_positive) == [True, False]
    ts = np.linspace(0.0, 2.0, 41)[:-1]
    want = np.polyval(coefs[::-1], ts)
    assert np.allclose(w._eval_raw(ts), want, rtol=0.0, atol=1e-14)
    assert np.allclose(w.a_mu(3.0, ts), np.where(want > 0, want, 3.0 * want),
                       rtol=0.0, atol=1e-13)


def test_build_weight_rejects_empty_edges():
    # a- vanishing on a band right after tau carries no edge mass
    P = weight.Piece
    with pytest.raises(EdgeMassViolation):
        weight.build_weight(2.0, 1.0, [
            P(0.0, 1.0, "poly", (1.0,)),
            P(1.0, 1.5, "poly", (0.0,)),
            P(1.5, 2.0, "poly", (-1.0,)),
        ])


def test_edge_double_integrals_step(step_weight):
    # int_tau^{tau+d} int_tau^s a-(t) dt ds = d^2/2 for a- = 1
    for d in (0.1, 0.25, 0.5):
        dl, dr = step_weight.edge_double_integrals(d)
        assert math.isclose(dl, d * d / 2.0, rel_tol=1e-12)
        assert math.isclose(dr, d * d / 2.0, rel_tol=1e-12)


@pytest.mark.parametrize("frac", [0.05, 0.2, 0.24])
def test_edge_double_integrals_sine(sine_weight, frac):
    """On sine, which has no closed form, the one-moment sums agree with the
    nested quadrature of the exact inner integral of a-, split at the
    knots."""
    w = sine_weight
    tau, T = w.tau, w.period
    d = frac * (T - tau)

    def nested(lo, hi, inner):
        knots = w.knots_in_span(lo, hi)
        return quad(inner, lo, hi, points=knots[1:-1], limit=4 * len(knots),
                    epsabs=0.0, epsrel=1e-13)[0]

    want = (nested(tau, tau + d, lambda t: w.integral_a_minus(t, tau + d)),
            nested(T - d, T, lambda t: w.integral_a_minus(T - d, t)))
    for got, ref in zip(w.edge_double_integrals(d), want):
        assert math.isclose(got, ref, rel_tol=1e-12)


def test_zeta_margin(step_weight, levels, consts):
    """The chosen boundary width satisfies the level gap with >= 10% slack."""
    assert consts.zeta_margin >= 0.10
    c_zeta = levels.pinned_level(consts.zeta)
    assert consts.c < c_zeta
    assert (c_zeta - consts.c) / c_zeta >= 0.10


def test_choose_zeta_raises_when_impossible(step_weight):
    class Stubbornly:
        # pinned level exploding like zeta^-3 defeats the halving search
        def ground_level(self):
            return 1.0

        def pinned_level(self, zeta):
            return zeta ** -3

    with pytest.raises(NoAdmissibleZeta):
        weight.choose_zeta(step_weight, Stubbornly())


def _reference_choose_zeta(w, levels):
    """Reference: the halving search with a pinned solve at every zeta."""
    c = levels.ground_level()
    zeta = (w.period - w.tau) / 4.0
    while zeta >= w.tau / 2.0:
        zeta /= 2.0
    for _ in range(60):
        c_zeta = levels.pinned_level(zeta)
        val = 2.0 * w.sup_a_plus * (c + c_zeta) * zeta ** 3
        if val <= weight.ZETA_MARGIN:
            return zeta, c_zeta, val
        zeta /= 2.0
    raise NoAdmissibleZeta("smallness condition not reachable by halving")


class _RecordingLevels:
    """LevelEvaluator that records (zeta, c_zeta) of every pinned solve."""

    def __init__(self, w, mesh):
        self.ev = localfield.LevelEvaluator(w, mesh)
        self.pinned = []

    def ground_level(self):
        return self.ev.ground_level()

    def pinned_level(self, zeta):
        c_zeta = self.ev.pinned_level(zeta)
        self.pinned.append((zeta, c_zeta))
        return c_zeta


@settings(max_examples=25, deadline=None)
@given(tau=st.floats(0.5, 1.5), frac=st.floats(0.25, 0.75),
       lo=st.floats(0.5, 2.0), hi=st.floats(0.5, 2.0),
       neg=st.floats(0.1, 2.0))
# the first zeta, 0.05, is accepted
@example(tau=1.5, frac=0.5, lo=1.0, hi=1.0, neg=0.2)
# the first zeta, 0.25, is rejected by the floor, as on step
@example(tau=1.0, frac=0.5, lo=1.0, hi=1.0, neg=1.0)
def test_choose_zeta_skips_only_failing_zetas(tau, frac, lo, hi, neg):
    """choose_zeta returns what the halving search with a pinned solve at
    every zeta returns, and solves no zeta that the closed-form floor of
    the pinned level rejects."""
    w = weight.build_weight(tau + neg, tau, [
        weight.Piece(0.0, frac * tau, "poly", (lo,)),
        weight.Piece(frac * tau, tau, "poly", (hi,)),
        weight.Piece(tau, tau + neg, "poly", (-1.0,)),
    ])
    ref_levels, levels = _RecordingLevels(w, 100), _RecordingLevels(w, 100)
    ref = _reference_choose_zeta(w, ref_levels)
    assert weight.choose_zeta(w, levels) == ref
    c = levels.ground_level()

    def rejected(zeta):
        floor = weight.pinned_level_floor(w, zeta)
        return 2.0 * w.sup_a_plus * (c + floor) * zeta ** 3 \
            > 1.01 * weight.ZETA_MARGIN

    assert levels.pinned == [p for p in ref_levels.pinned
                             if not rejected(p[0])]
    for zeta, c_zeta in ref_levels.pinned:
        assert weight.pinned_level_floor(w, zeta) <= 1.01 * c_zeta


def test_pinned_level_floor_is_the_step_edge_level(step_weight):
    """With a+ = 1 the floor is the closed-form ground level of the edge
    interval [0, 1 - zeta], which the FEM pinned level approaches."""
    c_zeta = localfield.pinned_zero_detail(step_weight, 0.125, 1600).c_zeta
    floor = weight.pinned_level_floor(step_weight, 0.125)
    assert floor <= c_zeta
    assert math.isclose(floor, c_zeta, rel_tol=1e-5)


def test_choose_zeta_floor_has_one_percent_slack(step_weight, monkeypatch):
    """The floor skips the first zeta, 0.25, only when its value beats the
    margin by more than 1%."""

    class Stub:
        def __init__(self):
            self.pinned = []

        def ground_level(self):
            return 15.0

        def pinned_level(self, zeta):
            self.pinned.append(zeta)
            return 0.0

    floor = 2.0 * (15.0 + weight.pinned_level_floor(step_weight, 0.25)) \
        * 0.25 ** 3
    for margin, first in ((floor / 1.005, 0.25), (floor / 1.015, 0.125)):
        stub = Stub()
        monkeypatch.setattr(weight, "ZETA_MARGIN", margin)
        weight.choose_zeta(step_weight, stub)
        assert stub.pinned == [first]


def test_constant_pack_contents(step_weight, consts):
    assert math.isclose(consts.r ** 2, 1.0 / 32.0)
    assert consts.rho > 0
    assert consts.K > 0
    # rho covers the attained connecting slope bound with room
    assert consts.rho >= consts.rho_attained


@pytest.mark.parametrize("K", [0.0, -1.0, float("nan")])
def test_constant_pack_rejects_non_positive_cap(step_weight, levels, K):
    """C3 asks |u| < K, which no solution meets when K <= 0."""
    with pytest.raises(WeightError):
        weight.build_constant_pack(step_weight, levels, K=K)


def test_roundtrip_json(tmp_path, step_weight, sine_weight):
    for w in (step_weight, sine_weight):
        path = tmp_path / "w.json"
        weight.save_weight_json(w, path)
        back = weight.load_weight_json(path)
        assert back.period == w.period
        assert back.tau == w.tau
        ts = np.linspace(0, w.period, 257)
        assert np.allclose(back.a_mu(7.0, ts), w.a_mu(7.0, ts), atol=1e-14)


def test_weight_dict_is_plain_json(step_weight):
    blob = json.dumps(weight.weight_to_dict(step_weight))
    assert "poly" in blob
