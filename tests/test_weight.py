import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from multibump import cli, localfield, weight
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
    assert np.allclose(w._eval_raw(ts)[0], want, rtol=0.0, atol=1e-14)
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


def test_edge_mass_is_measured_from_its_sign_change():
    """A faint band of a- next to either sign change holds edge mass when
    its level is 1.25e-14 of the weight's scale and none at 0.8e-14: each
    edge span is summed from its own sign change, so the rest of the
    negative mass does not round it away (at the threshold's j = 8 a span
    is about 5e-17 of the scale, below one ulp of that mass)."""
    P, rng = weight.Piece, np.random.default_rng(5)
    for big, cut in zip(rng.uniform(0.3, 3.0, 20), rng.uniform(1.3, 1.7, 20)):
        for faint, refused in ((1.25e-14, False), (0.8e-14, True)):
            near_T = [P(1.0, cut, "poly", (-big,)),
                      P(cut, 2.0, "poly", (-faint * big,))]
            near_tau = [P(1.0, cut, "poly", (-faint * big,)),
                        P(cut, 2.0, "poly", (-big,))]
            for neg in (near_T, near_tau):
                pieces = [P(0.0, 1.0, "poly", (big,))] + neg
                if refused:
                    with pytest.raises(EdgeMassViolation):
                        weight.build_weight(2.0, 1.0, pieces)
                else:
                    weight.build_weight(2.0, 1.0, pieces)


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

    def a_minus_over(x, y):
        return w.primitive(y)[1] - w.primitive(x)[1]

    want = (nested(tau, tau + d, lambda t: a_minus_over(t, tau + d)),
            nested(T - d, T, lambda t: a_minus_over(T - d, t)))
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

    def __init__(self, w):
        self.ev = localfield.LevelEvaluator(w)
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
    ref_levels, levels = _RecordingLevels(w), _RecordingLevels(w)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(localfield, "default_cells", lambda w: 100)
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


def test_pinned_level_floor_is_the_step_edge_level(step_weight, level_mesh):
    """With a+ = 1 the floor is the closed-form ground level of the edge
    interval [0, 1 - zeta], which the FEM pinned level approaches."""
    level_mesh(1600)
    c_zeta = localfield.pinned_zero_detail(step_weight, 0.125).c_zeta
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


def _pieces(*pieces):
    """A weight file's dict on T = 2, tau = 1 from (t0, t1, kind, data)."""
    return {"T": 2.0, "tau": 1.0,
            "pieces": [{"t0": t0, "t1": t1, "kind": kind, "data": data}
                       for t0, t1, kind, data in pieces]}


_NEG = (1.0, 2.0, "poly", [-1.0])

_BAD_WEIGHT_FILES = {
    "samples-not-increasing": (
        _pieces((0.0, 1.0, "samples", {"t": [0.0, 0.6, 0.5, 1.0],
                                       "v": [0.0, 1.0, 1.0, 0.0]}), _NEG),
        "strictly increasing"),
    "samples-short-of-piece": (
        _pieces((0.0, 1.0, "samples", {"t": [0.0, 0.5, 0.9],
                                       "v": [0.0, 1.0, 0.0]}), _NEG),
        "cover the piece exactly"),
    "unknown-kind": (
        _pieces((0.0, 1.0, "spline", [1.0]), _NEG), "unknown piece kind"),
    "ends-before-T": (
        _pieces((0.0, 1.0, "poly", [1.0]), (1.0, 1.8, "poly", [-1.0])),
        "must end at t = T"),
    "a-plus-zero": (
        _pieces((0.0, 1.0, "poly", [0.0]), _NEG),
        r"vanishes identically on \[0, tau\]"),
    "a-minus-zero": (
        _pieces((0.0, 1.0, "poly", [1.0]), (1.0, 2.0, "poly", [0.0])),
        r"vanishes identically on \[tau, T\]"),
    # a samples piece holds {"t": [...], "v": [...]}, not (t, v) pairs
    "sample-pairs": (
        _pieces((0.0, 1.0, "samples", [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]),
                _NEG),
        "malformed weight"),
}


@pytest.mark.parametrize("case", sorted(_BAD_WEIGHT_FILES))
def test_weight_file_refusals(case):
    spec, message = _BAD_WEIGHT_FILES[case]
    with pytest.raises(WeightError, match=message):
        weight.weight_from_dict(spec)


def test_weight_file_refusal_exits_2(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(_BAD_WEIGHT_FILES["sample-pairs"][0]))
    out = tmp_path / "out"
    assert cli.main(["local", "--weight", str(path),
                     "--outdir", str(out)]) == 2
    assert "malformed weight" in (out / "FAILED").read_text()


# -- the array build against the per-segment loops it replaced -----------------
#
# Kept as the reference: build_weight as it was, one segment at a time, with
# its one change, the tau rule (a segment end within knot_tol of tau is tau,
# and a segment across tau is cut there), and the knot tolerance in place of
# the tiling's 1e-12 T.


def _ref_expand(piece):
    if piece.kind == "poly":
        return [(piece.t0, piece.t1, np.asarray(piece.data, dtype=float))]
    if piece.kind != "samples":
        raise WeightError(f"unknown piece kind {piece.kind!r}")
    ts = np.asarray(piece.data[0], dtype=float)
    vs = np.asarray(piece.data[1], dtype=float)
    if len(ts) != len(vs) or len(ts) < 2 or np.any(np.diff(ts) <= 0) or \
            not (math.isclose(ts[0], piece.t0)
                 and math.isclose(ts[-1], piece.t1)):
        raise WeightError("bad samples")
    return [(ts[i], ts[i + 1],
             np.array([vs[i], (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])]))
            for i in range(len(ts) - 1)]


def _ref_extrema(coefs, length):
    cands = [0.0, length]
    if len(coefs) > 2:
        dc = np.array([i * coefs[i] for i in range(1, len(coefs))])
        for r in np.roots(dc[::-1]):
            if abs(r.imag) < 1e-12 and 0.0 < r.real < length:
                cands.append(r.real)
    vals = [float(np.polyval(coefs[::-1], s)) for s in cands]
    return min(vals), max(vals)


_LOCATED = {
    "step": weight.make_step_weight(),
    "sine": weight.make_sine_weight(),
    "two_level": weight.build_weight(2.2, 1.0, [
        weight.Piece(0.0, 0.4, "poly", (1.0,)),
        weight.Piece(0.4, 1.0, "poly", (2.0,)),
        weight.Piece(1.0, 1.5, "poly", (-1.0,)),
        weight.Piece(1.5, 2.2, "poly", (-2.0,))]),
}


@st.composite
def _located_times(draw, w):
    """Times in [-3T, 3T]: anywhere, or a whole period or a knot of some
    period, moved by -1, 0 or +1 ulp."""
    T = w.period
    if draw(st.booleans()):
        return draw(st.floats(-3.0 * T, 3.0 * T))
    t = draw(st.integers(-3, 2)) * T + draw(st.sampled_from(
        [0.0, T] + w.seg_knots.tolist()))
    for _ in range(draw(st.integers(0, 1))):
        t = float(np.nextafter(t, draw(st.sampled_from([-np.inf, np.inf]))))
    return t


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_LOCATED)),
       mu=st.floats(1.0, 1e6))
def test_locate_is_the_fold(data, name, mu):
    """``locate`` puts t - T k in segment seg, k = floor(t / T), exactly
    (within one ulp of the period's ends, where the fold rounds onto
    them, the end segment), and a_plus, a_minus and a_mu give the bits of
    the fold written out, sided by the segment."""
    w = _LOCATED[name]
    t = np.array(data.draw(st.lists(_located_times(w), min_size=1,
                                    max_size=8)))
    seg, k = w.locate(t)
    T, last = w.period, len(w.seg_coefs) - 1
    tf = t - T * k
    assert np.array_equal(k, np.floor(k))
    assert np.all((0 <= seg) & (seg <= last))
    inside = (0.0 <= tf) & (tf < T)
    assert np.all(w.seg_knots[seg][inside] <= tf[inside])
    assert np.all(tf[inside] < w.seg_knots[seg + 1][inside])
    ulp = np.spacing(3.0 * T)
    assert np.all(np.abs(tf[~inside] - np.clip(tf[~inside], 0.0, T)) <= ulp)
    assert np.all(seg[~inside] == np.where(tf[~inside] < 0.0, 0, last))

    ref_tf = t - T * np.floor(t / T)
    ref_seg = np.clip(np.searchsorted(w.seg_knots, ref_tf, side="right") - 1,
                      0, last)
    raw = np.array([np.polyval(w.seg_coefs[j][::-1], x - w.seg_knots[j])
                    for j, x in zip(ref_seg, ref_tf)])
    pos = w.seg_positive[ref_seg]
    for got, want in ((w.a_plus(t), np.where(pos, np.maximum(raw, 0.0), 0.0)),
                      (w.a_minus(t), np.where(pos, 0.0, np.maximum(-raw, 0.0))),
                      (w.a_mu(mu, t), np.where(pos, raw, mu * raw))):
        assert got.tobytes() == want.tobytes()


def _ref_recenter(c, dt):
    out = np.zeros(len(c))
    for i in range(len(c)):
        for j in range(i + 1):
            out[j] += c[i] * math.comb(i, j) * dt ** (i - j)
    return out


def _ref_integral_a_minus(w, x, y):
    if y <= x:
        return 0.0
    total = 0.0
    knots = w.knots_in_span(x, y)
    for ta, tb in zip(knots[:-1], knots[1:]):
        tm = 0.5 * (ta + tb)
        shift = w.period * math.floor(tm / w.period)
        seg = min(int(np.searchsorted(w.seg_knots, tm - shift, side="right"))
                  - 1, len(w.seg_coefs) - 1)
        if not w.seg_positive[seg]:
            t0 = w.seg_knots[seg] + shift
            total -= sum(c / (i + 1) * ((tb - t0) ** (i + 1)
                                        - (ta - t0) ** (i + 1))
                         for i, c in enumerate(w.seg_coefs[seg]))
    return total


def _ref_build(T, tau, pieces):
    """(WeightSpec, rows re-expanded at tau with their shifts) of the loops."""
    T, tau = float(T), float(tau)
    if not (0.0 < tau < T):
        raise WeightError("need 0 < tau < T")
    segs = []
    for p in sorted(pieces, key=lambda p: p.t0):
        segs.extend(_ref_expand(p))
    ktol = weight.knot_tol(T)
    if not segs or not abs(segs[0][0]) <= ktol or \
            not abs(segs[-1][1] - T) <= ktol:
        raise WeightError("pieces must cover [0, T]")
    for (_, a1, _), (b0, _, _) in zip(segs[:-1], segs[1:]):
        if not abs(a1 - b0) <= ktol:
            raise WeightError("pieces must tile [0, T]")
    split, moved = [], {}
    for t0, t1, c in segs:
        t0 = tau if abs(t0 - tau) <= ktol else t0
        t1 = tau if abs(t1 - tau) <= ktol else t1
        if t0 < tau < t1:
            split.append((t0, tau, c))
            moved[len(split)] = (c, tau - t0)
            split.append((tau, t1, _ref_recenter(c, tau - t0)))
        else:
            split.append((t0, t1, c))
    coefs = np.zeros((len(split), max(len(c) for *_, c in split)))
    for i, (*_, c) in enumerate(split):
        coefs[i, :len(c)] = c
    # the table drops all-zero highest powers
    while coefs.shape[1] > 1 and not coefs[:, -1].any():
        coefs = coefs[:, :-1]
    if not np.all(np.isfinite(coefs)):
        raise WeightError("weight values must be finite")
    positive = np.array([0.5 * (a + b) < tau for a, b, _ in split])
    scale = max(abs(coefs).max(), 1e-300)
    tol = 1e-10 * scale
    sup = int_plus = int_minus = 0.0
    for i, (t0, t1, _) in enumerate(split):
        lo, hi = _ref_extrema(coefs[i], t1 - t0)
        mass = sum(c / (k + 1) * (t1 - t0) ** (k + 1)
                   for k, c in enumerate(coefs[i]))
        if positive[i]:
            if lo < -tol:
                raise SignStructureViolation("dip")
            sup = max(sup, hi)
            int_plus += mass
        else:
            if hi > tol:
                raise SignStructureViolation("rise")
            int_minus -= mass
    if int_plus <= tol * tau or int_minus <= tol * (T - tau):
        raise SignStructureViolation("vanishes")
    w = weight.WeightSpec(period=T, tau=tau, pieces=tuple(pieces),
                          sup_a_plus=float(sup),
                          seg_knots=np.array([s[0] for s in split] + [T]),
                          seg_coefs=coefs, seg_positive=positive)
    for j in range(2, 9):
        delta = (T - tau) / 2 ** j
        if min(_ref_integral_a_minus(w, tau, tau + delta),
               _ref_integral_a_minus(w, T - delta, T)) \
                <= 1e-14 * scale * delta:
            raise EdgeMassViolation("no edge mass")
    return w, moved


# 0 or at least 0.01 in size: a tiny coefficient of degree 2 or more makes
# ``np.roots`` overflow, in the loops as in the build
_factors = st.just(0.0) | st.floats(0.01, 0.8) | st.floats(-0.8, -0.01)


@st.composite
def _weight_defs(draw):
    """(T, tau, pieces): poly pieces of degree 0-3, arches with an extremum
    inside and sample pieces, of the sign of their side, with tau a piece
    end, an end 1e-13 or 1e-10 (times T) off it, or inside a piece that
    changes sign there; now and then a level of 0, a gap or a non-finite
    value."""
    T = draw(st.floats(0.5, 4.0))
    tau = T * draw(st.floats(0.2, 0.8))
    inner = draw(st.lists(st.floats(0.02, 0.98), max_size=4, unique=True))
    at_tau = draw(st.sampled_from(["end", "across", 1e-13, -1e-13, 1e-10,
                                   -1e-10]))
    ends = sorted({0.0, T, *(T * f for f in inner)}
                  | ({tau if at_tau == "end" else tau + at_tau * T}
                     if at_tau != "across" else set()))
    ends = [e for e, f in zip(ends, [None] + ends) if f is None
            or e - f > 1e-3 * T or e in (0.0, T)]
    pieces = []
    for a, b in zip(ends[:-1], ends[1:]):
        sign = 1.0 if 0.5 * (a + b) < tau else -1.0
        level = sign * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.1, 2.0))
        if a < tau < b and at_tau == "across":
            q0, q1 = draw(st.floats(0.5, 2.0)), 0.3 * draw(_factors)
            d = tau - a
            data = (d * q0, d * q1 - q0, -q1)
            pieces.append(weight.Piece(a, b, "poly", data))
            continue
        kind = draw(st.sampled_from(["samples", "poly", "arch"]))
        if kind == "samples":
            k = draw(st.integers(2, 6))
            ts = tuple(np.linspace(a, b, k).tolist())
            vs = tuple(sign * draw(st.floats(0.0, 2.0)) for _ in ts)
            pieces.append(weight.Piece(a, b, "samples", (ts, vs)))
            continue
        if kind == "poly":
            deg = draw(st.integers(0, 3))
            data = (level,) + tuple(
                level * draw(_factors) / (b - a) ** k
                for k in range(1, deg + 1))
        else:       # level (1 + h s (L - s) / L): a max or min inside
            h = 8.0 * draw(_factors) / (b - a)
            data = (level, level * h, -level * h / (b - a))
        pieces.append(weight.Piece(a, b, "poly", data))
    poison = draw(st.sampled_from([None] * 6 + ["gap", "small-gap", "nan"]))
    i = draw(st.integers(0, len(pieces) - 1))
    p = pieces[i]
    if poison in ("gap", "small-gap") and p.kind == "poly" and i:
        off = (1e-11 if poison == "gap" else 1e-13) * T
        pieces[i] = weight.Piece(p.t0 + off, p.t1, "poly", p.data)
    elif poison == "nan":
        pieces[i] = weight.Piece(p.t0, p.t1, "poly", (math.nan,))
    return T, tau, pieces


def _outcome(build, *args):
    try:
        return build(*args), None
    except WeightError as e:
        return None, type(e)


@settings(max_examples=300, deadline=None)
@given(_weight_defs(), st.floats(-2.0, 2.0), st.floats(0.0, 3.0))
def test_array_build_matches_the_loops(defn, x, span):
    """build_weight refuses what the per-segment loops refuse, with the
    same exception class, and builds the same table: knots and signs bit
    for bit, coefficients bit for bit except the half of a piece
    re-expanded at tau (to 1e-15 of the re-expansion of |c|), sup a+ bit
    for bit where no segment has degree 2 or more; the primitive's
    integral of a- agrees with the knot loop over spans across periods."""
    T, tau, pieces = defn
    got, err = _outcome(weight.build_weight, T, tau, pieces)
    ref, ref_err = _outcome(_ref_build, T, tau, pieces)
    assert err == ref_err
    if err is not None:
        return
    ref, moved = ref
    assert np.array_equal(got.seg_knots, ref.seg_knots)
    assert np.array_equal(got.seg_positive, ref.seg_positive)
    assert got.seg_coefs.shape == ref.seg_coefs.shape
    for i, (want, g) in enumerate(zip(ref.seg_coefs, got.seg_coefs)):
        if i in moved:
            c, dt = moved[i]
            n = min(len(c), len(g))          # the table drops zero powers
            bound = _ref_recenter(np.abs(c), abs(dt))[:n]
            assert np.all(np.abs(g[:n] - want[:n]) <= 1e-15 * bound)
        else:
            assert np.array_equal(g, want)
    if not got.seg_coefs[:, 2:].any():
        assert got.sup_a_plus == ref.sup_a_plus
    else:
        assert math.isclose(got.sup_a_plus, ref.sup_a_plus, rel_tol=1e-13)
    x, y = x * T, (x + span) * T
    want = _ref_integral_a_minus(ref, x, y)
    mass = _ref_integral_a_minus(ref, 0.0, T)
    a_minus = got.primitive(np.array([x, y]))[1]
    assert abs(a_minus[1] - a_minus[0] - want) <= \
        1e-13 * mass * (abs(x) + abs(y) + T) / T
