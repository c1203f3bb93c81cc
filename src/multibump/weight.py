"""Sign-changing periodic weights and the explicit constants derived from them.

A weight is one period [0, T] of a T-periodic coefficient a(t) that is >= 0
(not identically 0) on [0, tau] and <= 0 (not identically 0) on [tau, T].
Pieces are polynomials or linearly interpolated samples; internally everything
is normalized to a list of polynomial segments so that evaluation, integrals
and suprema are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EdgeMassViolation, NoAdmissibleZeta, SignStructureViolation,
                     WeightError)

_GAUSS12_X, _GAUSS12_W = np.polynomial.legendre.leggauss(12)
_SINE_SAMPLES = 256          # samples of the built-in sine weight's period
ZETA_MARGIN = 0.9            # bound of the zeta condition in choose_zeta


@dataclass(frozen=True)
class Piece:
    """One piece of the weight on [t0, t1].

    kind "poly": data are polynomial coefficients, ascending, in (t - t0).
    kind "samples": data is a (t, v) table, interpolated linearly.
    """
    t0: float
    t1: float
    kind: str
    data: tuple


@dataclass(frozen=True, eq=False)
class WeightSpec:
    period: float
    tau: float
    pieces: tuple
    sup_a_plus: float
    # Normalized polynomial segments tiling [0, period]; seg_knots has one
    # more entry than seg_coefs rows.  Coefficients are ascending in
    # (t - seg_knots[i]).  seg_positive marks segments inside [0, tau].
    seg_knots: np.ndarray = field(repr=False)
    seg_coefs: np.ndarray = field(repr=False)
    seg_positive: np.ndarray = field(repr=False)

    # -- evaluation ---------------------------------------------------------

    def fold(self, t):
        """Map times into [0, period)."""
        t = np.asarray(t, dtype=float)
        return t - self.period * np.floor(t / self.period)

    def _segment_index(self, tf):
        idx = np.searchsorted(self.seg_knots, tf, side="right") - 1
        return np.clip(idx, 0, len(self.seg_coefs) - 1)

    def _eval_raw(self, t):
        """Signed weight value a(t), vectorized, periodic."""
        tf = np.atleast_1d(self.fold(t))
        return self.seg_eval(self._segment_index(tf), tf)

    def seg_eval(self, seg, t):
        """Evaluate the polynomial of segment seg at absolute times t by
        Horner's rule; seg is one index or an index array matching t."""
        s = np.asarray(t, dtype=float) - self.seg_knots[seg]
        p = np.zeros_like(s)
        for c in self.seg_coefs.T[::-1]:
            p = p * s + c[seg]
        return p

    def a_plus(self, t):
        return np.maximum(self._eval_raw(t), 0.0)

    def a_minus(self, t):
        return np.maximum(-self._eval_raw(t), 0.0)

    def a_mu(self, mu, t):
        raw = self._eval_raw(t)
        return np.where(raw >= 0.0, raw, mu * raw)

    # -- geometry -----------------------------------------------------------

    def sigma(self, i):
        return i * self.period

    def tau_i(self, i):
        return self.tau + i * self.period

    def knots_in_span(self, t0, t1):
        """All weight breakpoints in [t0, t1], endpoints included, unwrapped."""
        T = self.period
        ks = []
        p = math.floor(t0 / T)
        while p * T < t1 + T:
            for s in self.seg_knots[:-1]:
                tk = p * T + s
                if t0 < tk < t1:
                    ks.append(tk)
            p += 1
        return np.array(sorted({t0, t1, *ks}))

    # -- exact integrals ----------------------------------------------------

    def _seg_signed_integral(self, seg, x, y, shift=0.0):
        """Integral of the raw segment polynomial over [x, y] (absolute times)."""
        c = self.seg_coefs[seg]
        t0 = self.seg_knots[seg] + shift
        sx, sy = x - t0, y - t0
        total = 0.0
        for i, ci in enumerate(c):
            total += ci / (i + 1) * (sy ** (i + 1) - sx ** (i + 1))
        return total

    def integral_a_minus(self, x, y):
        """Exact integral of a- over [x, y] (assumes validated sign structure)."""
        if y <= x:
            return 0.0
        total = 0.0
        knots = self.knots_in_span(x, y)
        for ta, tb in zip(knots[:-1], knots[1:]):
            tm = 0.5 * (ta + tb)
            shift = self.period * math.floor(tm / self.period)
            seg = int(self._segment_index(np.array([tm - shift]))[0])
            if not self.seg_positive[seg]:
                total -= self._seg_signed_integral(seg, ta, tb, shift)
        return total

    def edge_double_integrals(self, delta):
        """Iterated edge integrals of a- next to the two sign changes.

        Left: int_tau^{tau+delta} int_t^{tau+delta} a-(s) ds dt.
        Right: int_{T-delta}^T int_{T-delta}^t a-(s) ds dt.
        Exchanging the order of integration leaves one moment each,
        int (s - tau) a-(s) ds and int (T - s) a-(s) ds, by Gauss quadrature
        split at the weight knots, so the values are exact for polynomial
        pieces.
        """
        tau, T = self.tau, self.period

        def moment(lo, hi, arm):
            knots = self.knots_in_span(lo, hi)
            half = 0.5 * np.diff(knots)[:, None]
            ts = 0.5 * (knots[:-1] + knots[1:])[:, None] + half * _GAUSS12_X
            return float(np.sum(half * _GAUSS12_W * self.a_minus(ts)
                                * arm(ts)))

        return (moment(tau, tau + delta, lambda s: s - tau),
                moment(T - delta, T, lambda s: T - s))


# -- construction -----------------------------------------------------------


def _expand_piece(piece):
    """Expand one piece into polynomial segments: list of (t0, t1, coefs)."""
    if piece.kind == "poly":
        return [(piece.t0, piece.t1, np.asarray(piece.data, dtype=float))]
    if piece.kind == "samples":
        ts = np.asarray(piece.data[0], dtype=float)
        vs = np.asarray(piece.data[1], dtype=float)
        if len(ts) != len(vs):
            raise WeightError("sample times and values differ in number")
        if len(ts) < 2 or np.any(np.diff(ts) <= 0):
            raise WeightError("sample times must be strictly increasing")
        if not (math.isclose(ts[0], piece.t0) and math.isclose(ts[-1], piece.t1)):
            raise WeightError("samples must cover the piece exactly")
        segs = []
        for i in range(len(ts) - 1):
            slope = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
            segs.append((ts[i], ts[i + 1], np.array([vs[i], slope])))
        return segs
    raise WeightError(f"unknown piece kind {piece.kind!r}")


def _poly_extrema(coefs, lo, hi):
    """(min, max) of an ascending-coefficient polynomial on [0, hi-lo] offsets."""
    length = hi - lo
    cands = [0.0, length]
    if len(coefs) > 2:
        dc = np.array([i * coefs[i] for i in range(1, len(coefs))])
        roots = np.roots(dc[::-1])
        for r in roots:
            if abs(r.imag) < 1e-12 and 0.0 < r.real < length:
                cands.append(r.real)
    vals = [float(np.polyval(coefs[::-1], s)) for s in cands]
    return min(vals), max(vals)


def build_weight(T, tau, pieces):
    """Validate a weight definition and normalize it into a WeightSpec.

    Raises SignStructureViolation or EdgeMassViolation on invalid input.
    """
    T = float(T)
    tau = float(tau)
    if not (0.0 < tau < T):
        raise WeightError("need 0 < tau < T")
    pieces = tuple(pieces)
    segs = []
    for p in sorted(pieces, key=lambda p: p.t0):
        segs.extend(_expand_piece(p))
    if not segs or not math.isclose(segs[0][0], 0.0, abs_tol=1e-12 * T):
        raise WeightError("pieces must start at t = 0")
    if not math.isclose(segs[-1][1], T, rel_tol=1e-12):
        raise WeightError("pieces must end at t = T")
    for (a0, a1, _), (b0, b1, _) in zip(segs[:-1], segs[1:]):
        if not math.isclose(a1, b0, rel_tol=1e-12, abs_tol=1e-12 * T):
            raise WeightError("pieces must tile [0, T] without gaps or overlaps")

    # force a knot at tau so every segment sits inside one sign region
    split = []
    for t0, t1, c in segs:
        if t0 < tau < t1 and not math.isclose(t0, tau) and not math.isclose(t1, tau):
            split.append((t0, tau, c))
            # re-center coefficients at tau
            split.append((tau, t1, _recenter(c, tau - t0)))
        else:
            split.append((t0, t1, c))
    segs = split

    maxdeg = max(len(c) for _, _, c in segs)
    knots = np.array([s[0] for s in segs] + [T])
    coefs = np.zeros((len(segs), maxdeg))
    for i, (_, _, c) in enumerate(segs):
        coefs[i, :len(c)] = c
    if not np.all(np.isfinite(coefs)):
        raise WeightError("weight values must be finite")
    positive = np.array([0.5 * (a + b) < tau for (a, b, _) in segs])

    scale = max(abs(coefs).max(), 1e-300)
    tol = 1e-10 * scale
    sup_plus = 0.0
    int_plus = 0.0
    int_minus = 0.0
    for i, (t0, t1, c) in enumerate(segs):
        lo, hi = _poly_extrema(coefs[i], t0, t1)
        if positive[i]:
            if lo < -tol:
                raise SignStructureViolation(
                    f"weight dips to {lo:.3e} inside the positivity interval")
            sup_plus = max(sup_plus, hi)
            int_plus += _integ(coefs[i], t1 - t0)
        else:
            if hi > tol:
                raise SignStructureViolation(
                    f"weight rises to {hi:.3e} inside the negativity interval")
            int_minus -= _integ(coefs[i], t1 - t0)
    if int_plus <= tol * tau:
        raise SignStructureViolation("weight vanishes identically on [0, tau]")
    if int_minus <= tol * (T - tau):
        raise SignStructureViolation("weight vanishes identically on [tau, T]")

    w = WeightSpec(period=T, tau=tau, pieces=pieces, sup_a_plus=float(sup_plus),
                   seg_knots=knots, seg_coefs=coefs, seg_positive=positive)
    _check_edge_mass(w)
    return w


def weight_key(w):
    """The content that fixes a weight's levels and meshes: equal keys,
    equal levels and equal grids."""
    return w.period, w.tau, w.pieces


def _recenter(c, dt):
    """Rewrite ascending coefficients in (t - t0) as coefficients in (t - t0 - dt)."""
    n = len(c)
    out = np.zeros(n)
    for i in range(n):
        for j in range(i + 1):
            out[j] += c[i] * math.comb(i, j) * dt ** (i - j)
    return out


def _integ(coefs, length):
    return sum(ci / (i + 1) * length ** (i + 1) for i, ci in enumerate(coefs))


def _check_edge_mass(w):
    """The negative part must carry mass arbitrarily close to both sign changes."""
    T, tau = w.period, w.tau
    scale = max(abs(w.seg_coefs).max(), 1e-300)
    for j in range(2, 9):
        delta = (T - tau) / 2 ** j
        left = w.integral_a_minus(tau, tau + delta)
        right = w.integral_a_minus(T - delta, T)
        if left <= 1e-14 * scale * delta or right <= 1e-14 * scale * delta:
            raise EdgeMassViolation(
                f"negative part has no mass within {delta:.3e} of a sign change")


# -- stock weights ----------------------------------------------------------


def make_step_weight():
    """a = +1 on [0,1), -1 on [1,2); T = 2, tau = 1."""
    return build_weight(2.0, 1.0, [
        Piece(0.0, 1.0, "poly", (1.0,)),
        Piece(1.0, 2.0, "poly", (-1.0,)),
    ])


def make_sine_weight():
    """sin(t) on [0, 2*pi], sampled at _SINE_SAMPLES uniform points.

    _SINE_SAMPLES is divisible by 4, which puts nodes at pi/2 and 3*pi/2, so
    the sampled sup equals 1 and midpoint values of the valleys are exact.
    """
    n = _SINE_SAMPLES
    ts = np.linspace(0.0, 2.0 * np.pi, n + 1)
    vs = np.sin(ts)
    vs[0] = vs[n // 2] = vs[-1] = 0.0
    return build_weight(2.0 * np.pi, np.pi, [
        Piece(0.0, float(np.pi), "samples",
              (tuple(ts[:n // 2 + 1]), tuple(vs[:n // 2 + 1]))),
        Piece(float(np.pi), float(2 * np.pi), "samples",
              (tuple(ts[n // 2:]), tuple(vs[n // 2:]))),
    ])


# -- file format ------------------------------------------------------------


def weight_to_dict(w):
    out = {"T": w.period, "tau": w.tau, "pieces": []}
    for p in w.pieces:
        if p.kind == "poly":
            data = list(p.data)
        else:
            data = {"t": list(p.data[0]), "v": list(p.data[1])}
        out["pieces"].append({"t0": p.t0, "t1": p.t1, "kind": p.kind, "data": data})
    return out


def weight_from_dict(d):
    """Inverse of weight_to_dict; a missing or non-numeric entry is a
    WeightError."""
    try:
        pieces = []
        for pd in d["pieces"]:
            if pd["kind"] == "samples":
                data = (tuple(map(float, pd["data"]["t"])),
                        tuple(map(float, pd["data"]["v"])))
            else:                 # build_weight refuses an unknown kind
                data = tuple(float(c) for c in pd["data"])
            pieces.append(Piece(float(pd["t0"]), float(pd["t1"]), pd["kind"],
                                data))
        period, tau = float(d["T"]), float(d["tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightError(f"malformed weight: {type(exc).__name__}: {exc}") \
            from None
    return build_weight(period, tau, pieces)


def load_weight_json(path):
    with open(path) as f:
        return weight_from_dict(json.load(f))


def save_weight_json(w, path):
    with open(path, "w") as f:
        json.dump(weight_to_dict(w), f, indent=2, sort_keys=True)
        f.write("\n")


# -- derived constants ------------------------------------------------------


def compute_r(w):
    """Energy threshold separating small from bump-carrying intervals:
    r = (32 ||a+||_inf tau^3)^(-1/2)."""
    return (32.0 * w.sup_a_plus * w.tau ** 3) ** -0.5


# lemniscate constant Gamma(1/4)^2 / (2 sqrt(2 pi)): the ground level of
# u'' + A u^3 = 0 on an interval of length L is varpi^4 / (3 A L^3)
_VARPI4 = (math.gamma(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi))) ** 4


def pinned_level_floor(w, zeta):
    """Lower bound varpi^4 / (3 ||a+|| (tau - zeta)^3) of the pinned-zero
    level: both of its window-edge intervals have length tau - zeta, and
    a+ <= ||a+|| bounds each edge level below by the constant weight's."""
    return _VARPI4 / (3.0 * w.sup_a_plus * (w.tau - zeta) ** 3)


def choose_zeta(w, levels):
    """Halve zeta from (T - tau)/4 until 2 ||a+|| (c + c_zeta) zeta^3 <=
    ZETA_MARGIN.

    ``levels`` provides ground_level() and pinned_level(zeta); see
    localfield.LevelEvaluator.  A zeta whose condition already fails by 1%
    with c_zeta replaced by pinned_level_floor is skipped without a pinned
    solve; the 1% covers the quadrature error of the FEM levels.  Returns
    (zeta, c_zeta, attained_value).
    """
    c = levels.ground_level()
    zeta = (w.period - w.tau) / 4.0
    while zeta >= w.tau / 2.0:
        zeta /= 2.0
    for _ in range(60):
        floor = 2.0 * w.sup_a_plus * (c + pinned_level_floor(w, zeta)) \
            * zeta ** 3
        if floor > 1.01 * ZETA_MARGIN:
            zeta /= 2.0
            continue
        c_zeta = levels.pinned_level(zeta)
        val = 2.0 * w.sup_a_plus * (c + c_zeta) * zeta ** 3
        if val <= ZETA_MARGIN:
            return zeta, c_zeta, val
        zeta /= 2.0
    raise NoAdmissibleZeta("smallness condition not reachable by halving")


def bound_rho(w, c, c_zeta, K):
    """Upper bound for the junction-slope threshold.

    Cauchy-Schwarz on the affine comparison functions p, q (values 0 and 1 at
    the ends of [0, tau]): |int u' p'| <= sqrt(2(c+c_zeta)) ||p'||_2 and
    |int a+ u^3 p| <= ||a+|| tau (1 + sqrt(tau) sqrt(2(c+c_zeta)))^3, summed
    over both test functions, plus 2K/(T - tau), all times 16.
    """
    e2 = 2.0 * (c + c_zeta)
    dual = math.sqrt(e2) / math.sqrt(w.tau)
    cube = w.sup_a_plus * w.tau * (1.0 + math.sqrt(w.tau) * math.sqrt(e2)) ** 3
    return 16.0 * (2.0 * K / (w.period - w.tau) + 2.0 * (dual + cube))


@dataclass(frozen=True)
class ConstantPack:
    """Certification constants attached to a weight."""
    r: float
    zeta: float
    K: float
    rho: float
    c: float
    c_zeta: float
    zeta_margin: float = float("nan")      # attained value of the zeta condition
    rho_attained: float = float("nan")     # |u'(0)| + |u'(tau)| of the ground bump


def default_cap(bump):
    """The default endpoint cap K: twice the amplitude of the ground bump."""
    return 2.0 * float(np.max(np.abs(bump.u)))


def build_constant_pack(w, levels, K=None):
    """Assemble every certification constant for weight w."""
    if K is not None and not K > 0.0:
        raise WeightError("the cap K must be positive")
    c = levels.ground_level()
    bump = levels.ground_bump()
    zeta, c_zeta, val = choose_zeta(w, levels)
    if K is None:
        K = default_cap(bump)
    rho = bound_rho(w, c, c_zeta, K)
    attained = abs(bump.dleft) + abs(bump.dright)
    if not (rho > attained and rho > 2.0 * K / (w.period - w.tau)):
        raise WeightError("slope threshold bound failed to dominate")
    if c >= c_zeta:
        raise WeightError("pinned-zero level does not exceed the ground level")
    return ConstantPack(r=compute_r(w), zeta=zeta, K=float(K), rho=rho,
                        c=c, c_zeta=c_zeta, zeta_margin=val, rho_attained=attained)

