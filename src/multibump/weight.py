"""Sign-changing periodic weights and the explicit constants derived from them.

A weight is one period [0, T] of a T-periodic coefficient a(t) that is >= 0
(not identically 0) on [0, tau] and <= 0 (not identically 0) on [tau, T].
Pieces are polynomials or linearly interpolated samples; ``build_weight``
turns them into one table of polynomial segments by array operations,
which every module reads through ``WeightSpec``: ``locate`` is its one
periodic lookup, ``seg_eval`` its one evaluator, ``primitive`` its one exact
periodic primitive and ``digest``, its sha256, the one name of its content.
``reexpand`` is the package's one re-expansion of coefficients.  Two knots,
or a knot and a mesh node, within ``knot_tol(T)`` = 1e-12 max(T, 1) are one
point.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    # (t - seg_knots[i]), the last column not all zero.  seg_positive marks
    # segments inside [0, tau].
    seg_knots: np.ndarray = field(repr=False)
    seg_coefs: np.ndarray = field(repr=False)
    seg_positive: np.ndarray = field(repr=False)

    @cached_property
    def digest(self):
        """sha256 (hex) of the segment table, which fixes every level,
        threshold and mesh: the key of the kept levels and grids and the
        manifest's ``weight_sha256``."""
        h = hashlib.sha256(np.array([self.period, self.tau,
                                     *self.seg_coefs.shape]).tobytes())
        for arr in (self.seg_knots, self.seg_coefs, self.seg_positive):
            h.update(arr.tobytes())
        return h.hexdigest()

    # -- evaluation ---------------------------------------------------------

    def locate(self, t):
        """(seg, k) of the times t, vectorized: k = floor(t / T) is the
        period of t, and t - T k lies in segment seg of the table.  The
        package's one periodic lookup of the weight."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t / self.period)
        seg = np.searchsorted(self.seg_knots, t - self.period * k,
                              side="right") - 1
        return np.clip(seg, 0, len(self.seg_coefs) - 1), k

    def _eval_raw(self, t):
        """Signed weight value a(t) and its segment's side (True inside
        [0, tau]), vectorized, periodic."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        seg, k = self.locate(t)
        return self.seg_eval(seg, t - self.period * k), self.seg_positive[seg]

    def seg_eval(self, seg, t):
        """Evaluate the polynomial of segment seg at absolute times t by
        Horner's rule; seg is one index or an index array matching t.  The
        package's one evaluator of the segment table."""
        return _horner(self.seg_coefs, seg,
                       np.asarray(t, dtype=float) - self.seg_knots[seg])

    def a_plus(self, t):
        raw, pos = self._eval_raw(t)
        return np.where(pos, np.maximum(raw, 0.0), 0.0)

    def a_minus(self, t):
        raw, pos = self._eval_raw(t)
        return np.where(pos, 0.0, np.maximum(-raw, 0.0))

    def a_mu(self, mu, t):
        raw, pos = self._eval_raw(t)
        return np.where(pos, raw, mu * raw)

    # -- geometry -----------------------------------------------------------

    def sigma(self, i):
        return i * self.period

    def tau_i(self, i):
        return self.tau + i * self.period

    def knots_in_span(self, t0, t1):
        """All weight breakpoints in [t0, t1], endpoints included, unwrapped:
        p T + s for every period p from floor(t0 / T) and every segment
        start s, at once."""
        T = self.period
        p = np.arange(math.floor(t0 / T), math.ceil(t1 / T) + 1) * T
        tk = p[:, None] + self.seg_knots[:-1]
        return sorted_unique(np.concatenate([[t0, t1],
                                             tk[(t0 < tk) & (tk < t1)]]))

    # -- exact integrals ----------------------------------------------------

    def primitive(self, t, from_T=False):
        """(A+(t), A-(t)), stacked: the exact periodic primitives of a+ and
        a-, zero at t = 0, as whole periods, whole segments and the part of
        t's own segment, whose sign (validated) says which of the two it
        feeds.  With ``from_T`` they are zero at t = T, the whole segments
        summed back from T, so that a span ending at T is rounded relative
        to its own mass rather than to the period's."""
        icoefs = self.seg_coefs / np.arange(1, self.seg_coefs.shape[1] + 1)
        s = np.diff(self.seg_knots)
        sided = np.where(self.seg_positive, [[1.0], [0.0]], [[0.0], [-1.0]])
        mass = sided * (s * _horner(icoefs, np.arange(len(s)), s))
        way = -1 if from_T else 1     # summed forward from 0 or back from T
        cum = np.pad(mass[:, ::way], ((0, 0), (1, 0))).cumsum(axis=1)
        cum = way * cum[:, ::way]
        t = np.asarray(t, dtype=float)
        seg, k = self.locate(t)
        s = t - self.period * k - self.seg_knots[seg]
        return (np.multiply.outer(cum[:, -1] - cum[:, 0], k) + cum[:, seg]
                + sided[:, seg] * (s * _horner(icoefs, seg, s)))

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


def sorted_unique(a):
    """The sorted distinct values of a 1-D array, as ``np.unique`` gives
    them, by a sort and an equality mask: ``np.unique`` imports
    ``numpy.ma`` on its first call, 15-19 ms of a fresh process."""
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _horner(coefs, seg, s):
    """Rows seg of the ascending coefficient table coefs at offsets s."""
    p = np.zeros_like(s)
    for c in coefs.T[::-1]:
        p = p * s + c[seg]
    return p


def reexpand(c, d):
    """Coefficients c (..., p), ascending in x, rewritten in x - d by
    synthetic division; d broadcasts against c[..., 0]."""
    c = c.copy()
    p = c.shape[-1]
    for r in range(p - 1):
        for j in range(p - 2, r - 1, -1):
            c[..., j] += d * c[..., j + 1]
    return c


def knot_tol(T):
    """The distance within which two knots of a weight of period T, or a
    knot and a mesh node, are one point."""
    return 1e-12 * max(T, 1.0)


# -- construction -----------------------------------------------------------


def _expand_piece(piece):
    """One piece's segments as rows (start, end, ascending coefficients):
    a poly piece is one segment, a samples piece one linear segment per
    pair of neighbouring samples."""
    if piece.kind == "poly":
        return np.array([(piece.t0, piece.t1, *piece.data)], dtype=float)
    if piece.kind == "samples":
        ts = np.asarray(piece.data[0], dtype=float)
        vs = np.asarray(piece.data[1], dtype=float)
        if len(ts) != len(vs):
            raise WeightError("sample times and values differ in number")
        if len(ts) < 2 or np.any(np.diff(ts) <= 0):
            raise WeightError("sample times must be strictly increasing")
        if not (math.isclose(ts[0], piece.t0) and math.isclose(ts[-1], piece.t1)):
            raise WeightError("samples must cover the piece exactly")
        return np.column_stack([ts[:-1], ts[1:], vs[:-1],
                                np.diff(vs) / np.diff(ts)])
    raise WeightError(f"unknown piece kind {piece.kind!r}")


def build_weight(T, tau, pieces):
    """Validate a weight definition and normalize it into a WeightSpec.

    Every step works on the whole table of segments.  A segment end within
    ``knot_tol(T)`` of tau is tau, and a segment across tau is split there.
    Raises SignStructureViolation or EdgeMassViolation on invalid input.
    """
    T, tau = float(T), float(tau)
    if not (0.0 < tau < T):
        raise WeightError("need 0 < tau < T")
    pieces = tuple(pieces)
    rows = [_expand_piece(p) for p in sorted(pieces, key=lambda p: p.t0)]
    # one coefficient column at least: a poly piece without data is zero
    width = max([3] + [r.shape[1] for r in rows])
    table = np.concatenate([np.zeros((0, width))] + [
        np.pad(r, ((0, 0), (0, width - r.shape[1]))) for r in rows])
    t0, t1, coefs = table[:, 0], table[:, 1], table[:, 2:]
    # no all-zero highest power, so that equal functions get equal tables
    used = np.flatnonzero(coefs.any(axis=0))
    coefs = coefs[:, :used[-1] + 1 if len(used) else 1]
    ktol = knot_tol(T)
    if not len(t0) or not abs(t0[0]) <= ktol:
        raise WeightError("pieces must start at t = 0")
    if not abs(t1[-1] - T) <= ktol:
        raise WeightError("pieces must end at t = T")
    if not np.all(np.abs(t1[:-1] - t0[1:]) <= ktol):
        raise WeightError("pieces must tile [0, T] without gaps or overlaps")

    # an end near tau is tau, and a segment across tau is cut there, so
    # every segment sits inside one sign region
    t0[np.abs(t0 - tau) <= ktol] = tau
    t1[np.abs(t1 - tau) <= ktol] = tau
    cut = np.flatnonzero((t0 < tau) & (tau < t1))
    coefs = np.insert(coefs, cut + 1, reexpand(coefs[cut], tau - t0[cut]),
                      axis=0)
    t0, t1 = np.insert(t0, cut + 1, tau), np.insert(t1, cut, tau)
    if not np.all(np.isfinite(coefs)):
        raise WeightError("weight values must be finite")
    positive = 0.5 * (t0 + t1) < tau
    w = WeightSpec(period=T, tau=tau, pieces=pieces, sup_a_plus=math.nan,
                   seg_knots=np.append(t0, T), seg_coefs=coefs,
                   seg_positive=positive)

    # each segment's extrema lie at its ends and at the real critical
    # points inside it, which only degree 2 or more can have
    seg, ts = [np.arange(len(t0))] * 2, [t0, t1]
    for i in np.flatnonzero(coefs[:, 2:].any(axis=1)):
        r = np.roots((coefs[i, 1:] * np.arange(1, coefs.shape[1]))[::-1])
        r = r.real[(abs(r.imag) < 1e-12) & (0.0 < r.real)
                   & (r.real < t1[i] - t0[i])]
        seg.append(np.full(len(r), i))
        ts.append(t0[i] + r)
    seg = np.concatenate(seg)
    vals = w.seg_eval(seg, np.concatenate(ts))
    scale = max(abs(coefs).max(), 1e-300)
    tol = 1e-10 * scale
    pos = positive[seg]
    bad = np.where(pos, vals < -tol, vals > tol)
    if bad.any():
        i = seg[bad].min()
        v = vals[seg == i]
        raise SignStructureViolation(
            f"weight dips to {v.min():.3e} inside the positivity interval"
            if positive[i] else
            f"weight rises to {v.max():.3e} inside the negativity interval")
    w = replace(w, sup_a_plus=float(np.max(vals[pos], initial=0.0)))
    plus, minus = w.primitive(T) - w.primitive(0.0)
    if plus <= tol * tau:
        raise SignStructureViolation("weight vanishes identically on [0, tau]")
    if minus <= tol * (T - tau):
        raise SignStructureViolation("weight vanishes identically on [tau, T]")
    # a- must carry mass within (T - tau) / 2^j of both sign changes, each
    # span summed from its sign change so as to round relative to its mass
    delta = (T - tau) / 2.0 ** np.arange(2, 9)
    near = np.stack([w.primitive(tau + delta)[1],
                     -w.primitive(T - delta, from_T=True)[1]])
    bad = np.flatnonzero((near <= 1e-14 * scale * delta).any(axis=0))
    if len(bad):
        raise EdgeMassViolation(f"negative part has no mass within "
                                f"{delta[bad[0]]:.3e} of a sign change")
    return w


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


def build_constant_pack(w, levels):
    """Assemble every certification constant for weight w from its levels
    (``localfield.LevelEvaluator``, whose ``pack`` caches the result), with
    the cap K = default_cap of the ground bump."""
    c = levels.ground_level()
    bump = levels.ground_bump()
    zeta, c_zeta, val = choose_zeta(w, levels)
    K = default_cap(bump)
    rho = bound_rho(w, c, c_zeta, K)
    attained = abs(bump.dleft) + abs(bump.dright)
    if not rho > attained:
        raise WeightError("slope threshold bound failed to dominate")
    if c >= c_zeta:
        raise WeightError("pinned-zero level does not exceed the ground level")
    return ConstantPack(r=compute_r(w), zeta=zeta, K=K, rho=rho,
                        c=c, c_zeta=c_zeta, zeta_margin=val, rho_attained=attained)
