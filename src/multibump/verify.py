"""Audit suite for computed multibump branches.

Everything here re-measures a finished solution: the variational identities
it must satisfy on its window, the decay of its small part in mu, the
distance to the singular-limit profile (``solver.initial_guess``: a bump
copied onto the coded intervals, zero elsewhere), Hoelder/Lipschitz seminorm
behaviour along a sweep, minimal-period detection for subharmonics, and an
independent re-integration of every subinterval with the shooting oracle.

A solution's window is periodic (``assembly.span_grid``), so every node and
slope it is read at has a neighbour cell on each side.  Per-interval
numbers are read from the window's rows (``assembly.Grid.rows``), each in
one pass over one copy of the window; ``cutoff`` gives eta_i and eta_i'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly, localfield, oracle, solver
from .errors import WeightError

_G5X, _G5W = np.polynomial.legendre.leggauss(5)
_PAIR_BLOCK = 1 << 14        # node pairs per block of the Hoelder quotient
_HOLDER_NODES = 1600         # nodes sampled for the Hoelder seminorm
HOLDER_ALPHA = 0.5           # exponent of the Hoelder distance to the limit
ORACLE_BOUND = 1e-6          # largest oracle gap relative to sup |u| passed
DELTA_FRAC = 0.2             # interior margin delta of the decay, over T - tau


# -- the cutoff family ---------------------------------------------------------


def cutoff(w, i, ts):
    """(eta_i, eta_i') at ts: eta_i is 1 on [sigma_i, tau_i], with cosine
    ramps over quarter gaps outside.

    The ramp width is (T - tau)/4, so consecutive cutoffs have disjoint
    supports and eta_i vanishes well inside both neighbouring negativity
    intervals.
    """
    ts = np.asarray(ts, dtype=float)
    delta = 0.25 * (w.period - w.tau)
    lo, hi = w.sigma(i), w.tau_i(i)
    eta, deta = np.zeros_like(ts), np.zeros_like(ts)
    eta[(ts >= lo) & (ts <= hi)] = 1.0
    up = (ts > lo - delta) & (ts < lo)
    phase = math.pi * (ts[up] - lo + delta) / delta
    eta[up] = 0.5 * (1.0 - np.cos(phase))
    deta[up] = 0.5 * math.pi / delta * np.sin(phase)
    dn = (ts > hi) & (ts < hi + delta)
    phase = math.pi * (ts[dn] - hi) / delta
    eta[dn] = 0.5 * (1.0 + np.cos(phase))
    deta[dn] = -0.5 * math.pi / delta * np.sin(phase)
    return eta, deta


# -- piecewise-linear sampling helpers -----------------------------------------


def _sample(grid, full, ts):
    """(u, u') of the interpolant of the node values ``full`` of a
    periodic window at the times ``ts``, an array, folded into the
    window."""
    ts = grid.nodes[0] + np.mod(ts - grid.nodes[0], grid.span)
    cell = np.clip(np.searchsorted(grid.nodes, ts, side="right") - 1,
                   0, len(grid.nodes) - 2)
    h = grid.tables.h
    lam = (ts - grid.nodes[cell]) / h[cell]
    u = full[cell] * (1.0 - lam) + full[cell + 1] * lam
    du = (full[cell + 1] - full[cell]) / h[cell]
    return u, du


def _gauss_segments(breaks):
    """Gauss-5 points and weights on each [breaks[i], breaks[i+1]]."""
    a, b = breaks[:-1], breaks[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    tq = (mid[:, None] + half[:, None] * _G5X[None, :]).ravel()
    wq = (half[:, None] * _G5W[None, :]).ravel()
    return tq, wq


# -- Nehari identities ----------------------------------------------------------


def nehari_identities(sol):
    """Residuals of the four window identities, each in its natural scale.

    (i)   weak residual over hats supported away from the coded intervals;
    (ii)  per coded interval: int u'^2 - int a_mu u^4 - [u' u] with the
          outside one-sided slopes of ``Operator.slopes``, relative to the
          interval energy;
    (iii) whole-window int u'^2 = int a_mu u^4, relative to int u'^2;
    (iv)  cutoff identity int ((eta_i u)')^2 = int a_mu eta_i^2 u^4
          + int eta_i'^2 u^2, relative to the left side.

    A coded interval is a row of the window (``assembly.Grid.rows``): (ii)
    reads its energy from the rows and sums its quadrature points as three
    contiguous slices of the tables, and (iv) looks up only the mesh nodes
    of the cutoff's support, sampling one copy of the window.
    """
    w = sol.window
    grid = sol.grid
    mu = sol.mu
    u = sol.u
    full = u.full()
    tb = grid.tables
    wspec = grid.w
    m = grid.m

    op, g, (left, right) = sol.linearization
    k = np.flatnonzero(w.symbols)
    a = 2 * m * k                    # node of sigma_i, and a + m of tau_i
    keep = np.ones(grid.ndof, dtype=bool)
    keep[grid.dof_of_node(a[:, None] + np.arange(-1, m + 2))] = False
    res_i = float(np.max(np.abs(g[keep]))) if np.any(keep) else 0.0

    kin = assembly.dirichlet_energy(grid.rows(tb.h)[2 * k],
                                    grid.rows(full)[2 * k])
    # the points of the cells [a, a + m) are the same slice of each of the
    # tables' three blocks, summed in the tables' order
    uq = op.points(u.values)
    f = (op.c * uq ** 4).reshape(3, -1)
    quart = np.array([np.sum(f[:, p:p + m].ravel()) for p in a])
    # the outside half-hat fluxes make the discrete identity exact:
    # summing u_j g_j over the interval's nodes telescopes to exactly
    # these boundary terms, so a converged iterate leaves machine noise
    bdry = right[a + m] * full[a + m] - left[a] * full[a]
    res_ii = float(np.max(np.abs(kin - quart - bdry) / np.maximum(kin, 1.0)))

    kin_all = assembly.dirichlet_integral(tb, full)
    u2 = uq * uq
    quart_all = float(np.sum(op.c * (u2 * u2)))   # as quartic_integral sums
    res_iii = abs(kin_all - quart_all) / max(kin_all, 1.0)

    res_iv = 0.0
    delta = 0.25 * (wspec.period - wspec.tau)
    for i, j0 in zip((w.i_start + k).tolist(), a - m):
        lo = wspec.sigma(i) - delta
        hi = wspec.tau_i(i) + delta
        joints = [lo, wspec.sigma(i), wspec.tau_i(i), hi]
        # the support lies in the rows of I_{i-1}^-, I_i^+ and I_i^-; their
        # nodes past the window edge are the periodic images (the
        # interpolant has kinks at every folded node image, and Gauss
        # segments must not cross them)
        j = np.arange(j0, j0 + 3 * m + 1)
        t = grid.nodes[j % grid.ndof] + (j // grid.ndof) * grid.span
        inner = t[(t > lo) & (t < hi)]
        knots = wspec.knots_in_span(lo, hi)
        breaks = assembly.sorted_unique(np.concatenate([joints, inner, knots]))
        tq, wq = _gauss_segments(breaks)
        uq, duq = _sample(grid, full, tq)
        eta, deta = cutoff(wspec, i, tq)
        amu = wspec.a_mu(mu, tq)
        lhs = float(np.sum(wq * (eta * duq + deta * uq) ** 2))
        rhs = float(np.sum(wq * (amu * eta ** 2 * uq ** 4
                                 + deta ** 2 * uq ** 2)))
        res_iv = max(res_iv, abs(lhs - rhs) / max(lhs, 1.0))

    return {"i": res_i, "ii": res_ii, "iii": res_iii, "iv": res_iv}


# -- decay of the small part -----------------------------------------------------


def interior_maxima(sol, delta):
    """Per negativity interval: (max |u| on [tau_i+delta, sigma_{i+1}-delta],
    max |u| at the interval's endpoints), read from the window's I^- rows."""
    grid = sol.grid
    u = np.abs(grid.rows(sol.u.full())[1::2])
    t = grid.rows(grid.nodes)[1::2]
    inner = (t >= t[:, :1] + delta) & (t <= t[:, -1:] - delta)
    return list(zip(np.max(u, axis=1, where=inner, initial=0.0).tolist(),
                    np.maximum(u[:, 0], u[:, -1]).tolist()))


def _decay_margin(w):
    """The interior margin delta = DELTA_FRAC (T - tau) of the decay."""
    delta = DELTA_FRAC * (w.period - w.tau)
    if not 0.0 < delta < 0.5 * (w.period - w.tau):
        raise WeightError("delta must sit inside the negativity interval")
    return delta


def sweep_solutions(w, symbols, mu_list, cells=0):
    """Yield (Solution, interior_maxima rows at _decay_margin(w)) along a
    continuation sweep of the periodic code ``symbols`` on ``cells`` cells
    per subinterval (0: solver.auto_cells); the one per-mu driver behind
    run_sweep and the sweep subcommand."""
    delta = _decay_margin(w)
    win = solver.make_window(symbols)
    for mu, gf, report in solver.continuation_states(w, win, mu_list, cells):
        sol = solver.Solution(u=gf, mu=mu, window=win, report=report)
        yield sol, interior_maxima(sol, delta)


def loglog_fit(mu_list, values):
    """(slope, intercept, stderr) of log(values) against log(mu); NaN when a
    value is not positive or NaN, or there are fewer than two.

    The least-squares line by ``scipy.stats.linregress``'s own formulas and
    operations, so the same bits without importing ``scipy.stats``; like it,
    it raises ValueError when every mu is the same.
    """
    vals = np.asarray(values, dtype=float)
    nan = float("nan")
    if len(vals) < 2 or not np.all(vals > 0.0):
        return nan, nan, nan
    x, y = np.log(np.asarray(mu_list, dtype=float)), np.log(vals)
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    n = len(x)
    xmean, ymean = np.mean(x, None), np.mean(y, None)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.asarray(np.nan if ssxym == 0 else 0.0)[()]
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    slope = ssxym / ssxm
    intercept = ymean - slope * xmean
    if n == 2:
        stderr = 0.0
    else:
        stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
    return float(slope), float(intercept), float(stderr)


def kendall_tau(x, y):
    """Kendall's tau-b of two equal-length sequences, as
    ``scipy.stats.kendalltau`` computes it: concordant minus discordant
    pairs over the geometric mean of the pairs untied in x and in y, clipped
    to [-1, 1].  NaN when an input holds a NaN, there are fewer than two
    points, or every pair ties in x or in y.  O(n^2) pair signs: the sweeps
    here have a few points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = len(x)
    if size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    i, j = np.triu_indices(size, 1)
    sx = (x[j] > x[i]).astype(int) - (x[j] < x[i])
    sy = (y[j] > y[i]).astype(int) - (y[j] < y[i])
    tot = size * (size - 1) // 2
    xtie, ytie = int(np.sum(sx == 0)), int(np.sum(sy == 0))
    if xtie == tot or ytie == tot:
        return float("nan")
    con_minus_dis = int(np.sum(sx * sy))
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


# -- distance to the singular limit ---------------------------------------------


@dataclass
class LimitDistance:
    sup: float
    holder: float
    lipschitz: float
    per_interval: dict           # i -> W^{2,inf} distance on I_i^+


def _pair_max(dt, dv, alpha, min_sep, best):
    """The larger of best and the largest quotient |dv| / |dt|^alpha of the
    pairs at least min_sep apart: the one expression of every Hoelder
    quotient."""
    dt = np.abs(dt)
    keep = dt >= min_sep
    if keep.any():
        best = max(best, float(np.max(np.abs(dv[keep]) / dt[keep] ** alpha)))
    return best


def _holder_band(best, lip, reach, alpha, min_sep):
    """Per row, the dt range outside which no pair's quotient can exceed
    best when |dv| <= lip dt and |dv| <= the row's reach; both ends are
    widened by relative margins far above the quotients' rounding."""
    lo = min_sep
    if alpha < 1.0 and best > 0.0 and lip > 0.0:
        try:
            lo = max(lo, (best / lip * (1.0 - 1e-12)) ** (1.0 / (1.0 - alpha)))
        except OverflowError:
            lo = math.inf
    if best > 0.0:
        with np.errstate(over="ignore"):
            hi = (reach / best * (1.0 + 1e-12)) ** (1.0 / alpha)
    else:
        hi = np.full(len(reach), np.inf)
    return lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)


def _holder_seminorm(ts, d, alpha, min_sep):
    """max |d_j - d_i| / |t_j - t_i|^alpha over the pairs of every stride-th
    node (about _HOLDER_NODES of them, ts increasing) at least min_sep > 0
    apart; 0 if none.

    On the sampled nodes |v_j - v_i| <= L dt, L their largest chord slope,
    and for j > i it is at most the reach of v_i to the extremes of the
    values after it.  So pair (i, j) can beat the best quotient so far only
    if dt lies between (best / L)^(1/(1-alpha)) and (reach / best)^(1/alpha).
    Node offsets 1, 2, 4, ... seed the best.  Then every row's columns are
    cut to its band, which narrows as the best grows, and the pairs are
    visited about _PAIR_BLOCK at a time.  The pairs left out cannot exceed
    the best, so the result is the max over all pairs, bit for bit.
    """
    n = len(ts)
    stride = max(1, int(math.ceil(n / _HOLDER_NODES)))
    t = ts[::stride]
    v = d[::stride]
    m = len(t)
    best = 0.0
    k = 1
    while k < m:
        best = _pair_max(t[k:] - t[:-k], v[k:] - v[:-k], alpha, min_sep, best)
        k *= 2
    if m < 2:
        return best
    with np.errstate(divide="ignore", invalid="ignore"):
        lip = float(np.max(np.abs(np.diff(v)) / np.diff(t)))
    after_max = np.maximum.accumulate(v[:0:-1])[::-1]    # max of v[i + 1:]
    after_min = np.minimum.accumulate(v[:0:-1])[::-1]
    reach = np.maximum(after_max - v[:-1], v[:-1] - after_min)
    # absolute slack for the rounding of t_i + lo and t_i + hi
    slack = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    r = 0
    while r < m - 1:
        lo, hi = _holder_band(best, lip, reach[r:], alpha, min_sep)
        rows = np.arange(r, m - 1)
        c0 = np.maximum(np.searchsorted(t, t[r:-1] + (lo - slack)), rows + 1)
        c1 = np.searchsorted(t, t[r:-1] + (hi + slack), side="right")
        cnt = np.maximum(c1 - c0, 0)
        ends = np.cumsum(cnt)
        k = max(1, int(np.searchsorted(ends, _PAIR_BLOCK, side="right")))
        if ends[k - 1]:
            # row i's columns c0[i] .. c1[i] - 1, flattened
            i = np.repeat(rows[:k], cnt[:k])
            j = np.arange(ends[k - 1]) + np.repeat(c0[:k] - ends[:k] + cnt[:k],
                                                   cnt[:k])
            best = _pair_max(t[j] - t[i], v[j] - v[i], alpha, min_sep, best)
        r += k
    return best


def limit_distance(sol, bump):
    """(sup, C^{0,alpha} seminorm with alpha = HOLDER_ALPHA, Lipschitz
    seminorm, per-interval W^{2,inf}) distances between the solution and its
    singular-limit candidate, the bump pasted by ``solver.initial_guess``.

    Pair quotients use node pairs separated by at least the mesh width; the
    Lipschitz seminorm of the interpolant is the exact max cell slope.
    Second derivatives come from the equations the two functions satisfy:
    u'' = -a_mu u^3 and (limit)'' = -a+ (limit)^3 on positivity intervals.
    """
    grid = sol.grid
    w = grid.w
    limit = solver.initial_guess(sol.window, bump, grid)
    dvals = sol.u.values - limit.values
    dfull = grid.full_values(dvals)
    sup = float(np.max(np.abs(dvals)))

    h = grid.tables.h
    lip = float(np.max(np.abs(np.diff(dfull) / h)))
    holder = _holder_seminorm(grid.nodes, dfull, HOLDER_ALPHA,
                              float(np.max(h)))

    # per I^+ row: the distance, its slope and its second derivative
    d = grid.rows(dfull)[0::2]
    d1 = np.diff(d) / grid.rows(h)[0::2]
    # weight sampled a hair inside the interval so junction nodes read
    # the positivity side of the kink (one-sided second derivatives)
    eps = 1e-9 * w.period
    t = grid.rows(grid.nodes)[0::2]
    ap = w.a_plus(np.clip(t, t[:, :1] + eps, t[:, -1:] - eps))
    d2 = ap * (grid.rows(sol.u.full() ** 3)[0::2]
               - grid.rows(grid.full_values(limit.values) ** 3)[0::2])
    per = np.maximum.reduce([np.max(np.abs(x), axis=1) for x in (d, d1, d2)])
    return LimitDistance(sup=sup, holder=holder, lipschitz=lip,
                         per_interval=dict(zip(
                             range(grid.i0, grid.i0 + grid.n_int),
                             per.tolist())))


# -- minimal period ---------------------------------------------------------------


def minimal_period(sol):
    """Smallest divisor d of the window's m periods with u(. + dT) = u
    within 1e-6 sup-relative, comparing the window's rows a period apart."""
    grid = sol.grid
    m = grid.n_int
    periods = grid.rows(sol.u.values).reshape(m, -1)     # one row per period
    tol = 1e-6 * max(float(np.max(np.abs(periods))), 1e-300)
    for d in range(1, m + 1):
        if m % d == 0 and float(np.max(np.abs(
                np.roll(periods, -d, axis=0) - periods))) <= tol:
            return d
    return m


# -- independent re-integration ----------------------------------------------------


@dataclass
class OracleCheck:
    per_interval: dict           # (i, '+'/'-') -> sup nodal gap
    gap: float                   # max over intervals
    rel: float                   # gap / sup|u|

    def ok(self):
        return self.rel <= ORACLE_BOUND


def oracle_residual(sol):
    """Shoot every subinterval from the solution's own nodal boundary data.

    The oracle shares no quadrature or assembly code with the FEM path; the
    sup of the nodal gaps measures how well the computed branch solves the
    ODE, independently of the machinery that produced it.  All subintervals
    are shot together (``oracle.shoot_batch``), each from the end where |u|
    is smaller, started from the FEM's slope into the interval there
    (``assembly.Operator.slopes``): u'(t_a+) from the left end, u'(t_b-)
    from the right.
    """
    grid = sol.grid
    full = sol.u.full()
    _, _, (left, right) = sol.linearization
    sup = float(np.max(np.abs(full)))
    t, u = grid.rows(grid.nodes), grid.rows(full)
    a = grid.m * np.arange(2 * grid.n_int)        # first node of each row
    s0 = np.where(oracle.shoots_from_t1(u[:, 0], u[:, -1]),
                  left[grid.dof_of_node(a + grid.m)], right[a])
    results = oracle.shoot_batch(
        grid.w, sol.mu, list(zip(t[:, 0], t[:, -1], u[:, 0], u[:, -1], s0)))
    keys = [(i, tag) for i in range(grid.i0, grid.i0 + grid.n_int)
            for tag in "+-"]
    per = {key: float(np.max(np.abs(res.dense.eval_u(tr) - ur)))
           for key, tr, ur, res in zip(keys, t, u, results)}
    gap = max(per.values())
    return OracleCheck(per_interval=per, gap=gap,
                       rel=gap / sup if sup > 0 else 0.0)


# -- sweeps ------------------------------------------------------------------------


def run_sweep(w, symbols, mu_list, cells=0):
    """Continuation sweep with every per-mu audit quantity recorded, the
    limit distance against the ground bump of w's shared levels
    (localfield.levels_of).  Returns (payload, the sweep's last Solution):
    the payload is verify.json's "sweep" entry, which records each mu's
    certification and whose decay samples come with the explicit bounds
    C_delta (data/mu)^{1/3}, C_delta computed from the iterated edge
    integrals of a-.  Its fitted slopes and Kendall taus read the certified
    stops only: NaN when fewer than two certify."""
    mu_list = sorted(float(m) for m in mu_list)
    delta = _decay_margin(w)
    bump = localfield.levels_of(w).ground_bump()
    win = solver.make_window(symbols)
    coded = {win.i_start + j for j, s in enumerate(win.symbols) if s == 1}

    rows = {k: [] for k in ("certified", "decay", "data", "p1", "p2", "p3",
                            "sup", "holder", "lip", "dsup", "minv")}
    for sol, maxima in sweep_solutions(w, symbols, mu_list, cells):
        gf = sol.u
        rows["certified"].append(sol.report.certified)
        full = gf.full()
        h = gf.grid.tables.h
        rows["decay"].append(max(r[0] for r in maxima))
        rows["data"].append(max(r[1] for r in maxima))
        minus = gf.grid.rows(full)[1::2]
        rows["p1"].append(float(np.max(
            np.max(np.abs(minus), axis=1)
            + assembly.dirichlet_energy(gf.grid.rows(h)[1::2], minus))))
        ld = limit_distance(sol, bump)
        per = ld.per_interval
        rows["p2"].append(max(per[i] for i in per if i in coded))
        p3 = [per[i] for i in per if i not in coded]
        rows["p3"].append(max(p3) if p3 else 0.0)
        rows["sup"].append(ld.sup)
        rows["holder"].append(ld.holder)
        rows["lip"].append(ld.lipschitz)
        rows["dsup"].append(float(np.max(np.abs(np.diff(full) / h))))
        rows["minv"].append(float(np.min(gf.values)))

    ok = [j for j, c in enumerate(rows["certified"]) if c]
    mu_ok = [mu_list[j] for j in ok]
    ok_rows = {name: [rows[name][j] for j in ok] for name in rows}
    fits = {}
    for name in ("decay", "p1", "sup", "holder"):
        slope, _, stderr = loglog_fit(mu_ok, ok_rows[name])
        fits[name] = [slope, 2.0 * stderr]
    c_delta = min(w.edge_double_integrals(delta)) ** (-1.0 / 3.0)
    payload = {
        "symbols": list(win.symbols),
        "mu_list": mu_list,
        # C1-C4 and positivity per mu; verify's exit code reads the last
        "certified": rows["certified"],
        "decay_samples": rows["decay"],
        "end_data": rows["data"],
        "decay_bounds": [c_delta * (d / mu) ** (1.0 / 3.0)
                         for d, mu in zip(rows["data"], mu_list)],
        "c_delta": c_delta,
        # max over negativity intervals of sup |u| plus the energy there;
        # max W^{2,inf} distance to the limit on coded and uncoded intervals
        "p1": rows["p1"], "p2": rows["p2"], "p3": rows["p3"],
        "sup_distances": rows["sup"],
        "holder_distances": rows["holder"],
        "lipschitz_distances": rows["lip"],
        "sup_slopes": rows["dsup"],          # ||u'||_inf over the window
        "min_values": rows["minv"],          # min of u: the positivity record
        "fitted_slopes": fits,               # name -> [slope, half width]
        "kendall": {name: kendall_tau(mu_ok, ok_rows[name])
                    for name in ("p1", "p2", "decay", "sup", "holder")},
        "alpha": HOLDER_ALPHA, "delta": delta,
    }
    return payload, sol
