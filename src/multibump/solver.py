"""Multibump solves on periodic windows.

The solution with prescribed bump code is obtained by damped Newton from the
singular-limit guess (bumps pasted where the code is 1) at the top of the mu
schedule, where that guess is closest, continued downward through the
scheduled mu (natural-parameter continuation, each mu started from the last
converged iterate), and then certified a posteriori against the energy
dichotomy, positivity, amplitude and junction-slope conditions.

The walk is nested: it runs first on a mesh with 1/COARSE_DIV of the cells,
and each stop's Newton on the solve mesh starts from the interpolated coarse
solution.  Newton's step count does not depend on the mesh (the
mesh-independence principle of Allgower, Boehmer, Potra & Rheinboldt), so
the coarse mesh takes most of the steps at a fraction of their cost; a
weight's knots can floor both meshes at one count, and then there is none.

A window is periodic (``assembly.span_grid``); an ``assembly.Operator`` bound
to it at one mu gives the residuals, Newton steps and junction slopes there.
The guess and the certificate read each subinterval as a row of the window
(``assembly.Grid.rows``), every interval in one pass.  The guess is the
singular-limit profile, the one bump paste of the package, which
``verify.limit_distance`` measures against as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import assembly, localfield
from .errors import (CertificationFailure, ContinuationBreakdown,
                     NewtonFailure, WeightError)
# solver's name of the pack builder, kept for the callers that read it here
from .weight import build_constant_pack  # noqa: F401

_AMP_CAP = 1e6
MU0 = 10.0              # lowest mu at which Newton starts from the pasted bumps
NEWTON_TOL = 1e-10      # sup-norm residual at which Newton stops
_MAX_NEWTON = 40
COARSE_DIV = 8          # coarse walk: max(8, cells // COARSE_DIV) cells


# -- symbol windows -----------------------------------------------------------


@dataclass(frozen=True)
class SymbolWindow:
    """A finite 0/1 code, one symbol per positivity interval."""
    symbols: tuple
    i_start: int = 0


def make_window(symbols):
    symbols = tuple(int(v) for v in symbols)
    if not symbols:
        raise WeightError("empty symbol window")
    if any(v not in (0, 1) for v in symbols):
        raise WeightError("symbols must be 0 or 1")
    if not any(symbols):
        raise WeightError("the code must contain at least one 1")
    # symmetric placement for odd windows, anchored at 0 otherwise
    i_start = -(len(symbols) - 1) // 2 if len(symbols) % 2 else 0
    return SymbolWindow(symbols=symbols, i_start=i_start)


def parse_symbols(text):
    """Parse strings like ``110`` or ``1,0,1`` into a 0/1 tuple."""
    text = text.replace(",", "").replace(" ", "")
    try:
        return tuple(int(ch) for ch in text)
    except ValueError:
        raise WeightError(f"symbols must be digits, got {text!r}") from None


# -- reports ------------------------------------------------------------------


@dataclass
class SolveReport:
    """The certificate of one stop of a continuation: its residual, energies,
    condition flags and paths, the record ``to_dict`` writes."""
    residual_inf: float
    interval_energies: dict           # i -> {"plus": E, "minus": E}
    condition_flags: dict             # "C1".."C4" -> {i: bool}
    positivity: bool
    dichotomy: dict                   # i -> "small" | "large"
    ties: dict                        # i -> True when E is within noise of r^2
    continuation_path: list = field(default_factory=list)  # (mu, steps)
    coarse_path: list = field(default_factory=list)  # (mu, steps or None)
    mu: float = float("nan")

    @property
    def certified(self):
        flags = all(all(d.values()) for d in self.condition_flags.values())
        return flags and self.positivity

    def failing(self):
        out = [name for name, d in self.condition_flags.items()
               if not all(d.values())]
        if not self.positivity:
            out.append("positivity")
        return out

    def to_dict(self):
        return {
            "mu": self.mu,
            "residual_inf": self.residual_inf,
            "certified": self.certified,
            "positivity": self.positivity,
            "interval_energies": {str(i): e
                                  for i, e in self.interval_energies.items()},
            "condition_flags": {k: {str(i): bool(v) for i, v in d.items()}
                                for k, d in self.condition_flags.items()},
            "dichotomy": {str(i): s for i, s in self.dichotomy.items()},
            "ties": {str(i): bool(v) for i, v in self.ties.items()},
            "continuation_path": [[m, int(it)]
                                  for m, it in self.continuation_path],
            "coarse_path": [[m, None if it is None else int(it)]
                            for m, it in self.coarse_path],
        }


@dataclass(eq=False)
class Solution:
    u: assembly.GridFunction
    mu: float
    window: SymbolWindow
    report: SolveReport

    @property
    def grid(self):
        return self.u.grid

    @cached_property
    def linearization(self):
        """(Operator at mu, weak residual at u, ``Operator.slopes`` at u),
        formed once per Solution for its audits."""
        op = assembly.Operator(self.grid, self.mu)
        return op, op.residual(self.u.values), op.slopes(self.u.values)


def auto_cells(mu):
    """Cells per subinterval needed to track the sharpening interior layers.

    The interior profile on negativity intervals turns over on a length scale
    shrinking like mu^(-1/2); keep several cells inside that layer.
    """
    base = 400.0
    grow = (max(mu, 100.0) / 100.0) ** 0.5
    return int(min(6000, max(400, math.ceil(base * math.sqrt(grow)))))


# -- Newton and continuation --------------------------------------------------


def _converge(grid, values, mu):
    """Damped Newton for gradient(u, mu) = 0 on the grid's dofs, then one
    more full step, counted: Newton converges quadratically there, so the
    step takes the residual from just below NEWTON_TOL to rounding level,
    which the window identities (verify.nehari_identities) read."""
    op = assembly.Operator(grid, mu)

    def residual(v):
        if np.max(np.abs(v)) > _AMP_CAP:
            return None
        return op.residual(v)

    u, iters, r = assembly.newton(values, residual, op.step, NEWTON_TOL,
                                  _MAX_NEWTON)
    return u - op.step(u, r), iters + 1


# -- construction of guess and certification ----------------------------------


def initial_guess(window, bump, grid):
    """The singular-limit profile on the window grid: the positive bump
    pasted on each coded interval's I^+ row, its ends held at zero, and
    zero elsewhere."""
    if len(window.symbols) != grid.n_int:
        raise WeightError("window length does not match the grid span")
    k = np.flatnonzero(window.symbols)
    ts = grid.rows(grid.nodes)[2 * k] - grid.w.sigma(grid.i0 + k)[:, None]
    vv = np.interp(ts, bump.t - bump.t[0], bump.u)
    vv[:, [0, -1]] = 0.0
    dofs = grid.dof_of_node(2 * grid.m * k[:, None] + np.arange(grid.m + 1))
    vals = np.zeros(grid.ndof)
    vals[dofs] = vv
    return assembly.GridFunction(grid, vals)


def check_membership(u, mu, consts, window):
    """Evaluate conditions (C1)-(C4), positivity and the energy dichotomy.

    The energies of C1 and the dichotomy, C3's sups and C2 come from the
    window's rows (``assembly.Grid.rows``) in one pass, C4 through the node
    indices of the coded sigma_i and tau_i.  One ``assembly.Operator``
    gives the residual and C4's junction slopes u'(sigma_i-) and u'(tau_i+)
    (``Operator.slopes``) from one evaluation of u at the quadrature
    points."""
    grid = u.grid
    if len(window.symbols) != grid.n_int:
        raise WeightError("window length does not match the grid span")
    r2 = consts.r ** 2
    upper = 2.0 * (consts.c + consts.c_zeta)
    rho = consts.rho
    op = assembly.Operator(grid, mu)
    g = op.residual(u.values)
    left, right = op.slopes(u.values)

    rows = grid.rows(u.full())
    energy = assembly.dirichlet_energy(grid.rows(grid.tables.h), rows)
    ep, em = energy[0::2], energy[1::2]
    sym = np.array(window.symbols, dtype=bool)
    tie = np.abs(ep - r2) <= 1e-12 * max(r2, 1.0)
    # measure-zero tie: classify as large and leave the flag raised
    large = (ep > r2) | tie
    c1 = np.where(sym, (r2 < ep) & (ep < upper), ep < r2)
    # C3 on every negativity interval of the window
    c3 = np.max(np.abs(rows[1::2]), axis=1) < consts.K
    # C2: strict positivity on the shrunk positivity interval, nodes and ends
    k = np.flatnonzero(sym)
    i = grid.i0 + k
    lo = grid.w.sigma(i) + consts.zeta
    hi = grid.w.tau_i(i) - consts.zeta
    t = grid.rows(grid.nodes)[2 * k]
    inner = (t >= lo[:, None]) & (t <= hi[:, None])
    ends = u.eval(np.concatenate([lo, hi])).reshape(2, -1)
    c2 = np.all((rows[2 * k] > 0.0) | ~inner, axis=1) & \
        np.all(ends > 0.0, axis=0)
    # C4: the slopes u'(sigma_i-) and u'(tau_i+) on the negativity side
    sn = 2 * grid.m * k
    us, din = rows[2 * k, 0], left[sn]
    ut, dout = rows[2 * k, -1], right[sn + grid.m]
    c4 = (((us < 0.0) | (din < rho)) & ((us > 0.0) | (din > -rho))
          & ((ut < 0.0) | (dout > -rho)) & ((ut > 0.0) | (dout < rho)))

    ids = list(range(grid.i0, grid.i0 + grid.n_int))
    coded = i.tolist()
    return SolveReport(
        residual_inf=float(np.max(np.abs(g))),
        interval_energies={j: {"plus": a, "minus": b} for j, a, b
                           in zip(ids, ep.tolist(), em.tolist())},
        condition_flags={"C1": dict(zip(ids, c1.tolist())),
                         "C2": dict(zip(coded, c2.tolist())),
                         "C3": dict(zip(ids, c3.tolist())),
                         "C4": dict(zip(coded, c4.tolist()))},
        positivity=bool(np.all(u.values > 0.0)),
        dichotomy=dict(zip(ids, np.where(large, "large", "small").tolist())),
        ties=dict(zip(ids, tie.tolist())),
        mu=float(mu),
    )


# -- top-level solves ----------------------------------------------------------


def _prepare(w):
    """(ConstantPack, ground bump) of a solve: w's one pack and bump, from
    the process's levels of w (localfield.levels_of), so the pack is built
    once per process."""
    ev = localfield.levels_of(w)
    return ev.pack, ev.ground_bump()


def _continuation(w, window, mu_list, cells):
    """Yield (mu, GridFunction, SolveReport) along an increasing float mu
    list; the one continuation path behind solve_multibump and
    continuation_states, on ``cells`` cells per subinterval (0: auto_cells
    at the largest mu).

    Newton starts from the pasted ground bumps at max(MU0, mu_list[-1])
    and walks the list downward, each mu from the last converged iterate.
    The walk runs on a coarse mesh of max(8, cells // COARSE_DIV) cells per
    subinterval, and each stop's Newton on the solve mesh starts from the
    coarse solution interpolated there.  Where the coarse Newton fails, the
    stop starts from the last fine iterate (the pasted bumps at the top)
    and the coarse walk resumes from the fine solution at the coarse nodes.
    A weight's knots set a floor on both counts (``assembly.knot_mesh``);
    where they give both meshes one count there is no coarse walk, and
    every stop starts as after a failed coarse Newton.
    The states come out in increasing mu once the walk ends, each carrying
    the whole walk as continuation_path (fine Newton steps) and coarse_path
    (coarse steps, None where no coarse Newton converged or ran).  When the
    fine Newton fails partway down, the higher mu reached are yielded
    before ContinuationBreakdown.
    """
    consts, bump = _prepare(w)
    cells = cells or auto_cells(mu_list[-1])
    grid, coarse = (assembly.span_grid(w, window.i_start, len(window.symbols), m)
                    for m in (cells, max(8, cells // COARSE_DIV)))
    walk = coarse.m < grid.m
    v = initial_guess(window, bump, coarse).values if walk else None
    u = None
    top = [MU0] if MU0 > mu_list[-1] else []
    path, coarse_path, reached, failure = [], [], [], None
    for mu in top + mu_list[::-1]:
        steps = None
        if walk:
            try:
                v, steps = _converge(coarse, v, mu)
            except NewtonFailure:
                pass
        if steps is not None:
            start = coarse.eval(v, grid.nodes[:grid.ndof])
        else:
            start = initial_guess(window, bump, grid).values if u is None \
                else u
        try:
            u, iters = _converge(grid, start, mu)
        except NewtonFailure as e:
            failure = ContinuationBreakdown(f"Newton failed at mu={mu:.4g}: "
                                            f"{e}")
            break
        if walk and steps is None:
            v = grid.eval(u, coarse.nodes[:coarse.ndof])
        path.append((mu, iters))
        coarse_path.append((mu, steps))
        reached.append((mu, u))
    stops = reached[len(top):]
    for mu, u in reversed(stops):
        gf = assembly.GridFunction(grid, u)
        report = check_membership(gf, mu, consts, window)
        report.continuation_path = list(path)
        report.coarse_path = list(coarse_path)
        yield mu, gf, report
    if failure is not None:
        raise failure


def solve_multibump(w, window, mu_target, cells=0):
    """Certified multibump solution at mu_target for the given window, on
    ``cells`` cells per subinterval (0: auto_cells)."""
    if mu_target <= 0:
        raise WeightError("mu_target must be positive")
    _, gf, report = next(_continuation(w, window, [float(mu_target)], cells))
    require_certified(report)
    return Solution(u=gf, mu=float(mu_target), window=window, report=report)


def require_certified(report):
    """Raise CertificationFailure, carrying the report, unless it certifies."""
    if not report.certified:
        raise CertificationFailure(
            f"conditions failed at mu={report.mu:.4g}: {report.failing()}",
            report=report)


def continuation_states(w, window, mu_list, cells=0):
    """Yield (mu, GridFunction, SolveReport) in increasing mu, solved by one
    downward walk from the largest mu (see _continuation); certification is
    evaluated (not enforced) at every stop."""
    yield from _continuation(w, window, sorted(float(m) for m in mu_list),
                             cells)


def bracket(outcomes):
    """(mu_fail, mu_pass) from (mu, certified) pairs in any order: mu_fail is
    the largest failing mu (0 when none fails), mu_pass the smallest
    certified mu above it (inf when none is)."""
    mu_fail = max((mu for mu, ok in outcomes if not ok), default=0.0)
    mu_pass = min((mu for mu, ok in outcomes if ok and mu > mu_fail),
                  default=math.inf)
    return mu_fail, mu_pass
