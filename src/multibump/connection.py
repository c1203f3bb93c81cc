"""Dirichlet blocks between coded bumps: the auxiliary minimization.

A block [tau_i, sigma_{i+l+1}] strings together l "small" positivity
intervals framed by l+1 negativity intervals.  Boundary amplitudes (x, y) are
prescribed at the block ends and the action is minimized over functions that
respect the amplitude cap |u(sigma_j)| <= K and the energy cap
int u'^2 <= r^2 on every interior positivity interval.  For mu large the caps
are slack at the minimizer, the solution decays like a boundary layer away
from the block ends, and the linearization carries the sensitivity pair
(v, z), the derivatives of the minimizer in x and y.  The energy
derivatives dJ/dx = -u'(t_lo+), dJ/dy = u'(t_hi-) are checked by central
differences whose four perturbed blocks start on the solution's own mesh
from the tangent predictor u + dx v + dy z: by the discrete implicit
function theorem it misses them by O(h^2), and on the benchmark's ranges
inside the polish's tolerance.  So the check settles the four predictors
as one (4, n) stack: end data set, only the rows a cap touches retracted,
one residual and one action sum on the solution's operator, and the polish
tolerances and cap margins of all four rows at once.  Only a predictor that
misses the tolerance is solved, and the rows are read in x+, x-, y+, y-
order, so an error is the one four solves in turn would raise.  The
sensitivities are checked against the product of the Jacobian bands they
were solved with.

The certifier of periodic solutions (solver, verify) never calls this
module: it certifies through conditions C1-C4, the window identities and
the shooting oracle.  The blocks serve the ``connection`` subcommand, whose
report holds the end slopes, sensitivity signs, energy derivatives and cap
margins, and the uniqueness probe of the acceptance suite.

The block solver reuses the finite-element machinery on a clamped sub-grid,
which the process keeps with its quadrature tables (``assembly.kept_grid``);
boundary conditions are imposed by node elimination, and one
``assembly.Operator`` of the block gives every residual, the Newton step,
the end slopes and the sensitivities' bands; each iterate's residual is
formed once, and its point values give the action too.  A solve is one
path: projected descent under the caps, then a single unconstrained Newton
polish from the descent's last residual, then one verdict.  Each descent
direction solves the block's own Hessian (the operator's Jacobian bands at
the iterate) by banded Cholesky, the stiffness matrix standing in where the
Hessian is not positive definite; on the step weight at mu 1e2 to 1e4 with
data in (0, 1), one such step hands over to the polish, and so does a
direction that is not finite, as a stalled line search does.  Constraints
are handled by an active-set retraction during descent, never by penalties:
the minimizer is expected interior.  If the polish converges, a cap active (or
violated) at its result is reported as InteriorityFailure, the operational
signal that mu sits below the working threshold.  If the polish fails, the
descent's output is read the same way: on a cap (step weight, mu 1.5,
x -2, y -2.5) it is InteriorityFailure, clear of the caps the polish's
NewtonFailure stands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly
from .assembly import GridFunction
from .errors import (InteriorityFailure, NonConvergence, SingularLinearization,
                     WeightError)
from .localfield import levels_of
from .weight import compute_r, default_cap, weight_key

_ARMIJO = 1e-4
_CAP_SLACK = 1e-9          # relative slack kept free of each cap by retraction
_MAX_DESCENT = 200
_DESCENT_RTOL = 1e-4       # residual reduction at which descent hands over
_NEWTON_TOL = 1e-10
_MAX_NEWTON = 60
_FD_STEP = 1e-6            # FD step of energy_derivatives, per max(1, |x|, |y|)
_PROBE_TOL = 1e-6          # sup gap, relative to max(1, sup|u|), of a probe


@dataclass(frozen=True)
class ConnectionProblem:
    """Block data: weight, interval range, boundary amplitudes, caps."""
    w: object
    mu: float
    x: float
    y: float
    i: int = -1
    l: int = 1
    K: float = 1.0
    r: float = 1.0

    @property
    def t_lo(self):
        return self.w.tau_i(self.i)

    @property
    def t_hi(self):
        return self.w.sigma(self.i + self.l + 1)

    @property
    def block(self):
        return self.t_lo, self.t_hi

    @property
    def length(self):
        return self.t_hi - self.t_lo

    def plus_indices(self):
        """Indices j of the interior positivity intervals I_j^+."""
        return range(self.i + 1, self.i + self.l + 1)


def make_connection_problem(w, mu, x, y, i=-1, l=1, K=None, r=None):
    """Validated problem; caps not given are recomputed.

    K defaults to weight.default_cap of the limit bump, taken from the
    process's shared levels of w (localfield.levels_of).
    """
    if r is None:
        r = compute_r(w)
    if K is None:
        K = default_cap(levels_of(w).ground_bump())
    if mu <= 0.0:
        raise WeightError("mu must be positive")
    if not (K > 0.0 and r > 0.0):
        raise WeightError("the caps K and r must be positive")
    if l < 0:
        raise WeightError("l must be >= 0")
    if abs(x) > K or abs(y) > K:
        raise WeightError(f"|x|, |y| must not exceed K = {K:g}")
    return ConnectionProblem(w=w, mu=mu, x=float(x), y=float(y), i=int(i),
                             l=int(l), K=float(K), r=float(r))


# -- meshes --------------------------------------------------------------------


def connection_grid(p, cells=None):
    """Clamped mesh on the block, cosine-graded within each subinterval.

    Cosine grading clusters nodes like 1/n^2 at subinterval ends, which is
    where the solution develops decay layers of width ~ (mu/2)^{-1/2}/|data|.
    ``cells`` sets the minimum cell count per subinterval; the count grows
    automatically until the first cell resolves the layer.  The process
    keeps the grid by the weight's content, (i, l) and the cell count of
    each subinterval (``assembly.kept_grid``).
    """
    base = 160 if cells is None else int(cells)
    if base < 8:
        raise WeightError("need at least 8 cells per subinterval")
    amp = max(abs(p.x), abs(p.y))
    lam = math.sqrt(0.5 * p.mu) * amp
    w = p.w
    bounds, keys = [p.t_lo], [("t", p.i)]
    for j in p.plus_indices():
        bounds += [w.sigma(j), w.tau_i(j)]
        keys += [("s", j), ("t", j)]
    bounds.append(p.t_hi)
    keys.append(("s", p.i + p.l + 1))
    counts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        L = b - a
        n = base
        if lam > 0.0:
            target = min(L / 16.0, 1.0 / (10.0 * lam))
            n = max(base, int(math.ceil(0.5 * math.pi * math.sqrt(L / target))))
        counts.append(min(n, 6000))

    def build():
        parts, marks, count = [], {}, 0
        for key, a, b, n in zip(keys, bounds[:-1], bounds[1:], counts):
            k = np.arange(n, dtype=float)
            parts.append(a + 0.5 * (b - a) * (1.0 - np.cos(math.pi * k / n)))
            marks[key] = count
            count += n
        parts.append(np.array([p.t_hi]))
        marks[keys[-1]] = count
        return assembly.Grid(w=w, nodes=np.concatenate(parts),
                             periodic=False, marks=marks)

    return assembly.kept_grid((weight_key(w), p.i, p.l, tuple(counts)), build)


def decay_profile(p, ts):
    """Initial guess: superposed algebraic decay tails from both block ends."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros_like(ts)
    root = math.sqrt(0.5 * p.mu)
    if p.x != 0.0:
        out += p.x / (1.0 + root * abs(p.x) * (ts - p.t_lo))
    if p.y != 0.0:
        out += p.y / (1.0 + root * abs(p.y) * (p.t_hi - ts))
    return out


# -- constraint retraction -----------------------------------------------------


def _plus_ranges(p, grid):
    return [grid.interval_nodes(j, "plus") for j in p.plus_indices()]


def _retract(p, grid, full):
    """Pull ``full`` back into the admissible set (in place).

    Amplitude cap: clamp the value at each interior sigma_j.  Energy cap: the
    affine part between the interval's endpoint values is energy-minimal, so
    the deviation from it is scaled down until the interval energy fits.
    """
    K_eff = p.K * (1.0 - _CAP_SLACK)
    r2_eff = p.r ** 2 * (1.0 - _CAP_SLACK)
    h = grid.tables.h
    for a, b in _plus_ranges(p, grid):
        if abs(full[a]) > K_eff:
            full[a] = math.copysign(K_eff, full[a])
        seg_h = h[a:b]
        if assembly.dirichlet_energy(seg_h, full[a:b + 1]) <= r2_eff:
            continue
        length = float(grid.nodes[b] - grid.nodes[a])
        gap = full[b] - full[a]
        e_aff = gap * gap / length
        if e_aff >= r2_eff:
            # even the affine interpolant violates: pull the right endpoint in
            gap = math.copysign(math.sqrt(0.5 * r2_eff * length), gap)
            full[b] = full[a] + gap
            e_aff = gap * gap / length
        affine = full[a] + gap * (grid.nodes[a:b + 1] - grid.nodes[a]) / length
        dev = full[a:b + 1] - affine
        e_dev = assembly.dirichlet_energy(seg_h, dev)
        if e_dev > 0.0:
            theta = math.sqrt(max(r2_eff - e_aff, 0.0) / e_dev)
            full[a:b + 1] = affine + theta * dev


def _cap_reads(p, grid, full):
    """(|u(sigma_j)|, int u'^2) on each interior I_j^+ as two arrays with
    one column per I_j^+, one row per row of a stack.  A row's energy has
    the bits of its range's alone (``dirichlet_energy``)."""
    h = grid.tables.h
    ranges = _plus_ranges(p, grid)
    amp = np.empty(full.shape[:-1] + (len(ranges),))
    energy = np.empty_like(amp)
    for k, (a, b) in enumerate(ranges):
        amp[..., k] = np.abs(full[..., a])
        energy[..., k] = assembly.dirichlet_energy(h[a:b], full[..., a:b + 1])
    return amp, energy


def _retract_rows(p, grid, stack):
    """``_retract`` each row of a stack (in place) that a cap touches: a
    row whose sigma_j values and interval energies all sit within the
    retraction's caps is one ``_retract`` leaves as it is.  Returns the
    cap margins of the retracted rows, as ``cap_margins`` gives them."""
    amp, energy = _cap_reads(p, grid, stack)
    touched = np.flatnonzero(np.any(
        (amp > p.K * (1.0 - _CAP_SLACK))
        | (energy > p.r ** 2 * (1.0 - _CAP_SLACK)), axis=1))
    for k in touched:
        _retract(p, grid, stack[k])
    if len(touched):
        amp[touched], energy[touched] = _cap_reads(p, grid, stack[touched])
    return p.K - amp, p.r ** 2 - energy


def cap_margins(p, grid, full):
    """Slack of each cap: (K - |u(sigma_j)|, r^2 - int u'^2) per interior I_j^+."""
    amp, energy = _cap_reads(p, grid, full)
    return list(zip((p.K - amp).tolist(), (p.r ** 2 - energy).tolist()))


def _check_interiority(p, margins):
    """``margins`` (``cap_margins``); raise InteriorityFailure when any cap
    on an interior I_j^+ is active."""
    slack_K = _CAP_SLACK * p.K * 2.0
    slack_r = _CAP_SLACK * p.r ** 2 * 2.0
    for j, (mK, mr) in zip(p.plus_indices(), margins):
        if mK <= slack_K or mr <= slack_r:
            raise InteriorityFailure(
                f"cap active on I_{j}^+ (margins K: {mK:.3e}, r^2: {mr:.3e}); "
                f"mu = {p.mu:g} is below the working threshold")
    return margins


# -- the block solver ----------------------------------------------------------


def _descent(p, grid, op, full, r_int):
    """Projected descent with Armijo backtracking on the block action, from
    ``full`` with interior residual rows ``r_int`` (``op``'s last residual),
    until the residual falls by _DESCENT_RTOL or a line search stalls;
    returns (iterate, steps, its interior residual rows).

    Each direction solves the block's Hessian, the Jacobian bands of ``op``
    at the iterate, on the interior rows by banded Cholesky: near a strict
    minimizer under simple bounds that is the right metric, and the step is
    projected Newton's (Bertsekas, SIAM J. Control Optim. 20, 1982).  Where
    the Hessian is not positive definite (low mu, large data) the stiffness
    matrix takes its place.  A direction that is not finite stalls the
    descent.  Every trial is retracted under the caps, and its one residual
    gives its action and, once accepted, the next direction's rows."""
    tb = grid.tables
    J = op.actions(full)
    r0 = max(float(np.abs(r_int).max()), 1e-30)
    done = 0
    while done < _MAX_DESCENT:
        rn = float(np.abs(r_int).max())
        if rn <= _DESCENT_RTOL * r0:
            break
        try:
            d = assembly.solve_interior(tb, r_int, op.bands(full),
                                        definite=True)
        except np.linalg.LinAlgError:
            d = assembly.solve_interior(tb, r_int)
        if not np.isfinite(d).all():
            break                     # no direction: hand over to Newton
        slope = float(r_int @ d)
        alpha = 1.0
        while True:
            trial = full.copy()
            trial[1:-1] -= alpha * d
            _retract(p, grid, trial)
            r_trial = op.residual(trial)[1:-1]
            Jt = op.actions(trial)
            if Jt <= J - _ARMIJO * alpha * slope:
                full, J, r_int = trial, Jt, r_trial
                break
            alpha *= 0.5
            if alpha < 1e-10:
                return full, done, r_int     # stalled: hand over to Newton
        done += 1
    return full, done, r_int


@dataclass(eq=False)
class ConnectionSolution:
    """Converged block minimizer with its linearization data.  ``op`` is
    the block's ``assembly.Operator`` the solve ran on, whose Jacobian
    bands at u the sensitivities read; ``slopes`` are its (u'(t_j-),
    u'(t_j+)) at every node and ``cap_margins`` the verdict's margins."""
    problem: ConnectionProblem
    u: GridFunction
    op: assembly.Operator
    boundary_slopes: tuple
    slopes: tuple = None
    cap_margins: list = None
    v: GridFunction = None
    z: GridFunction = None
    descent_iters: int = 0
    newton_iters: int = 0
    fd_check: dict = None

    @property
    def grid(self):
        return self.u.grid

    @property
    def sensitivities(self):
        if self.v is None:
            compute_sensitivities(self)
        return self.v, self.z


def solve_connection(p, cells=None, init=None):
    """Minimize the block action over the admissible class at data (x, y).

    Projected descent under the caps, preconditioned by the block's
    Hessian, finds the basin; one unconstrained Newton polish on the
    Euler-Lagrange system converges in it.  A start already in Newton's
    full-step region goes straight to the polish: reducing its residual by
    the descent's factor would ask for less than round-off.  The verdict reads the caps once: a polish that converges
    with a cap active (or violated) raises InteriorityFailure, and so does a
    polish that fails from a descent output pinned on a cap; a polish that
    fails from a descent output clear of the caps raises its NewtonFailure.
    All residuals, the polish and the end slopes go through one
    ``assembly.Operator`` of the block, which the solution keeps.

    ``init`` is None (the decay profile on ``connection_grid(p, cells)``) or
    a GridFunction on a clamped mesh of the block, which is then the mesh
    solved on (``cells`` is unused).
    """
    if init is None:
        grid = connection_grid(p, cells)
        full = decay_profile(p, grid.nodes)
    else:
        grid = init.grid
        if grid.periodic or (grid.nodes[0], grid.nodes[-1]) != p.block:
            raise WeightError("init must live on a clamped mesh of the block")
        full = init.values.copy()
    full[0], full[-1] = p.x, p.y
    _retract(p, grid, full)

    op = assembly.Operator(grid, p.mu)
    r_int = op.residual(full)[1:-1]
    n_desc = 0
    if float(np.abs(r_int).max()) >= assembly._UNDAMPED_BELOW:
        full, n_desc, r_int = _descent(p, grid, op, full, r_int)
    try:
        full, n_newt = assembly.newton_dirichlet(
            op, full, _polish_tol(op, full, max(abs(p.x), abs(p.y))),
            _MAX_NEWTON, r_int)
    except NonConvergence:
        # a pinned minimizer has no interior stationary point to polish;
        # report the active cap instead of the symptom
        _check_interiority(p, cap_margins(p, grid, full))
        raise
    margins = _check_interiority(p, cap_margins(p, grid, full))

    left, right = op.slopes(full)
    return ConnectionSolution(
        problem=p,
        u=GridFunction(grid, full),
        op=op,
        boundary_slopes=(float(right[0]), float(left[-1])),
        slopes=(left, right), cap_margins=margins,
        descent_iters=n_desc, newton_iters=n_newt)


def _polish_tol(op, full, data):
    """The polish's Newton tolerance at ``full`` with end data of largest
    modulus ``data``: scaled to the data, floored at the rounding level; one
    per row of a stack."""
    floor = 200.0 * np.finfo(float).eps * \
        np.maximum(1.0, np.abs(full).max(axis=-1)) * op.tb.max_inv_h
    return np.maximum(_NEWTON_TOL * np.maximum(1.0, data), floor)


# -- sensitivities and derivatives ---------------------------------------------


def compute_sensitivities(sol):
    """The pair v (left data 1, right 0) and z (left 0, right 1) at sol.u:
    v'' + 3 a_mu u^2 v = 0 weakly, solved for both from one two-column
    right-hand side, with one defect check of both against the bands
    solved with."""
    grid = sol.grid
    full = sol.u.values
    bands = sol.op.bands(full)
    LL, LR, RR = bands
    ends = np.eye(2)                 # left, right: one column each for v, z
    rhs = np.zeros((len(full) - 2, 2))
    rhs[0] -= LR[0] * ends[0]
    rhs[-1] -= LR[-1] * ends[1]
    try:
        interior = assembly.solve_interior(grid.tables, rhs, bands)
    except np.linalg.LinAlgError as e:
        raise SingularLinearization(str(e)) from None
    vals = np.concatenate([ends[:1], interior, ends[1:]]).T.copy()
    # defect check: a nearly singular tridiagonal solve passes gtsv but
    # leaves a large residual on the interior rows of its bands' product
    res = (LR[:-1] * vals[:, :-2] + (RR[:-1] + LL[1:]) * vals[:, 1:-1]
           + LR[1:] * vals[:, 2:])
    scale = np.abs(vals).max(axis=1) * grid.tables.max_inv_h
    if (np.abs(res).max(axis=1) > 1e-6 * np.maximum(scale, 1.0)).any():
        raise SingularLinearization(
            "linearized block operator is numerically singular")
    sol.v, sol.z = GridFunction(grid, vals[0]), GridFunction(grid, vals[1])
    return sol.v, sol.z


def energy_derivatives(sol):
    """(dJ/dx, dJ/dy) = (-u'(t_lo+), +u'(t_hi-)).

    The pair is cross-checked against central finite differences of the
    block action in (x, y), with step h = _FD_STEP max(1, |x|, |y|).  Each
    perturbed block is started on sol's own mesh from the tangent predictor
    u + dx v + dy z, which (v and z being the exact derivatives of the
    discrete minimizer) misses it by O(h^2).  The four predictors are
    settled as one (4, n) stack: their end data set, the rows a cap
    touches retracted as ``solve_connection`` retracts a start, then one
    residual and one action sum of the stack on sol's operator, and the
    polish tolerances and cap margins of all four rows at once.  A row
    inside the polish's tolerance is what ``solve_connection`` returns from
    it, with no descent or Newton step: it gets the same cap verdict from
    its margins.  Any other row is solved by ``solve_connection``.  The
    rows are read in x+, x-, y+, y- order, so the first to fail raises
    what the four solves in turn would.  The step, relative errors and the
    descent steps of the four perturbed blocks land in ``sol.fd_check``.
    """
    dlo, dhi = sol.boundary_slopes
    pair = (-dlo, dhi)
    p = sol.problem
    grid, op = sol.grid, sol.op
    v, z = sol.sensitivities
    h = _FD_STEP * max(1.0, abs(p.x), abs(p.y))
    dx = np.array([h, -h, 0.0, 0.0])            # x+, x-, y+, y-
    dy = np.array([0.0, 0.0, h, -h])
    blocks = [ConnectionProblem(w=p.w, mu=p.mu, x=p.x + a, y=p.y + b,
                                i=p.i, l=p.l, K=p.K, r=p.r)
              for a, b in zip(dx.tolist(), dy.tolist())]
    starts = sol.u.values + dx[:, None] * v.values + dy[:, None] * z.values
    finite = np.isfinite(starts).all(axis=1)
    stack = starts[finite]
    stack[:, 0], stack[:, -1] = p.x + dx[finite], p.y + dy[finite]
    mK, mr = _retract_rows(p, grid, stack)
    rn = np.abs(op.residual(stack)[:, 1:-1]).max(axis=1)
    tol = _polish_tol(op, stack, np.maximum(np.abs(stack[:, 0]),
                                            np.abs(stack[:, -1])))
    settled = (rn < assembly._UNDAMPED_BELOW) & (rn <= tol)
    rows = zip(settled.tolist(), op.actions(stack).tolist(), mK.tolist(),
               mr.tolist())
    vals, steps = [], []
    for q, start, ok in zip(blocks, starts, finite):
        if ok:
            done, J, row_K, row_r = next(rows)
            if done:
                _check_interiority(q, zip(row_K, row_r))
                vals.append(J)
                steps.append(0)
                continue
        s = solve_connection(q, init=GridFunction(grid, start))
        vals.append(assembly.action(s.u, p.mu))
        steps.append(s.descent_iters)
    fd = ((vals[0] - vals[1]) / (2.0 * h), (vals[2] - vals[3]) / (2.0 * h))
    scale = max(abs(pair[0]), abs(pair[1]), 1e-30)
    sol.fd_check = {"step": h,
                    "fd": fd,
                    "rel_err": (abs(fd[0] - pair[0]) / scale,
                                abs(fd[1] - pair[1]) / scale),
                    "descent_iters": tuple(steps)}
    return pair


# -- uniqueness probe ----------------------------------------------------------


def uniqueness_probe(p, n_starts, cells=None, rng=None):
    """Re-solve from randomized admissible starts; True iff each lands
    within _PROBE_TOL max(1, sup|u|) of the first solve.

    Starts are smooth noise (coarse normal samples, linearly interpolated),
    which solve_connection sets to the prescribed endpoints and retracts
    into the admissible set.
    """
    rng = np.random.default_rng(rng)
    base = solve_connection(p, cells=cells)
    grid = base.grid
    # noise at the scale of the boundary data: starts stay inside the basin
    # of the interior minimizer instead of probing cap-pinned boundary minima
    scale = max(abs(p.x), abs(p.y), 0.1 * p.K)
    ref = max(1.0, base.u.sup_norm())
    for _ in range(int(n_starts)):
        coarse_n = 12 + 4 * p.l
        anchors = np.linspace(grid.nodes[0], grid.nodes[-1], coarse_n)
        noise = rng.normal(0.0, scale, coarse_n)
        start = GridFunction(grid, np.interp(grid.nodes, anchors, noise))
        try:
            s = solve_connection(p, init=start)
        except (NonConvergence, InteriorityFailure):
            return False
        if float(np.max(np.abs(s.u.values - base.u.values))) > \
                _PROBE_TOL * ref:
            return False
    return True
