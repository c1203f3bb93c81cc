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
differences whose four perturbed blocks are solved on the solution's own
mesh from the tangent predictor u + dx v + dy z: by the discrete implicit
function theorem it misses them by O(h^2), inside Newton's full-step region.

The certifier of periodic solutions (solver, verify) never calls this
module: it certifies through conditions C1-C4, the window identities and
the shooting oracle.  The blocks serve the ``connection`` subcommand, whose
report holds the end slopes, sensitivity signs, energy derivatives and cap
margins, and the uniqueness probe of the acceptance suite.

The block solver reuses the finite-element machinery on a clamped sub-grid;
boundary conditions are imposed by node elimination, and one
``assembly.Operator`` of the block gives every residual, the Newton step and
the end slopes.  A solve is one path: projected descent under the caps, then
a single unconstrained Newton polish, then one verdict.  Constraints are
handled by an active-set retraction during descent, never by penalties: the
minimizer is expected interior.  If the polish converges, a cap active (or
violated) at its result is reported as InteriorityFailure, the operational
signal that mu sits below the working threshold.  If the polish fails, the
descent's output is read the same way: on a cap it is InteriorityFailure,
clear of the caps the polish's NewtonFailure stands.
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
from .weight import compute_r, default_cap

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
    automatically until the first cell resolves the layer.
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

    parts, marks, count = [], {}, 0
    for key, a, b in zip(keys, bounds[:-1], bounds[1:]):
        L = b - a
        n = base
        if lam > 0.0:
            target = min(L / 16.0, 1.0 / (10.0 * lam))
            n = max(base, int(math.ceil(0.5 * math.pi * math.sqrt(L / target))))
        n = min(n, 6000)
        k = np.arange(n, dtype=float)
        parts.append(a + 0.5 * L * (1.0 - np.cos(math.pi * k / n)))
        marks[key] = count
        count += n
    parts.append(np.array([p.t_hi]))
    marks[keys[-1]] = count
    return assembly.Grid(w=w, nodes=np.concatenate(parts), periodic=False,
                         marks=marks)


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


def cap_margins(p, grid, full):
    """Slack of each cap: (K - |u(sigma_j)|, r^2 - int u'^2) per interior I_j^+."""
    h = grid.tables.h
    return [(p.K - abs(float(full[a])),
             p.r ** 2 - assembly.dirichlet_energy(h[a:b], full[a:b + 1]))
            for a, b in _plus_ranges(p, grid)]


def _check_interiority(p, grid, full):
    """Raise InteriorityFailure when any cap on an interior I_j^+ is active."""
    slack_K = _CAP_SLACK * p.K * 2.0
    slack_r = _CAP_SLACK * p.r ** 2 * 2.0
    for j, (mK, mr) in zip(p.plus_indices(), cap_margins(p, grid, full)):
        if mK <= slack_K or mr <= slack_r:
            raise InteriorityFailure(
                f"cap active on I_{j}^+ (margins K: {mK:.3e}, r^2: {mr:.3e}); "
                f"mu = {p.mu:g} is below the working threshold")


# -- the block solver ----------------------------------------------------------


def _block_action(tb, mu, full):
    return 0.5 * assembly.dirichlet_integral(tb, full) - \
        0.25 * assembly.quartic_integral(tb, mu, full)


def _descent(p, grid, op, full, r_int):
    """Stiffness-preconditioned projected descent with Armijo backtracking,
    from ``full`` with interior residual rows ``r_int``, until the residual
    falls by _DESCENT_RTOL or a line search stalls."""
    tb = grid.tables
    J = _block_action(tb, p.mu, full)
    r0 = max(float(np.max(np.abs(r_int))), 1e-30)
    done = 0
    while done < _MAX_DESCENT:
        rn = float(np.max(np.abs(r_int)))
        if rn <= _DESCENT_RTOL * r0:
            break
        d = assembly.solve_interior(tb, r_int)
        slope = float(r_int @ d)
        alpha = 1.0
        while True:
            trial = full.copy()
            trial[1:-1] -= alpha * d
            _retract(p, grid, trial)
            Jt = _block_action(tb, p.mu, trial)
            if Jt <= J - _ARMIJO * alpha * slope:
                full, J = trial, Jt
                break
            alpha *= 0.5
            if alpha < 1e-10:
                return full, done            # stalled: hand over to Newton
        done += 1
        r_int = op.residual(full)[1:-1]
    return full, done


@dataclass(eq=False)
class ConnectionSolution:
    """Converged block minimizer with its linearization data."""
    problem: ConnectionProblem
    u: GridFunction
    boundary_slopes: tuple
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

    Projected descent under the caps finds the basin; one unconstrained
    Newton polish on the Euler-Lagrange system converges in it.  A start
    already in Newton's full-step region goes straight to the polish:
    reducing its residual by the descent's factor would ask for less than
    round-off.  The verdict reads the caps once: a polish that converges
    with a cap active (or violated) raises InteriorityFailure, and so does a
    polish that fails from a descent output pinned on a cap; a polish that
    fails from a descent output clear of the caps raises its NewtonFailure.
    All residuals, the polish and the end slopes go through one
    ``assembly.Operator`` of the block.

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

    op = assembly.Operator(grid.tables, p.mu)
    r_int = op.residual(full)[1:-1]
    n_desc = 0
    if float(np.max(np.abs(r_int))) >= assembly._UNDAMPED_BELOW:
        full, n_desc = _descent(p, grid, op, full, r_int)
    # tolerance scaled to the data, floored at the rounding level
    floor = 200.0 * np.finfo(float).eps * \
        max(1.0, float(np.max(np.abs(full)))) * float(np.max(op.tb.inv_h))
    tol = max(_NEWTON_TOL * max(1.0, abs(p.x), abs(p.y)), floor)
    try:
        full, n_newt = assembly.newton_dirichlet(op, full, tol, _MAX_NEWTON)
    except NonConvergence:
        # a pinned minimizer has no interior stationary point to polish;
        # report the active cap instead of the symptom
        _check_interiority(p, grid, full)
        raise
    _check_interiority(p, grid, full)

    left, right = op.slopes(full)
    return ConnectionSolution(
        problem=p,
        u=GridFunction(grid, full),
        boundary_slopes=(float(right[0]), float(left[-1])),
        descent_iters=n_desc, newton_iters=n_newt)


# -- sensitivities and derivatives ---------------------------------------------


def _linearized_solve(sol, bands, left_val, right_val):
    """Solve v'' + 3 a_mu u^2 v = 0 weakly with the given end values, the
    Jacobian ``bands`` of the block at sol.u given."""
    p = sol.problem
    grid = sol.grid
    full = sol.u.values
    dLR = bands[1]
    rhs = np.zeros(len(full) - 2)
    rhs[0] -= dLR[0] * left_val
    rhs[-1] -= dLR[-1] * right_val
    try:
        interior = assembly.solve_interior(grid.tables, rhs, bands)
    except np.linalg.LinAlgError as e:
        raise SingularLinearization(str(e)) from None
    vals = np.concatenate([[left_val], interior, [right_val]])
    # defect check: a nearly singular tridiagonal solve passes gtsv
    # but leaves a large weak residual on the interior rows
    res = assembly.hessian_full(grid.tables, p.mu, full, vals)[1:-1]
    scale = float(np.max(np.abs(vals))) * float(np.max(1.0 / grid.tables.h))
    if float(np.max(np.abs(res))) > 1e-6 * max(scale, 1.0):
        raise SingularLinearization(
            "linearized block operator is numerically singular")
    return GridFunction(grid, vals)


def compute_sensitivities(sol):
    """The pair v (left data 1, right 0) and z (left 0, right 1) at sol.u."""
    bands = assembly.Operator(sol.grid.tables, sol.problem.mu).bands(
        sol.u.values)
    sol.v = _linearized_solve(sol, bands, 1.0, 0.0)
    sol.z = _linearized_solve(sol, bands, 0.0, 1.0)
    return sol.v, sol.z


def energy_derivatives(sol):
    """(dJ/dx, dJ/dy) = (-u'(t_lo+), +u'(t_hi-)).

    The pair is cross-checked against central finite differences of the
    block action in (x, y), with step h = _FD_STEP max(1, |x|, |y|).  Each
    perturbed block is solved on sol's own mesh from the tangent predictor
    u + dx v + dy z, which (v and z being the exact derivatives of the
    discrete minimizer) misses it by O(h^2).  The step, relative errors and
    the descent steps of the four perturbed solves land in
    ``sol.fd_check``.
    """
    dlo, dhi = sol.boundary_slopes
    pair = (-dlo, dhi)
    p = sol.problem
    v, z = sol.sensitivities
    h = _FD_STEP * max(1.0, abs(p.x), abs(p.y))
    vals, steps = {}, []
    for name, (dx, dy) in (("x+", (h, 0.0)), ("x-", (-h, 0.0)),
                           ("y+", (0.0, h)), ("y-", (0.0, -h))):
        q = ConnectionProblem(w=p.w, mu=p.mu, x=p.x + dx, y=p.y + dy,
                              i=p.i, l=p.l, K=p.K, r=p.r)
        start = GridFunction(sol.grid, sol.u.values + dx * v.values
                             + dy * z.values)
        s = solve_connection(q, init=start)
        vals[name] = assembly.action(s.u, p.mu)
        steps.append(s.descent_iters)
    fd = ((vals["x+"] - vals["x-"]) / (2.0 * h),
          (vals["y+"] - vals["y-"]) / (2.0 * h))
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
