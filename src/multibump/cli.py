"""Command line front end.

Subcommands
-----------
local       weight constants and local minimization levels
solve       periodic multibump solve with certification
connection  two-point connection problem on one block
verify      asymptotic mu sweep with decay fits and identity checks
oracle      shooting / IVP / ground-level reference runs
sweep       mu sweeps over several codes

Each subcommand declares its options once (``_COMMANDS``): flag, kind,
default and help.  The parser and the config merge both read that
declaration.  ``main`` runs every subcommand through one lifecycle: it opens
the output directory, loads the optional JSON file (``--config``), merges it
with the flags (flags win), converts each value once by its kind, refuses
config keys the command does not read, resolves the weight and calls the
command body.  Every run that argparse accepts writes ``manifest.json`` into
the output directory with the converted configuration, a content hash of the
weight input, and sha256 digests of every artifact; a failed run, input
errors included, also leaves a ``FAILED`` marker next to whatever partial
artifacts exist, and its manifest holds null for what it did not reach.

Exit codes: 0 success, 2 input error, 3 certification failure,
4 convergence failure, 5 internal error.
"""

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import assembly, connection, localfield, oracle, solver, verify, weight
from .errors import (
    BlowUp,
    CertificationFailure,
    DegenerateDirection,
    InteriorityFailure,
    MultibumpError,
    NoAdmissibleZeta,
    NonConvergence,
    ScopeError,
    SingularLinearization,
    WeightError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERTIFICATION = 3
EXIT_CONVERGENCE = 4
EXIT_INTERNAL = 5


def classify_error(exc):
    """Map an exception to the documented exit code."""
    # input is parsed into WeightError, so a stray ValueError is a bug; a
    # failed factorization or eigensolve (LinAlgError) is numerical
    if isinstance(exc, np.linalg.LinAlgError):
        return EXIT_CONVERGENCE
    if isinstance(exc, (WeightError, ScopeError, NoAdmissibleZeta,
                        FileNotFoundError, IsADirectoryError,
                        PermissionError, json.JSONDecodeError,
                        UnicodeDecodeError)):
        return EXIT_INPUT
    if isinstance(exc, (CertificationFailure, InteriorityFailure)):
        return EXIT_CERTIFICATION
    if isinstance(exc, (NonConvergence, BlowUp, SingularLinearization,
                        DegenerateDirection)):
        return EXIT_CONVERGENCE
    return EXIT_INTERNAL


# -- configuration ------------------------------------------------------------


def _count(value):
    """A non-negative int, for a number of cells or samples."""
    n = int(value)
    if n < 0:
        raise ValueError("negative count")
    return n


class Option(NamedTuple):
    """One option of a subcommand: its flag, the kind its value converts to
    (str, int, _count or float), its default and its help.  A ``--`` flag is
    also the config key ``key``; a positional is read from the command line
    only."""
    flag: str
    kind: type = str
    default: object = None
    help: str = None
    choices: tuple = None

    @property
    def key(self):
        return self.flag.lstrip("-").replace("-", "_")


def load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise WeightError("config file must hold a JSON object")
    return {k.replace("-", "_"): v for k, v in cfg.items()}


def merge_config(args, cfg, options):
    """Merged run configuration, one entry per option: flag values beat
    config file values beat the declared defaults; a config null means the
    default, as an absent key does."""
    out = {}
    for opt in options:
        flag = getattr(args, opt.key)
        if flag is not None:
            out[opt.key] = flag
        elif cfg.get(opt.key) is not None:
            out[opt.key] = cfg[opt.key]
        else:
            out[opt.key] = opt.default
    return out


def _convert(opt, value):
    """value converted by the option's kind, None kept; a value that does
    not convert to a finite number (nan, inf) is an input error."""
    if value is None:
        return None
    if opt.kind is str:
        return str(value)
    try:
        out = opt.kind(value)
        if math.isfinite(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise WeightError(f"bad value {value!r} for {opt.key}")


def _canonical_bytes(w):
    return json.dumps(weight.weight_to_dict(w), sort_keys=True).encode()


@functools.cache
def _builtin_weight(name):
    """(WeightSpec, canonical bytes) of a built-in weight, built once per
    process; its arrays are read-only, as every caller shares them."""
    make = {"step": weight.make_step_weight, "sine": weight.make_sine_weight}
    w = make[name]()
    for arr in (w.seg_knots, w.seg_coefs, w.seg_positive):
        arr.flags.writeable = False
    return w, _canonical_bytes(w)


def resolve_weight(spec):
    """Return (WeightSpec, source label, canonical bytes) for a weight name.

    ``spec`` is "step", "sine", or a path to a JSON weight file.
    """
    if spec in (None, "step", "sine"):
        name = spec or "step"
        w, blob = _builtin_weight(name)
        return w, "builtin:" + name, blob
    w = weight.load_weight_json(spec)
    return w, spec, _canonical_bytes(w)


# -- artifacts ----------------------------------------------------------------


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    v = float(x)
    if math.isnan(v):
        return "nan"
    return "%.17g" % v


def write_csv(path, header, rows):
    """Write rows with deterministic float formatting, return the bytes.

    A table of numbers is formatted by one ``%`` operation, which prints
    what _fmt prints: bools as 1/0, and nan, inf and -inf as such.  It
    refuses strings, so a table that holds one takes the per-value path and
    its strings are written as they are.
    """
    rows = [tuple(row) for row in rows]
    try:
        body = ["\n".join(",".join(("%.17g",) * len(row)) for row in rows)
                % tuple(itertools.chain.from_iterable(rows))] if rows else []
    except TypeError:
        body = [",".join(_fmt(v) for v in row) for row in rows]
    data = ("\n".join([",".join(header)] + body) + "\n").encode()
    with open(path, "wb") as f:
        f.write(data)
    return data


def write_json(path, payload):
    """Write payload as strict JSON (RFC 8259), return the bytes: a NaN or
    infinite float, such as the fit of a one-point sweep, is written as
    null."""
    data = (json.dumps(_finite(payload), indent=2, sort_keys=True,
                       default=_jsonable, allow_nan=False) + "\n").encode()
    with open(path, "wb") as f:
        f.write(data)
    return data


def _finite(x):
    """x with each non-finite float in its dicts, lists and tuples None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return _finite(x.item())
    if isinstance(x, np.ndarray):
        return _finite(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if dataclasses.is_dataclass(x):
        return _finite(dataclasses.asdict(x))
    raise TypeError(f"cannot serialize {type(x).__name__}")


class RunDir:
    """Output directory with manifest bookkeeping for one command's run.

    ``open`` creates the directory; ``config`` and ``set_weight`` record the
    run's inputs as they become known.  As a context manager it closes the
    run: leaving the block writes the ok manifest, or on any exception the
    failed manifest (null for the inputs not yet recorded) and the
    ``FAILED`` marker, and the exception propagates.  A run whose directory
    could not be created writes nothing.
    """

    def __init__(self, command):
        self.command = command
        self.outdir = None
        self.config = None
        self.weight_label = self.weight_sha = None
        self.outputs = {}

    def open(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir

    def set_weight(self, label, blob):
        self.weight_label = label
        self.weight_sha = hashlib.sha256(blob).hexdigest()

    def manifest_hash(self):
        """sha256 of the command, the config and the weight's sha256, or
        None before both are recorded.  Artifact locations do not influence
        the computed bytes, so they stay out of the hash: equal hashes
        promise equal CSV content."""
        if self.config is None or self.weight_sha is None:
            return None
        content_cfg = {k: v for k, v in self.config.items()
                       if k not in ("outdir", "out", "report", "bump_csv")}
        seed = json.dumps({"command": self.command, "config": content_cfg,
                           "weight_sha256": self.weight_sha},
                          sort_keys=True, default=_jsonable)
        return hashlib.sha256(seed.encode()).hexdigest()

    def path(self, name):
        if os.path.isabs(name):
            return name
        return os.path.join(self.outdir, name)

    def add_csv(self, name, header, rows):
        p = self.path(name)
        data = write_csv(p, header, rows)
        self.outputs[os.path.basename(p)] = hashlib.sha256(data).hexdigest()
        return p

    def add_json(self, name, payload):
        p = self.path(name)
        data = write_json(p, payload)
        self.outputs[os.path.basename(p)] = hashlib.sha256(data).hexdigest()
        return p

    def add_text(self, name, text):
        p = self.path(name)
        data = text.encode()
        with open(p, "wb") as f:
            f.write(data)
        self.outputs[os.path.basename(p)] = hashlib.sha256(data).hexdigest()
        return p

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if self.outdir is None:
            return False
        error = None if exc is None else f"{kind.__name__}: {exc}"
        manifest = {
            "command": self.command,
            "config": self.config,
            "inputs": {"weight": self.weight_label,
                       "weight_sha256": self.weight_sha},
            "manifest_hash": self.manifest_hash(),
            "outputs": self.outputs,
            "status": "ok" if exc is None else "failed",
            "error": error,
        }
        write_json(os.path.join(self.outdir, "manifest.json"), manifest)
        marker = os.path.join(self.outdir, "FAILED")
        if exc is not None:
            with open(marker, "w") as f:
                f.write(error + "\n")
        elif os.path.exists(marker):
            os.remove(marker)
        return False


# -- shared pieces ------------------------------------------------------------


def _window_from(config):
    symbols, n = config["symbols"], config["N"]
    if symbols:
        code = solver.parse_symbols(symbols)
        if n is not None and n != len(code):
            raise WeightError(
                f"N = {n} disagrees with the {len(code)}-symbol code")
    elif n is not None:
        code = (1,) * n
    else:
        raise WeightError("need --symbols or --N")
    return solver.make_window(code)


def _mu_grid(config):
    lo, hi, pts = config["mu_from"], config["mu_to"], config["points"]
    if None in (lo, hi, pts) or not (0 < lo <= hi) or pts < 1:
        raise WeightError("need 0 < mu-from <= mu-to and points >= 1")
    if pts == 1 or lo == hi:
        return [hi]
    return list(np.geomspace(lo, hi, pts))


def _crossings(nodes, values):
    """Linear-interpolation zero crossings of a nodal function."""
    out = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            out.append(float(nodes[i]))
        elif a * b < 0.0:
            out.append(float(nodes[i] - a * (nodes[i + 1] - nodes[i]) / (b - a)))
    if values[-1] == 0.0:
        out.append(float(nodes[-1]))
    return out


# -- subcommands ----------------------------------------------------------------
#
# Each body takes the converted config, the weight and the open RunDir, and
# returns its stdout summary, which main prints once the manifest is written.


def cmd_local(cfg, w, run):
    ev = localfield.levels_of(w, cfg["mesh"])
    consts = solver.build_constant_pack(w, ev, K=cfg["K"])
    payload = {
        "period": w.period,
        "tau": w.tau,
        "sup_a_plus": w.sup_a_plus,
        "c": consts.c,
        "c_zeta": consts.c_zeta,
        "zeta": consts.zeta,
        "zeta_margin": consts.zeta_margin,
        "lambda1": ev.eigen()[0],
        "K": consts.K,
        "r": consts.r,
        "rho": consts.rho,
        "rho_attained": consts.rho_attained,
    }
    run.add_json(cfg["out"], payload)
    if cfg["bump_csv"]:
        bump = ev.ground_bump()
        run.add_csv(cfg["bump_csv"], ["t", "u"], zip(bump.t, bump.u))
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_solve(cfg, w, run):
    mu = cfg["mu"]
    if mu is None:
        raise WeightError("need --mu")
    window = _window_from(cfg)
    try:
        sol = solver.solve_multibump(w, window, mu, cfg["cells"] or 0)
    except CertificationFailure as e:
        if e.report is not None:
            report_payload = e.report.to_dict()
            report_payload["symbols"] = list(window.symbols)
            run.add_json(cfg["report"], report_payload)
        raise
    run.add_csv(cfg["out"], ["t", "u"], zip(sol.grid.nodes, sol.u.full()))
    report_payload = sol.report.to_dict()
    report_payload["symbols"] = list(window.symbols)
    report_payload["i_start"] = window.i_start
    report_payload["cells_per_interval"] = sol.grid.m
    report_payload["identities"] = verify.nehari_identities(sol)
    run.add_json(cfg["report"], report_payload)
    return (f"certified mu={mu:g} residual={sol.report.residual_inf:.3e} "
            f"sup={sol.u.sup_norm():.6g}")


def cmd_connection(cfg, w, run):
    for need in ("mu", "x", "y"):
        if cfg[need] is None:
            raise WeightError(f"need --{need}")
    p = connection.make_connection_problem(
        w, cfg["mu"], cfg["x"], cfg["y"], i=cfg["i"], l=cfg["l"],
        K=cfg["K"], r=cfg["r"])
    sol = connection.solve_connection(p, cells=cfg["cells"] or None)
    v, z = sol.sensitivities
    grid = sol.u.grid
    # u'(t+) at every node but the last, which has only u'(t-)
    left, right = assembly.Operator(grid.tables, p.mu).slopes(sol.u.values)
    run.add_csv(cfg["out"], ["t", "u", "du"],
                zip(grid.nodes, sol.u.full(), np.append(right[:-1], left[-1])))
    djdx, djdy = connection.energy_derivatives(sol)
    fdc = sol.fd_check
    payload = {
        "block": [p.t_lo, p.t_hi],
        "slopes": list(sol.boundary_slopes),
        "zeros": _crossings(grid.nodes, sol.u.full()),
        # v is pinned to 1 at t_lo and 0 at t_hi (z the reverse), so
        # positivity is meaningful away from the pinned zero only
        "sensitivity_signs": {
            "v_positive": bool(np.all(v.full()[:-1] > 0)),
            "v_decreasing": bool(np.all(np.diff(v.full()) < 0)),
            "z_positive": bool(np.all(z.full()[1:] > 0)),
            "z_increasing": bool(np.all(np.diff(z.full()) > 0)),
        },
        "fd_checks": {"dJ_dx": djdx, "dJ_dy": djdy,
                      "fd": list(fdc["fd"]),
                      "rel_err": list(fdc["rel_err"]),
                      "step": fdc["step"]},
        "cap_margins": connection.cap_margins(p, grid, sol.u.full()),
        "descent_iters": sol.descent_iters,
        "newton_iters": sol.newton_iters,
    }
    run.add_json(cfg["report"], payload)
    return (f"slopes=({sol.boundary_slopes[0]:.6g}, "
            f"{sol.boundary_slopes[1]:.6g}) "
            f"zeros={len(payload['zeros'])}")


def cmd_verify(cfg, w, run):
    for need in ("mu_from", "mu_to"):
        if cfg[need] is None:
            raise WeightError(f"need --{need.replace('_', '-')}")
    window = _window_from(cfg)
    mu_list = _mu_grid(cfg)
    # one continuation: the sweep's last solution is the one certified,
    # audited and re-integrated below
    sweep, sol = verify.run_sweep(w, window.symbols, mu_list,
                                  cells=cfg["cells"] or 0)
    solver.require_certified(sol.report)
    identities = verify.nehari_identities(sol)
    check = verify.oracle_residual(sol)
    payload = {
        "sweep": sweep,
        "identities_at_mu_max": identities,
        "oracle": {"rel": check.rel, "gap": check.gap, "ok": check.ok()},
        "minimal_period_T": verify.minimal_period(sol) * w.period,
    }
    run.add_json(cfg["out"], payload)
    if not payload["oracle"]["ok"]:
        raise CertificationFailure(
            f"oracle re-integration rel {check.rel:.3e} exceeds "
            f"{verify.ORACLE_BOUND:g}")
    return (f"decay slope={sweep['fitted_slopes']['decay'][0]:.4f} "
            f"identities={max(identities.values()):.3e} "
            f"oracle_rel={check.rel:.3e}")


def cmd_oracle(cfg, w, run):
    payload = {}
    rtol = cfg["rtol"]
    if rtol is None or rtol <= 0.0:
        raise WeightError(f"rtol must be positive, got {rtol!r}")
    if cfg["mode"] == "ground":
        payload["c"] = oracle.brute_ground_level(w, rtol=rtol)
    else:
        if cfg["t1"] is None:
            raise WeightError("need --t1")
        if cfg["out"] and cfg["samples"] < 2:
            raise WeightError(
                f"--samples must be at least 2 with --out, got "
                f"{cfg['samples']}")
        t0, t1, mu = cfg["t0"], cfg["t1"], cfg["mu"]
        if cfg["mode"] == "shoot":
            res = oracle.shoot_dirichlet(w, mu, t0, t1, cfg["x"], cfg["y"],
                                         rtol=rtol, s0=cfg["s0"])
            dense = res.dense
            payload.update(slope=res.slope, residual=res.residual,
                           iters=res.iters)
        else:
            _, dense = oracle.integrate(
                w, mu, oracle.IvpState(t=t0, u=cfg["u0"], du=cfg["du0"]),
                t1, rtol=rtol)
            payload.update(u_end=dense.eval_u(t1), du_end=dense.eval_du(t1))
        if cfg["out"]:
            ts = np.linspace(t0, t1, cfg["samples"])
            run.add_csv(cfg["out"], ["t", "u", "du"],
                        zip(ts, dense.eval_u(ts), dense.eval_du(ts)))
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_sweep(cfg, w, run):
    codes = sorted(solver.parse_symbols(c)
                   for c in (cfg["codes"] or "").split(",") if c)
    if not codes:
        raise WeightError("no codes given")
    mu_list = _mu_grid(cfg)
    cells = cfg["cells"] or 0

    agg_rows, bracket_rows, code_fits, errors = [], [], [], {}
    for code in codes:
        name = "".join(map(str, code))
        rows = []           # (mu, certified, residual, sup, interior sup)
        try:
            for sol, maxima in verify.sweep_solutions(w, code, mu_list,
                                                      cells):
                rows.append((sol.mu, sol.report.certified,
                             sol.report.residual_inf, sol.u.sup_norm(),
                             max(m for m, _ in maxima)))
        except NonConvergence as e:
            # the walk runs downward, so it reaches the higher mu; every
            # scheduled mu without a row counts as failing
            errors[name] = f"{type(e).__name__}: {e}"
            reached = {row[0] for row in rows}
            rows = sorted(rows + [(mu, False, math.nan, math.nan, math.nan)
                                  for mu in mu_list if mu not in reached])
        agg_rows += [(name,) + row for row in rows]
        bracket_rows.append(
            (name,) + solver.bracket([row[:2] for row in rows]))
        good = [(mu, s) for mu, ok, _, _, s in rows
                if ok and s > 0 and math.isfinite(s)]
        fit = None
        if len(good) >= 3:
            slope, intercept, _ = verify.loglog_fit(*zip(*good))
            fit = {"slope": slope, "intercept": intercept,
                   "points": len(good)}
        code_fits.append((name, fit))
        run.add_csv(f"decay_{name}.csv", ["mu", "interior_sup"],
                    [(mu, s) for mu, _, _, _, s in rows if math.isfinite(s)])
    run.add_csv("aggregate.csv",
                ["code", "mu", "certified", "residual", "sup",
                 "interior_sup"], agg_rows)
    run.add_csv("brackets.csv", ["code", "mu_fail", "mu_pass"],
                [(n, lo, "inf" if math.isinf(hi) else hi)
                 for n, lo, hi in bracket_rows])
    fits = {name: fit for name, fit in code_fits if fit}
    run.add_json("fits.json", fits)
    run.add_text("plot.gp", _gnuplot_script(code_fits))
    lines = []
    for name, lo, hi in bracket_rows:
        hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
        lines.append(f"{name}: bracket=({lo:g}, {hi_s})"
                     + (f" slope={fits[name]['slope']:.4f}"
                        if name in fits else "")
                     + (f" error={errors[name]}" if name in errors else ""))
    return "\n".join(lines)


def _gnuplot_script(code_fits):
    lines = [
        "set logscale xy",
        "set xlabel 'mu'",
        "set ylabel 'interior sup'",
        "set datafile separator ','",
        "set key left bottom",
    ]
    plots = []
    for name, fit in code_fits:
        plots.append(f"'decay_{name}.csv' skip 1 using 1:2 "
                     f"with linespoints title '{name}'")
        if fit:
            plots.append(f"exp({fit['intercept']:.6g}) * "
                         f"x**({fit['slope']:.6g}) "
                         f"title '{name} fit' with lines dt 2")
    lines.append("plot " + ", \\\n     ".join(plots))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


# -- declarations ---------------------------------------------------------------


class Command(NamedTuple):
    """A subcommand's help line, its body, its options in --help order
    (after --config) and its output directory when neither flag nor config
    sets one."""
    help: str
    body: object
    options: tuple
    outdir: str = "."


_WEIGHT = Option("--weight", help="'step', 'sine', or a weight JSON file")
_OUTDIR = Option("--outdir", help="artifact directory")

_COMMANDS = {
    "local": Command("weight constants and local levels", cmd_local, (
        _WEIGHT, _OUTDIR,
        Option("--mesh", _count, help="cells for the level solves"),
        Option("--K", float, help="endpoint cap override"),
        Option("--out", default="local.json", help="JSON output name"),
        Option("--bump-csv", help="also write the ground bump profile"),
    )),
    "solve": Command("certified periodic multibump solve", cmd_solve, (
        _WEIGHT, _OUTDIR,
        Option("--symbols", help="0/1 code, e.g. 110 or 1,1,0"),
        Option("--N", int,
               help="window length; all-ones when --symbols is omitted"),
        Option("--mu", float,
               help="target mu; Newton starts from the pasted ground bumps "
               f"at max({solver.MU0:g}, mu) and walks down to it, first on "
               f"a mesh of 1/{solver.COARSE_DIV} the cells"),
        Option("--cells", int, help="cells per subinterval"),
        Option("--out", default="sol.csv", help="solution CSV name"),
        Option("--report", default="report.json",
               help="certification report JSON name"),
    )),
    "connection": Command("two-point connection on one block",
                          cmd_connection, (
        _WEIGHT, _OUTDIR,
        Option("--mu", float),
        Option("--x", float, help="left endpoint value"),
        Option("--y", float, help="right endpoint value"),
        Option("--l", int, 1, help="interior positivity intervals"),
        Option("--i", int, -1, help="index of the starting block"),
        Option("--K", float, help="endpoint cap"),
        Option("--r", float, help="interior energy cap"),
        Option("--cells", int),
        Option("--out", default="connection.csv", help="profile CSV name"),
        Option("--report", default="connection.json",
               help="diagnostics JSON name"),
    )),
    "verify": Command("asymptotic sweep report", cmd_verify, (
        _WEIGHT, _OUTDIR,
        Option("--symbols"),
        Option("--N", int),
        Option("--mu-from", float),
        Option("--mu-to", float),
        Option("--points", int, 9),
        Option("--cells", int),
        Option("--out", default="verify.json", help="report JSON name"),
    )),
    "oracle": Command("reference shooting and IVP runs", cmd_oracle, (
        Option("mode", choices=("shoot", "integrate", "ground")),
        _WEIGHT, _OUTDIR,
        Option("--mu", float, 0.0),
        Option("--t0", float, 0.0),
        Option("--t1", float),
        Option("--x", float, 0.0, help="u(t0) for shooting"),
        Option("--y", float, 0.0, help="u(t1) for shooting"),
        Option("--u0", float, 0.0, help="u(t0) for plain integration"),
        Option("--du0", float, 1.0, help="u'(t0) for plain integration"),
        Option("--s0", float, help="initial shooting slope"),
        Option("--rtol", float, 1e-10),
        Option("--samples", _count, 400, help="CSV sample count"),
        Option("--out", help="dense output CSV name"),
    )),
    "sweep": Command("mu sweeps over codes", cmd_sweep, (
        _WEIGHT, _OUTDIR,
        Option("--codes", default="1,10,110",
               help="comma separated 0/1 codes, e.g. 1,10,110"),
        Option("--mu-from", float, 10.0),
        Option("--mu-to", float, 1e5),
        Option("--points", int, 9),
        Option("--cells", int),
    ), outdir="sweep_out"),
}


# -- entry point ----------------------------------------------------------------


@functools.cache
def build_parser():
    """The command line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="multibump",
        description="Multibump solutions of u'' + (a+ - mu a-) u^3 = 0")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags win")
        for opt in command.options:
            # a negative count parses, so that it fails in _convert and
            # leaves its FAILED marker
            p.add_argument(opt.flag, type=int if opt.kind is _count
                           else opt.kind, choices=opt.choices, help=opt.help)
    return ap


def _run(args, run):
    """One command's lifecycle inside its open RunDir; returns the body's
    stdout summary."""
    command = _COMMANDS[args.command]
    loaded = {}
    try:
        loaded = load_config(args.config)
    finally:
        # a config file that fails to load still leaves its failed run
        outdir = args.outdir if args.outdir is not None \
            else loaded.get("outdir")
        run.open(str(outdir) if outdir else command.outdir)
    cfg = run.config = merge_config(args, loaded, command.options)
    cfg = run.config = {opt.key: _convert(opt, cfg[opt.key])
                        for opt in command.options}
    unread = sorted(set(loaded) - {opt.key for opt in command.options
                                   if opt.flag.startswith("--")})
    if unread:
        raise WeightError(f"{args.command} does not read config key(s) "
                          + ", ".join(map(repr, unread)))
    w, label, blob = resolve_weight(cfg["weight"])
    run.set_weight(label, blob)
    return command.body(cfg, w, run)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with RunDir(args.command) as run:
            text = _run(args, run)
        print(text)
        return EXIT_OK
    except KeyboardInterrupt:
        raise
    except BaseException as e:
        code = classify_error(e)
        kind = {EXIT_INPUT: "input error", EXIT_CERTIFICATION:
                "certification failure", EXIT_CONVERGENCE:
                "convergence failure"}.get(code, "internal error")
        print(f"multibump: {kind}: {e}", file=sys.stderr)
        if code == EXIT_INTERNAL and not isinstance(e, MultibumpError):
            import traceback
            traceback.print_exc()
        return code


if __name__ == "__main__":
    sys.exit(main())
