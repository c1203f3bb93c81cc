"""Command line front end.

Subcommands
-----------
local       weight constants and local minimization levels
solve       periodic multibump solve with certification
connection  two-point connection problem on one block
verify      asymptotic mu sweep with decay fits and identity checks
oracle      shooting / IVP / ground-level reference runs
sweep       mu sweeps over several codes

Configuration comes from an optional JSON file (``--config``) merged with
command line flags; flags win.  Every run writes ``manifest.json`` into the
output directory with the merged configuration, a content hash of the weight
input, and sha256 digests of every artifact.  Failed runs leave a ``FAILED``
marker next to whatever partial artifacts exist.

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

import numpy as np

from . import assembly, connection, localfield, oracle, solver, verify, weight
from .errors import (
    BlowUp,
    CertificationFailure,
    DegenerateDirection,
    InsufficientSweep,
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
                        InsufficientSweep, FileNotFoundError,
                        IsADirectoryError, PermissionError,
                        json.JSONDecodeError, UnicodeDecodeError)):
        return EXIT_INPUT
    if isinstance(exc, (CertificationFailure, InteriorityFailure)):
        return EXIT_CERTIFICATION
    if isinstance(exc, (NonConvergence, BlowUp, SingularLinearization,
                        DegenerateDirection)):
        return EXIT_CONVERGENCE
    return EXIT_INTERNAL


# -- configuration ------------------------------------------------------------


def load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise WeightError("config file must hold a JSON object")
    return {k.replace("-", "_"): v for k, v in cfg.items()}


def merge_config(args, cfg, keys):
    """Merged run configuration: flag values beat config file values.  The
    config file's keys that the command does not read go, sorted, under
    "unread", which RunDir refuses."""
    out = {}
    for key, default in keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = default
    unread = sorted(set(cfg) - set(keys))
    if unread:
        out["unread"] = unread
    return out


def _num(cfg, key, kind=float):
    """cfg[key] converted by ``kind``, or None when unset; a value that does
    not convert to a finite number (nan, inf) is an input error."""
    value = cfg.get(key)
    if value is None:
        return None
    try:
        out = kind(value)
        if math.isfinite(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise WeightError(f"bad value {value!r} for {key}")


def _count(value):
    """A non-negative int, for a number of cells or samples."""
    n = int(value)
    if n < 0:
        raise ValueError("negative count")
    return n


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
    data = (json.dumps(payload, indent=2, sort_keys=True,
                       default=_jsonable) + "\n").encode()
    with open(path, "wb") as f:
        f.write(data)
    return data


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if dataclasses.is_dataclass(x):
        return dataclasses.asdict(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


class RunDir:
    """Output directory with manifest bookkeeping.

    As a context manager it runs one command's lifecycle: leaving the block
    writes the ok manifest, or on any exception the failed manifest and the
    ``FAILED`` marker, and the exception propagates.  A config holding keys
    the command does not read ("unread", see merge_config) fails on entry.
    """

    def __init__(self, command, outdir, config, weight_label, weight_blob):
        self.command = command
        self.outdir = outdir or "."
        os.makedirs(self.outdir, exist_ok=True)
        self.config = dict(config)
        self.weight_label = weight_label
        self.weight_sha = hashlib.sha256(weight_blob).hexdigest()
        self.outputs = {}
        # artifact locations do not influence the computed bytes, so they
        # stay out of the hash: equal hashes promise equal CSV content
        content_cfg = {k: v for k, v in self.config.items()
                       if k not in ("outdir", "out", "report", "bump_csv")}
        seed = json.dumps({"command": command, "config": content_cfg,
                           "weight_sha256": self.weight_sha},
                          sort_keys=True, default=_jsonable)
        self.manifest_hash = hashlib.sha256(seed.encode()).hexdigest()

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
        unread = self.config.get("unread")
        if unread:
            exc = WeightError(f"{self.command} does not read config key(s) "
                              + ", ".join(map(repr, unread)))
            self.__exit__(WeightError, exc, None)
            raise exc
        return self

    def __exit__(self, kind, exc, tb):
        error = None if exc is None else f"{kind.__name__}: {exc}"
        manifest = {
            "command": self.command,
            "config": self.config,
            "inputs": {"weight": self.weight_label,
                       "weight_sha256": self.weight_sha},
            "manifest_hash": self.manifest_hash,
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
    symbols = config.get("symbols")
    n = config.get("N")
    if symbols:
        code = solver.parse_symbols(str(symbols))
        if n is not None and _num(config, "N", int) != len(code):
            raise WeightError(
                f"N = {n} disagrees with the {len(code)}-symbol code")
    elif n is not None:
        code = (1,) * _num(config, "N", int)
    else:
        raise WeightError("need --symbols or --N")
    return solver.make_window(code)


def _cells(config):
    """Cells per subinterval of a solve; 0 picks solver.auto_cells."""
    return _num(config, "cells", int) or 0


def _mu_grid(config):
    lo = _num(config, "mu_from")
    hi = _num(config, "mu_to")
    pts = _num(config, "points", int)
    if pts is None:
        pts = 9
    if not (0 < lo <= hi) or pts < 1:
        raise WeightError("need 0 < mu-from <= mu-to and points >= 1")
    if pts == 1 or lo == hi:
        return [hi]
    return list(np.geomspace(lo, hi, pts))


def _solution_rows(sol):
    grid = sol.grid
    full = sol.u.full()
    return list(zip(grid.nodes, full))


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


_LOCAL_KEYS = {"weight": None, "mesh": None, "K": None,
               "out": "local.json", "bump_csv": None, "outdir": None}


def cmd_local(args):
    cfg = merge_config(args, load_config(args.config), _LOCAL_KEYS)
    w, label, blob = resolve_weight(cfg["weight"])
    with RunDir("local", cfg["outdir"], cfg, label, blob) as run:
        ev = localfield.levels_of(w, _num(cfg, "mesh", _count))
        consts = solver.build_constant_pack(w, ev, K=_num(cfg, "K"))
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
            run.add_csv(cfg["bump_csv"], ["t", "u"],
                        zip(bump.t, bump.u))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


_SOLVE_KEYS = {"weight": None, "symbols": None, "N": None, "mu": None,
               "cells": None, "out": "sol.csv", "report": "report.json",
               "outdir": None}


def cmd_solve(args):
    cfg = merge_config(args, load_config(args.config), _SOLVE_KEYS)
    if cfg["mu"] is None:
        raise WeightError("need --mu")
    w, label, blob = resolve_weight(cfg["weight"])
    with RunDir("solve", cfg["outdir"], cfg, label, blob) as run:
        window = _window_from(cfg)
        mu = _num(cfg, "mu")
        try:
            sol = solver.solve_multibump(w, window, mu, _cells(cfg))
        except CertificationFailure as e:
            if e.report is not None:
                report_payload = e.report.to_dict()
                report_payload["symbols"] = list(window.symbols)
                run.add_json(cfg["report"], report_payload)
            raise
        run.add_csv(cfg["out"], ["t", "u"], _solution_rows(sol))
        report_payload = sol.report.to_dict()
        report_payload["symbols"] = list(window.symbols)
        report_payload["i_start"] = window.i_start
        report_payload["cells_per_interval"] = sol.grid.m
        report_payload["identities"] = verify.nehari_identities(sol)
        run.add_json(cfg["report"], report_payload)
    print(f"certified mu={mu:g} residual={sol.report.residual_inf:.3e} "
          f"sup={sol.u.sup_norm():.6g}")
    return EXIT_OK


_CONN_KEYS = {"weight": None, "mu": None, "x": None, "y": None, "l": 1,
              "i": -1, "K": None, "r": None, "cells": None,
              "out": "connection.csv", "report": "connection.json",
              "outdir": None}


def cmd_connection(args):
    cfg = merge_config(args, load_config(args.config), _CONN_KEYS)
    for need in ("mu", "x", "y"):
        if cfg[need] is None:
            raise WeightError(f"need --{need}")
    w, label, blob = resolve_weight(cfg["weight"])
    with RunDir("connection", cfg["outdir"], cfg, label, blob) as run:
        p = connection.make_connection_problem(
            w, _num(cfg, "mu"), _num(cfg, "x"), _num(cfg, "y"),
            i=_num(cfg, "i", int), l=_num(cfg, "l", int),
            K=_num(cfg, "K"), r=_num(cfg, "r"))
        cells = _num(cfg, "cells", int) or None
        sol = connection.solve_connection(p, cells=cells)
        grid = sol.u.grid
        du = assembly.nodal_derivative(sol.u)
        run.add_csv(cfg["out"], ["t", "u", "du"],
                    zip(grid.nodes, sol.u.full(), du))
        djdx, djdy = connection.energy_derivatives(sol)
        fdc = sol.fd_check
        v, z = sol.sensitivities
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
    print(f"slopes=({sol.boundary_slopes[0]:.6g}, "
          f"{sol.boundary_slopes[1]:.6g}) "
          f"zeros={len(payload['zeros'])}")
    return EXIT_OK


_VERIFY_KEYS = {"weight": None, "symbols": None, "N": None, "mu_from": None,
                "mu_to": None, "points": 9, "delta": None, "cells": None,
                "out": "verify.json", "outdir": None}


def cmd_verify(args):
    cfg = merge_config(args, load_config(args.config), _VERIFY_KEYS)
    for need in ("mu_from", "mu_to"):
        if cfg[need] is None:
            raise WeightError(f"need --{need.replace('_', '-')}")
    w, label, blob = resolve_weight(cfg["weight"])
    with RunDir("verify", cfg["outdir"], cfg, label, blob) as run:
        window = _window_from(cfg)
        mu_list = _mu_grid(cfg)
        # one continuation: the sweep's last solution is the one
        # certified, audited and re-integrated below
        report = verify.run_sweep(w, window.symbols, mu_list,
                                  delta=_num(cfg, "delta"),
                                  cells=_cells(cfg))
        sol = report.solution
        solver.require_certified(sol.report)
        identities = verify.nehari_identities(sol)
        check = verify.oracle_residual(sol)
        payload = {
            "sweep": report.to_dict(),
            "identities_at_mu_max": identities,
            "oracle": {"rel": check.rel, "gap": check.gap,
                       "ok": check.ok()},
            "minimal_period_T": verify.minimal_period(sol) * w.period,
        }
        run.add_json(cfg["out"], payload)
    print(f"decay slope={report.fitted_slopes['decay'][0]:.4f} "
          f"identities={max(identities.values()):.3e} "
          f"oracle_rel={check.rel:.3e}")
    return EXIT_OK


_ORACLE_KEYS = {"weight": None, "mu": 0.0, "t0": 0.0, "t1": None, "x": 0.0,
                "y": 0.0, "u0": 0.0, "du0": 1.0, "s0": None, "rtol": 1e-10,
                "samples": 400, "out": None, "outdir": None}


def cmd_oracle(args):
    cfg = merge_config(args, load_config(args.config), _ORACLE_KEYS)
    w, label, blob = resolve_weight(cfg["weight"])
    cfg["mode"] = args.mode
    with RunDir("oracle", cfg["outdir"], cfg, label, blob) as run:
        payload = {}
        rtol = _num(cfg, "rtol")
        if rtol is None or rtol <= 0.0:
            raise WeightError(f"rtol must be positive, got {rtol!r}")
        if args.mode == "ground":
            payload["c"] = oracle.brute_ground_level(w, rtol=rtol)
        else:
            if cfg["t1"] is None:
                raise WeightError("need --t1")
            t0, t1 = _num(cfg, "t0"), _num(cfg, "t1")
            mu = _num(cfg, "mu")
            if args.mode == "shoot":
                res = oracle.shoot_dirichlet(
                    w, mu, t0, t1, _num(cfg, "x"), _num(cfg, "y"),
                    rtol=rtol, s0=_num(cfg, "s0"))
                dense = res.dense
                payload.update(slope=res.slope, residual=res.residual,
                               iters=res.iters)
            else:
                _, dense = oracle.integrate(
                    w, mu, oracle.IvpState(t=t0, u=_num(cfg, "u0"),
                                           du=_num(cfg, "du0")),
                    t1, rtol=rtol)
                payload.update(u_end=dense.eval_u(t1),
                               du_end=dense.eval_du(t1))
            if cfg["out"]:
                ts = np.linspace(t0, t1, _num(cfg, "samples", _count))
                run.add_csv(cfg["out"], ["t", "u", "du"],
                            zip(ts, dense.eval_u(ts), dense.eval_du(ts)))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


_SWEEP_KEYS = {"weight": None, "codes": "1,10,110", "mu_from": 10.0,
               "mu_to": 1e5, "points": 9, "delta": None, "cells": None,
               "outdir": None}


def cmd_sweep(args):
    cfg = merge_config(args, load_config(args.config), _SWEEP_KEYS)
    w, label, blob = resolve_weight(cfg["weight"])
    with RunDir("sweep", cfg["outdir"] or "sweep_out", cfg, label,
                blob) as run:
        codes = sorted(solver.parse_symbols(c)
                       for c in str(cfg["codes"]).split(",") if c)
        if not codes:
            raise WeightError("no codes given")
        mu_list = _mu_grid(cfg)
        cells = _cells(cfg)
        delta = _num(cfg, "delta")
        if delta is None:
            delta = 0.2 * (w.period - w.tau)

        agg_rows, bracket_rows, code_fits, errors = [], [], [], {}
        for code in codes:
            name = "".join(map(str, code))
            rows = []           # (mu, certified, residual, sup, interior sup)
            try:
                for sol, maxima in verify.sweep_solutions(w, code, mu_list,
                                                          delta, cells):
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
                        [(mu, s) for mu, _, _, _, s in rows
                         if math.isfinite(s)])
        run.add_csv("aggregate.csv",
                    ["code", "mu", "certified", "residual", "sup",
                     "interior_sup"], agg_rows)
        run.add_csv("brackets.csv", ["code", "mu_fail", "mu_pass"],
                    [(n, lo, "inf" if math.isinf(hi) else hi)
                     for n, lo, hi in bracket_rows])
        fits = {name: fit for name, fit in code_fits if fit}
        run.add_json("fits.json", fits)
        run.add_text("plot.gp", _gnuplot_script(code_fits))
    for name, lo, hi in bracket_rows:
        hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
        print(f"{name}: bracket=({lo:g}, {hi_s})"
              + (f" slope={fits[name]['slope']:.4f}" if name in fits else "")
              + (f" error={errors[name]}" if name in errors else ""))
    return EXIT_OK


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


# -- entry point ----------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags win")
    sp.add_argument("--weight",
                    help="'step', 'sine', or a weight JSON file")
    sp.add_argument("--outdir", help="artifact directory")


@functools.cache
def build_parser():
    """The command line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="multibump",
        description="Multibump solutions of u'' + (a+ - mu a-) u^3 = 0")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local", help="weight constants and local levels")
    _add_common(p)
    p.add_argument("--mesh", type=int, help="cells for the level solves")
    p.add_argument("--K", type=float, help="endpoint cap override")
    p.add_argument("--out", help="JSON output name")
    p.add_argument("--bump-csv", dest="bump_csv",
                   help="also write the ground bump profile")

    p = sub.add_parser("solve", help="certified periodic multibump solve")
    _add_common(p)
    p.add_argument("--symbols", help="0/1 code, e.g. 110 or 1,1,0")
    p.add_argument("--N", type=int,
                   help="window length; all-ones when --symbols is omitted")
    p.add_argument("--mu", type=float,
                   help="target mu; Newton starts from the pasted ground "
                   f"bumps at max({solver.MU0:g}, mu) and walks down to it, "
                   f"first on a mesh of 1/{solver.COARSE_DIV} the cells")
    p.add_argument("--cells", type=int, help="cells per subinterval")
    p.add_argument("--out", help="solution CSV name")
    p.add_argument("--report", help="certification report JSON name")

    p = sub.add_parser("connection",
                       help="two-point connection on one block")
    _add_common(p)
    p.add_argument("--mu", type=float)
    p.add_argument("--x", type=float, help="left endpoint value")
    p.add_argument("--y", type=float, help="right endpoint value")
    p.add_argument("--l", type=int, help="interior positivity intervals")
    p.add_argument("--i", type=int, help="index of the starting block")
    p.add_argument("--K", type=float, help="endpoint cap")
    p.add_argument("--r", type=float, help="interior energy cap")
    p.add_argument("--cells", type=int)
    p.add_argument("--out", help="profile CSV name")
    p.add_argument("--report", help="diagnostics JSON name")

    p = sub.add_parser("verify", help="asymptotic sweep report")
    _add_common(p)
    p.add_argument("--symbols")
    p.add_argument("--N", type=int)
    p.add_argument("--mu-from", dest="mu_from", type=float)
    p.add_argument("--mu-to", dest="mu_to", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--delta", type=float, help="interior margin")
    p.add_argument("--cells", type=int)
    p.add_argument("--out", help="report JSON name")

    p = sub.add_parser("oracle", help="reference shooting and IVP runs")
    p.add_argument("mode", choices=["shoot", "integrate", "ground"])
    _add_common(p)
    p.add_argument("--mu", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--x", type=float, help="u(t0) for shooting")
    p.add_argument("--y", type=float, help="u(t1) for shooting")
    p.add_argument("--u0", type=float, help="u(t0) for plain integration")
    p.add_argument("--du0", type=float, help="u'(t0) for plain integration")
    p.add_argument("--s0", type=float, help="initial shooting slope")
    p.add_argument("--rtol", type=float)
    p.add_argument("--samples", type=int, help="CSV sample count")
    p.add_argument("--out", help="dense output CSV name")

    p = sub.add_parser("sweep", help="mu sweeps over codes")
    _add_common(p)
    p.add_argument("--codes", help="comma separated 0/1 codes, e.g. 1,10,110")
    p.add_argument("--mu-from", dest="mu_from", type=float)
    p.add_argument("--mu-to", dest="mu_to", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--cells", type=int)

    return ap


_DISPATCH = {
    "local": cmd_local,
    "solve": cmd_solve,
    "connection": cmd_connection,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
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
