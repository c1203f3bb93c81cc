"""End-to-end runs of the command line front end."""

import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multibump import (assembly, cli, connection, localfield, oracle, solver,
                       verify, weight)
from multibump.errors import NewtonFailure, WeightError

C_STEP = 15.756060010769785


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def test_local_constants(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["local", "--outdir", d])
    assert rc == 0
    payload = _read_json(os.path.join(d, "local.json"))
    # plumbing check only; the level itself is limited by the level mesh
    # (200 cells on step), whose O(h^2) error is 4.7e-5 relative
    assert math.isclose(payload["c"], C_STEP, rel_tol=1e-4)
    assert payload["zeta"] > 0.0
    assert abs(payload["r"] ** 2 - 1.0 / 32.0) < 1e-15
    manifest = _read_json(os.path.join(d, "manifest.json"))
    assert manifest["status"] == "ok"
    assert "local.json" in manifest["outputs"]


def test_one_pack_per_weight_across_commands(tmp_path, monkeypatch):
    """The README's local, solve, verify and sweep run in one process build
    step's constant pack once, and local.json prints that pack."""
    built = []
    real = weight.build_constant_pack

    def counted(*args):
        built.append(args[0].digest)
        return real(*args)

    # every name the pack builder is bound to
    monkeypatch.setattr(weight, "build_constant_pack", counted)
    monkeypatch.setattr(solver, "build_constant_pack", counted)
    runs = [["local"],
            ["solve", "--symbols", "110", "--mu", "1e3"],
            ["verify", "--symbols", "10", "--mu-from", "1e2", "--mu-to",
             "1e4", "--points", "9"],
            ["sweep", "--codes", "1,10,110", "--mu-from", "10", "--mu-to",
             "1e5", "--points", "9"]]
    for i, argv in enumerate(runs):
        assert cli.main(argv + ["--outdir", str(tmp_path / str(i))]) == 0
    w = cli.resolve_weight("step")[0]
    assert built == [w.digest]
    pack = localfield.levels_of(w).pack
    payload = _read_json(tmp_path / "0" / "local.json")
    for key in ("c", "c_zeta", "zeta", "K", "r", "rho"):
        assert payload[key] == getattr(pack, key), key


def test_solve_roundtrip(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--cells", "200", "--outdir", d])
    assert rc == 0
    report = _read_json(os.path.join(d, "report.json"))
    assert report["positivity"] is True
    assert report["residual_inf"] < 1e-9
    assert report["identities"]["ii"] < 1e-12
    assert report["symbols"] == [1, 0]
    data = np.genfromtxt(os.path.join(d, "sol.csv"), delimiter=",", names=True)
    assert np.all(data["u"] > 0.0)
    assert len(data) > 100


def test_bad_symbols_is_input_error(tmp_path):
    rc = cli.main(["solve", "--symbols", "102", "--mu", "800",
                   "--outdir", str(tmp_path)])
    assert rc == 2


def test_missing_weight_file_is_input_error(tmp_path):
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--weight", str(tmp_path / "nope.json"),
                   "--outdir", str(tmp_path)])
    assert rc == 2


def test_non_finite_newton_step_is_convergence_failure(tmp_path,
                                                       monkeypatch):
    real = assembly.solve_tridiagonal

    def nan_step(diag, off, rhs):
        step = real(diag, off, rhs)
        if len(off) == len(diag):          # the periodic Newton step
            step[len(step) // 2] = np.nan
        return step

    monkeypatch.setattr(assembly, "solve_tridiagonal", nan_step)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--cells", "160", "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")


def test_singular_periodic_band_is_convergence_failure(tmp_path,
                                                       monkeypatch):
    # the cyclic solve sends its two right-hand sides through one gtsv call;
    # a positive info is LAPACK's exactly zero pivot
    real = assembly.dgtsv
    calls = []

    def singular(dl, d, du, b, **flags):
        if np.ndim(b) == 2:
            calls.append(np.shape(b)[1])
            return dl, d, du, b, 1
        return real(dl, d, du, b, **flags)

    monkeypatch.setattr(assembly, "dgtsv", singular)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--cells", "160", "--outdir", str(tmp_path)])
    assert rc == 4
    assert calls and set(calls) == {2}
    assert os.path.exists(tmp_path / "FAILED")
    assert "singular Jacobian" in (tmp_path / "FAILED").read_text()


@pytest.mark.parametrize("periodic", [True, False],
                         ids=["periodic", "levels"])
def test_non_finite_jacobian_is_convergence_failure(tmp_path, monkeypatch,
                                                    periodic):
    """A NaN in the Newton system, of the window's Newton (periodic) or of
    the ground level's (clamped), makes the tridiagonal solve non-finite:
    exit 4, not 5 (a NaN reached scipy's finiteness check once)."""
    real = assembly.Operator.tridiagonal

    def nan_system(self, values):
        diag, off = real(self, values)
        if self.grid.periodic == periodic:
            diag = diag.copy()
            diag[len(diag) // 2] = np.nan
        return diag, off

    monkeypatch.setattr(assembly.Operator, "tridiagonal", nan_system)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--cells", "160", "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")
    assert "singular Jacobian" in (tmp_path / "FAILED").read_text()


def test_integrator_failure_is_convergence_failure(tmp_path, monkeypatch):
    # a step rule that allows less than 10 ulp of s ("step size
    # underflow"): exit 4, not 2
    real = oracle._step

    def no_step(*args):
        terms, h, check_from = real(*args)
        return terms, [0.0] * len(h), check_from

    monkeypatch.setattr(oracle, "_step", no_step)
    rc = cli.main(["oracle", "integrate", "--mu", "1", "--t0", "0",
                   "--t1", "1", "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")
    assert "Required step size" in (tmp_path / "FAILED").read_text()


def test_linalg_error_is_convergence_failure(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; it must not read as bad input
    def broken_cholesky(*args, **kwargs):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setattr(localfield.assembly, "cholesky_factor",
                        broken_cholesky)
    rc = cli.main(["local", "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")


def test_non_numeric_config_value_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbols": "10", "mu": "abc"}))
    rc = cli.main(["solve", "--config", str(cfg),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert os.path.exists(tmp_path / "out" / "FAILED")
    # JSON reads 1e400 as inf, which no count converts to
    cfg.write_text('{"symbols": "10", "mu": 800, "cells": 1e400}')
    assert cli.main(["solve", "--config", str(cfg),
                     "--outdir", str(tmp_path / "big")]) == 2


def test_non_numeric_weight_file_is_input_error(tmp_path):
    spec = weight.weight_to_dict(weight.make_step_weight())
    spec["T"] = "x"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec))
    rc = cli.main(["local", "--weight", str(path),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["local"],
    ["solve", "--symbols", "1", "--mu", "1e3"],
    ["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4"],
])
def test_weight_of_empty_polys_is_input_error(tmp_path, argv):
    """A weight file whose poly pieces all have no coefficients is the zero
    weight, refused as such: exit 2 with its FAILED marker."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"T": 2.0, "tau": 1.0, "pieces": [
        {"t0": 0.0, "t1": 1.0, "kind": "poly", "data": []},
        {"t0": 1.0, "t1": 2.0, "kind": "poly", "data": []}]}))
    out = tmp_path / "out"
    assert cli.main(argv + ["--weight", str(path), "--outdir", str(out)]) == 2
    assert "vanishes identically" in (out / "FAILED").read_text()


def test_bad_count_and_undecodable_file_are_input_errors(tmp_path):
    out = tmp_path / "samples"
    assert cli.main(["oracle", "integrate", "--t1", "1", "--samples", "-3",
                     "--outdir", str(out)]) == 2
    assert "bad value -3 for samples" in (out / "FAILED").read_text()
    assert cli.main(["verify", "--symbols", "10", "--mu-from", "1e2",
                     "--mu-to", "1e3", "--points", "0",
                     "--outdir", str(tmp_path / "points")]) == 2
    path = tmp_path / "w.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert cli.main(["local", "--weight", str(path),
                     "--outdir", str(tmp_path / "bin")]) == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--symbols", "10", "--mu", "inf"],
    ["solve", "--symbols", "10", "--mu", "nan"],
    ["verify", "--symbols", "10", "--mu-from", "1e2", "--mu-to", "inf"],
    ["connection", "--mu", "inf", "--x", "0.6", "--y", "0.4"],
    ["connection", "--mu", "2000", "--x", "nan", "--y", "0.4"],
    ["oracle", "integrate", "--t1", "nan"],
    ["oracle", "shoot", "--mu", "nan", "--t0", "0", "--t1", "1",
     "--x", "0", "--y", "0.3"],
    ["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4", "--K", "-1"],
    ["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4", "--K", "0"],
])
def test_non_finite_or_non_positive_value_is_input_error(tmp_path, argv):
    """nan and inf are bad input, as is a cap K that |u| < K can never
    meet; each run leaves its FAILED marker."""
    assert cli.main(argv + ["--outdir", str(tmp_path)]) == 2
    assert os.path.exists(tmp_path / "FAILED")


@pytest.mark.parametrize("flag", [["solve", "--newton-tol", "1e-8"],
                                  ["verify", "--alpha", "0.5"],
                                  ["verify", "--oracle-rtol", "1e-12"],
                                  ["verify", "--delta", "0.2"],
                                  ["sweep", "--delta", "0.2"],
                                  ["connection", "--i", "0"],
                                  ["solve", "--N", "3"],
                                  ["verify", "--N", "3"],
                                  ["local", "--bump-csv", "bump.csv"],
                                  ["local", "--mesh", "800"],
                                  ["local", "--K", "8"],
                                  ["oracle", "integrate", "--t1", "1",
                                   "--rtol", "1e-10"]])
def test_deleted_flags_are_refused(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(flag)
    assert exc.value.code == 2


_REFUSALS = {
    "config-list": (["local", "--config", "list.json"],
                    "config file must hold a JSON object"),
    "sweep-no-codes": (["sweep", "--codes", ""], "no codes given"),
    "integrate-no-t1": (["oracle", "integrate"], "need --t1"),
    "connection-mu-0": (["connection", "--mu", "0", "--x", "0.6",
                         "--y", "0.4"], "mu must be positive"),
    "connection-l-negative": (["connection", "--mu", "2000", "--x", "0.6",
                               "--y", "0.4", "--l", "-1"], "l must be >= 0"),
    "connection-x-over-K": (["connection", "--mu", "2000", "--x", "100",
                             "--y", "0.4"], "must not exceed K"),
    "connection-4-cells": (["connection", "--mu", "2000", "--x", "0.6",
                            "--y", "0.4", "--cells", "4"],
                           "at least 8 cells"),
    "solve-letter-symbol": (["solve", "--symbols", "1a0", "--mu", "800"],
                            "symbols must be digits"),
    "solve-mu-0": (["solve", "--symbols", "10", "--mu", "0"],
                   "mu_target must be positive"),
    "solve-no-symbols": (["solve", "--mu", "800"], "need --symbols"),
    # a config value is converted no more loosely than its flag
    "config-points-1.9": (["verify", "--symbols", "10", "--mu-from", "1e2",
                           "--mu-to", "1e3", "--config", "points.json"],
                          "bad value 1.9 for points"),
    "config-cells-200.7": (["solve", "--symbols", "10", "--mu", "1e3",
                            "--config", "cells.json"],
                           "bad value 200.7 for cells"),
    "config-mu-true": (["solve", "--symbols", "10", "--config", "mu.json"],
                       "bad value True for mu"),
    # local has one level mesh and one cap K, so neither is a key of it
    "config-mesh-true": (["local", "--config", "mesh.json"],
                         "does not read config key(s) 'mesh'"),
    "config-local-K": (["local", "--config", "K.json"],
                       "does not read config key(s) 'K'"),
}
_CONFIGS = {"list.json": [1, 2], "points.json": {"points": 1.9},
            "cells.json": {"cells": 200.7}, "mu.json": {"mu": True},
            "mesh.json": {"mesh": True}, "K.json": {"K": 8}}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_input_refusal_exits_2(tmp_path, monkeypatch, case):
    """Each input refusal of a command exits 2 and names itself in FAILED."""
    monkeypatch.chdir(tmp_path)
    for name, cfg in _CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    argv, message = _REFUSALS[case]
    assert cli.main(argv + ["--outdir", "out"]) == 2
    assert message in (tmp_path / "out" / "FAILED").read_text()


def test_stray_value_error_is_internal_error(tmp_path, monkeypatch):
    # input is parsed into WeightError, so a ValueError from inside the
    # solver is a bug and must not read as bad input
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(solver, "solve_multibump", broken)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--outdir", str(tmp_path)])
    assert rc == 5
    assert os.path.exists(tmp_path / "FAILED")


def _counted(counts, name, fn):
    """fn, counting its calls into counts[name]."""
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_levels_built_once_per_process(tmp_path, monkeypatch):
    """local, verify, sweep and connection on one weight in one process
    solve its ground bump once and its pinned level once, through the
    process's shared levels.  On step the closed-form floor rejects the
    first zeta, so one pinned level is solved."""
    counts = {}
    for name in ("ground_state", "pinned_zero_detail"):
        monkeypatch.setattr(localfield, name,
                            _counted(counts, name,
                                     getattr(localfield, name)))
    mu_range = ["--mu-from", "1e2", "--mu-to", "1e3", "--points", "2"]
    runs = {"local": ["local"],
            # the oracle check passes at 1600 cells, not at the default mesh
            "verify": ["verify", "--symbols", "10", "--cells", "1600"]
            + mu_range,
            "sweep": ["sweep", "--codes", "10,11"] + mu_range,
            "connection": ["connection", "--mu", "2000", "--x", "0.6",
                           "--y", "0.4"]}
    for cmd, argv in runs.items():
        assert cli.main(argv + ["--outdir", str(tmp_path / cmd)]) == 0
    assert counts == {"ground_state": 1, "pinned_zero_detail": 1}


def test_weight_file_shared_across_commands(tmp_path):
    """Two loads of one weight file are two objects with one content: the
    second command takes the first one's levels."""
    path = tmp_path / "w.json"
    weight.save_weight_json(weight.make_step_weight(), path)
    assert cli.main(["solve", "--weight", str(path), "--symbols", "10",
                     "--mu", "1e3", "--outdir", str(tmp_path / "solve")]) == 0
    assert cli.main(["verify", "--weight", str(path), "--symbols", "10",
                     "--mu-from", "1e2", "--mu-to", "1e3", "--points", "2",
                     "--cells", "1600",
                     "--outdir", str(tmp_path / "verify")]) == 0
    w = weight.load_weight_json(path)
    shared = localfield.levels_of(w)
    assert shared.w is not w
    solver.solve_multibump(w, solver.make_window((1, 0)), 1e3)
    assert localfield.levels_of(w) is shared


def _step_file(path, boundary):
    """The step weight as a file whose sign change sits at ``boundary``
    while tau stays 1."""
    path.write_text(json.dumps({"T": 2.0, "tau": 1.0, "pieces": [
        {"t0": 0.0, "t1": boundary, "kind": "poly", "data": [1.0]},
        {"t0": boundary, "t1": 2.0, "kind": "poly", "data": [-1.0]}]}))
    return str(path)


@pytest.mark.parametrize("offset, code", [(1e-13, 0), (1e-10, 2)])
def test_piece_end_near_tau(tmp_path, offset, code):
    """A piece end within weight.knot_tol of tau is tau, and the file runs
    as the step weight; one farther out cuts its piece at tau, and the
    positive part past tau is a sign violation, exit 2, in every command."""
    path = _step_file(tmp_path / "w.json", 1.0 + offset)
    if code == 0:
        assert list(weight.load_weight_json(path).seg_knots) == [0.0, 1.0, 2.0]
    for argv in (["local"], ["connection", "--mu", "1e3", "--x", "0.5",
                             "--y", "0.5"],
                 ["solve", "--symbols", "10", "--mu", "1e3"]):
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--weight", path, "--outdir", str(out)]) \
            == code
        if code:
            assert "rises to 1.000e+00 inside the negativity interval" in \
                (out / "FAILED").read_text()


@pytest.mark.parametrize("name", ["step", "sine"])
def test_weight_files_are_the_builtins(tmp_path, name):
    """weights/<name>.json loads to the built-in's content, and ``local``
    and ``solve`` with the file write the built-in's artifacts byte for
    byte; the manifests differ only in the weight label, the outdir and
    the hash over both."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "weights",
                        f"{name}.json")
    builtin = cli.resolve_weight(name)[0]
    assert weight.load_weight_json(path).digest == builtin.digest
    for argv in (["local"], ["solve", "--symbols", "10", "--mu", "1e3"]):
        runs = {}
        for spec in (name, path):
            out = tmp_path / f"{argv[0]}-{spec == path}"
            assert cli.main(argv + ["--weight", spec, "--outdir",
                                    str(out)]) == 0
            runs[spec] = {f: (out / f).read_bytes() for f in os.listdir(out)}
        manifests = [_read_json(tmp_path / f"{argv[0]}-{f}" / "manifest.json")
                     for f in (False, True)]
        for m in manifests:
            del m["config"]["outdir"], m["config"]["weight"], \
                m["inputs"]["weight"], m["manifest_hash"]
        assert manifests[0] == manifests[1]
        for f, blob in runs[name].items():
            assert f == "manifest.json" or runs[path][f] == blob, f
        assert runs[name].keys() == runs[path].keys()


def _two_level_pieces():
    """A weight with a knot inside I^+ and one inside I^-."""
    return weight.build_weight(2.2, 1.0, [
        weight.Piece(0.0, 0.4, "poly", (1.0,)),
        weight.Piece(0.4, 1.0, "poly", (2.0,)),
        weight.Piece(1.0, 1.5, "poly", (-1.0,)),
        weight.Piece(1.5, 2.2, "poly", (-2.0,))])


def test_file_weight_is_named_by_its_table(tmp_path, monkeypatch):
    """``local --weight <file>`` records the table's digest as the
    manifest's weight_sha256 and never writes the pieces out again
    (``weight.weight_to_dict``)."""
    path = tmp_path / "two_level.json"
    weight.save_weight_json(_two_level_pieces(), path)

    def refuse(w):
        raise AssertionError("weight_to_dict called")

    monkeypatch.setattr(weight, "weight_to_dict", refuse)
    out = tmp_path / "out"
    assert cli.main(["local", "--weight", str(path), "--outdir", str(out)]) \
        == 0
    assert _read_json(out / "manifest.json")["inputs"]["weight_sha256"] \
        == _two_level_pieces().digest


@pytest.mark.parametrize("argv", [
    ["solve", "--weight", "sine", "--symbols", "10", "--mu", "1e3"],
    ["verify", "--weight", "sine", "--symbols", "1", "--mu-from", "1e2",
     "--mu-to", "1e4", "--points", "3"],
    ["local", "--weight", "two_level.json"]], ids=lambda a: a[0])
def test_weights_with_knots_inside_subintervals(tmp_path, monkeypatch, argv):
    """The sine weight and a two-level weight file run to exit 0, and the
    tables of every mesh they build hold one Simpson triple per cell: each
    mesh has a node on every weight knot."""
    weight.save_weight_json(_two_level_pieces(), tmp_path / "two_level.json")
    monkeypatch.chdir(tmp_path)
    built = []
    build_tables = assembly.build_tables

    def recorded(w, nodes):
        built.append(build_tables(w, nodes))
        return built[-1]

    monkeypatch.setattr(assembly, "build_tables", recorded)
    assert cli.main(argv + ["--outdir", str(tmp_path / "out")]) == 0
    assert built
    assert all(len(tb.qw) == 3 * len(tb.h) for tb in built)
    for grid in assembly._grids.values():
        assert any(grid.tables is tb for tb in built)


def test_shared_arrays_are_read_only():
    w = cli.resolve_weight("step")[0]
    ev = localfield.levels_of(w)
    for arr in (ev.ground_bump().samples.values, ev.eigen()[1].values,
                w.seg_knots, w.seg_coefs, w.seg_positive):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_verify_runs_one_continuation(tmp_path, monkeypatch):
    """verify certifies, audits and re-integrates its own sweep's last
    solution: one continuation and no second solve or certificate per
    command.  On 160 cells the oracle check fails (rel 4.8e-5), so the run
    exits 3 with its report written."""
    counts = {}
    for name in ("continuation_states", "solve_multibump"):
        monkeypatch.setattr(solver, name,
                            _counted(counts, name, getattr(solver, name)))
    certs, required = [], []
    check_membership = solver.check_membership
    require_certified = solver.require_certified

    def check(u, mu, consts, window):
        report = check_membership(u, mu, consts, window)
        certs.append(report)
        return report

    def require(report):
        required.append(report)
        return require_certified(report)

    monkeypatch.setattr(solver, "check_membership", check)
    monkeypatch.setattr(solver, "require_certified", require)
    d = str(tmp_path / "out")
    rc = cli.main(["verify", "--symbols", "010", "--mu-from", "1e2",
                   "--mu-to", "1e3", "--points", "2", "--cells", "160",
                   "--outdir", d])
    assert rc == 3
    assert os.path.exists(os.path.join(d, "FAILED"))
    assert counts == {"continuation_states": 1}
    # one certificate per scheduled mu; the last one is the one required
    assert len(certs) == 2
    assert len(required) == 1 and required[0] is certs[-1]
    rep = _read_json(os.path.join(d, "verify.json"))
    assert rep["minimal_period_T"] == 6.0
    assert rep["oracle"]["ok"] is False
    assert rep["oracle"]["rel"] > verify.ORACLE_BOUND


def _readme_cli_calls():
    """Every ``multibump ...`` call of README's CLI block, as argv lists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as f:
        text = f.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("multibump ")]


def test_readme_library_block_runs(capsys):
    """The README's Library example runs as written and prints the window's
    minimal period last."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as f:
        text = f.read()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "3"


def test_readme_cli_calls_run(tmp_path):
    """The README's CLI examples run as written, each into its own outdir."""
    calls = _readme_cli_calls()
    assert len(calls) >= 6
    for n, argv in enumerate(calls):
        argv = list(argv)
        outdir = str(tmp_path / f"call{n}")
        if "--outdir" in argv:
            argv[argv.index("--outdir") + 1] = outdir
        else:
            argv += ["--outdir", outdir]
        try:
            rc = cli.main(argv)
        except SystemExit as e:          # argparse rejects the call
            rc = e.code
        assert rc == 0, argv


def test_verify_certification_failure_exit_code(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["verify", "--symbols", "10", "--mu-from", "0.25",
                   "--mu-to", "0.5", "--points", "2", "--cells", "160",
                   "--outdir", d])
    assert rc == 3
    with open(os.path.join(d, "FAILED")) as f:
        assert "CertificationFailure: conditions failed at mu=0.5: ['C1']" \
            in f.read()


def test_verify_one_mu_writes_strict_json(tmp_path):
    """A one-point sweep has no fit or Kendall tau: verify.json holds null
    there, not the bare NaN that RFC 8259 has no token for."""
    d = str(tmp_path)
    rc = cli.main(["verify", "--symbols", "10", "--mu-from", "1e2",
                   "--mu-to", "1e3", "--points", "1", "--cells", "1600",
                   "--outdir", d])
    assert rc == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    with open(os.path.join(d, "verify.json")) as f:
        payload = json.load(f, parse_constant=refuse)
    assert payload["sweep"]["fitted_slopes"]["decay"] == [None, None]
    assert payload["sweep"]["kendall"]["sup"] is None
    assert cli.write_json(os.path.join(d, "x.json"),
                          {"a": [math.inf, np.float32("nan"), 1.5]}) \
        == b'{\n  "a": [\n    null,\n    null,\n    1.5\n  ]\n}\n'


@pytest.mark.parametrize("module", ["multibump", "multibump.cli"])
def test_module_entry_points(module):
    """Both module forms run from an uninstalled checkout without the
    double-import RuntimeWarning."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    res = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    assert "usage: multibump" in res.stdout
    assert "RuntimeWarning" not in res.stderr


def test_cli_import_leaves_heavy_scipy_out():
    """Importing the CLI in a fresh interpreter loads no scipy module but
    the LAPACK extension ``scipy.linalg._flapack``: not ``scipy`` or
    ``scipy.linalg`` (0.2 s of the import), nor ``scipy.stats``,
    ``scipy.integrate`` or ``scipy.optimize`` (together about 0.7 s and
    40 MB of every process that runs the program)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = ("import sys, multibump.cli; print(' '.join(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy')))")
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.split()
    assert loaded == ["scipy.linalg._flapack"], \
        f"import multibump.cli loaded {loaded}"


def test_local_and_connection_leave_numpy_ma_out(tmp_path):
    """A fresh process's ``local`` and ``connection`` never import
    ``numpy.ma`` (15-19 ms), which ``np.unique`` and ``np.union1d`` load on
    their first call."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for argv in (["local"],
                 ["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4"]):
        argv += ["--outdir", str(tmp_path / argv[0])]
        probe = ("import sys; from multibump import cli; "
                 f"rc = cli.main({argv!r}); "
                 "print(rc, 'numpy.ma' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split()[-2:] == ["0", "False"], argv


def test_failed_marker_set_and_cleared(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "0.5",
                   "--cells", "160", "--outdir", d])
    assert rc == 3
    assert os.path.exists(os.path.join(d, "FAILED"))
    # the failing run still leaves a report describing what broke
    report = _read_json(os.path.join(d, "report.json"))
    assert report["positivity"] is not None
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--cells", "160", "--outdir", d])
    assert rc == 0
    assert not os.path.exists(os.path.join(d, "FAILED"))


def test_reproducible_artifacts(tmp_path, capsys):
    """Each README call, every subcommand once, run twice in one process
    gives the same stdout, artifact bytes and manifest hash."""
    calls = _readme_cli_calls()
    assert {args[0] for args in calls} == set(cli._COMMANDS)
    for k, args in enumerate(calls):
        i = args.index("--outdir")
        args = args[:i] + args[i + 2:]
        da, db = str(tmp_path / f"a{k}"), str(tmp_path / f"b{k}")
        assert cli.main(args + ["--outdir", da]) == 0
        out_a = capsys.readouterr().out
        assert cli.main(args + ["--outdir", db]) == 0
        assert capsys.readouterr().out == out_a != ""
        ma = _read_json(os.path.join(da, "manifest.json"))
        mb = _read_json(os.path.join(db, "manifest.json"))
        # oracle writes its dense output CSV only when --out names one
        assert ma["outputs"] or args[0] == "oracle"
        for name in ma["outputs"]:
            with open(os.path.join(da, name), "rb") as f:
                bytes_a = f.read()
            with open(os.path.join(db, name), "rb") as f:
                bytes_b = f.read()
            assert bytes_a == bytes_b, name
        assert ma["manifest_hash"] == mb["manifest_hash"]
        assert ma["outputs"] == mb["outputs"]


_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_kept_calls = st.lists(
    st.builds(lambda mu, x, y, l: ["connection", "--mu", repr(mu),
                                   "--x", repr(x), "--y", repr(y),
                                   "--l", str(l)],
              st.floats(1e2, 1e4), _open_unit, _open_unit,
              st.sampled_from([1, 2]))
    | st.builds(lambda code, mu: ["solve", "--symbols",
                                  "".join(map(str, code)), "--mu", repr(mu)],
                st.lists(st.integers(0, 1), min_size=1, max_size=3)
                .filter(any), st.floats(1e2, 1e3)),
    min_size=2, max_size=4)


def _clear_caches():
    """Drop every result the process keeps across calls."""
    localfield.clear_levels()
    assembly.clear_grids()
    cli._builtin_weight.cache_clear()
    cli.build_parser.cache_clear()
    cli._layout_tables.cache_clear()


def _call_outputs(argv, outdir):
    """(exit code, stdout, {artifact: bytes}) of one CLI call, the
    manifest left out: it records the output directory."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv + ["--outdir", outdir])
    artifacts = {}
    for name in sorted(os.listdir(outdir)):
        if name != "manifest.json":
            with open(os.path.join(outdir, name), "rb") as f:
                artifacts[name] = f.read()
    return rc, out.getvalue(), artifacts


@settings(max_examples=20, deadline=None)
@given(calls=_kept_calls)
def test_kept_results_change_no_byte(calls):
    """Calls run one after another in one process, on the levels, grids,
    weights, parser and layout tables the earlier calls left, write the
    bytes and stdout each call writes with every kept result dropped."""
    with tempfile.TemporaryDirectory() as d:
        warm = [_call_outputs(argv, os.path.join(d, f"warm{k}"))
                for k, argv in enumerate(calls)]
        for k, argv in enumerate(calls):
            _clear_caches()
            assert _call_outputs(argv, os.path.join(d, f"cold{k}")) \
                == warm[k], argv


_COMMAND_ARGV = {
    "local": ["local"],
    "solve": ["solve", "--symbols", "10", "--mu", "800"],
    "connection": ["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4"],
    "verify": ["verify", "--symbols", "10", "--mu-from", "1e2",
               "--mu-to", "1e3"],
    "oracle": ["oracle", "integrate", "--t1", "1"],
    "sweep": ["sweep", "--codes", "10"],
}


# a misspelled key, then keys of options deleted earlier
_UNREAD_KEYS = ["cels", "newton_tol", "alpha", "oracle_rtol", "identities",
                "periodic", "mu0", "delta", "i", "N", "bump_csv", "rtol"]


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
def test_unread_config_key_is_input_error(tmp_path, command):
    """A config key the command does not read is bad input named in the
    FAILED marker, not a silently ignored value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict.fromkeys(_UNREAD_KEYS, 1)))
    out = tmp_path / "out"
    rc = cli.main(_COMMAND_ARGV[command]
                  + ["--config", str(cfg), "--outdir", str(out)])
    assert rc == 2
    failed = (out / "FAILED").read_text()
    assert all(repr(key) in failed for key in _UNREAD_KEYS)
    assert set(os.listdir(out)) == {"FAILED", "manifest.json"}


def test_config_keys_are_the_flags():
    """Each command's parser holds exactly its declared options, plus
    --config and --help, in the declared order."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, parser in sub.choices.items():
        dests = [a.dest for a in parser._actions
                 if a.dest not in ("help", "config")]
        assert dests == [opt.key for opt in cli._COMMANDS[name].options], \
            name


@pytest.mark.parametrize("case", [
    "solve-no-mu", "verify-no-mu-to", "connection-no-y", "missing-weight",
    "undecodable-weight", "missing-config", "integrate-empty-interval",
    "shoot-empty-interval", "integrate-no-samples", "shoot-one-sample"])
def test_input_error_leaves_failed_manifest(tmp_path, case):
    """Input errors found before any computation still leave the FAILED
    marker and a failed manifest; once they left no outdir at all, and the
    oracle's zero-length intervals exited 5 with an IndexError and a
    ZeroDivisionError, and an oracle CSV of fewer than 2 samples exited 0
    with the header alone or t0 alone."""
    binary = tmp_path / "w.json"
    binary.write_bytes(b"\xff\xfe\x00")
    argv = {
        "solve-no-mu": ["solve", "--symbols", "10"],
        "verify-no-mu-to": ["verify", "--symbols", "10", "--mu-from", "1e2"],
        "connection-no-y": ["connection", "--mu", "2000", "--x", "0.6"],
        "missing-weight": ["local", "--weight", str(tmp_path / "nope.json")],
        "undecodable-weight": ["local", "--weight", str(binary)],
        "missing-config": ["local", "--config", str(tmp_path / "nope.json")],
        "integrate-empty-interval": ["oracle", "integrate", "--mu", "10",
                                     "--t0", "0.5", "--t1", "0.5"],
        "shoot-empty-interval": ["oracle", "shoot", "--mu", "10", "--t0", "1",
                                 "--t1", "1", "--x", "0.3", "--y", "0.3"],
        "integrate-no-samples": ["oracle", "integrate", "--mu", "10", "--t0",
                                 "0", "--t1", "1", "--samples", "0", "--out",
                                 "a.csv"],
        "shoot-one-sample": ["oracle", "shoot", "--mu", "10", "--t1", "1",
                             "--y", "0.3", "--samples", "1", "--out",
                             "a.csv"],
    }[case]
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == 2
    assert set(os.listdir(out)) == {"FAILED", "manifest.json"}
    manifest = _read_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["error"] == (out / "FAILED").read_text().strip()
    assert manifest["error"]


def test_config_and_flags_hash_alike(tmp_path):
    """A value is recorded after conversion, so a config file's t1 = 1 and
    samples = 50.0 and the flags' 1.0 and 50 give one manifest hash and the
    same artifacts."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t1": 1, "samples": 50.0}))
    runs = {"flags": ["oracle", "integrate", "--t1", "1.0", "--samples", "50"],
            "config": ["oracle", "integrate", "--config", str(cfg)]}
    manifests = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main(argv + ["--outdir", str(out)]) == 0
        manifests[name] = _read_json(out / "manifest.json")
    recorded = manifests["config"]["config"]
    assert type(recorded["t1"]) is float and type(recorded["samples"]) is int
    assert manifests["flags"]["manifest_hash"] \
        == manifests["config"]["manifest_hash"]
    assert manifests["flags"]["outputs"] == manifests["config"]["outputs"]


@pytest.mark.parametrize("argv, key, default", [
    (["local"], "out", "local.json"),
    (["oracle", "shoot", "--mu", "10", "--t1", "1", "--y", "0.3"], "x", 0.0),
])
def test_config_null_means_default(tmp_path, argv, key, default):
    """A config null falls through to the declared default, as an absent
    key does."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    out = tmp_path / "out"
    assert cli.main(argv + ["--config", str(cfg), "--outdir", str(out)]) == 0
    assert _read_json(out / "manifest.json")["config"][key] == default


def test_flags_beat_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"mu": 500.0, "cells": 160,
                                    "symbols": "10"}))
    d = str(tmp_path / "out")
    rc = cli.main(["solve", "--config", str(cfg_path), "--mu", "800",
                   "--outdir", d])
    assert rc == 0
    manifest = _read_json(os.path.join(d, "manifest.json"))
    assert manifest["config"]["mu"] == 800.0
    assert manifest["config"]["cells"] == 160
    report = _read_json(os.path.join(d, "report.json"))
    assert report["mu"] == 800.0


def test_oracle_ground(tmp_path, capsys):
    rc = cli.main(["oracle", "ground", "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["c"] - C_STEP) < 1e-6 * C_STEP


def test_oracle_integrate_csv(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["oracle", "integrate", "--mu", "1", "--t0", "0",
                   "--t1", "1", "--u0", "0", "--du0", "1",
                   "--samples", "50", "--out", "ivp.csv", "--outdir", d])
    assert rc == 0
    data = np.genfromtxt(os.path.join(d, "ivp.csv"), delimiter=",",
                         names=True)
    assert len(data) == 50
    assert data["u"][0] == 0.0


def _crossings_loop(nodes, values):
    """The per-node loop ``cli._crossings`` replaced, kept as its reference."""
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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 40))
def test_crossings_match_the_loop(data, n):
    """Same floats in the same order as the loop, on values with exact
    zeros (of both signs, also at the ends) and sign changes."""
    gaps = data.draw(st.lists(st.floats(1e-6, 10.0), min_size=n - 1,
                              max_size=n - 1))
    start = data.draw(st.floats(-10.0, 10.0))
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
        | st.floats(-1e-300, 1e-300), min_size=n, max_size=n)))
    got = cli._crossings(nodes, values)
    want = _crossings_loop(nodes, values)
    assert type(got) is list and all(type(t) is float for t in got)
    assert np.array_equal(got, want)


def test_crossings_zeros_at_the_ends():
    nodes = np.linspace(0.0, 6.0, 7)
    values = np.array([0.0, 1.0, -1.0, 0.0, -0.0, 2.0, 0.0])
    want = [0.0, 1.5, 3.0, 4.0, 6.0]
    assert cli._crossings(nodes, values) == _crossings_loop(nodes, values) \
        == want


def test_connection_report(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4",
                   "--cells", "160", "--outdir", d])
    assert rc == 0
    rep = _read_json(os.path.join(d, "connection.json"))
    dlo, dhi = rep["slopes"]
    assert dlo < 0.0 and dhi > 0.0
    assert rep["zeros"] == []
    signs = rep["sensitivity_signs"]
    assert all(signs.values())
    assert max(rep["fd_checks"]["rel_err"]) < 1e-5
    assert all(mk > 0.0 and mr > 0.0 for mk, mr in rep["cap_margins"])
    # a start far from the minimizer still descends before the polish: one
    # Hessian-preconditioned step, then three Newton steps
    assert (rep["descent_iters"], rep["newton_iters"]) == (1, 3)


def test_connection_builds_one_operator_per_block_solve(tmp_path,
                                                      monkeypatch):
    """With the levels and the block's mesh kept, a connection run builds
    one Operator for its block, which the sensitivity bands and the four
    FD predictors' stacked residual read, and no quadrature tables: the
    predictors meet the polish tolerance, so no FD block is solved."""
    argv = ["connection", "--mu", "2000", "--x", "0.6", "--y", "0.4"]
    assert cli.main(argv + ["--outdir", str(tmp_path / "warm")]) == 0
    counts = {}
    for owner, name in ((assembly.Operator, "__init__"),
                        (assembly, "build_tables"),
                        (connection, "solve_connection")):
        monkeypatch.setattr(owner, name,
                            _counted(counts, name, getattr(owner, name)))
    assert cli.main(argv + ["--outdir", str(tmp_path / "run")]) == 0
    assert counts == {"__init__": 1, "solve_connection": 1}


def test_connection_fd_check_on_one_mesh(tmp_path):
    """The layer-resolving mesh grows with max(|x|, |y|), so x + h and
    x - h once got meshes of 139 and 136 nodes and rel_err 67; the
    perturbed blocks are now solved on the solution's own mesh."""
    rc = cli.main(["connection", "--mu", "10000", "--x", "1.1606473157077815",
                   "--y", "0.1", "--cells", "16", "--outdir", str(tmp_path)])
    assert rc == 0
    rep = _read_json(os.path.join(str(tmp_path), "connection.json"))
    assert max(rep["fd_checks"]["rel_err"]) < 1e-7


def test_connection_interiority_exit_code(tmp_path):
    rc = cli.main(["connection", "--mu", "0.05", "--x", "2.0", "--y", "2.0",
                   "--cells", "120", "--outdir", str(tmp_path)])
    assert rc == 3
    assert os.path.exists(tmp_path / "FAILED")


def _failed_margins(text):
    """(K margin, r^2 margin) an InteriorityFailure's FAILED text names."""
    margins = text.split("(margins K: ")[1].split(")")[0]
    return tuple(float(m.split()[-1]) for m in margins.split(","))


def test_connection_descent_pinned_on_caps_exit_code(tmp_path):
    """At mu 1.5 the descent reaches the constrained minimizer pinned on
    both caps of I_0^+, where the polish has no interior stationary point:
    exit 3, with both margins inside the 2 _CAP_SLACK band."""
    rc = cli.main(["connection", "--mu", "1.5", "--x", "-2", "--y", "-2.5",
                   "--outdir", str(tmp_path)])
    assert rc == 3
    text = (tmp_path / "FAILED").read_text()
    assert text.startswith("InteriorityFailure: cap active on I_0^+")
    k_margin, r_margin = _failed_margins(text)
    # as FAILED prints them, to the last of their four digits
    assert k_margin == pytest.approx(7.417e-9, rel=2e-4)
    assert r_margin == pytest.approx(3.125e-11, rel=4e-4)
    caps = connection.make_connection_problem(weight.make_step_weight(),
                                              1.5, -2.0, -2.5)
    assert k_margin <= 2.0 * connection._CAP_SLACK * caps.K
    assert r_margin <= 2.0 * connection._CAP_SLACK * caps.r ** 2


def test_connection_failed_polish_clear_of_caps_exit_code(tmp_path):
    """With caps K 1.3 and r 1.5 at mu 0.29 the Newton polish's line search
    fails from a descent output that clears both caps: the NewtonFailure
    stands (exit 4)."""
    rc = cli.main(["connection", "--mu", "0.29", "--x", "-0.7", "--y",
                   "-0.66", "--l", "1", "--K", "1.3", "--r", "1.5",
                   "--outdir", str(tmp_path)])
    assert rc == 4
    assert "NewtonFailure" in (tmp_path / "FAILED").read_text()


def test_connection_polish_over_cap_exit_code(tmp_path):
    """At mu 0.07 the Newton polish converges to a stationary point over the
    energy cap of I_0^+: exit 3, and FAILED names the negative margin."""
    rc = cli.main(["connection", "--mu", "0.07", "--x", "4.9", "--y", "-1.8",
                   "--l", "2", "--outdir", str(tmp_path)])
    assert rc == 3
    text = (tmp_path / "FAILED").read_text()
    assert text.startswith("InteriorityFailure: cap active on I_0^+")
    k_margin, r_margin = _failed_margins(text)
    assert k_margin > 0.0 > r_margin


def test_sweep_artifacts(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["sweep", "--codes", "1,10", "--mu-from", "100",
                   "--mu-to", "1000", "--points", "3", "--cells", "160",
                   "--outdir", d])
    assert rc == 0
    for name in ("aggregate.csv", "brackets.csv", "decay_1.csv",
                 "decay_10.csv", "fits.json", "plot.gp", "manifest.json"):
        assert os.path.exists(os.path.join(d, name)), name
    decay = np.genfromtxt(os.path.join(d, "decay_10.csv"), delimiter=",",
                          names=True)
    assert np.all(np.diff(decay["interior_sup"]) < 0.0)
    brackets = np.genfromtxt(os.path.join(d, "brackets.csv"), delimiter=",",
                             names=True, dtype=None, encoding="utf-8")
    assert len(brackets) == 2
    fits = _read_json(os.path.join(d, "fits.json"))
    assert set(fits) == {"1", "10"}


def test_sweep_input_error_is_not_swallowed(tmp_path, monkeypatch):
    # a margin of 0.9 (T - tau) leaves no interior on a negativity interval
    monkeypatch.setattr(verify, "DELTA_FRAC", 0.9)
    rc = cli.main(["sweep", "--codes", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    assert os.path.exists(tmp_path / "FAILED")
    assert _read_json(tmp_path / "manifest.json")["status"] == "failed"


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                         encoding="utf-8")


def test_sweep_newton_failure_keeps_the_higher_mu(tmp_path, monkeypatch):
    """The walk runs downward, so a Newton failure at a middle mu leaves the
    mu above it certified and the failing mu and those below it as failing
    rows of nan, in increasing mu."""
    real = solver._converge

    def fail_in_the_middle(grid, values, mu):
        if 200.0 < mu < 500.0:
            raise NewtonFailure("injected")
        return real(grid, values, mu)

    monkeypatch.setattr(solver, "_converge", fail_in_the_middle)
    d = str(tmp_path)
    rc = cli.main(["sweep", "--codes", "10", "--mu-from", "100",
                   "--mu-to", "1000", "--points", "3", "--cells", "160",
                   "--outdir", d])
    assert rc == 0
    agg = _read_csv(os.path.join(d, "aggregate.csv"))
    mid = math.sqrt(1e5)
    assert np.allclose(agg["mu"], [100.0, mid, 1000.0], rtol=1e-12)
    assert list(agg["certified"]) == [0, 0, 1]
    for name in ("residual", "sup", "interior_sup"):
        assert np.all(np.isnan(agg[name][:2]))
        assert np.isfinite(agg[name][2])
    br = _read_csv(os.path.join(d, "brackets.csv"))
    assert math.isclose(float(br["mu_fail"]), mid, rel_tol=1e-12)
    assert float(br["mu_pass"]) == 1000.0


def test_sweep_from_mu_one_keeps_the_codes(tmp_path):
    """Started at the top of the schedule, every code stays on its branch
    down to mu 10; only mu 1 fails."""
    d = str(tmp_path)
    rc = cli.main(["sweep", "--codes", "1,10,110", "--mu-from", "1",
                   "--mu-to", "1e4", "--points", "5", "--outdir", d])
    assert rc == 0
    agg = _read_csv(os.path.join(d, "aggregate.csv"))
    for code in (1, 10, 110):
        rows = agg[agg["code"] == code]
        assert np.allclose(rows["mu"], [1.0, 10.0, 100.0, 1e3, 1e4])
        assert list(rows["certified"]) == [0, 1, 1, 1, 1]
        assert abs(rows["sup"][1] - 2.1) < 0.05
    br = _read_csv(os.path.join(d, "brackets.csv"))
    assert np.allclose(br["mu_fail"], 1.0)
    assert np.allclose(br["mu_pass"], 10.0)


def test_solve_below_mu0_certifies(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["solve", "--symbols", "1", "--mu", "4", "--outdir", d])
    assert rc == 0
    report = _read_json(os.path.join(d, "report.json"))
    assert report["certified"] is True
    assert [m for m, _ in report["continuation_path"]] == [10.0, 4.0]
    data = np.genfromtxt(os.path.join(d, "sol.csv"), delimiter=",",
                         names=True)
    assert abs(np.max(data["u"]) - 1.65) < 0.01


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    """main reuses one parser; each parse holds only its own command's
    flags, and --help still exits 0."""
    seen = []
    monkeypatch.chdir(tmp_path)          # the runs' default outdir
    for command in ("solve", "connection"):
        monkeypatch.setitem(
            cli._COMMANDS, command, cli._COMMANDS[command]._replace(
                body=lambda cfg, w, run: seen.append(cfg) or ""))
    assert cli.main(["solve", "--symbols", "10", "--mu", "800"]) == 0
    assert cli.main(["connection", "--mu", "100", "--x", "0.5",
                     "--y", "0.25"]) == 0
    assert cli.build_parser() is cli.build_parser()
    solve_args, conn_args = seen
    assert solve_args["symbols"] == "10" and solve_args["mu"] == 800.0
    assert "x" not in solve_args
    assert conn_args["x"] == 0.5 and conn_args["y"] == 0.25
    assert "symbols" not in conn_args and "N" not in conn_args
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "Newton starts from the pasted ground bumps" in help_text


def test_verify_report(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["verify", "--symbols", "10", "--mu-from", "200",
                   "--mu-to", "2000", "--points", "3", "--cells", "1600",
                   "--outdir", d])
    assert rc == 0
    rep = _read_json(os.path.join(d, "verify.json"))
    sweep = rep["sweep"]
    assert sweep["symbols"] == [1, 0]
    assert len(sweep["end_data"]) == len(sweep["decay_bounds"]) == 3
    assert all(s <= b for s, b in zip(sweep["decay_samples"],
                                      sweep["decay_bounds"]))
    assert sweep["c_delta"] > 0.0
    assert rep["identities_at_mu_max"]["iii"] < 1e-12
    assert rep["minimal_period_T"] == 4.0
    assert rep["oracle"]["ok"] is True
    assert rep["oracle"]["rel"] <= verify.ORACLE_BOUND
    assert sweep["certified"] == [True] * 3


def test_verify_records_each_certification(tmp_path):
    """verify certifies its largest mu, and verify.json records every
    stop's certification: from mu 1 the step weight's mu = 1 stop fails C1,
    and the slopes and Kendall taus are fitted over the two certified stops
    only."""
    d = str(tmp_path)
    rc = cli.main(["verify", "--symbols", "10", "--mu-from", "1",
                   "--mu-to", "1e4", "--points", "3", "--outdir", d])
    assert rc == 0
    sweep = _read_json(os.path.join(d, "verify.json"))["sweep"]
    assert sweep["mu_list"] == [1.0, 100.0, 10000.0]
    assert sweep["certified"] == [False, True, True]
    samples = {"decay": "decay_samples", "p1": "p1", "p2": "p2",
               "sup": "sup_distances", "holder": "holder_distances"}
    mu = sweep["mu_list"][1:]
    for name, fit in sweep["fitted_slopes"].items():
        slope, _, stderr = verify.loglog_fit(mu, sweep[samples[name]][1:])
        assert fit == [slope, 2.0 * stderr], name
    for name, tau in sweep["kendall"].items():
        assert tau == verify.kendall_tau(mu, sweep[samples[name]][1:]), name


def _fmt_reference(x):
    """Reference: the per-value CSV formatter ``cli._fmt`` that tables with
    a str column once took."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    v = float(x)
    if math.isnan(v):
        return "nan"
    return "%.17g" % v


_csv_values = {
    "float": st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
    "float64": st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    "bool": st.booleans(),
    "bool_": st.booleans().map(np.bool_),
    "int": st.integers(-2 ** 60, 2 ** 60),
    "int64": st.integers(-2 ** 62, 2 ** 62).map(np.int64),
    "code": st.text("01", min_size=1, max_size=6),
}


_mixed_rows = st.lists(st.sampled_from(sorted(_csv_values)), min_size=1,
                       max_size=5).flatmap(
    lambda kinds: st.lists(st.tuples(*map(_csv_values.get, kinds)),
                           max_size=8))
# full-range floats, and as many again in the array path's fixed range
_fixed_floats = st.floats(1e-4, 1e16, exclude_max=True)
_table_floats = st.floats() | _fixed_floats | _fixed_floats.map(lambda v: -v)
_float_tables = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 300), st.integers(1, 3)),
    elements=_table_floats, fill=st.nothing())

# every power of ten in [1e-4, 1e16] and its neighbours, with its negation
_POWERS = np.array([[v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), -v]
                    for v in (float(f"1e{k}") for k in range(-4, 17))])
# the largest float below 0.1: log10 gives -1.0, and the product rounds to
# 1e16 exactly with a negative error; then two 17-digit ties, to even
# (...56.2 and ...56.8), and their negations
_EDGES = np.array([[np.nextafter(0.1, 0.0), 1234567890123456.25,
                    1234567890123456.75],
                   [-np.nextafter(0.1, 0.0), -1234567890123456.25,
                    -1234567890123456.75]])
_SPECIALS = np.array([[0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                       math.nan, math.inf, -math.inf, 1e-5, -1.5e300]])


def _csv_reference(header, rows):
    return ("\n".join([",".join(header)]
                       + [",".join(_fmt_reference(v) for v in row)
                          for row in rows]) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(rows=_mixed_rows, table=_float_tables)
@example(rows=[], table=_POWERS)
@example(rows=[], table=_EDGES)
@example(rows=[], table=_SPECIALS)
def test_write_csv_matches_per_value_formatting(rows, table):
    """The one row format per table writes the bytes of the per-value
    formatter, and a str column keeps its strings ("01" stays "01"); a
    float64 table, which takes the array path, writes them too."""
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    assert cli.write_csv(os.devnull, header, iter(rows)) == \
        _csv_reference(header, rows)
    header = [f"c{i}" for i in range(table.shape[1])]
    assert cli.write_csv(os.devnull, header, table) == \
        _csv_reference(header, table.tolist())


@settings(max_examples=60, deadline=None)
@given(table=hnp.arrays(
    np.float64, st.tuples(st.integers(1, 300), st.integers(2, 3)),
    elements=_table_floats, fill=st.nothing()))
@example(table=np.column_stack([_POWERS.ravel()] * 2))
@example(table=np.column_stack([_EDGES.ravel()] * 3))
@example(table=np.column_stack([_SPECIALS.ravel()] * 2))
def test_node_rows_write_the_per_value_bytes(table):
    """A table on a grid's nodes, stacked as ``solve`` and ``connection``
    stack it (the nodes, then the value columns), writes the bytes of the
    per-value formatter."""
    header = ["t"] + [f"c{i}" for i in range(table.shape[1] - 1)]
    want = _csv_reference(header, table.tolist())
    grid = assembly.Grid(w=None, nodes=table[:, 0].copy(), periodic=False)
    assert cli.write_csv(os.devnull, header,
                         np.column_stack([grid.nodes, *table[:, 1:].T])) \
        == want


def test_fallback_writes_the_same_bytes(monkeypatch):
    """With the array path's fixed range emptied, every value goes through
    '%.17g' into its layout, and the bytes stay the same."""
    rng = np.random.default_rng(7)
    table = np.concatenate([
        _POWERS, _EDGES.repeat(2, axis=1)[:, :4],
        _SPECIALS[:, :8].reshape(2, 4),
        rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-6, 18, (40, 4))])
    header = ["t", "a", "b", "c"]
    want = _csv_reference(header, table.tolist())
    assert _written_by_fallback(cli.float_layout(table)).mean() < 0.3
    monkeypatch.setattr(cli, "_FIXED_MAX", 0.0)
    assert cli.write_csv(os.devnull, header, table) == want
    assert _written_by_fallback(cli.float_layout(table)).all()


def _written_by_fallback(layout):
    """Per value, whether its kept slots before the separator are a prefix,
    as for the '%.17g' text; the array path leaves an unkept slot before or
    after d0 (the sign, zeros or the point), save for -0.000d."""
    return (np.diff(layout.keep[..., :-1].astype(np.int8), axis=-1)
            <= 0).all(axis=-1)


_RSS_PROBE = """
import contextlib, io, tempfile
from multibump import cli


def peak_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmHWM:"))


rss = []
with tempfile.TemporaryDirectory() as d, \\
        contextlib.redirect_stdout(io.StringIO()):
    for k in range(300):
        mu = 10.0 ** (2.0 + 2.0 * ((0.754877666 * k) % 1.0))
        x = 0.05 + 0.9 * ((0.569840291 * k) % 1.0)
        y = 0.05 + 0.9 * ((0.618033989 * k) % 1.0)
        code = cli.main(["connection", "--mu", repr(mu), "--x", repr(x),
                         "--y", repr(y), "--l", str(1 + k % 2),
                         "--outdir", d])
        assert code == 0, (k, code)
        rss.append(peak_kib())
print(rss[-1] - rss[49])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_warm_connections_hold_peak_memory():
    """300 connection calls in a fresh process, alternating the blocks
    meshes of l = 1 and l = 2 (481 and 801 nodes) over mu in [1e2, 1e4]
    and x, y in (0, 1): after the first 50, the peak resident set grows by
    less than 0.5 MB.  The CSV writer must not fragment the heap: a
    per-mesh row template holding the node text, filled by one ``%``, wrote
    the same bytes and grew it by about 1 MB here.  The peak is the
    process's own VmHWM: a child's ru_maxrss starts at its parent's peak
    (Linux carries it over the fork and exec), which hides the growth."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    res = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    grown = int(res.stdout.split()[-1])
    assert grown < 512, f"peak RSS grew {grown} KiB"
