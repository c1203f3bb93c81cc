"""End-to-end runs of the command line front end."""

import argparse
import json
import math
import os
import shlex
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibump import (assembly, cli, localfield, oracle, solver, verify,
                       weight)
from multibump.errors import NewtonFailure, WeightError

C_STEP = 15.756060010769785


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def test_local_constants(tmp_path):
    d = str(tmp_path)
    rc = cli.main(["local", "--outdir", d, "--mesh", "800"])
    assert rc == 0
    payload = _read_json(os.path.join(d, "local.json"))
    # plumbing check only; the level itself is mesh-limited at this size
    assert abs(payload["c"] - C_STEP) < 1e-4
    assert payload["zeta"] > 0.0
    assert abs(payload["r"] ** 2 - 1.0 / 32.0) < 1e-15
    manifest = _read_json(os.path.join(d, "manifest.json"))
    assert manifest["status"] == "ok"
    assert "local.json" in manifest["outputs"]


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
    """A NaN in the Jacobian bands, of the window's Newton (periodic) or of
    the ground level's (clamped), makes the tridiagonal solve non-finite:
    exit 4, not 5 (a NaN reached scipy's finiteness check once)."""
    real = assembly.Operator.bands

    def nan_bands(self, values):
        LL, LR, RR = real(self, values)
        if self.periodic == periodic:
            LL = LL.copy()
            LL[len(LL) // 2] = np.nan
        return LL, LR, RR

    monkeypatch.setattr(assembly.Operator, "bands", nan_bands)
    rc = cli.main(["solve", "--symbols", "10", "--mu", "800",
                   "--cells", "160", "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")
    assert "singular Jacobian" in (tmp_path / "FAILED").read_text()


def test_integrator_failure_is_convergence_failure(tmp_path, monkeypatch):
    # every step rejected until it falls below 10 ulp of t (scipy's "step
    # size underflow"): exit 4, not 2
    monkeypatch.setattr(oracle, "_error_norm", lambda K, h, scale: np.inf)
    rc = cli.main(["oracle", "integrate", "--mu", "1", "--t0", "0",
                   "--t1", "1", "--outdir", str(tmp_path)])
    assert rc == 4
    assert os.path.exists(tmp_path / "FAILED")
    assert "Required step size" in (tmp_path / "FAILED").read_text()


@pytest.mark.parametrize("rtol", ["-1", "0"])
@pytest.mark.parametrize("mode", [
    ["integrate", "--t1", "1"],
    ["shoot", "--mu", "10", "--t0", "0", "--t1", "1", "--x", "0",
     "--y", "0.3"],
    ["ground"]])
def test_oracle_rtol_must_be_positive(tmp_path, mode, rtol):
    """A non-positive --rtol is bad input, refused before any integration:
    rtol 0 once ran without end and rtol -1 exited 5."""
    def too_slow(signum, frame):
        raise TimeoutError("the oracle did not return at once")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        rc = cli.main(["oracle", *mode, "--rtol", rtol,
                       "--outdir", str(tmp_path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2
    assert "rtol must be positive" in (tmp_path / "FAILED").read_text()


def test_linalg_error_is_convergence_failure(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; it must not read as bad input
    def broken_cholesky(*args, **kwargs):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setattr(localfield.scipy.linalg, "cholesky_banded",
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


def test_bad_count_and_undecodable_file_are_input_errors(tmp_path):
    assert cli.main(["local", "--mesh", "-3",
                     "--outdir", str(tmp_path / "mesh")]) == 2
    # too few cells for the level solves (LAPACK refused 2; 1 left none)
    for mesh in ("1", "2"):
        out = tmp_path / f"mesh{mesh}"
        assert cli.main(["local", "--mesh", mesh, "--outdir", str(out)]) == 2
        assert "at least 3 cells" in (out / "FAILED").read_text()
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
    ["local", "--K", "-1"],
    ["local", "--K", "0"],
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
                                  ["sweep", "--delta", "0.2"]])
def test_deleted_flags_are_refused(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(flag)
    assert exc.value.code == 2


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
    """Importing the CLI in a fresh interpreter loads no ``scipy.stats``,
    ``scipy.integrate`` or ``scipy.optimize`` module: together they took
    about 0.7 s and 40 MB of every process that runs the program."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = ("import sys, multibump.cli; print(' '.join(sorted(m for m in "
             "sys.modules if m.split('.')[:2] in (['scipy', 'stats'], "
             "['scipy', 'integrate'], ['scipy', 'optimize']))))")
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.split()
    assert not loaded, f"import multibump.cli loaded {loaded}"


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
                "periodic", "mu0", "delta"]


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
    """A value is recorded after conversion, so a config file's K = 8 and
    the flag's 8.0 give one manifest hash and the same artifacts."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": 200, "K": 8}))
    runs = {"flags": ["local", "--mesh", "200", "--K", "8"],
            "config": ["local", "--config", str(cfg)]}
    manifests = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main(argv + ["--outdir", str(out)]) == 0
        manifests[name] = _read_json(out / "manifest.json")
    recorded = manifests["config"]["config"]
    assert type(recorded["K"]) is float and type(recorded["mesh"]) is int
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
    rc = cli.main(["oracle", "ground", "--rtol", "1e-10",
                   "--outdir", str(tmp_path)])
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
    # a start far from the minimizer still descends before the polish
    assert (rep["descent_iters"], rep["newton_iters"]) == (6, 3)


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


def test_connection_failed_polish_clear_of_caps_exit_code(tmp_path):
    """At mu 1.5 the Newton polish's line search fails from a descent
    output that clears both caps: the NewtonFailure stands (exit 4)."""
    rc = cli.main(["connection", "--mu", "1.5", "--x", "-2", "--y", "-2.5",
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
    margins = text.split("(margins K: ")[1].split(")")[0]
    k_margin, r_margin = (float(m.split()[-1]) for m in margins.split(","))
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


def _fmt_reference(x):
    """Reference: the per-value CSV formatter."""
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       kinds=st.lists(st.sampled_from(sorted(_csv_values)), min_size=1,
                      max_size=5),
       nrows=st.integers(0, 8))
def test_write_csv_matches_per_value_formatting(data, kinds, nrows):
    """The one-pass CSV formatting writes the bytes of the per-value
    formatter, and a table with a string column keeps its strings ("01"
    stays "01")."""
    rows = [tuple(data.draw(_csv_values[k]) for k in kinds)
            for _ in range(nrows)]
    header = [f"c{i}" for i in range(len(kinds))]
    want = "\n".join([",".join(header)]
                     + [",".join(_fmt_reference(v) for v in row)
                        for row in rows]) + "\n"
    assert cli.write_csv(os.devnull, header, iter(rows)) == want.encode()
