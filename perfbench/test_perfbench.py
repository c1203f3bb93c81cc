"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The smoke runs execute one round of every workload (about a minute and a
half in all on a 2-core machine).
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _generate(tmp_path, name, workload, seed, rounds=3):
    d = tmp_path / name
    d.mkdir()
    inp = inputs.InputSet(workload, seed, str(d))
    return d, inp, [inp.round() for _ in range(rounds)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes(tmp_path, workload):
    d1, inp1, r1 = _generate(tmp_path, "a", workload, 7)
    d2, inp2, r2 = _generate(tmp_path, "b", workload, 7)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert not mismatch and not errors
    assert run.input_digest(inp1, r1) == run.input_digest(inp2, r2)
    _, inp3, r3 = _generate(tmp_path, "c", workload, 8)
    assert run.input_digest(inp1, r1) != run.input_digest(inp3, r3)


def test_generated_weights_are_fresh(tmp_path):
    _, inp, _ = _generate(tmp_path, "a", "cold_solve", 1, rounds=4)
    _, other, _ = _generate(tmp_path, "b", "cold_solve", 2, rounds=4)
    shas = set(inp.weights.values())
    assert len(shas) == len(inp.weights) == 8
    assert not shas & set(other.weights.values())


def test_trace_targets_resolve_to_public_functions():
    for module, attr, name, _ in tracing.TARGETS:
        fn = tracing.resolve(module, attr)
        assert callable(fn) and not attr.startswith("_")
        assert name.split(".")[0] in run.LAYERS


def test_trace_install_binds_every_alias_and_restores():
    from multibump import solver, weight

    original = weight.build_constant_pack
    tr = tracing.Tracer()
    tr.install()
    try:
        assert weight.build_constant_pack is not original
        assert solver.build_constant_pack is weight.build_constant_pack
    finally:
        tr.uninstall()
    assert weight.build_constant_pack is original
    assert solver.build_constant_pack is original


def test_missing_target_fails_loudly():
    with pytest.raises(LookupError):
        tracing.resolve("multibump.weight", "no_such_function")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("blocks", 0), ("blocks", 1), ("cold_solve", 0), ("long_solve", 0),
    ("weight_study", 1)])
def test_smoke_run_passes_output_checks(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.001",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(res["metrics"]) == wanted
    work = os.path.join(ROOT, ".perfbench_work")
    left = os.listdir(work) if os.path.isdir(work) else []
    assert not [n for n in left if n.startswith("run-")]
    if trace:
        info = json.loads(out.stdout.strip().splitlines()[-2])
        with open(os.path.join(ROOT, info["spans"])) as f:
            spans = [json.loads(line) for line in f]
        assert spans and all(s["end"] >= s["start"] for s in spans)
        os.remove(os.path.join(ROOT, info["spans"]))
        if not os.listdir(work):
            os.rmdir(work)


def test_work_depends_on_seed_and_seconds_only():
    runs = []
    for _ in range(2):
        out = _bench("--workload", "blocks", "--seed", "5", "--seconds",
                     "1.2", "--trace", "0")
        assert out.returncode == 0, out.stderr
        info, res = (json.loads(line)
                     for line in out.stdout.strip().splitlines()[-2:])
        runs.append((res["attempted"], res["failed"],
                     info["inputs"]["items"]))
    assert runs[0] == runs[1]
    assert runs[0][0] == 10 * run.rounds_for("blocks", 1.2)
    assert run.rounds_for("long_solve", 0.001) == 1


def test_reference_sampling_and_per_item_times():
    ref = run.Reference()
    ref.work = lambda: None
    ref.before(0, 0.0)                       # one sample before any item
    ref.before(1, 2.5 * run.REF_EVERY_S)     # two more, half a sample owed
    ref.before(2, 1e6)                       # a burst is capped
    ref.before(3, 0.0, last=True)            # the last burst is never empty
    counts = [sum(1 for i, _ in ref.samples if i == k) for k in range(4)]
    assert counts == [1, 2, run.REF_BURST, 1]

    ref.samples = [(0, 1.0), (0, 3.0), (2, 6.0), (3, 4.0)]
    assert ref.per_item(3) == [10 / 3, 10 / 3, 5.0]


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench("--workload", "blocks", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_benchmark_json_contract():
    import re

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert m["name"] not in seen
        seen.add(m["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
