"""The project's test setup: the declared Python and package floors match
what the tier-1 workflow installs (each pinned version there meets its
floor in pyproject.toml), and pytest's settings report a failing test."""

import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _version(text):
    return tuple(int(part) for part in text.split("."))


def _floors():
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    floors = dict(re.fullmatch(r"([\w-]+)>=([\d.]+)", r).groups()
                  for r in reqs)
    floors["python"] = re.fullmatch(r">=([\d.]+)",
                                    project["requires-python"]).group(1)
    return floors


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no tier-1 workflow file")
def test_workflow_pins_meet_the_declared_floors():
    text = WORKFLOW.read_text()
    pins = dict(re.findall(r"([\w-]+)==([\d.]+)", text))
    pins["python"] = re.search(r'python-version:\s*"([\d.]+)"',
                               text).group(1)
    floors = _floors()
    assert set(floors) <= set(pins)
    for name, floor in floors.items():
        assert _version(pins[name]) >= _version(floor), name


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """Under the project's warning filters a failing hypothesis test is a
    plain failure: the report names it and the tests after it run (its
    example patch imports libcst, whose import warns)."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_two.py::test_fails" in out
    assert "test_two.py::test_after PASSED" in out
