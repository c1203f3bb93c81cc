"""The declared Python and package floors match what the tier-1 workflow
installs: each pinned version there meets its floor in pyproject.toml."""

import re
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
