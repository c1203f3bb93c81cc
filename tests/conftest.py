import numpy as np
import pytest

from multibump import assembly, cli, localfield, solver, weight


@pytest.fixture(autouse=True)
def fresh_process_memos():
    """Every test starts with no shared levels or grids and no built-in
    weight, as a new process does, so no test depends on what an earlier
    one solved."""
    localfield.clear_levels()
    assembly.clear_grids()
    cli._builtin_weight.cache_clear()


@pytest.fixture(scope="session")
def step_weight():
    return weight.make_step_weight()


@pytest.fixture(scope="session")
def sine_weight():
    return weight.make_sine_weight()


@pytest.fixture(scope="session")
def levels(step_weight):
    """Step's levels on the level mesh every command uses."""
    return localfield.LevelEvaluator(step_weight)


@pytest.fixture(scope="session")
def consts(step_weight, levels):
    return levels.pack


@pytest.fixture()
def level_mesh(monkeypatch):
    """level_mesh(n) solves every level on n cells for the rest of the test,
    through ``localfield.default_cells``; evaluators kept before keep their
    levels.  Inside ``@given`` use ``pytest.MonkeyPatch.context()``."""
    def use(n):
        monkeypatch.setattr(localfield, "default_cells", lambda w: n)
    return use


@pytest.fixture(scope="session")
def sol_10(step_weight):
    """Certified (1, 0) solution at mu = 1e3 on a moderate mesh."""
    window = solver.make_window((1, 0))
    return solver.solve_multibump(step_weight, window, 1e3, cells=400)


@pytest.fixture(scope="session")
def sol_110(step_weight):
    window = solver.make_window((1, 1, 0))
    return solver.solve_multibump(step_weight, window, 1e3, cells=300)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)
