"""Multibump solutions of u'' + (a+(t) - mu a-(t)) u^3 = 0.

Library layout:

- weight: weight definitions, validation, explicit constants
- localfield: ground bump, pinned-zero level, principal eigenvalue
- assembly: P1 finite-element machinery on periodic interval windows
- solver: multibump Newton/continuation solver with certification
- connection: Dirichlet block problems, sensitivities, energy derivatives,
  uniqueness probe
- verify: identities, decay rates, distances to the singular limit
- oracle: independent shooting/IVP cross-validation path
- cli: command-line entry points
"""

from . import errors
from .weight import (ConstantPack, Piece, WeightSpec, build_constant_pack,
                     build_weight, choose_zeta, compute_r, load_weight_json,
                     make_sine_weight, make_step_weight, save_weight_json)
from .localfield import (LevelEvaluator, ground_state, levels_of,
                         nehari_project, principal_eigenvalue)
from .assembly import Grid, GridFunction, span_grid
from .solver import (Solution, SolveReport, SymbolWindow,
                     make_window, parse_symbols, solve_multibump)
from .connection import (ConnectionProblem, ConnectionSolution,
                         energy_derivatives, make_connection_problem,
                         solve_connection, uniqueness_probe)
from .verify import (limit_distance, minimal_period, nehari_identities,
                     oracle_residual, run_sweep)
from .oracle import IvpState, brute_ground_level, integrate, shoot_dirichlet

__version__ = "0.1.0"
