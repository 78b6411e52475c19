"""Certified interval-iteration solver for turn-based stochastic games.

Computes epsilon-precise values for reachability, safety and mean-payoff
objectives, either by complete exploration (``solve_ce``) or guided
simulation over a partial model (``solve_pe``).  Both return certified
lower and upper bounds on the value of the initial state.
"""

from .bounds import BoundsVector, Strategy, converged, extract_strategy, midpoint
from .ce import solve_ce
from .explicit import ExplicitSyntaxError, parse, serialize
from .generators import GENERATORS, ParameterOutOfRange, generate
from .graph import EndComponent, MecDecomposition, attractor, mec_decompose, qualitative_reach
from .model import (
    Distribution,
    GameModel,
    ModelError,
    Player,
    build_game,
    induced_mdp,
)
from .objectives import Objective, ObjectiveKind, Query, init_bounds, prepare, reach_as_meanpayoff
from .pe import solve_pe
from .result import SolveResult

__version__ = "0.1.0"

__all__ = [
    "BoundsVector",
    "Distribution",
    "EndComponent",
    "ExplicitSyntaxError",
    "GameModel",
    "GENERATORS",
    "MecDecomposition",
    "ModelError",
    "Objective",
    "ObjectiveKind",
    "ParameterOutOfRange",
    "Player",
    "Query",
    "SolveResult",
    "Strategy",
    "attractor",
    "build_game",
    "converged",
    "extract_strategy",
    "generate",
    "induced_mdp",
    "init_bounds",
    "mec_decompose",
    "midpoint",
    "parse",
    "prepare",
    "qualitative_reach",
    "reach_as_meanpayoff",
    "serialize",
    "solve_ce",
    "solve_pe",
]
