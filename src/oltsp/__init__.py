"""Online TSP with location predictions: metric spaces, exact offline
solvers, domination oracles, the strategically-waiting online policies,
and a benchmark harness."""

from .core import Instance, Request, RunResult, prediction_error, simulate, run_adaptive
from .engine import EngineConfig, StartDecision, la_swag_policy, swag_policy
from .offline import (
    CLOSED,
    FREE,
    OptResult,
    PathQuery,
    eval_serving_order,
    held_karp,
    opt_bruteforce,
    ring_tsp,
    shortest_serving_path_length,
    solve_classical,
    tree_tsp,
    flower_tsp,
)
from .oracles import make_oracle
from .spaces import (
    Euclid2D,
    Flower,
    General,
    Line,
    Ring,
    Tree,
    space_from_json,
    trim_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
