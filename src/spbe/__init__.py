"""Equilibrium computation for repeated games with private types.

The package solves finite-horizon repeated games in which players act
publicly but know their own payoff type privately. A backward recursion
over public beliefs produces per-stage prescriptions whose fixed points
form an equilibrium; a forward pass turns them into playable strategies;
an independent verifier certifies the result by exhaustive best-deviation
search.
"""

from .beliefs import (
    Belief,
    ConditionalBelief,
    Prescription,
    belief_entropy,
    condition_on_type,
    initial_belief,
    update,
)
from .game import (
    GameSpec,
    GameSpecError,
    game_spec_from_document,
    game_spec_to_document,
    load_game_spec,
    parse_game_spec,
    save_game_spec,
    serialize_game_spec,
    validate,
)
from .stage import (
    SolverConfig,
    StageSolution,
    solve_stage_fixed_point,
)
from .backward import (
    ExactGenerator,
    GridGenerator,
    HybridGenerator,
    NoFixedPointError,
    ResourceLimitError,
    SolveResult,
    belief_key,
    build_solve_report,
    grid_points,
    load_policy,
    load_policy_file,
    nearest_grid_index,
    policy_document,
    render_report,
    save_policy,
    solve,
)
from .forward import (
    EquilibriumPolicy,
    ExactPayoffs,
    SimulationResult,
    SimulationSummary,
    Trace,
    expected_payoffs_exact,
    simulate,
    traces_to_delimited,
)
from .verify import (
    DeviationFinding,
    VerificationReport,
    best_deviation_value,
    check_strategy_independence,
    equilibrium_continuation_value,
    one_shot_gaps,
    run_certification,
    verify_one_shot,
    verify_pbe,
)
from . import instances

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "ConditionalBelief",
    "Prescription",
    "belief_entropy",
    "condition_on_type",
    "initial_belief",
    "update",
    "GameSpec",
    "GameSpecError",
    "game_spec_from_document",
    "game_spec_to_document",
    "load_game_spec",
    "parse_game_spec",
    "save_game_spec",
    "serialize_game_spec",
    "validate",
    "SolverConfig",
    "StageSolution",
    "solve_stage_fixed_point",
    "ExactGenerator",
    "GridGenerator",
    "HybridGenerator",
    "NoFixedPointError",
    "ResourceLimitError",
    "SolveResult",
    "belief_key",
    "build_solve_report",
    "grid_points",
    "load_policy",
    "load_policy_file",
    "nearest_grid_index",
    "policy_document",
    "render_report",
    "save_policy",
    "solve",
    "EquilibriumPolicy",
    "ExactPayoffs",
    "SimulationResult",
    "SimulationSummary",
    "Trace",
    "expected_payoffs_exact",
    "simulate",
    "traces_to_delimited",
    "DeviationFinding",
    "VerificationReport",
    "best_deviation_value",
    "check_strategy_independence",
    "equilibrium_continuation_value",
    "one_shot_gaps",
    "run_certification",
    "verify_one_shot",
    "verify_pbe",
    "instances",
    "__version__",
]
