"""Equilibrium computation for repeated games with private types.

The package solves finite-horizon repeated games in which players act
publicly but know their own payoff type privately. A backward recursion
over public beliefs produces per-stage prescriptions whose fixed points
form an equilibrium; a forward pass turns them into playable strategies;
an independent verifier certifies the result by exhaustive best-deviation
search.

Names load on first use: ``import spbe`` imports no submodule, and the
first read of a public name (or of a submodule, ``spbe.backward``)
imports the module that defines it and binds all of that module's public
names here. So a program that only reads games loads only
:mod:`spbe.game`.
"""

import importlib

__version__ = "0.1.0"

# every public name, once, under the module that defines it
_PUBLIC = {
    "beliefs": ("Belief", "ConditionalBelief", "Prescription", "belief_entropy",
                "belief_key", "condition_on_type", "initial_belief", "update"),
    "game": ("GameSpec", "GameSpecError", "NoFixedPointError", "ResourceLimitError",
             "game_spec_from_document", "game_spec_to_document", "load_game_spec",
             "parse_game_spec", "save_game_spec", "serialize_game_spec",
             "validate"),
    "stage": ("SolverConfig", "StageSolution", "solve_stage_fixed_point"),
    "backward": ("ExactGenerator", "GridGenerator", "HybridGenerator", "SolveResult",
                 "build_solve_report", "grid_points", "load_policy",
                 "load_policy_file", "nearest_grid_index", "policy_document",
                 "render_report", "save_policy", "solve"),
    "forward": ("EquilibriumPolicy", "ExactPayoffs", "SimulationResult",
                "SimulationSummary", "Trace", "expected_payoffs_exact", "simulate",
                "traces_to_delimited"),
    "verify": ("DeviationFinding", "VerificationReport", "best_deviation_value",
               "check_strategy_independence", "equilibrium_continuation_value",
               "one_shot_gaps", "run_certification", "verify_one_shot",
               "verify_pbe"),
}
_SUBMODULES = (*_PUBLIC, "instances", "cli")
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_OWNER, "instances", "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    globals().update((n, getattr(module, n)) for n in _PUBLIC[_OWNER[name]])
    return globals()[name]
