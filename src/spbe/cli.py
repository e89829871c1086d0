"""Command line front end.

Five subcommands cover the pipeline: ``validate`` checks a game file,
``solve`` runs the backward recursion and prints a report, ``simulate``
rolls out episodes under the solved prescriptions, ``verify`` certifies a
policy against exact best-deviation values, and ``export`` builds the
belief-grid tables in a plotting-friendly document.

Every subcommand prints one JSON document to stdout (or ``--out``); on
failure that document describes the error, and a one-line summary goes to
stderr. Exit codes are listed in ``--help``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .backward import (
    DEFAULT_CACHE_BUDGET,
    NoFixedPointError,
    ResourceLimitError,
    build_solve_report,
    load_policy_file,
    policy_document,
    render_report,
    save_policy,
    solve,
)
from .forward import EquilibriumPolicy, simulate, traces_to_delimited
from .game import GameSpec, GameSpecError, load_game_spec
from .stage import SolverConfig
from .verify import run_certification

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_NO_FIXED_POINT = 3
EXIT_VERIFICATION = 4
EXIT_RESOURCE = 5

_EXIT_TABLE = """\
exit codes:
  0  success
  1  unexpected internal error
  2  input could not be parsed or failed validation
  3  no equilibrium fixed point found (solve/export left unsolved points)
  4  verification failed
  5  refused: a configured resource limit would be exceeded
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spbe",
        description="Solve, simulate and verify repeated games with "
                    "privately known types.",
        epilog=_EXIT_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)
    group = solver.add_argument_group("solver options")
    group.add_argument("--mode", choices=("exact", "grid"), default="exact",
                       help="exact lazy recursion or belief-grid tables")
    group.add_argument("--grid-resolution", type=int, default=10, metavar="G",
                       help="grid denominator for grid mode (default 10)")
    group.add_argument("--tol", type=float, default=1e-8,
                       help="fixed-point residual tolerance (default 1e-8)")
    group.add_argument("--max-iters", type=int, default=10_000,
                       help="iteration cap per stage solve (default 10000)")
    group.add_argument("--damping", type=float, default=0.5,
                       help="best-response damping step in (0, 1] (default 0.5)")
    group.add_argument("--restarts", type=int, default=8,
                       help="random restarts per stage point (default 8)")
    group.add_argument("--seed", type=int, default=0,
                       help="seed for restarts and simulation (default 0)")
    group.add_argument("--enum-limit", type=int, default=12,
                       help="support enumeration size cap; 0 disables "
                            "(default 12)")
    group.add_argument("--cache-budget", type=int, default=DEFAULT_CACHE_BUDGET,
                       help="max stored stage points (exact cache or grid "
                            "tables)")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", default=None,
                     help="write the report here instead of stdout")

    p = sub.add_parser("validate", parents=[out],
                       help="check a game file and print a structural report")
    p.add_argument("game", help="path to a game JSON file")

    p = sub.add_parser("solve", parents=[solver, out],
                       help="run the backward recursion and report the root")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--policy-out", metavar="PATH", default=None,
                   help="also write the solved prescriptions as a policy file")

    p = sub.add_parser("simulate", parents=[solver, out],
                       help="roll out episodes under the solved policy")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--policy", metavar="PATH", default=None,
                   help="use a saved policy file instead of solving")
    p.add_argument("--episodes", type=int, default=1000,
                   help="number of episodes (default 1000)")
    p.add_argument("--trace-limit", type=int, default=1000,
                   help="episodes kept in full for --traces-out (default 1000)")
    p.add_argument("--traces-out", metavar="PATH", default=None,
                   help="write per-stage traces as tab-separated text")

    p = sub.add_parser("verify", parents=[solver, out],
                       help="certify a policy by exact best-deviation search")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--policy", metavar="PATH", default=None,
                   help="policy file to certify; a grid-mode file snaps "
                        "to its grid, beliefs any other lacks are solved "
                        "exactly on top of its entries, which count "
                        "against --cache-budget")
    p.add_argument("--verify-tol", type=float, default=1e-6,
                   help="max tolerated deviation gain (default 1e-6)")
    p.add_argument("--samples", type=int, default=50,
                   help="random strategies for the belief-consistency check")

    p = sub.add_parser("export", parents=[solver, out],
                       help="build grid tables and print them for plotting")
    p.add_argument("game", help="path to a game JSON file")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _fail(args, code: int, kind: str, message: str, **details) -> int:
    doc = {"error": {"kind": kind, "message": message, "exit_code": code}}
    doc["error"].update(details)
    _emit(json.dumps(doc, indent=2, sort_keys=True), getattr(args, "out", None))
    print(f"spbe: {message}", file=sys.stderr)
    return code


def _config(args) -> SolverConfig:
    return SolverConfig(
        fp_tol=args.tol,
        max_iterations=args.max_iters,
        damping=args.damping,
        restarts=args.restarts,
        rng_seed=args.seed,
        support_enumeration_limit=max(args.enum_limit, 0),
    )


def _load_game(args) -> GameSpec:
    return load_game_spec(args.game)


def _cmd_validate(args) -> int:
    spec = _load_game(args)
    doc = {
        "ok": True,
        "game": spec.digest(),
        "players": spec.num_players,
        "horizon": spec.horizon,
        "joint_types": spec.num_joint_types,
        "joint_actions": spec.num_joint_actions,
        "stationary": spec.stationary,
        "discount": spec.discount,
    }
    _emit(render_report(doc), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = _load_game(args)
    result = solve(
        spec,
        mode=args.mode,
        config=_config(args),
        resolution=args.grid_resolution,
        cache_budget=args.cache_budget,
    )
    _emit(render_report(build_solve_report(result)), args.out)
    if args.policy_out and result.status in ("ok", "partial"):
        save_policy(result, args.policy_out)
    if result.status == "ok":
        return EXIT_OK
    message = (result.failure or {}).get("message", "no fixed point found")
    print(f"spbe: solve {result.status}: {message}", file=sys.stderr)
    return EXIT_RESOURCE if result.status == "refused" else EXIT_NO_FIXED_POINT


def _policy_for(spec: GameSpec, args):
    """Generator backing simulate/verify: a policy file when given (a
    grid-mode file snaps to its grid, any other solves the beliefs it
    lacks exactly, within the solver knobs and cache budget), otherwise a
    fresh solve in the chosen mode."""
    if args.policy:
        return load_policy_file(args.policy, spec, _config(args),
                                args.cache_budget), None
    result = solve(
        spec,
        mode=args.mode,
        config=_config(args),
        resolution=args.grid_resolution,
        cache_budget=args.cache_budget,
    )
    if result.status == "refused":
        raise ResourceLimitError((result.failure or {}).get("message", "refused"),
                                 (result.failure or {}).get("limit", 0))
    if result.status != "ok":
        return None, result
    return result.generator, None


def _cmd_simulate(args) -> int:
    # checked again by ``simulate``, but here before a solve can start
    if args.episodes < 1:
        raise ValueError("episodes must be >= 1")
    if args.trace_limit < 0:
        raise ValueError("trace_limit must be >= 0")
    spec = _load_game(args)
    generator, failed = _policy_for(spec, args)
    if generator is None:
        _emit(render_report(build_solve_report(failed)), args.out)
        print("spbe: cannot simulate, solve found no fixed point",
              file=sys.stderr)
        return EXIT_NO_FIXED_POINT
    policy = EquilibriumPolicy(spec, generator)
    sim = simulate(spec, policy, episodes=args.episodes, seed=args.seed,
                   trace_limit=args.trace_limit)
    doc = sim.summary.to_document()
    doc["game"] = spec.digest()
    doc["traces_kept"] = len(sim.traces)
    _emit(render_report(doc), args.out)
    if args.traces_out:
        Path(args.traces_out).write_text(traces_to_delimited(sim.traces),
                                         encoding="utf-8")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # checked again by the verifier, but here before a solve can start
    if args.samples < 0:
        raise ValueError("samples must be >= 0")
    if not args.verify_tol >= 0:   # NaN too
        raise ValueError("tol must be >= 0")
    spec = _load_game(args)
    generator, failed = _policy_for(spec, args)
    if generator is None:
        _emit(render_report(build_solve_report(failed)), args.out)
        print("spbe: cannot verify, solve found no fixed point",
              file=sys.stderr)
        return EXIT_NO_FIXED_POINT
    policy = EquilibriumPolicy(spec, generator)
    cert = run_certification(spec, policy, tol=args.verify_tol,
                             consistency_samples=args.samples, seed=args.seed)
    _emit(render_report(cert), args.out)
    if cert["all_checks_ok"]:
        return EXIT_OK
    print(f"spbe: verification failed, max deviation gain {cert['max_gain']}",
          file=sys.stderr)
    return EXIT_VERIFICATION


def _cmd_export(args) -> int:
    spec = _load_game(args)
    result = solve(spec, mode="grid", config=_config(args),
                   resolution=args.grid_resolution, cache_budget=args.cache_budget)
    if result.status == "refused":
        _emit(render_report(build_solve_report(result)), args.out)
        print(f"spbe: export refused: {result.failure['message']}", file=sys.stderr)
        return EXIT_RESOURCE
    failed = len(result.generator.failed_points)
    doc = policy_document(result)
    doc["failed_points"] = failed
    _emit(render_report(doc), args.out)
    if failed:
        print(f"spbe: {failed} grid points did not converge", file=sys.stderr)
        return EXIT_NO_FIXED_POINT
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GameSpecError as err:
        return _fail(args, EXIT_PARSE, "parse_error", str(err))
    except OSError as err:
        return _fail(args, EXIT_PARSE, "io_error", str(err))
    except ValueError as err:
        return _fail(args, EXIT_PARSE, "invalid_input", str(err))
    except NoFixedPointError as err:
        return _fail(args, EXIT_NO_FIXED_POINT, "no_fixed_point", str(err),
                     stage=err.t, belief=list(err.key))
    except ResourceLimitError as err:
        return _fail(args, EXIT_RESOURCE, "resource_limit", str(err),
                     limit=err.limit)
    except Exception as err:  # pragma: no cover - defensive
        return _fail(args, EXIT_INTERNAL, "internal_error",
                     f"{type(err).__name__}: {err}")


if __name__ == "__main__":
    sys.exit(main())
