"""Outcomes of exact-mode solves of ``random_instance`` beyond the default shape.

For each shape below and each seed 0-9, solve ``random_instance(seed,
**shape)`` in exact mode with the default solver settings, certify an ok
solve with ``run_certification``, and report one of four outcomes:

- ``ok``: the solve is ok and the certificate's ``all_checks_ok`` holds;
- ``nc``: the solve is ok but not certified (its ``max_gain`` is shown);
- ``failed``: the solve's status is not ok (its status is shown), or the
  process raised (its last line is shown);
- ``cap``: the game's process passed the cap and was killed.

Each game runs in its own process, one at a time, so that a run does not
share the machine with itself and a killed solve leaves nothing behind.
The solve time is measured in that process around ``solve`` alone.

It prints the summary table (counts per outcome, seeds in parentheses)
and then one line per game: shape, seed, outcome and solve seconds.

Usage, from the repository root::

    python tools/shape_table.py
    python tools/shape_table.py --cap 60 --src OTHER/src

SRC is a ``src`` directory holding the ``spbe`` package (default: this
checkout's).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SHAPES = {
    "players=3, horizon=1": {"players": 3, "horizon": 1},
    "discount=0.9": {"discount": 0.9},
    "actions=3": {"actions": 3},
    "types=3": {"types": 3},
    "players=3, horizon=2": {"players": 3},
    "horizon=3": {"horizon": 3},
}
SEEDS = range(10)
OUTCOMES = ("ok", "nc", "failed", "cap")


def one(src: str, shape: str, seed: int) -> dict:
    """Solve and certify one game in this process."""
    sys.path.insert(0, src)
    import spbe

    spec = spbe.instances.random_instance(seed, **SHAPES[shape])
    started = time.perf_counter()
    result = spbe.solve(spec, mode="exact")
    out = {"solve_s": time.perf_counter() - started, "status": result.status}
    if result.status != "ok":
        out["outcome"] = "failed"
        return out
    cert = spbe.run_certification(spec, spbe.EquilibriumPolicy(spec, result.generator))
    out["outcome"] = "ok" if cert["all_checks_ok"] else "nc"
    out["max_gain"] = cert["max_gain"]
    return out


def run(src: str, shape: str, seed: int, cap: float) -> dict:
    """One game in its own process, killed past ``cap`` seconds."""
    argv = [sys.executable, __file__, "--one", shape, str(seed), "--src", src]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return {"outcome": "cap", "solve_s": cap}
    if proc.returncode:   # a crash is a failure, shown by its last line
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"outcome": "failed", "status": f"error: {last}", "solve_s": float("nan")}
    return json.loads(proc.stdout)


def _note(game: dict) -> str:
    if game["outcome"] == "nc":
        return f"max_gain {game['max_gain']:.3g}"
    if game["outcome"] == "failed":
        return game["status"]
    return ""


def _cell(seeds: list[int]) -> str:
    return f"{len(seeds)} ({', '.join(map(str, seeds))})" if seeds else "0"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="src directory holding the spbe package")
    parser.add_argument("--cap", type=float, default=40.0,
                        help="seconds before a game's process is killed (default 40)")
    parser.add_argument("--one", nargs=2, metavar=("SHAPE", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one(args.src, args.one[0], int(args.one[1]))))
        return 0
    lines, rows = [], []
    for shape in SHAPES:
        by_outcome = {o: [] for o in OUTCOMES}
        for seed in SEEDS:
            game = run(args.src, shape, seed, args.cap)
            by_outcome[game["outcome"]].append(seed)
            lines.append(f"{shape:<22} seed {seed}  {game['outcome']:<6} "
                         f"{game['solve_s']:7.2f} s  {_note(game)}".rstrip())
            print(lines[-1], file=sys.stderr, flush=True)
        rows.append(f"| `{shape}` | "
                    + " | ".join(_cell(by_outcome[o]) for o in OUTCOMES) + " |")
    print(f"| `random_instance` shape | ok, certified | nc | failed | "
          f"over the cap ({args.cap:g} s) |")
    print("|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
