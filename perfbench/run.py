"""Benchmark of the spbe pipeline, timed step by step.

Each workload is a fixed user pipeline over games generated from
``spbe.instances``: ``spbe.solve`` (with its report, and a policy file
where the workload writes one), then ``run_certification`` of the solved
policy, then ``simulate`` on the certified policy. These are the calls the
CLI's ``solve``, ``verify`` and ``simulate`` subcommands make.

    python3 perfbench/run.py --workload grid_coordination --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

An untraced run repeats whole rounds of the pipeline until ``--seconds``
have passed and reports, per step, the median time of one repetition,
plus ``setup_s`` (a fresh ``spbe validate`` process) and peak memory. A
traced run (``--trace 1``) runs one untraced round and then one traced
round, and reports per-layer counts and self times from the traced round
together with the tracing overhead. Every run checks its outputs (see
``checker.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "spbe" / "__init__.py").is_file():
    sys.exit(f"perfbench: no spbe sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH))

import numpy as np  # noqa: E402

import spbe  # noqa: E402
import spbe.backward  # noqa: E402
import spbe.forward  # noqa: E402
import spbe.stage  # noqa: E402
import spbe.verify  # noqa: E402
from spbe import instances  # noqa: E402

import checker  # noqa: E402
from spans import NoTracer, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_LAUNCHES = 7
RESIDUAL_TOL = 1e-8
VALUE_TOL = 1e-9
SIM_SIGMAS = 4.0
PHASES = ("iteration", "pure_scan", "restart", "support_enumeration", "failed")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def deep_reference():
    """The reference game lengthened to horizon 5: four matching-pennies
    stages, then its nudged coordination stage. Every value is 0.24."""
    ref = instances.reference_instance()
    return dataclasses.replace(ref, horizon=5,
                               rewards=ref.rewards[:1] * 4 + ref.rewards[1:])


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    games: Callable[[], dict]  # () -> {name: GameSpec}
    mode: str = "exact"
    resolution: int = 10
    policy_files: bool = False  # save, reload and certify through HybridGenerator
    known_faults: tuple = ()   # games whose certification fails on a known fault
    solve_reps: int = 1
    verify_reps: int = 1
    sim_reps: int = 1
    episodes: int = 1000


# Repetition counts give every step at least two seconds of repetitions in
# a round, so that the median of one run holds still.
WORKLOADS = {
    w.name: w for w in (
        Workload("grid_coordination",
                 lambda: {"coordination": instances.coordination_instance()},
                 mode="grid", resolution=10, verify_reps=24, sim_reps=10),
        Workload("exact_corpus",
                 lambda: {"signaling_pennies": instances.signaling_pennies_instance(),
                          "random_23": instances.random_instance(23),
                          "random_6": instances.random_instance(6),
                          "random_7": instances.random_instance(7),
                          "random_17": instances.random_instance(17)},
                 policy_files=True, known_faults=("random_7", "random_17"),
                 verify_reps=10, sim_reps=12, episodes=400),
        Workload("certify_deep", lambda: {"deep_reference": deep_reference()},
                 solve_reps=100, verify_reps=3, sim_reps=2, episodes=10_000),
    )
}


# ---------------------------------------------------------------------------
# One round of the pipeline
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Round:
    specs: dict
    results: dict = dataclasses.field(default_factory=dict)
    reports: dict = dataclasses.field(default_factory=dict)
    policies: dict = dataclasses.field(default_factory=dict)
    certs: list = dataclasses.field(default_factory=list)   # one {game: cert} per rep
    sims: list = dataclasses.field(default_factory=list)    # one {game: summary} per rep
    windows: dict = dataclasses.field(   # (start, end) of every repetition
        default_factory=lambda: {"solve_s": [], "verify_s": [], "simulate_s": []})


def sim_seed(seed: int, round_no: int, rep: int, game_no: int) -> int:
    return ((seed * 1000 + round_no) * 1000 + rep) * 100 + game_no


def policy_path(name: str) -> Path:
    return OUT / f"policy-{name}.json"


def run_round(wl: Workload, files: dict, tracer, seed: int, round_no: int) -> Round:
    with tracer.span("game.load"):
        rnd = Round({name: spbe.load_game_spec(path) for name, path in files.items()})
    clock = time.perf_counter

    for _ in range(wl.solve_reps):
        gc.collect()
        started = clock()
        with tracer.span("step.solve"):
            for name, spec in rnd.specs.items():
                result = spbe.solve(spec, mode=wl.mode, resolution=wl.resolution)
                rnd.reports[name] = spbe.build_solve_report(result)
                if wl.policy_files:
                    with tracer.span("backward.policy_save"):
                        spbe.save_policy(result, policy_path(name))
                rnd.results[name] = result
        rnd.windows["solve_s"].append((started, clock()))

    for _ in range(wl.verify_reps):
        gc.collect()
        started = clock()
        certs = {}
        with tracer.span("step.verify"):
            for name, spec in rnd.specs.items():
                if wl.policy_files:
                    with tracer.span("backward.policy_load"):
                        table = spbe.load_policy_file(policy_path(name), spec)
                    generator = spbe.HybridGenerator(
                        table, spbe.ExactGenerator(spec, rnd.results[name].config))
                else:
                    generator = rnd.results[name].generator
                rnd.policies[name] = spbe.EquilibriumPolicy(spec, generator)
                certs[name] = spbe.run_certification(spec, rnd.policies[name])
        rnd.windows["verify_s"].append((started, clock()))
        rnd.certs.append(certs)

    for rep in range(wl.sim_reps):
        gc.collect()
        started = clock()
        sims = {}
        with tracer.span("step.simulate"):
            for g, (name, spec) in enumerate(rnd.specs.items()):
                sims[name] = spbe.simulate(
                    spec, rnd.policies[name], episodes=wl.episodes,
                    seed=sim_seed(seed, round_no, rep, g)).summary
        rnd.windows["simulate_s"].append((started, clock()))
        rnd.sims.append(sims)
    return rnd


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def operations(wl: Workload, rnd: Round) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the operations of one round.

    A certification of a known-fault game that fails counts as a failed
    operation; any other failure is a problem that makes the run incorrect.
    """
    games = len(rnd.specs)
    attempted = games * (wl.solve_reps + wl.verify_reps + wl.sim_reps)
    failed = 0
    problems = []
    for name, result in rnd.results.items():
        if result.status != "ok":
            failed += wl.solve_reps
            problems.append(f"{name}: solve status {result.status}")
    for certs in rnd.certs:
        for name, cert in certs.items():
            if not cert["all_checks_ok"]:
                failed += 1
                if name not in wl.known_faults:
                    problems.append(f"{name}: certificate not all ok "
                                    f"(max_gain {cert['max_gain']})")
    for sims in rnd.sims:
        for name, summary in sims.items():
            if summary.episodes != wl.episodes or \
                    not np.all(np.isfinite(summary.per_player_mean)):
                failed += 1
                problems.append(f"{name}: simulation summary malformed")
    return attempted, failed, problems


def exact_points(generator):
    return [(t, belief.weights, sol.prescription.rows, sol.values)
            for (t, belief, sol) in generator.cached_points()]


def worst_residual(residuals: dict) -> float:
    return max(residuals.values()) if residuals else math.inf


def check_grid(wl: Workload, rnd: Round) -> list[str]:
    problems = []
    spec = rnd.specs["coordination"]
    gen = rnd.results["coordination"].generator
    per_stage = math.comb(wl.resolution + spec.num_joint_types - 1,
                          spec.num_joint_types - 1)
    want = {str(t): per_stage for t in range(1, spec.horizon + 1)}
    if rnd.reports["coordination"]["solve_counts"] != want:
        problems.append(f"solve_counts {rnd.reports['coordination']['solve_counts']}"
                        f" != {want}")
    tables = {t: [(sol.prescription.rows, sol.values) for sol in gen.tables[t]]
              for t in gen.tables}
    worst = worst_residual(checker.grid_residuals(spec, gen.grid, tables))
    if not worst <= RESIDUAL_TOL:
        problems.append(f"grid residual {worst} > {RESIDUAL_TOL}")
    return problems


def check_exact(wl: Workload, rnd: Round) -> list[str]:
    problems = []
    root = rnd.results["signaling_pennies"].root
    if root is None or any(abs(v - 0.4) > VALUE_TOL
                           for arr in root.values for v in arr):
        problems.append("signaling_pennies root values are not all 0.4")
    for name, spec in rnd.specs.items():
        result = rnd.results[name]
        if result.root is None:
            continue
        worst = worst_residual(checker.exact_residuals(
            spec, exact_points(result.generator), spbe.belief_key))
        if not worst <= RESIDUAL_TOL:
            problems.append(f"{name}: stage residual {worst} > {RESIDUAL_TOL}")
        policy = rnd.policies[name]
        recomputed = checker.profile_values(
            spec, lambda h: policy.prescription_for_history(h).rows)
        for i, (solved, mine) in enumerate(zip(result.root.values, recomputed)):
            for xi, (a, b) in enumerate(zip(solved, mine)):
                if not math.isnan(b) and abs(a - b) > VALUE_TOL:
                    problems.append(f"{name}: root value of ({i}, {xi}) is {a}, "
                                    f"the profile earns {b}")
    return problems


class PerturbedPolicy(spbe.EquilibriumPolicy):
    """Player 0 leans 0.7/0.3 at stage 1 whatever its type."""

    def prescription_at(self, t, pi):
        gamma = super().prescription_at(t, pi)
        if t != 1:
            return gamma
        rows = list(gamma.rows)
        rows[0] = np.tile([0.7, 0.3], (rows[0].shape[0], 1))
        return spbe.Prescription(tuple(rows))


def check_deep(wl: Workload, rnd: Round) -> list[str]:
    problems = []
    spec = rnd.specs["deep_reference"]
    gen = rnd.results["deep_reference"].generator
    points = exact_points(gen)
    if any(abs(v - 0.24) > VALUE_TOL for (*_, values) in points
           for arr in values for v in arr):
        problems.append("a stage value differs from 0.2 * 0.8 + 0.08")
    worst = worst_residual(checker.exact_residuals(spec, points, spbe.belief_key))
    if not worst <= RESIDUAL_TOL:
        problems.append(f"stage residual {worst} > {RESIDUAL_TOL}")
    for certs in rnd.certs:
        if not certs["deep_reference"]["max_gain"] <= 1e-6:
            problems.append(f"max_gain {certs['deep_reference']['max_gain']} > 1e-6")
    perturbed = PerturbedPolicy(spec, gen)
    if spbe.verify_pbe(spec, perturbed).ok:
        problems.append("the deviation walk passed a perturbed policy")
    root = perturbed.prescription_for_history(())
    values = {spbe.belief_key(w): v for (t, w, _r, v) in points if t == 2}
    if not checker.stage_residual(spec, 1, spec.prior, root.rows,
                                  lambda post: values[spbe.belief_key(post)]) > RESIDUAL_TOL:
        problems.append("the checker passed a perturbed prescription")
    return problems


def check_simulation(rounds: list[Round], name: str, expected) -> list[str]:
    """Pooled simulated per-player means within SIM_SIGMAS standard errors."""
    summaries = [sims[name] for rnd in rounds for sims in rnd.sims]
    mean = np.mean([s.per_player_mean for s in summaries], axis=0)
    stderr = np.sqrt(np.sum([np.square(s.per_player_stderr) for s in summaries],
                            axis=0)) / len(summaries)
    gap = np.abs(mean - np.asarray(expected, dtype=float))
    if np.all(gap <= SIM_SIGMAS * stderr + 1e-12):
        return []
    return [f"{name}: simulated means {mean.tolist()} are more than "
            f"{SIM_SIGMAS} standard errors {stderr.tolist()} from {list(expected)}"]


CHECKS = {"grid_coordination": check_grid, "exact_corpus": check_exact,
          "certify_deep": check_deep}


def check_run(wl: Workload, rounds: list[Round]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for rnd in rounds:
        a, f, p = operations(wl, rnd)
        attempted += a
        failed += f
        problems += p
        if not p:
            problems += CHECKS[wl.name](wl, rnd)
    if problems:
        return attempted, failed, problems
    if wl.name == "grid_coordination":
        last = rounds[-1]
        expected = spbe.expected_payoffs_exact(
            last.specs["coordination"], last.policies["coordination"]).per_player
        problems += check_simulation(rounds, "coordination", expected)
    elif wl.name == "certify_deep":
        problems += check_simulation(rounds, "deep_reference", [0.24, 0.24])
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def write_games(wl: Workload) -> dict:
    folder = OUT / "games" / wl.name
    folder.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, spec in wl.games().items():
        files[name] = folder / f"{name}.json"
        spbe.save_game_spec(spec, files[name])
    return files


def setup_windows(files: dict) -> tuple[list[tuple[float, float]], list[str]]:
    """(start, end) of fresh ``spbe validate`` processes over the game files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    paths = list(files.values())
    windows, problems = [], []
    for k in range(SETUP_LAUNCHES):
        path = paths[k % len(paths)]
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spbe.cli", "validate", str(path)],
            cwd=ROOT, env=env, capture_output=True, text=True)
        windows.append((started, time.perf_counter()))
        if proc.returncode != 0 or not json.loads(proc.stdout).get("ok"):
            problems.append(f"spbe validate {path.name} exited {proc.returncode}")
    return windows, problems


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced round
# ---------------------------------------------------------------------------

def phase_of(solution) -> str:
    if solution.method == "iteration":
        return "iteration" if solution.restart_index == 0 else "restart"
    return solution.method or "failed"


def install(tracer: Tracer) -> None:
    B, F, S, V = spbe.backward, spbe.forward, spbe.stage, spbe.verify
    tracer.wrap(B, "solve_stage_fixed_point", "stage.solve", tag=phase_of)
    tracer.wrap(B, "nearest_grid_index", "backward.snap")
    tracer.wrap(B.ExactGenerator, "solution_at", "backward.exact_lookup")
    tracer.wrap(S, "update", "beliefs.update")
    tracer.wrap(F, "update", "beliefs.update")
    tracer.wrap(S, "condition_on_type", "beliefs.condition")
    tracer.wrap(V, "condition_on_type", "beliefs.condition")
    tracer.wrap(F.EquilibriumPolicy, "common_belief", "forward.belief")
    tracer.wrap(F.EquilibriumPolicy, "prescription_at", "forward.prescription")
    tracer.wrap(V, "verify_pbe", "verify.walk")
    tracer.wrap(V, "verify_one_shot", "verify.one_shot")
    tracer.wrap(V, "check_strategy_independence", "verify.two_path")


def layer_metrics(tracer: Tracer, rnd: Round) -> dict:
    name, parent, _duration, self_time = tracer.arrays()
    ids = {n: k for k, n in enumerate(tracer.names)}

    def mask(n):
        return name == ids[n] if n in ids else np.zeros(name.shape, dtype=bool)

    def calls(n):
        return int(mask(n).sum())

    def busy(n):
        return float(self_time[mask(n)].sum())

    out = {"game.load_s": (busy("game.load"), "s")}
    for layer in ("beliefs.update", "beliefs.condition"):
        out[f"{layer}_calls"] = (calls(layer), "count")
        out[f"{layer}_s"] = (busy(layer), "s")

    solves = mask("stage.solve")
    out["stage.solves"] = (int(solves.sum()), "count")
    out["stage.self_s"] = (float(self_time[solves].sum()), "s")
    phase = np.array([tracer.tags.get(k, "") for k in range(name.shape[0])])
    for p in PHASES:
        m = solves & (phase == p)
        out[f"stage.solves.{p}"] = (int(m.sum()), "count")
        out[f"stage.self_s.{p}"] = (float(self_time[m].sum()), "s")
    n_solves = int(solves.sum())
    out["stage.first_phase_share"] = (
        int((solves & (phase == "iteration")).sum()) / n_solves if n_solves else 0.0,
        "ratio")

    out["backward.snap_calls"] = (calls("backward.snap"), "count")
    out["backward.snap_s"] = (busy("backward.snap"), "s")
    lookups = mask("backward.exact_lookup")
    from_lookup = solves & (parent >= 0)
    from_lookup[from_lookup] = lookups[parent[from_lookup]]
    n_lookups, n_exact = int(lookups.sum()), int(from_lookup.sum())
    out["backward.exact_lookups"] = (n_lookups, "count")
    out["backward.exact_solves"] = (n_exact, "count")
    out["backward.exact_hit_ratio"] = (
        1.0 - n_exact / n_lookups if n_lookups else 0.0, "ratio")
    out["backward.policy_save_s"] = (busy("backward.policy_save"), "s")
    out["backward.policy_load_s"] = (busy("backward.policy_load"), "s")
    certs = [c for rep in rnd.certs for c in rep.values()]
    out["backward.table_completions"] = (
        sum(c.get("table_completions", 0) for c in certs), "count")

    out["forward.belief_queries"] = (calls("forward.belief"), "count")
    out["forward.belief_s"] = (busy("forward.belief"), "s")
    out["forward.prescription_queries"] = (calls("forward.prescription"), "count")

    out["verify.walk_s"] = (busy("verify.walk"), "s")
    out["verify.walk_nodes"] = (
        sum(c["agents_checked"] * c["histories_per_agent"] for c in certs), "count")
    out["verify.one_shot_s"] = (busy("verify.one_shot"), "s")
    out["verify.one_shot_histories"] = (
        sum(c["one_shot"]["histories_checked"] for c in certs), "count")
    out["verify.two_path_s"] = (busy("verify.two_path"), "s")
    out["verify.two_path_checked"] = (
        sum(c["belief_consistency"]["checked"] for c in certs), "count")
    out["verify.two_path_skipped"] = (
        sum(c["belief_consistency"]["skipped"] for c in certs), "count")
    out["trace.spans"] = (int(name.shape[0]), "count")
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

STEPS = ("solve_s", "verify_s", "simulate_s")


def step_times(windows: dict, probe: SpeedProbe) -> tuple[dict, dict]:
    """Scaled and wall time of every repetition, per step."""
    scaled = {k: [probe.scaled(*w) for w in ws] for k, ws in windows.items()}
    wall = {k: [end - start for start, end in ws] for k, ws in windows.items()}
    return scaled, wall


def medians(times: dict) -> dict:
    return {k: statistics.median(v) for k, v in times.items()}


def pooled(rounds: list[Round]) -> dict:
    return {step: [w for rnd in rounds for w in rnd.windows[step]] for step in STEPS}


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    files = write_games(wl)
    problems: list[str] = []
    with SpeedProbe() as probe:
        if traced:
            rounds = [run_round(wl, files, NoTracer(), seed, 0)]
            tracer = Tracer()
            install(tracer)
            try:
                rounds.append(run_round(wl, files, tracer, seed, 1))
            finally:
                tracer.restore()
            metrics = layer_metrics(tracer, rounds[-1])
            plain = medians(step_times(pooled(rounds[:1]), probe)[0])
            with_spans = medians(step_times(pooled(rounds[1:]), probe)[0])
            for step in STEPS:
                metrics[f"trace.overhead_{step}"] = (with_spans[step] - plain[step], "s")
            tracer.write(OUT / f"trace-{wl.name}-seed{seed}.tsv.gz")
            scaled = wall = {}
        else:
            setup, problems = setup_windows(files)
            rounds = []
            started = time.perf_counter()
            while not rounds or time.perf_counter() - started < seconds:
                rounds.append(run_round(wl, files, NoTracer(), seed, len(rounds)))
            windows = {"setup_s": setup, **pooled(rounds)}
            scaled, wall = step_times(windows, probe)
            metrics = {k: (v, "s") for k, v in medians(scaled).items()}
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        attempted, failed, more = check_run(wl, rounds)
    problems += more
    return {
        "workload": wl.name,
        "seed": seed,
        "rounds": len(rounds),
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_s": medians(wall),
        "repetitions_s": {"scaled": scaled, "wall": wall},
    }


def print_table(title: str, result: dict) -> None:
    print(f"== {title}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for problem in result.get("problems", ()):
        print(f"   PROBLEM {problem}")
    for key, metric in result["metrics"].items():
        print(f"   {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in result.get("wall_s", {}).items():
        print(f"   {key + ' (wall, unscaled)':<42} {value:>14.6g} s")


def run_all(args) -> int:
    """Every workload in its own process, one combined table and result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print_table(name, result)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(result, indent=2) + "\n")
    print_table(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
