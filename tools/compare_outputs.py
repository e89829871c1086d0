"""Digests of the outputs a behaviour-preserving change must keep.

For each game of a fixed guard set, solve it, reload its policy document,
and record, as one sha256 line per item:

- the solve report without its ``timing`` block, and the policy document;
- the summary and traces of ``simulate(spec, policy, 1100, seed=5,
  trace_limit=40)`` on a fresh policy of the reloaded generator, before
  anything else reads it: play alone asks for its beliefs and
  prescriptions, and 1100 episodes cross a block of 1024;
- for the solved policy and then for the reloaded one: the certificate
  (``run_certification``), the summary and traces of
  ``simulate(spec, policy, 300, seed=3)``, the generator's
  ``cached_points()``, ``failed_points`` and ``solve_counts`` and, in grid
  mode, its ``snap_stats``.

Then the command line, ``spbe.cli.main`` run in process with ``--out``
on the reference game: ``validate``; ``solve --policy-out``, its report
and the policy file; ``verify`` and ``simulate --traces-out`` on that
policy file, the simulation's traces too; ``export --grid-resolution 3``;
and one run for each failure exit code, 2 (a game whose prior sums to
2), 3 (``asymmetric_pennies`` with support enumeration off and 300
iterations) and 5 (a cache budget of 0). Each item digests the exit code
and the written document, less a report's ``timing`` block.

An item that raises records its exception's type and message instead.
The guard set is 56 exact-mode games (the 12 corpus games,
``random_instance(0..39)``, two horizon-1 shapes, the three-player
horizon-2 ``random_instance(9, players=3)``, whose stage-2 point closes
by support enumeration, and the reference game lengthened to horizon 5),
14 grid builds, and seven solves that are not ok, so that every status
of a solve is checked: an exact solve that finds no fixed point, two
exact solves that fail inside a last-stage batch after storing some of
its points (``random_instance(5)`` and ``(9)`` with support enumeration
off), one that fails below the last stage after storing points at both
later stages (``random_instance(6, horizon=3)`` with support enumeration
off, which stops at stage 2), an exact and a grid solve refused by their
cache budget, and a partial grid. With the 10 command-line items that
makes 1,043 items.

With ``--outcomes`` it prints instead one line per game of the guard set:
the solve status, the certificate's ``all_checks_ok`` and ``max_gain``
(``-`` where the solve left no generator), and a digest of the root
prescription (``-`` where there is no root), then a count of ok solves
and of ``all_checks_ok`` and, under it, the total of the solves'
``solve_counts`` (the stage points solved, read before anything else
queries the generator). A behaviour change lists its before and after
counts from these, and which games moved.

Usage, from the repository root::

    python tools/compare_outputs.py SRC            # digest lines of one tree
    python tools/compare_outputs.py OLD_SRC NEW_SRC
    python tools/compare_outputs.py --outcomes SRC
    python tools/compare_outputs.py --outcomes OLD_SRC NEW_SRC

SRC is a ``src`` directory holding the ``spbe`` package. Given two, each
tree is dumped in its own process and the items (or, with ``--outcomes``,
the games) whose lines differ are listed; the exit status is 1 if any
differ, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def _games(spbe):
    """(name, spec, mode, resolution, other ``solve`` arguments) of every
    game of the guard set."""
    instances = spbe.instances
    ref = instances.reference_instance()
    exact = dict(instances.corpus())
    exact.update({f"random_{s}": instances.random_instance(s) for s in range(40)})
    exact["random_0_players3_h1"] = instances.random_instance(0, players=3, horizon=1)
    exact["random_2_types3_h1"] = instances.random_instance(2, types=3, horizon=1)
    exact["random_9_players3"] = instances.random_instance(9, players=3)
    exact["reference_h5"] = dataclasses.replace(
        ref, horizon=5, rewards=ref.rewards[:1] * 4 + ref.rewards[1:])
    for name, spec in exact.items():
        yield f"exact/{name}", spec, "exact", None, {}
    grid = [
        ("coordination", instances.coordination_instance(), (10, 3)),
        ("single_player", instances.single_player_instance(), (4,)),
        ("random_1_players3", instances.random_instance(1, players=3), (1,)),
        ("random_1_types3_actions2",
         instances.random_instance(1, types=3, actions=2), (1,)),
        ("asymmetric_pennies", instances.asymmetric_pennies_instance(), (4,)),
        ("signaling_pennies", instances.signaling_pennies_instance(), (5, 2)),
        ("reference", ref, (6, 3)),
        *((f"random_{s}", instances.random_instance(s), (2,))
          for s in (9, 13, 18, 22)),
    ]
    for name, spec, resolutions in grid:
        for r in resolutions:
            yield f"grid/{name}_r{r}", spec, "grid", r, {}
    pennies = instances.asymmetric_pennies_instance()
    no_enum = spbe.SolverConfig(support_enumeration_limit=0)
    yield ("exact/failed_asymmetric_pennies", pennies, "exact", None,
           {"config": dataclasses.replace(no_enum, max_iterations=300)})
    for seed in (5, 9):
        yield (f"exact/failed_random_{seed}_no_enumeration",
               instances.random_instance(seed), "exact", None, {"config": no_enum})
    yield ("exact/failed_random_6_h3_no_enumeration",
           instances.random_instance(6, horizon=3), "exact", None,
           {"config": no_enum})
    yield ("exact/refused_dominant_types", instances.dominant_types_instance(),
           "exact", None, {"cache_budget": 2})
    yield ("grid/partial_asymmetric_pennies_r2", pennies, "grid", 2,
           {"config": no_enum})
    yield ("grid/refused_coordination_r30", instances.coordination_instance(),
           "grid", 30, {"cache_budget": 10})


def _items(spbe, spec, mode, resolution, options):
    """(item name, a function giving its text) for one game, in the order
    they must run: reading a lazy generator may grow its store."""
    state = {}

    def solved():
        result = spbe.solve(spec, mode=mode, resolution=resolution or 10,
                            **options)
        state["result"] = result
        report = spbe.build_solve_report(result)
        report.pop("timing")
        return spbe.render_report(report)

    def policy():
        doc = spbe.policy_document(state["result"])
        state["loaded"] = spbe.load_policy(doc, spec)
        return spbe.render_report(doc)

    def generator(which):
        return (state["result"].generator if which == "solved"
                else state["loaded"])

    def certificate(which):
        policy = spbe.EquilibriumPolicy(spec, generator(which))
        return spbe.render_report(spbe.run_certification(spec, policy))

    def simulation(which, episodes=300, seed=3, trace_limit=1000):
        policy = spbe.EquilibriumPolicy(spec, generator(which))
        sim = spbe.simulate(spec, policy, episodes, seed=seed,
                            trace_limit=trace_limit)
        return (spbe.render_report(sim.summary.to_document()) + "\n"
                + spbe.forward.traces_to_delimited(sim.traces))

    def points(which):
        return repr([(t, pi.weights.tobytes(),
                      [r.tobytes() for r in sol.prescription.rows],
                      [v.tobytes() for v in sol.values], sol.residual,
                      sol.status, sol.method, sol.restart_index)
                     for t, pi, sol in generator(which).cached_points()])

    def attribute(which, name):
        return repr(getattr(generator(which), name))

    yield "report", solved
    yield "policy", policy
    yield "loaded.fresh_simulate", lambda: simulation("loaded", 1100, 5, 40)
    for which in ("solved", "loaded"):
        yield f"{which}.certificate", lambda w=which: certificate(w)
        yield f"{which}.simulate", lambda w=which: simulation(w)
        yield f"{which}.cached_points", lambda w=which: points(w)
        for name in ("failed_points", "solve_counts",
                     *(("snap_stats",) if mode == "grid" else ())):
            yield f"{which}.{name}", lambda w=which, n=name: attribute(w, n)


def _cli_items(spbe, folder: Path):
    """(item name, a function giving its text) for the command-line runs,
    in order: ``verify`` and ``simulate`` read the policy file ``solve``
    writes."""
    ref, pennies, policy = (str(folder / f) for f in ("reference.json",
                                                      "pennies.json", "policy.json"))
    spbe.save_game_spec(spbe.instances.reference_instance(), ref)
    spbe.save_game_spec(spbe.instances.asymmetric_pennies_instance(), pennies)
    malformed = folder / "malformed.json"
    doc = json.loads(Path(ref).read_text())
    doc["prior"] = [2 * p for p in doc["prior"]]
    malformed.write_text(json.dumps(doc))

    def run(*argv):
        out = folder / "out.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = spbe.cli.main([*argv, "--out", str(out)])
        doc = json.loads(out.read_text())
        doc.pop("timing", None)
        return f"exit {code}\n{json.dumps(doc, indent=2, sort_keys=True)}"

    yield "validate", lambda: run("validate", ref)
    yield "solve", lambda: run("solve", ref, "--policy-out", policy)
    yield "solve.policy_file", lambda: Path(policy).read_text()
    yield "verify", lambda: run("verify", ref, "--policy", policy)
    yield "simulate", lambda: run("simulate", ref, "--policy", policy,
                                  "--traces-out", str(folder / "traces.tsv"))
    yield "simulate.traces", lambda: (folder / "traces.tsv").read_text()
    yield "export", lambda: run("export", ref, "--grid-resolution", "3")
    yield "exit2_malformed", lambda: run("validate", str(malformed))
    yield "exit3_no_fixed_point", lambda: run("solve", pennies, "--enum-limit", "0",
                                              "--max-iters", "300")
    yield "exit5_cache_budget", lambda: run("solve", ref, "--cache-budget", "0")


def _record(name: str, item: str, make) -> None:
    try:
        text = make()
    except Exception as err:   # recorded: a change may not alter it
        text = f"error {type(err).__name__}: {err}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{name} {item} {digest}", flush=True)


def _outcome(spbe, spec, mode, resolution, options) -> tuple[str, int]:
    """``status=… all_checks_ok=… max_gain=… root=…`` of one game, and
    the number of stage points its solve stored."""
    result = spbe.solve(spec, mode=mode, resolution=resolution or 10, **options)
    solved = sum(result.generator.solve_counts.values()) if result.generator else 0
    checks = gain = "-"
    if result.generator is not None:
        try:
            cert = spbe.run_certification(
                spec, spbe.EquilibriumPolicy(spec, result.generator))
            checks, gain = cert["all_checks_ok"], repr(cert["max_gain"])
        except Exception as err:   # recorded: a change may not alter it
            checks = gain = f"error:{type(err).__name__}"
    root = "-"
    if result.root is not None:
        root = hashlib.sha256(b"".join(
            r.tobytes() for r in result.root.prescription.rows)).hexdigest()[:16]
    return (f"status={result.status} all_checks_ok={checks} max_gain={gain} "
            f"root={root}"), solved


def _counts(lines: list[str]) -> str:
    return (f"{len(lines)} games, {sum(' status=ok ' in l for l in lines)} ok, "
            f"{sum(' all_checks_ok=True ' in l for l in lines)} all_checks_ok")


def dump(src: str, outcomes: bool = False) -> None:
    """Print ``<game> <item> <sha256>`` for every item of the guard set,
    or with ``outcomes`` ``<game> <outcome>`` for every game, then their
    counts and the total of their stage points solved."""
    sys.path.insert(0, src)
    import spbe
    import spbe.cli
    import spbe.forward

    lines, solved = [], 0
    for name, spec, mode, resolution, options in _games(spbe):
        if outcomes:
            line, points = _outcome(spbe, spec, mode, resolution, options)
            lines.append(f"{name} {line}")
            solved += points
            print(lines[-1], flush=True)
            continue
        for item, make in _items(spbe, spec, mode, resolution, options):
            _record(name, item, make)
    if outcomes:
        print(_counts(lines))
        print(f"{solved} solved stage points")
        return
    with tempfile.TemporaryDirectory() as folder:
        for item, make in _cli_items(spbe, Path(folder)):
            _record("cli/reference", item, make)


def _dump_lines(src: str, outcomes: bool) -> tuple[list[str], str]:
    """The lines of one tree's dump, and with ``outcomes`` its solved
    points line (else an empty string)."""
    out = subprocess.run([sys.executable, __file__, src,
                          *(["--outcomes"] if outcomes else [])],
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    if outcomes:   # the counts are made again below
        return lines[:-2], lines[-1]
    return lines, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="one or two src directories")
    parser.add_argument("--outcomes", action="store_true",
                        help="one outcome line per game instead of item digests")
    args = parser.parse_args(argv)
    if len(args.src) == 1:
        dump(args.src[0], args.outcomes)
        return 0
    if len(args.src) != 2:
        parser.error("give one or two src directories")
    with ThreadPoolExecutor(2) as pool:
        (old, old_points), (new, new_points) = pool.map(
            lambda src: _dump_lines(src, args.outcomes), args.src)
    # an item is a line's game and item name; an outcome's, its game
    split = (lambda line: line.split(" ", 1)[0]) if args.outcomes else \
        (lambda line: line.rsplit(" ", 1)[0])
    old_items = {split(line): line for line in old}
    new_items = {split(line): line for line in new}
    differ = [item for item in dict.fromkeys([*old_items, *new_items])
              if old_items.get(item) != new_items.get(item)]
    for item in differ:
        if args.outcomes:
            print(f"differs: {old_items.get(item)}\n    now: {new_items.get(item)}")
        else:
            print(f"differs: {item}")
    if args.outcomes:
        print(f"before: {_counts(old)}\n        {old_points}\n"
              f"after:  {_counts(new)}\n        {new_points}")
    print(f"{len(old_items)} {'games' if args.outcomes else 'items'}, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
