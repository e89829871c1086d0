"""Seeded mutations of every input the command line reads: no malformed
game document, policy document or numeric flag makes ``spbe`` exit 1
("unexpected internal error").

A mutation deletes one node of a JSON document (a key or a list item),
repeats it (a list item), or puts one of ``VALUES`` in its place. Nodes
are grouped by their path with list indices left out, such as
``rewards[*][*][*]``; every group gets every mutation, at one node drawn
from the group with a seeded ``random.Random``. JSON is written with
``NaN`` and ``Infinity`` tokens, which the loaders read. A flag mutation
gives one numeric flag one of ``VALUES`` written as JSON. Every run goes
through ``cli.main`` in process. A run that exits 2 must leave an error
document, unless argparse itself refused a flag: that exits 2 with
argparse's usage message and no document (``test_bad_flag_exits_two``).
"""

import json
import math
import random

import pytest

from spbe import game_spec_to_document, instances, policy_document, solve
from spbe.cli import main

VALUES = [None, True, False, -1, 0, 0.5, 1, 2, 7, math.nan, math.inf, -math.inf,
          "x", [], {}]

SOLVER_FLAGS = ["--grid-resolution", "--tol", "--max-iters", "--damping",
                "--restarts", "--seed", "--enum-limit", "--cache-budget"]
FLAGS = {
    "solve": SOLVER_FLAGS,
    "simulate": SOLVER_FLAGS + ["--episodes", "--trace-limit"],
    "verify": SOLVER_FLAGS + ["--verify-tol", "--samples"],
    "export": SOLVER_FLAGS,
}
# keeps each run small: few episodes, samples and grid points
BASE_FLAGS = {
    "validate": [],
    "solve": [],
    "simulate": ["--episodes", "50"],
    "verify": ["--samples", "5"],
    "export": ["--grid-resolution", "2"],
}


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from _paths(node[key], path + (key,))


def mutations(doc, rng: random.Random):
    """(JSON text, description) of every mutation of ``doc``: each group of
    paths that differ only in list indices, at one path ``rng`` draws,
    deleted, repeated where it is a list item, and given each of
    ``VALUES``. Deleting the root leaves an empty text."""
    groups: dict[tuple, list[tuple]] = {}
    for path in _paths(doc):
        pattern = tuple("*" if type(key) is int else key for key in path)
        groups.setdefault(pattern, []).append(path)
    for paths in groups.values():
        path = rng.choice(paths)
        for op in ["delete", "repeat", *VALUES]:
            holder = {"doc": json.loads(json.dumps(doc))}
            node, key = holder, "doc"
            for step in path:
                node, key = node[key], step
            if op == "delete":
                del node[key]
            elif op == "repeat":
                if type(key) is not int:
                    continue
                node.insert(key, node[key])
            else:
                node[key] = op
            text = json.dumps(holder["doc"]) if holder else ""
            yield text, f"{op!r} at {list(path)}"


def check_run(argv: list[str], out, what: str) -> int:
    """Run ``spbe`` on ``argv`` with ``--out out``; fail on exit 1, and on
    an exit 2 that leaves no error document."""
    if out.exists():
        out.unlink()
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as err:   # argparse refused a flag
        assert err.code == 2, f"{what}: argparse exit {err.code}"
        return 2
    assert code != 1, f"{what}: {out.read_text()}"
    if code == 2:
        error = json.loads(out.read_text())["error"]
        assert set(error) >= {"kind", "message", "exit_code"}, what
        assert error["exit_code"] == 2, what
    return code


@pytest.fixture(scope="module")
def documents():
    spec = instances.reference_instance()
    return {
        "game": game_spec_to_document(spec),
        "exact": policy_document(solve(spec)),
        "grid": policy_document(solve(spec, mode="grid", resolution=3)),
    }


def write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_mutated_game_documents_never_exit_one(documents, tmp_path):
    codes = set()
    for text, what in mutations(documents["game"], random.Random(20)):
        game = write(tmp_path / "game.json", text)
        for command in ("validate", "solve", "export"):
            codes.add(check_run([command, game, *BASE_FLAGS[command]],
                                tmp_path / "out.json", f"{command} {what}"))
    assert {0, 2} <= codes


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_mutated_policy_documents_never_exit_one(documents, tmp_path, mode):
    game = write(tmp_path / "game.json", json.dumps(documents["game"]))
    codes = set()
    for text, what in mutations(documents[mode], random.Random(21)):
        policy = write(tmp_path / "policy.json", text)
        for command in ("verify", "simulate"):
            codes.add(check_run([command, game, "--policy", policy,
                                 *BASE_FLAGS[command]],
                                tmp_path / "out.json", f"{command} {what}"))
    assert {0, 2} <= codes


def test_mutated_numeric_flags_never_exit_one(documents, tmp_path):
    rng = random.Random(22)
    game = write(tmp_path / "game.json", json.dumps(documents["game"]))
    policy = write(tmp_path / "policy.json", json.dumps(documents["exact"]))
    codes = set()
    for command, flags in FLAGS.items():
        for flag in flags:
            for value in VALUES:
                argv = [command, game, *BASE_FLAGS[command], flag,
                        json.dumps(value)]
                if command in ("simulate", "verify") and rng.random() < 0.5:
                    argv += ["--policy", policy]
                codes.add(check_run(argv, tmp_path / "out.json", " ".join(argv)))
    assert {0, 2} <= codes
