import json
from pathlib import Path

import pytest

from spbe import instances, load_policy_file, save_game_spec
from spbe.cli import main


@pytest.fixture(scope="module")
def games(tmp_path_factory):
    root = tmp_path_factory.mktemp("games")
    paths = {}
    for name, builder in {
        "reference": instances.reference_instance,
        "dominant": instances.dominant_types_instance,
        "asymmetric": instances.asymmetric_pennies_instance,
    }.items():
        paths[name] = str(root / f"{name}.json")
        save_game_spec(builder(), paths[name])
    return paths


@pytest.fixture(scope="module")
def reference_policy_file(games, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("policy") / "policy.json")
    code = main(["solve", games["reference"], "--policy-out", path,
                 "--out", path + ".report"])
    assert code == 0
    return path


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "exit codes" in text
    assert "verification failed" in text


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "x.json", "--mode", "bogus"])
    assert exc.value.code == 2


def test_validate_ok(games, capsys):
    code, out = _run(capsys, ["validate", games["reference"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert doc["players"] == 2
    assert doc["horizon"] == 2
    assert doc["game"] == instances.reference_instance().digest()


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out = _run(capsys, ["validate", str(bad)])
    assert code == 2
    assert json.loads(out)["error"]["exit_code"] == 2


def test_validate_missing_field(tmp_path, capsys):
    doc = instances.reference_instance()
    from spbe import game_spec_to_document
    broken = game_spec_to_document(doc)
    del broken["prior"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "prior" in json.loads(out)["error"]["message"]


def test_validate_missing_file(capsys):
    code, out = _run(capsys, ["validate", "/nonexistent/game.json"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "io_error"


def test_solve_report_and_policy(games, reference_policy_file, capsys):
    report = json.loads(Path(reference_policy_file + ".report").read_text())
    assert report["status"] == "ok"
    assert report["root"]["residual"] <= 1e-8
    for player in report["root"]["values"]:
        for v in player:
            assert v == pytest.approx(0.24, abs=1e-9)
    spec = instances.reference_instance()
    table = load_policy_file(reference_policy_file, spec)
    assert table.solution_at(1, __import__("spbe").initial_belief(spec))


def test_solve_failed_exits_three(games, capsys):
    code, out = _run(capsys, ["solve", games["asymmetric"],
                              "--enum-limit", "0"])
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "failed"
    assert doc["failure"]["solver_status"] == "max_iterations"


@pytest.mark.parametrize("game, args", [
    ("dominant", ["solve", "--cache-budget", "2"]),
    # 35 grid points per stage at resolution 4, over two stages
    ("reference", ["solve", "--mode", "grid", "--grid-resolution", "4",
                   "--cache-budget", "50"]),
    ("reference", ["export", "--grid-resolution", "4", "--cache-budget", "50"]),
], ids=["exact", "grid", "export"])
def test_solve_budget_exits_five(games, capsys, game, args):
    code, out = _run(capsys, [args[0], games[game], *args[1:]])
    assert code == 5
    assert json.loads(out)["status"] == "refused"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_grid_policy_file_over_budget_exits_five(games, tmp_path, capsys, command):
    # a grid file's resolution sizes the tables it is loaded into; at 10**6
    # the reference game's grid would hold about 1.7e17 points per stage
    path = tmp_path / "grid.json"
    assert main(["export", games["reference"], "--grid-resolution", "2",
                 "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["resolution"] = 10**6
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, [command, games["reference"], "--policy", str(path)])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "resource_limit"


def test_solve_deterministic_bytes(games, tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["solve", games["reference"], "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        del doc["timing"]
        outs.append(json.dumps(doc, sort_keys=True).encode())
    assert outs[0] == outs[1]


def test_simulate_summary_and_traces(games, reference_policy_file, tmp_path,
                                     capsys):
    traces = tmp_path / "traces.tsv"
    code, out = _run(capsys, [
        "simulate", games["reference"], "--policy", reference_policy_file,
        "--episodes", "50", "--trace-limit", "5",
        "--traces-out", str(traces),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["episodes"] == 50
    assert doc["traces_kept"] == 5
    assert len(doc["entropy_trajectory"]) == 2
    lines = traces.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["episode", "stage", "joint_type",
                                    "belief", "actions", "rewards"]
    assert len(lines) == 1 + 5 * 2


def test_simulate_unsolvable_exits_three(games, capsys):
    code, out = _run(capsys, ["simulate", games["asymmetric"],
                              "--enum-limit", "0"])
    assert code == 3
    assert json.loads(out)["status"] == "failed"


def test_verify_ok(games, reference_policy_file, capsys):
    code, out = _run(capsys, [
        "verify", games["reference"], "--policy", reference_policy_file,
        "--samples", "10",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_checks_ok"]
    assert doc["max_gain"] <= 1e-6
    assert doc["table_completions"] == 0


def test_verify_rejects_unsolved_policy_entry(games, reference_policy_file,
                                              tmp_path, capsys):
    doc = json.loads(Path(reference_policy_file).read_text())
    doc["entries"][0]["status"] = "max_iterations"
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, ["verify", games["reference"], "--policy", str(path)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_input"
    assert "policy entry 0" in error["message"]


def test_loaded_exact_entries_count_against_the_budget(games, reference_policy_file,
                                                       tmp_path, capsys):
    """The budget holds the file's entries plus what is solved on top."""
    doc = json.loads(Path(reference_policy_file).read_text())
    doc["entries"] = [e for e in doc["entries"] if e["t"] != 1]
    path = tmp_path / "stage-2-only.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", games["reference"], "--policy", str(path), "--samples", "10",
            "--cache-budget"]
    code, out = _run(capsys, argv + [str(len(doc["entries"]))])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "resource_limit"
    code, out = _run(capsys, argv + [str(len(doc["entries"]) + 1)])
    assert code == 0
    assert json.loads(out)["table_completions"] == 1


def test_grid_policy_file_held_to_the_budget(games, tmp_path, capsys):
    # 10 grid points per stage at resolution 2, over two stages
    path = tmp_path / "grid.json"
    assert main(["export", games["reference"], "--grid-resolution", "2",
                 "--out", str(path)]) == 0
    argv = ["verify", games["reference"], "--policy", str(path), "--samples", "0"]
    code, out = _run(capsys, argv + ["--cache-budget", "19"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "resource_limit"
    code, _ = _run(capsys, argv + ["--cache-budget", "20"])
    assert code == 0


@pytest.mark.parametrize("command, flag, value, code", [
    ("verify", "--samples", "-3", 2),
    ("verify", "--samples", "0", 0),
    ("verify", "--verify-tol", "-1", 2),
    ("verify", "--verify-tol", "nan", 2),
    ("simulate", "--trace-limit", "-2", 2),
    ("verify", "--tol", "nan", 2),
    ("simulate", "--tol", "inf", 2),
])
def test_input_range_checks(games, reference_policy_file, capsys,
                            command, flag, value, code):
    got, out = _run(capsys, [command, games["reference"], "--policy",
                             reference_policy_file, flag, value])
    assert got == code
    if code:
        assert json.loads(out)["error"]["kind"] == "invalid_input"


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--samples", "-3"),
    ("verify", "--verify-tol", "-1"),
    ("verify", "--verify-tol", "nan"),
    ("simulate", "--episodes", "0"),
    ("simulate", "--trace-limit", "-2"),
    ("verify", "--tol", "nan"),
    ("simulate", "--tol", "inf"),
])
def test_input_range_checks_come_before_the_solve(games, capsys, monkeypatch,
                                                  command, flag, value):
    # without --policy the game is solved first; a bad flag must not wait
    def no_solve(*args, **kwargs):
        raise RuntimeError("solve started before the range checks")

    monkeypatch.setattr("spbe.backward.solve", no_solve)
    got, out = _run(capsys, [command, games["reference"], flag, value])
    assert got == 2
    assert json.loads(out)["error"]["kind"] == "invalid_input"


def test_verify_flags_tampered_policy(games, reference_policy_file, tmp_path,
                                      capsys):
    doc = json.loads(Path(reference_policy_file).read_text())
    stage_one = [e for e in doc["entries"] if e["t"] == 1]
    assert stage_one
    stage_one[0]["rows"][0][0] = [0.55, 0.45]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out = _run(capsys, [
        "verify", games["reference"], "--policy", str(tampered),
        "--samples", "5",
    ])
    assert code == 4
    report = json.loads(out)
    assert not report["all_checks_ok"]
    assert report["max_gain"] > 1e-3


def _last_entry(edit):
    def tamper(doc):
        edit(doc["entries"][-1])
        return doc
    return tamper


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("tamper, names_entry", [
    (lambda doc: doc["entries"], False),
    (lambda doc: {k: v for k, v in doc.items() if k != "entries"}, False),
    (lambda doc: {**doc, "entries": dict(enumerate(doc["entries"]))}, False),
    (_last_entry(lambda e: e.pop("values")), True),
    (_last_entry(lambda e: e.update(t=7)), True),
    (_last_entry(lambda e: e.update(belief=e["belief"][:3])), True),
    (_last_entry(lambda e: e["values"][0].pop()), True),
    (_last_entry(lambda e: e["rows"][1].pop()), True),
    (_last_entry(lambda e: e["rows"][0].__setitem__(0, [float("nan")] * 2)), True),
    (_last_entry(lambda e: e["values"][0].__setitem__(0, float("nan"))), True),
    (_last_entry(lambda e: e.update(belief=[float("nan")] * 4)), True),
    (_last_entry(lambda e: e.update(belief=[2.0, -1.0, 0.0, 0.0])), True),
    (_last_entry(lambda e: e.update(belief=[0.5] * 4)), True),
    (_last_entry(lambda e: e.update(t=float("inf"))), True),
    (lambda doc: {**doc, "mode": "banana"}, False),
    (lambda doc: {**doc, "entries": [{**doc["entries"][0], "t": True},
                                     *doc["entries"][1:]]}, False),
    (lambda doc: {**doc, "resolution": "junk"}, False),
], ids=["not_an_object", "no_entries", "entries_object", "no_values",
        "stage_past_horizon", "short_belief", "short_values", "missing_type_row",
        "nan_row", "nan_value", "nan_belief", "negative_belief",
        "belief_sums_to_two", "infinite_stage", "unknown_mode", "bool_stage",
        "exact_resolution"])
def test_malformed_policy_is_invalid_input(games, reference_policy_file, tmp_path,
                                           capsys, command, tamper, names_entry):
    doc = json.loads(Path(reference_policy_file).read_text())
    last = len(doc["entries"]) - 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tamper(doc)))
    code, out = _run(capsys, [command, games["reference"], "--policy", str(bad)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_input"
    assert (f"policy entry {last}" in error["message"]) == names_entry


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: {k: v for k, v in doc.items() if k != "resolution"},
     "grid-mode policy document resolution None is not an integer >= 1"),
    (lambda doc: {**doc, "resolution": 3.7},
     "grid-mode policy document resolution 3.7 is not an integer >= 1"),
    (lambda doc: {**doc, "resolution": "3"},
     "grid-mode policy document resolution '3' is not an integer >= 1"),
], ids=["no_resolution", "fractional_resolution", "string_resolution"])
def test_verify_refuses_grid_policy_without_integer_resolution(
        games, tmp_path, capsys, tamper, message):
    path = tmp_path / "policy.json"
    assert main(["solve", games["reference"], "--mode", "grid",
                 "--grid-resolution", "3", "--policy-out", str(path),
                 "--out", str(tmp_path / "report.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tamper(json.loads(path.read_text()))))
    code, out = _run(capsys, ["verify", games["reference"], "--policy", str(bad)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_input"
    assert error["message"] == message


def test_verify_wrong_game_exits_two(games, reference_policy_file, capsys):
    code, out = _run(capsys, [
        "verify", games["dominant"], "--policy", reference_policy_file,
    ])
    assert code == 2
    assert "different game" in json.loads(out)["error"]["message"]


def test_export_grid(games, capsys):
    code, out = _run(capsys, ["export", games["reference"],
                              "--grid-resolution", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "repeated-game-policy"
    assert doc["resolution"] == 3
    assert doc["failed_points"] == 0
    # 20 simplex points on 4 weights at denominator 3, two stages
    assert len(doc["entries"]) == 40
    stages = {e["t"] for e in doc["entries"]}
    assert stages == {1, 2}


def test_export_refuses_exact_mode(games, capsys, monkeypatch):
    """``export`` builds grid tables only: ``--mode grid`` gives what no
    ``--mode`` gives, and ``--mode exact`` exits 2 before any solve."""
    argv = ["export", games["reference"], "--grid-resolution", "2"]
    code, plain = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv + ["--mode", "grid"]) == (0, plain)

    def no_solve(*args, **kwargs):
        raise AssertionError("export --mode exact must not solve")

    monkeypatch.setattr("spbe.backward.solve", no_solve)
    code, out = _run(capsys, argv + ["--mode", "exact"])
    assert code == 2
    doc = json.loads(out)
    assert "entries" not in doc
    assert doc["error"]["kind"] == "invalid_input"
    assert "--mode exact" in doc["error"]["message"]


def test_policy_file_refuses_conflicting_flags(games, reference_policy_file,
                                               tmp_path, capsys, monkeypatch):
    """With ``--policy`` the file decides the mode and grid: a ``--mode``
    or ``--grid-resolution`` that agrees with it changes nothing, and one
    that differs exits 2 before any certificate or simulation."""
    grid_file = str(tmp_path / "grid.json")
    code, _ = _run(capsys, ["solve", games["reference"], "--mode", "grid",
                            "--grid-resolution", "2", "--policy-out", grid_file])
    assert code == 0
    runs = {"verify": [], "simulate": ["--episodes", "10"]}
    cases = [
        (reference_policy_file, ["--mode", "exact"],
         [["--mode", "grid"], ["--grid-resolution", "10"],
          ["--mode", "exact", "--grid-resolution", "3"]]),
        (grid_file, ["--mode", "grid", "--grid-resolution", "2"],
         [["--mode", "exact"], ["--grid-resolution", "3"],
          ["--mode", "grid", "--grid-resolution", "10"]]),
    ]
    for command, extra in runs.items():
        for path, agreeing, _ in cases:
            argv = [command, games["reference"], "--policy", path, *extra]
            plain = _run(capsys, argv)
            assert plain[0] == 0
            assert _run(capsys, argv + agreeing) == plain

    def refuse(*args, **kwargs):
        raise AssertionError("a conflicting flag must be refused first")

    monkeypatch.setattr("spbe.verify.run_certification", refuse)
    monkeypatch.setattr("spbe.forward.simulate", refuse)
    for command, extra in runs.items():
        for path, _, conflicting in cases:
            for flags in conflicting:
                code, out = _run(capsys, [command, games["reference"],
                                          "--policy", path, *extra, *flags])
                assert code == 2
                error = json.loads(out)["error"]
                assert error["kind"] == "invalid_input"
                assert "conflicts with the" in error["message"]


def test_export_partial_exits_three(games, capsys):
    code, out = _run(capsys, ["export", games["asymmetric"],
                              "--enum-limit", "0", "--grid-resolution", "2"])
    assert code == 3
    assert json.loads(out)["failed_points"] > 0


def test_verify_grid_policy_snaps_to_its_grid(tmp_path, capsys):
    """A grid-mode policy file is certified as the grid solve that wrote
    it: the certificate equals the in-process one, with no exact
    completions (the prior is not a grid point)."""
    from spbe import EquilibriumPolicy, render_report, run_certification, solve

    spec = instances.coordination_instance()
    game = tmp_path / "coordination.json"
    save_game_spec(spec, str(game))
    policy = tmp_path / "policy.json"
    code, _ = _run(capsys, ["solve", str(game), "--mode", "grid",
                            "--grid-resolution", "3", "--policy-out", str(policy)])
    assert code == 0
    code, out = _run(capsys, ["verify", str(game), "--policy", str(policy)])
    result = solve(spec, mode="grid", resolution=3)
    cert = run_certification(spec, EquilibriumPolicy(spec, result.generator))
    assert out == render_report(cert) + "\n"
    assert "table_completions" not in json.loads(out)
    assert code == (0 if cert["all_checks_ok"] else 4)
