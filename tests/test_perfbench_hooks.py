"""The names the benchmark calls and wraps exist, and are put back after.

``perfbench/run.py --trace 1`` records spans by replacing ``spbe`` names
from outside the program; a name that disappears would crash the traced
run, so its hooks are installed and restored here. A one-game round of a
policy-file workload runs here too, so that a break in the calls it makes
shows before the benchmark ends as failed.
"""

import importlib.util
import sys
from pathlib import Path

import spbe.backward as backward
import spbe.forward as forward
import spbe.stage as stage
import spbe.verify as verify

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while executing it
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_install_and_restore():
    run = _load_run()
    tracer = sys.modules["spans"].Tracer()
    run.install(tracer)
    try:
        patches = list(tracer._patches)
        assert len(patches) == 12
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.restore()
    targets = {(owner, attr) for owner, attr, _ in patches}
    assert {(backward, "solve_stage_fixed_point"), (backward, "nearest_grid_index"),
            (stage, "update"), (stage, "condition_on_type"), (forward, "update"),
            (verify, "condition_on_type")} <= targets
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original


def test_policy_file_round_runs(tmp_path, monkeypatch):
    """One round of a policy-file workload saves, reloads and certifies
    through the names the benchmark calls, with no failed operation."""
    from spbe import instances

    run = _load_run()
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = run.Workload("reference_policy",
                      lambda: {"reference": instances.reference_instance()},
                      policy_files=True, verify_reps=1, sim_reps=1, episodes=50)
    rnd = run.run_round(wl, run.write_games(wl), run.NoTracer(), 0, 0)
    assert run.operations(wl, rnd) == (3, 0, [])
    assert rnd.certs[0]["reference"]["table_completions"] == 0
