"""The names the traced benchmark wraps exist, and are put back after.

``perfbench/run.py --trace 1`` records spans by replacing ``spbe`` names
from outside the program; a name that disappears would crash the traced
run, so its hooks are installed and restored here.
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
