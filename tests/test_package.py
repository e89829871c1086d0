import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spbe"


def test_every_public_name_resolves():
    """``from spbe import *`` binds every name in ``spbe.__all__``, so a
    public name cannot be removed while its entry stays behind."""
    import spbe

    namespace = {}
    exec("from spbe import *", namespace)
    assert set(spbe.__all__) <= set(namespace)


@pytest.mark.parametrize("module", ["verify.py", "forward.py"])
def test_verifier_imports_nothing_from_stage(module):
    """The verifier's arithmetic stays separate from the solver's: neither
    the verifier nor the forward pass it shares a recursion with imports
    ``stage``, relatively, absolutely or by name from the package."""
    tree = ast.parse((SRC / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name != "spbe.stage" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in ("stage", "spbe.stage")
            if node.module in (None, "spbe"):
                assert all(alias.name != "stage" for alias in node.names)


def test_pipeline_leaves_numpy_ma_unimported(tmp_path):
    """A grid and an exact solve, their certification, play, and a policy
    file round trip leave ``numpy.ma`` unimported: importing it costs
    about 1 MB resident (``np.unique`` imports it, for one)."""
    script = textwrap.dedent(f"""
        import sys
        import spbe
        from spbe import instances
        for spec, mode in ((instances.coordination_instance(), "grid"),
                           (instances.reference_instance(), "exact")):
            result = spbe.solve(spec, mode=mode, resolution=3)
            policy = spbe.EquilibriumPolicy(spec, result.generator)
            spbe.run_certification(spec, policy)
            spbe.simulate(spec, policy, 50, seed=1)
            path = {str(tmp_path)!r} + "/" + mode + ".json"
            spbe.save_policy(result, path)
            loaded = spbe.load_policy_file(path, spec)
            spbe.simulate(spec, spbe.EquilibriumPolicy(spec, loaded), 50, seed=1)
        print("numpy.ma" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["False"]


def _fresh(script: str) -> str:
    """stdout of ``script`` run in a new interpreter on this tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          check=True, capture_output=True, text=True).stdout


_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'spbe'))"


def test_validate_loads_only_the_game_model(tmp_path):
    """``spbe validate`` imports the game model and nothing of the solver,
    the forward pass or the verifier."""
    from spbe import instances, save_game_spec

    game = tmp_path / "reference.json"
    save_game_spec(instances.reference_instance(), game)
    out = _fresh(f"""
        import sys
        import spbe.cli
        assert spbe.cli.main(["validate", {str(game)!r},
                              "--out", {str(tmp_path / "out.json")!r}]) == 0
        {_LOADED}
    """)
    assert out.strip() == "['spbe', 'spbe.cli', 'spbe.game']"


@pytest.mark.parametrize("module", ["verify", "forward"])
def test_verifier_loads_nothing_of_the_solver(module):
    """Importing the verifier or the forward pass leaves ``stage`` and
    ``backward`` unimported, through the package root too: the syntax
    check above cannot see an import made by another module."""
    out = _fresh(f"""
        import sys
        import spbe.{module}
        {_LOADED}
    """)
    assert "'spbe.stage'" not in out and "'spbe.backward'" not in out
    assert f"'spbe.{module}'" in out


def test_bare_import_resolves_every_submodule():
    """After a bare ``import spbe`` every submodule resolves as an
    attribute, and an unknown name raises ``AttributeError``."""
    names = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    out = _fresh(f"""
        import spbe
        for name in {names!r}:
            assert getattr(spbe, name).__name__ == "spbe." + name, name
        try:
            spbe.no_such_name
        except AttributeError as err:
            print(err)
    """)
    assert out.strip() == "module 'spbe' has no attribute 'no_such_name'"


def test_three_player_solves_leave_scipy_unimported():
    """The frozen support solve of three or more players is numpy alone:
    exact solves that run it leave ``scipy`` unimported."""
    out = _fresh("""
        import sys
        import spbe
        from spbe import instances
        for spec in (instances.three_player_instance(),
                     instances.random_instance(0, players=3, horizon=1)):
            assert spbe.solve(spec, mode="exact").status == "ok"
        print("scipy" in sys.modules)
    """)
    assert out.split() == ["False"]
