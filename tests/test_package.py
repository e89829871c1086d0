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
