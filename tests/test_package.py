import ast
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
