"""No module of ``src/mprl`` imports a name it never uses.

No linter runs over this repository, so this does the one check of one
that a refactor most often leaves behind: every name an import binds is
read somewhere in its module.  ``__init__.py`` re-exports what it
imports and is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mprl"

# imported and never called: the benchmark's tracer (perfbench/tracing.py,
# wrap_targets) wraps these names on the trainer module
UNUSED_ON_PURPOSE = {
    "trainer.py": {"all_in_one_label", "ground_truth_label", "lsro_label", "mprl_alpha",
                   "mprl_label", "one_hot_pseudo_label", "softmax"},
}

MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    """The names that ``source``'s imports bind and nothing in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    # an attribute chain such as np.linalg.norm reads its root name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .net import ModelParams, ParamGrads\n"
              "def f(p: ModelParams):\n    return np.zeros(1), os.path.sep\n")
    assert unused_imports(source) == {"ParamGrads"}


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    unused = unused_imports((PACKAGE / module).read_text())
    assert unused == UNUSED_ON_PURPOSE.get(module, set())
