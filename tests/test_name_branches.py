"""``trainer.py`` and ``experiment.py`` never branch on a strategy's name.

What a strategy does is its row of ``mprl.labels.SCHEMES``, so a new
labelling scheme is one new row.  A test of a ``Strategy`` member, or of a
set of them, with ``is``, ``is not``, ``==``, ``!=``, ``in`` or ``not in``
(or a ``case`` pattern) outside ``labels.py`` would be a second place that
knows the names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mprl"
CHECKED = ("trainer.py", "experiment.py")
NAME_TESTS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def is_member(node) -> bool:
    """``Strategy.X``."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "Strategy")


def builds_a_collection(node) -> bool:
    """A set, tuple or list display, an operation on collections, or a
    ``frozenset(...)``-style call."""
    if isinstance(node, (ast.Set, ast.Tuple, ast.List, ast.BinOp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set", "tuple", "list"))


def member_sets(tree) -> set[str]:
    """Module-level names bound to a collection built from ``Strategy``
    (``frozenset(Strategy) - {...}``, ``{Strategy.X, ...}``); a mapping
    keyed by members, such as ``SCHEMES``, is a table, not a set."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and builds_a_collection(node.value)
            and any(isinstance(n, ast.Name) and n.id == "Strategy" for n in ast.walk(node.value))
            for target in node.targets if isinstance(target, ast.Name)}


def names_members(node, sets) -> bool:
    if is_member(node) or (isinstance(node, ast.Name) and node.id in sets):
        return True
    return isinstance(node, (ast.Set, ast.Tuple, ast.List)) and any(map(is_member, node.elts))


def name_branches(source: str, sets=frozenset()) -> list[int]:
    """The lines of ``source`` that test a ``Strategy`` member or a set of
    them; ``sets`` adds names of such sets bound in other modules."""
    tree = ast.parse(source)
    sets = set(sets) | member_sets(tree)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, NAME_TESTS)
                   and (names_members(left, sets) or names_members(right, sets))
                   for op, left, right in zip(node.ops, operands, operands[1:])):
                lines.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and is_member(node.value):
            lines.append(node.lineno)
    return lines


def test_the_check_finds_each_kind_of_name_test():
    source = ("RANKED = frozenset({Strategy.SMPRL, Strategy.DMPRL1})\n"
              "SCHEMES = MappingProxyType({Strategy.LSRO: 1})\n"
              "a = cfg.strategy is Strategy.BASELINE\n"
              "b = Strategy.LSRO != s\n"
              "c = s in RANKED\n"
              "d = s not in (Strategy.LSRO, Strategy.ALL_IN_ONE)\n"
              "e = s in IMPORTED\n"
              "match s:\n    case Strategy.SMPRL:\n        pass\n"
              "f = SCHEMES[s].rule is Rule.RANK\n"
              "g = Cell(Strategy.BASELINE, 0, 1)\n")
    assert name_branches(source, {"IMPORTED"}) == [3, 4, 5, 6, 7, 9]


@pytest.mark.parametrize("module", CHECKED)
def test_no_module_outside_labels_branches_on_a_name(module):
    labels_sets = member_sets(ast.parse((PACKAGE / "labels.py").read_text()))
    assert name_branches((PACKAGE / module).read_text(), labels_sets) == []
