"""What a strategy kind is lives in one row of `config.STRATEGIES`, and how it
trains in `federation.STRATEGY_FNS`; what a heterogeneity family reads, builds
and needs lives in one row of `heterogeneity.FAMILIES`. No other code in
fedcond compares a value with a kind's or a family's name, so no fact about
one hides in a branch."""

import ast
from pathlib import Path

from fedcond.config import STRATEGY_KINDS
from fedcond.heterogeneity import FAMILIES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedcond"

# `strategy_config` derives IFCA's default passes per round from `epochs`.
# That rule gives IFCA another pass budget than the other kinds (ROADMAP.md,
# item 2), and fixing it changes IFCA's results, so it stays a branch.
ALLOWED = ["config.strategy_config"]


def names_one(node: ast.AST, names) -> bool:
    """Whether `node` is a string constant in `names`, or a tuple, list or
    set display holding one."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in names
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(names_one(e, names) for e in node.elts)
    return False


def name_compares(path: Path, names) -> list[str]:
    """`<module>.<function>` for every comparison in `path` with an operand
    that names one of `names` (`<module>` alone at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Compare) and any(
                names_one(operand, names) for operand in [node.left, *node.comparators]):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def package_compares(names) -> list[str]:
    return [w for path in sorted(PACKAGE.glob("*.py")) for w in name_compares(path, names)]


def test_no_code_compares_with_a_strategy_kinds_name():
    assert package_compares(STRATEGY_KINDS) == ALLOWED


def test_no_code_compares_with_a_familys_name():
    assert package_compares(FAMILIES) == []


def test_the_guard_sees_each_form_of_a_kind_branch(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def a(k):\n    return k == 'ifca'\n"
                    "def b(k):\n    return k in ('gossip', 'dac')\n"
                    "def c(k):\n    return 'ditto' != k\n"
                    "def d(k):\n    return k == 'mnist_cnn' or k in ('idx', 3)\n"
                    "def e(f):\n    return f in ('E1', 'E2a') or f == 'E4b'\n")
    assert name_compares(path, STRATEGY_KINDS) == ["probe.a", "probe.b", "probe.c"]
    assert name_compares(path, FAMILIES) == ["probe.e", "probe.e"]
