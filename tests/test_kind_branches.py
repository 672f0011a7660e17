"""What a strategy kind is lives in one row of `config.STRATEGIES`, and how it
trains in `federation.STRATEGY_FNS`: no other code in fedcond compares a value
with a kind's name, so no fact about a kind hides in a branch."""

import ast
from pathlib import Path

from fedcond.config import STRATEGY_KINDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedcond"

# `strategy_config` derives IFCA's default passes per round from `epochs`.
# That rule gives IFCA another pass budget than the other kinds (ROADMAP.md,
# item 2), and fixing it changes IFCA's results, so it stays a branch.
ALLOWED = ["config.strategy_config"]


def names_a_kind(node: ast.AST) -> bool:
    """Whether `node` is a string constant naming a strategy kind, or a
    tuple, list or set display holding one."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in STRATEGY_KINDS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(names_a_kind(e) for e in node.elts)
    return False


def kind_compares(path: Path) -> list[str]:
    """`<module>.<function>` for every comparison in `path` with an operand
    that names a strategy kind (`<module>` alone at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Compare) and any(
                names_a_kind(operand) for operand in [node.left, *node.comparators]):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_no_code_compares_with_a_strategy_kinds_name():
    found = [w for path in sorted(PACKAGE.glob("*.py")) for w in kind_compares(path)]
    assert found == ALLOWED


def test_the_guard_sees_each_form_of_a_kind_branch(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def a(k):\n    return k == 'ifca'\n"
                    "def b(k):\n    return k in ('gossip', 'dac')\n"
                    "def c(k):\n    return 'ditto' != k\n"
                    "def d(k):\n    return k == 'mnist_cnn' or k in ('idx', 3)\n")
    assert kind_compares(path) == ["probe.a", "probe.b", "probe.c"]
