"""A client's conditioning vector has one writer: `stats.fingerprint_all` is
the only code in fedcond that assigns a `.stats` attribute, so no shard can
be left conditioned on a vector that skipped standardization."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedcond"


def stats_assignments(path: Path) -> list[str]:
    """`<module>.<function>` for every assignment to a `.stats` attribute in
    `path`, tuple targets included (`<module>` alone at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "stats":
                    found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_fingerprint_all_is_the_one_writer_of_a_shards_stats():
    writers = [w for path in sorted(PACKAGE.glob("*.py")) for w in stats_assignments(path)]
    assert writers == ["stats.fingerprint_all"]
