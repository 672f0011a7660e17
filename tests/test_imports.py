"""fedcond's modules import one another without a cycle. A cycle only runs
when one side defers its import into a function body, where it hides which
module owns what."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedcond"


def package_imports(path: Path) -> set[str]:
    """The fedcond modules that `path` imports (`from .x import`), at module
    level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return found


def test_package_import_graph_is_acyclic():
    graph = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert "config" in graph and "federation" in graph
    # peel off modules that import nothing left in the graph; a cycle never peels
    while graph:
        leaves = {m for m, deps in graph.items() if not deps & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}: {graph}"
        graph = {m: deps for m, deps in graph.items() if m not in leaves}
