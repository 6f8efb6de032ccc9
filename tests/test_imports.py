"""The package's module graph has no import cycles.

Imports are read from the source with ast, so imports inside functions
count as well as module-level ones: a function-level import only hides a
cycle from import time, not from the design.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quakesim"


def import_graph(package: Path) -> dict[str, set[str]]:
    """Module name -> names of the package modules it imports."""
    modules = {p.stem for p in package.glob("*.py")}

    def target(name: str) -> str:
        return name if name in modules else "__init__"

    graph = {}
    for module in modules:
        edges = set()
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                parts = [alias.name.split(".") for alias in node.names]
                edges |= {target(p[1] if len(p) > 1 else "") for p in parts if p[0] == package.name}
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 0:
                    if parts[0] != package.name:
                        continue
                    parts = parts[1:]
                if parts and parts[0]:
                    edges.add(target(parts[0]))
                else:  # from . import a, b
                    edges |= {target(alias.name) for alias in node.names}
        graph[module] = edges - {module}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle as a list of modules (first == last), or [] if none."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str]:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return []


def test_package_import_graph_is_acyclic():
    graph = import_graph(PACKAGE)
    assert "model" in graph and graph["__init__"]
    assert find_cycle(graph) == []


def test_cycle_finder_sees_function_level_imports(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("from .b import f\n")
    (pkg / "b.py").write_text("def f():\n    from .a import g\n")
    assert find_cycle(import_graph(pkg)) == ["a", "b", "a"]
