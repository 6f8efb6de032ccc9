"""The package's module graph has no import cycles, no module takes another
module's `_`-prefixed names, each phi family and stress-drop law is one
class that carries its own formulas, and only the command-line front end
turns results into documents.

Imports are read from the source with ast, so imports inside functions
count as well as module-level ones: a function-level import only hides a
cycle from import time, not from the design.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quakesim"

VARIANTS = {"ExponentialPhi", "ThresholdLinearPhi", "ExponentialZ", "UniformZ", "DeterministicZ"}
# model defines the variants, cli's config schema builds them, __init__ exports them
MAY_NAME_VARIANTS = {"model", "cli", "__init__"}


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


def private_names(package: Path) -> list[str]:
    """Each `_`-prefixed name that a package module takes from another one,
    by `from .m import _x` or as the attribute `m._x` of an imported package
    module, as "module: what".  Dunder names are public by convention."""
    modules = {p.stem for p in package.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    def dotted(node: ast.AST) -> str:
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return getattr(node, "id", "")

    found = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        # dotted names bound to package modules: `import quakesim.m` binds
        # quakesim.m, `from . import m` and `import quakesim.m as m` bind m
        bound = {f"{package.name}.{m}": m for m in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == package.name and len(parts) == 2 and alias.asname:
                        bound[alias.asname] = parts[1]
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 0:
                    if parts[0] != package.name:
                        continue
                    parts = parts[1:]
                source = parts[0] if parts and parts[0] else "__init__"
                for alias in node.names:
                    if source == "__init__" and alias.name in modules:
                        bound[alias.asname or alias.name] = alias.name
                    elif private(alias.name):
                        found.append(f"{module}: imports {source}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr) and dotted(node.value) in bound:
                found.append(f"{module}: uses {bound[dotted(node.value)]}.{node.attr}")
    return found


def test_no_private_names_cross_modules():
    assert private_names(PACKAGE) == []


def test_private_name_guard_sees_each_kind(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .chain import step\n\n__version__ = '0'\n")
    (pkg / "chain.py").write_text("def _kernel():\n    pass\n\n\ndef step():\n    return _kernel()\n")
    (pkg / "foster.py").write_text("from .chain import _kernel, step\n")
    (pkg / "analysis.py").write_text("from . import chain\n\n\ndef f(log):\n    return chain._kernel, log._segments\n")
    (pkg / "thinning.py").write_text("import quakesim.chain\n\nk = quakesim.chain._kernel\n")
    # a dunder name, and a module's own private names, are no finding
    (pkg / "cli.py").write_text("from . import __version__\n\n_X = 1\n\n\ndef g():\n    return _X\n")
    assert private_names(pkg) == [
        "analysis: uses chain._kernel",
        "foster: imports chain._kernel",
        "thinning: uses chain._kernel",
    ]


def variant_dispatch(package: Path) -> list[str]:
    """Each `isinstance` test against a variant class, and each import or
    attribute use of one outside MAY_NAME_VARIANTS, as "module: what"."""
    found = []
    for path in sorted(package.glob("*.py")):
        module, named = path.stem, path.stem in MAY_NAME_VARIANTS
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
                found += [f"{module}: isinstance(..., {name})" for name in sorted(names & VARIANTS)]
            elif isinstance(node, ast.ImportFrom) and not named:
                found += [f"{module}: imports {a.name}" for a in node.names if a.name in VARIANTS]
            elif isinstance(node, ast.Attribute) and node.attr in VARIANTS and not named:
                found.append(f"{module}: uses {node.attr}")
    return found


def test_variants_carry_their_own_formulas():
    assert variant_dispatch(PACKAGE) == []


def test_variant_guard_sees_dispatch(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    (pkg / "model.py").write_text("def f(z):\n    return isinstance(z, (UniformZ, int))\n")
    (pkg / "sampler.py").write_text("from .model import ExponentialPhi, State\n")
    (pkg / "foster.py").write_text("from . import model\n\ndef g(phi):\n    return phi == model.ThresholdLinearPhi()\n")
    (pkg / "cli.py").write_text("from .model import DeterministicZ\n")
    assert variant_dispatch(pkg) == [
        "foster: uses ThresholdLinearPhi",
        "model: isinstance(..., UniformZ)",
        "sampler: imports ExponentialPhi",
    ]


# names of methods that would turn a result into a document
DOCUMENT_METHODS = {"as_dict", "to_dict", "to_json_dict"}


def document_makers(package: Path) -> list[str]:
    """Each `json` import, and each class method named in DOCUMENT_METHODS,
    outside cli, as "module: what"."""
    found = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        if module == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{module}: imports {a.name}" for a in node.names if a.name.split(".")[0] == "json"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "json":
                found.append(f"{module}: imports from {node.module}")
            elif isinstance(node, ast.ClassDef):
                methods = [f.name for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
                found += [f"{module}: {node.name}.{m}" for m in methods if m in DOCUMENT_METHODS]
    return found


def test_documents_are_made_in_cli():
    assert document_makers(PACKAGE) == []


def test_document_guard_sees_each_kind(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    method = "    def {}(self):\n        pass\n"
    (pkg / "analysis.py").write_text("import json\n\nclass A:\n" + method.format("as_dict"))
    (pkg / "foster.py").write_text("from json import dumps\n\nclass B:\n" + method.format("to_dict"))
    # a module-level function is no class's method
    (pkg / "stats.py").write_text("def to_dict():\n    pass\n\nclass C:\n" + method.format("to_json_dict"))
    (pkg / "cli.py").write_text("import json\n\nclass D:\n" + method.format("to_json_dict"))
    assert document_makers(pkg) == [
        "analysis: imports json",
        "analysis: A.as_dict",
        "foster: imports from json",
        "foster: B.to_dict",
        "stats: C.to_json_dict",
    ]
