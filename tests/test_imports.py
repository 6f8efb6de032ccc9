"""The package's module graph has no import cycles, no module takes another
module's `_`-prefixed names, each phi family and stress-drop law is one
class that carries its own formulas, only the command-line front end
turns results into documents, and the public names are declared once, in
the library modules' `__all__` lists.

Imports are read from the source with ast, so imports inside functions
count as well as module-level ones: a function-level import only hides a
cycle from import time, not from the design.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import quakesim

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


# exported functions that nothing in the package calls, each kept on purpose
UNREAD_BY_DESIGN = (
    ("simulate_thinning", "independent thinning oracle the chain tests compare logs with"),
    ("return_times", "library probe of hitting times of V, documented in the README"),
    ("state_at", "library reconstruction of a log's state, documented in the README; the lane-replay oracle"),
)


def unread_exports(package: Path, allowed: tuple = ()) -> list[str]:
    """Each module-level function named in a module's `__all__` that no
    package module reads, as "module.name".  Its own `def`, the `__all__`
    lists and `__init__` are no readers; neither is a name in `allowed`."""
    exported = []
    read: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        functions = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported += [(path.stem, e.value) for e in node.value.elts if e.value in functions]
            own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    read.add(name)
    skip = {name for name, _ in allowed}
    return [f"{module}.{name}" for module, name in exported if name not in read and name not in skip]


def test_every_exported_function_is_read_in_the_package():
    assert unread_exports(PACKAGE, UNREAD_BY_DESIGN) == []


def test_unread_export_guard_sees_each_kind(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .model import a, b, c, d\n\n__all__ = ['a', 'b', 'c', 'd']\n")
    # d calls only itself; c is read by chain; K is a constant, not a function
    (pkg / "model.py").write_text(
        "__all__ = ['a', 'b', 'c', 'd', 'K']\n\nK = 1\n\n\ndef a():\n    pass\n\n\n"
        "def b():\n    pass\n\n\ndef c():\n    pass\n\n\ndef d(n):\n    return d(n - 1)\n"
    )
    (pkg / "chain.py").write_text("from . import model\n\n\ndef e():\n    return model.c()\n")
    assert unread_exports(pkg) == ["model.a", "model.b", "model.d"]
    assert unread_exports(pkg, (("b", "kept"),)) == ["model.a", "model.d"]


# defaulted parameters that nothing in the package sets, each kept on purpose
UNSET_BY_DESIGN = (
    ("simulate", "truncated", "the documented truncated embedding; step feeds it to the same kernel"),
    ("simulate_thinning", "window", "the oracle's fixed-window mode, which the thinning tests pin"),
)


def unset_parameters(package: Path, allowed: tuple = ()) -> list[str]:
    """Each defaulted parameter of a module-level function named in a
    module's `__all__` that no call in the package passes, by keyword or by
    enough positional arguments, as "module.function(parameter)".  A call
    may name the function bare or as an attribute (`module.function`); a
    (function, parameter) pair in `allowed` is no finding."""
    defaulted = []
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                for name in (e.value for e in node.value.elts if e.value in functions):
                    args = functions[name].args
                    positional = args.posonlyargs + args.args
                    first = len(positional) - len(args.defaults)
                    defaulted += [(path.stem, name, a.arg, i) for i, a in enumerate(positional) if i >= first]
                    kwonly = zip(args.kwonlyargs, args.kw_defaults)
                    defaulted += [(path.stem, name, a.arg, None) for a, d in kwonly if d is not None]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, param: str, index) -> bool:
        by_position = index is not None and len(call.args) > index
        return by_position or any(kw.arg == param for kw in call.keywords)

    skip = {(name, param) for name, param, _ in allowed}
    return [
        f"{module}.{name}({param})"
        for module, name, param, index in defaulted
        if (name, param) not in skip and not any(passes(c, param, index) for c in calls.get(name, ()))
    ]


def test_every_library_setting_has_a_caller():
    assert unset_parameters(PACKAGE, UNSET_BY_DESIGN) == []


def test_unset_parameter_guard_sees_each_kind(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    (pkg / "model.py").write_text(
        "__all__ = ['f', 'g', 'h']\n\n\ndef f(a, b=1, c=2, d=3):\n    pass\n\n\n"
        "def g(a, *, e=4, r):\n    pass\n\n\ndef h(w=5):\n    pass\n"
    )
    # b by keyword, c by position through an attribute call, e keyword-only
    (pkg / "chain.py").write_text(
        "from . import model\nfrom .model import f, g\n\n\n"
        "def k():\n    f(0, b=1)\n    model.f(0, 1, 2)\n    g(0, e=4, r=1)\n"
    )
    assert unset_parameters(pkg) == ["model.f(d)", "model.h(w)"]
    assert unset_parameters(pkg, (("h", "w", "kept"),)) == ["model.f(d)"]
    (pkg / "chain.py").write_text("from .model import f, g\n\n\ndef k():\n    f(0, 1, 2, 3)\n    g(0, r=1)\n")
    assert unset_parameters(pkg) == ["model.g(e)", "model.h(w)"]


# the modules `quakesim` re-exports; cli and stats are imported by name
LIBRARY = ("analysis", "chain", "foster", "model", "streams", "thinning")
NOT_EXPORTED = ("cli", "stats")


def declared_twice(package: Path) -> list[str]:
    """Each name in two library modules' `__all__`, and each exported name
    that `__init__` spells out itself, as "module: name"."""
    found, home = [], {}
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                for name in (e.value for e in node.value.elts):
                    if name in home:
                        found.append(f"{path.stem}: {name} (also in {home[name]})")
                    home.setdefault(name, path.stem)
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.alias) and node.name in home:
            found.append(f"__init__: {node.name}")
        elif isinstance(node, ast.Constant) and node.value in home:
            found.append(f"__init__: {node.value}")
    return found


def test_public_names_are_declared_once():
    assert {p.stem for p in PACKAGE.glob("*.py")} == {"__init__", *LIBRARY, *NOT_EXPORTED}
    assert declared_twice(PACKAGE) == []


def test_declaration_guard_sees_each_kind(tmp_path):
    pkg = tmp_path / "quakesim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .chain import *\nfrom .model import f\n\n__all__ = [*chain.__all__, 'g']\n")
    (pkg / "chain.py").write_text("__all__ = ['f', 'g']\n")
    (pkg / "model.py").write_text("__all__ = ['f']\n")
    assert declared_twice(pkg) == ["model: f (also in chain)", "__init__: f", "__init__: g"]


def test_package_exports_each_module_list_once():
    modules = [importlib.import_module(f"quakesim.{m}") for m in LIBRARY]
    assert quakesim.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(quakesim, name) is obj
            # a class or function is exported by the module that defines it
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_package_import_leaves_the_front_end_unloaded():
    probe = "import sys, quakesim\nfor m in sorted(sys.modules):\n    print(m)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    names = loaded.stdout.split()
    # stats loads with analysis and foster, which read it
    assert [m for m in names if m.startswith("quakesim")] == sorted(
        ["quakesim", *(f"quakesim.{m}" for m in (*LIBRARY, "stats"))]
    )
    assert "argparse" not in names
