"""The package's imports: every one used, at module top, and one way out of `operators`.

Every module-level import in the package is used (no linter is assumed).
`__init__.py` is skipped, since its imports are re-exports, and so is
`from __future__ import ...`.

An import inside a function runs at its first call, not when the module
loads, so it hides a cycle or a slow import from the reader. The package
keeps only the sites in `LOCAL_IMPORTS`, each with its reason.

`operators` is the plain reference layer that `geometry`, `weight` and the
rest import at module top, so it imports no `singflow` module when it runs;
`WeightField` is imported under `TYPE_CHECKING`, for annotations only.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "singflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# function-local imports the package keeps: module:function:imported name -> reason
LOCAL_IMPORTS = {
    "cli.py:cmd_verify:singflow.verify.run_battery": (
        "verify imports cli's cmd_run at module top, so cli reaches verify only when called"
    ),
    "weight.py:slab_workspace:singflow.flow.SlabWorkspace": (
        "flow imports weight's WeightField at module top, so weight reaches flow only when called"
    ),
    "flow.py:map:concurrent.futures.ThreadPoolExecutor": (
        "concurrent.futures imports logging; it loads only when a hand-out first needs the worker"
    ),
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scanner_flags_unused_and_keeps_used():
    src = "import math\nimport os.path\nfrom a import b, c as d\nos.sep\nd()\n"
    assert unused_imports(src) == ["math", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _imported_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    prefix = "." * node.level + (node.module or "")
    return [f"{prefix}.{a.name}" for a in node.names]


def local_imports(source: str, module: str) -> list[str]:
    """module:function:name of each import inside a function body, under its innermost function."""
    sites = []

    def visit(nodes, function):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, node.name)
                continue
            if function is not None and isinstance(node, (ast.Import, ast.ImportFrom)):
                sites.extend(f"{module}:{function}:{name}" for name in _imported_names(node))
            visit(ast.iter_child_nodes(node), function)

    visit(ast.parse(source).body, None)
    return sites


def import_time_singflow_imports(source: str) -> list[str]:
    """`singflow` imports that run when the module loads: outside functions and `if TYPE_CHECKING:`."""
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.extend(n for n in _imported_names(node) if n.startswith(("singflow", ".")))
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


def test_local_import_scanner_names_the_innermost_function():
    src = (
        "import os\n"
        "def f():\n    import json\n    def g():\n        from a.b import c, d\n"
        "class K:\n    def m(self):\n        from . import e\n"
    )
    assert local_imports(src, "x.py") == [
        "x.py:f:json", "x.py:g:a.b.c", "x.py:g:a.b.d", "x.py:m:..e"
    ]


def test_only_the_listed_function_local_imports():
    sites = [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in local_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert sorted(sites) == sorted(LOCAL_IMPORTS)


def test_import_time_scanner_skips_functions_and_type_checking():
    src = (
        "from typing import TYPE_CHECKING\nimport numpy\n"
        "if TYPE_CHECKING:\n    from singflow.weight import WeightField\n"
        "else:\n    from singflow import flow\n"
        "def f():\n    from singflow.geometry import TorusGrid\n"
        "try:\n    import singflow.norms\nexcept ImportError:\n    pass\n"
        "from .config import ConfigError\n"
    )
    assert import_time_singflow_imports(src) == ["singflow.flow", "singflow.norms", ".config.ConfigError"]


def test_operators_imports_no_singflow_module_when_it_loads():
    source = (PACKAGE / "operators.py").read_text(encoding="utf-8")
    assert import_time_singflow_imports(source) == []
