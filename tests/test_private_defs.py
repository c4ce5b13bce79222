"""Every function, class and method in the package is used by the package.

A private (`_name`) `def` or `class` at module level, or a private method,
counts as used when any module of the package names it: a call, an attribute
access such as `flow._grad_and_lap`, or an import. Dunder methods are left out.

A public one counts as used only when a module of the package reads it: a
`Name` or `Attribute` load. An import alone, such as a re-export from
`__init__.py`, does not keep it alive. The few public definitions that only
the tests read are listed in `TEST_REFERENCES`, each with its reason.

References from the tests do not count, so a definition kept alive only by
its own test is reported too. Test-only reference code lives in
`tests/oracles.py`, and no package module defines or names any of it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "singflow"
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"

# public definitions that only the tests read: module:name -> reason
TEST_REFERENCES = {
    "operators.py:exact_inner": "fsum inner product the Galerkin matrices are held to",
    "operators.py:flow_rhs": "plain right-hand side the fused stepper kernel is held to bitwise",
}


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def names_used(trees, with_imports: bool) -> set[str]:
    """Names that the modules read; with imports, also the names they import."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and (with_imports or isinstance(node.ctx, ast.Load)):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and (with_imports or isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif with_imports and isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _module_defs(trees: dict[str, ast.Module]):
    """(module, qualified name, name) of each module-level def and class and of each method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield module, f"{node.name}.{item.name}", item.name


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = names_used(trees.values(), with_imports=True)
    return [
        f"{module}:{qualname}"
        for module, qualname, name in _module_defs(trees)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def unread_public_defs(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = names_used(trees.values(), with_imports=False)
    return [
        f"{module}:{qualname}"
        for module, qualname, name in _module_defs(trees)
        if not name.startswith("_") and name not in read
    ]


def test_scanner_flags_unreferenced_and_keeps_referenced():
    sources = {
        "a.py": "def _dead():\n    pass\n\ndef _called():\n    pass\n\nclass _Gone:\n    pass\n"
        "def public():\n    return _called()\n",
        "b.py": "import a\nfrom a import _imported\n\ndef _imported():\n    pass\n"
        "def _via_attr():\n    pass\n\na._via_attr\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:_dead", "a.py:_Gone"]


def test_public_scanner_counts_reads_only():
    sources = {
        "__init__.py": "from a import exported\n\n__all__ = ['exported']\n",
        "a.py": "def exported():\n    pass\n\ndef called():\n    pass\n\nclass Annotated:\n    pass\n"
        "def via_attr():\n    pass\n\nclass Stored:\n    pass\n\ndef _private():\n    pass\n",
        "b.py": "import a\nfrom a import called\n\ndef user(x: a.Annotated):\n    return called()\n\n"
        "f = a.via_attr\na.Stored = None\n",
    }
    assert unread_public_defs(sources) == ["a.py:exported", "a.py:Stored", "b.py:user"]


def test_scanners_cover_methods():
    sources = {
        "a.py": "class K:\n    def __init__(self):\n        self._used()\n\n"
        "    def _used(self):\n        pass\n\n    def _dead(self):\n        pass\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def unread(self, which='x'):\n        pass\n\n"
        "def make():\n    return K().size\n",
        "b.py": "from a import make\n\nmake()\n",
    }
    assert unread_public_defs(sources) == ["a.py:K.unread"]
    assert unreferenced_private_defs(sources) == ["a.py:K._dead"]


def test_no_unreferenced_private_defs():
    assert unreferenced_private_defs(package_sources()) == []


def test_every_public_def_is_read_by_the_package():
    assert [d for d in unread_public_defs(package_sources()) if d not in TEST_REFERENCES] == []


def test_test_references_are_still_unread():
    """The allow-list goes stale when a listed name is deleted or gains a package reader."""
    assert set(TEST_REFERENCES) <= set(unread_public_defs(package_sources()))


def test_reference_code_stays_out_of_the_package():
    """Each definition of `tests/oracles.py` is a second route to a package
    result, such as the weak residual of grid states, so no package module
    defines or names one: the package keeps one route of its own."""
    oracles = ast.parse(ORACLES.read_text(encoding="utf-8"))
    names = {n.name for n in oracles.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert {"GalerkinStates", "state_weak_residual"} <= names
    trees = {name: ast.parse(src) for name, src in package_sources().items()}
    defined = {name for _, _, name in _module_defs(trees)}
    assert names & (defined | names_used(trees.values(), with_imports=True)) == set()
