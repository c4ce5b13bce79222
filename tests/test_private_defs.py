"""Every module-level private function and class in the package is used.

A private (`_name`) `def` or `class` at module level counts as used when any
module of the package names it: a call, an attribute access such as
`flow._grad_and_lap`, or an import. References from the tests do not count,
so a helper kept alive only by its own test is reported too.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "singflow"


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]


def test_scanner_flags_unreferenced_and_keeps_referenced():
    sources = {
        "a.py": "def _dead():\n    pass\n\ndef _called():\n    pass\n\nclass _Gone:\n    pass\n"
        "def public():\n    return _called()\n",
        "b.py": "import a\nfrom a import _imported\n\ndef _imported():\n    pass\n"
        "def _via_attr():\n    pass\n\na._via_attr\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:_dead", "a.py:_Gone"]


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []
