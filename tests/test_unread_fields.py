"""Every stored field of a package class is read by the package.

A field is an annotated assignment in the body of a module-level class, such
as a dataclass field (`rate: float`). It counts as read when some module of
`src/singflow` loads an attribute of that name: `report.rate`, or
`self.rate` inside a property. Storing it or passing it to the constructor
does not count, and neither do reads from the tests, so a field that only the
tests look at is reported too.

The scan goes by name, not by type: a read of any attribute with the same
name keeps the field alive. So it cannot tell two fields apart that share a
name, and a collision hides an unread one. Examples are a `Trajectory.dt`
kept alive by `cfg.dt`, or a `Mode.kind` by `gamma.kind`. Fields that only
the tests read are listed in `TEST_READ_FIELDS`, each with its reason.
"""

import ast

from test_private_defs import package_sources

# fields that no package module reads: module:Class.field -> reason
TEST_READ_FIELDS: dict[str, str] = {}


def _fields(trees: dict[str, ast.Module]):
    """(module, class, field) of each annotated name in a module-level class body."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield module, node.name, item.target.id


def _attributes_read(trees) -> set[str]:
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = _attributes_read(trees.values())
    return [
        f"{module}:{cls}.{name}"
        for module, cls, name in _fields(trees)
        if name not in read
    ]


def test_scanner_on_synthetic_sources():
    sources = {
        "a.py": "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Rec:\n    read: int\n    via_self: float\n    stored: str\n"
        "    passed: int = 0\n    unannotated = 1\n\n"
        "    @property\n    def double(self):\n        return 2 * self.via_self\n\n"
        "    def method(self):\n        local: int = 3\n        return local\n",
        "b.py": "from a import Rec\n\n"
        "r = Rec(1, 2.0, 'x', passed=4)\n"
        "r.stored = 'y'\n"
        "print(r.read, r.double)\n",
    }
    assert unread_fields(sources) == ["a.py:Rec.stored", "a.py:Rec.passed"]


def test_every_field_is_read_by_the_package():
    assert [f for f in unread_fields(package_sources()) if f not in TEST_READ_FIELDS] == []


def test_test_read_fields_are_still_unread():
    """The allow-list goes stale when a listed field is deleted or gains a package reader."""
    assert set(TEST_READ_FIELDS) <= set(unread_fields(package_sources()))
