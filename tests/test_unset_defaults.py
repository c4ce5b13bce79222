"""Every parameter default in the package is overridden by some package call.

A parameter with a default that no call in `src/singflow` ever sets is an
option nobody uses: the value it always takes belongs in the body as a
constant. The scan covers module-level functions and the methods of
module-level classes, and matches calls to them by name (`f(...)` and
`obj.f(...)`), so a call to any same-named function counts. A call sets a
parameter when it passes it by keyword, or passes enough positional arguments
to reach it; a `*args` or `**kwargs` argument counts as setting every
parameter. Methods are counted without `self` or `cls`, and a class's
`__init__` is reached through calls of the class name.

Calls from the tests do not count. The few defaults that only the tests or
the command line set are listed in `UNSET_BY_PACKAGE`, each with its reason.
"""

import ast

from test_private_defs import package_sources

# defaults that no package call sets: module:function.parameter -> reason
UNSET_BY_PACKAGE = {
    "cli.py:main.argv": "the entry point; the console script calls it without arguments",
    "spectral.py:weak_residual.test_functions": (
        "the tests pass a larger basis to probe directions outside the solution span"
    ),
}


def _defaulted_params(func: ast.FunctionDef, is_method: bool):
    """(positional index or None, name) of each parameter with a default."""
    positional = func.args.posonlyargs + func.args.args
    if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
    ):
        positional = positional[1:]
    first_default = len(positional) - len(func.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield i, arg.arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _definitions(trees: dict[str, ast.Module]):
    """(module, qualified name, call name, function node, is method) of every def."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name, node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        call_name = node.name if item.name == "__init__" else item.name
                        yield module, f"{node.name}.{item.name}", call_name, item, True


def _calls(trees: dict[str, ast.Module]) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    calls.setdefault(node.func.id, []).append(node)
                elif isinstance(node.func, ast.Attribute):
                    calls.setdefault(node.func.attr, []).append(node)
    return calls


def _sets(call: ast.Call, index, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def defaulted_params(sources: dict[str, str]) -> list[str]:
    """Every parameter with a default, as module:function.parameter."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    return [
        f"{module}:{qualname}.{param}"
        for module, qualname, _, func, is_method in _definitions(trees)
        for _, param in _defaulted_params(func, is_method)
    ]


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """Parameters with a default that no call in the sources sets."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    calls = _calls(trees)
    return [
        f"{module}:{qualname}.{param}"
        for module, qualname, call_name, func, is_method in _definitions(trees)
        for index, param in _defaulted_params(func, is_method)
        if not any(_sets(call, index, param) for call in calls.get(call_name, []))
    ]


def test_scanner_on_synthetic_sources():
    sources = {
        "a.py": "def f(x, by_pos=1, by_kw=2, never=3, *, kw_only=4, kw_never=5):\n    pass\n\n"
        "def g(a=1, b=2):\n    pass\n\n"
        "class K:\n    def __init__(self, size=1, mode=2):\n        pass\n\n"
        "    def m(self, p=1, q=2):\n        pass\n",
        "b.py": "import a\n\n"
        "a.f(0, 1, by_kw=2, kw_only=4)\n"
        "g(*args)\n"
        "k = a.K(3)\n"
        "k.m(q=5)\n",
    }
    assert unset_defaults(sources) == [
        "a.py:f.never",
        "a.py:f.kw_never",
        "a.py:K.__init__.mode",
        "a.py:K.m.p",
    ]
    assert len(defaulted_params(sources)) == 11


def test_every_default_is_set_by_a_package_call():
    assert [p for p in unset_defaults(package_sources()) if p not in UNSET_BY_PACKAGE] == []


def test_unset_allow_list_is_current():
    """The allow-list goes stale when a listed parameter goes or gains a package caller."""
    assert set(UNSET_BY_PACKAGE) <= set(unset_defaults(package_sources()))
