"""The worker lane gets its work in one place: `flow.SlabWorkspace.map`.

`map` makes the workspace's one-thread pool and hands it the second lane of
each hand-out, and both lanes have stopped when it returns or raises. Any
other way onto a thread (another pool, a `threading.Thread`, a `.submit(`
call) would start jobs that outlive their call, and each would need its own
cancel-and-wait code. This guard fails on such a site anywhere in the
package outside `map` and the functions nested in it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "singflow"
HAND_OUT = "flow.py:SlabWorkspace.map"


def _thread_names(node) -> list[str]:
    """What node names of ThreadPoolExecutor, threading.Thread and .submit( calls."""
    if isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor":
        return ["ThreadPoolExecutor"]
    if isinstance(node, ast.Attribute):
        if node.attr == "ThreadPoolExecutor":
            return ["ThreadPoolExecutor"]
        if node.attr == "Thread" and isinstance(node.value, ast.Name) and node.value.id == "threading":
            return ["threading.Thread"]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) and node.module else ""
        full = [prefix + a.name for a in node.names]
        return [
            "ThreadPoolExecutor" if name.endswith(".ThreadPoolExecutor") else "threading.Thread"
            for name in full
            if name.endswith(".ThreadPoolExecutor") or name == "threading.Thread"
        ]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "submit":
        return [".submit("]
    return []


def thread_sites(source: str, module: str) -> list[str]:
    """module:scope:name of each site, scope being the dotted class and function path."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            sites.extend(f"{module}:{scope or '<module>'}:{name}" for name in _thread_names(child))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, (f"{scope}.{child.name}" if scope else child.name) if named else scope)

    visit(ast.parse(source), "")
    return sites


def _in_hand_out(site: str) -> bool:
    scope = site.rsplit(":", 1)[0]
    return scope == HAND_OUT or scope.startswith(HAND_OUT + ".")


def test_scanner_finds_pools_threads_and_submits_by_scope():
    src = (
        "import threading\n"
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor as Pool\n"
        "from threading import Thread, Lock\n"
        "class SlabWorkspace:\n"
        "    def map(self):\n"
        "        def drain():\n"
        "            return self._pool.submit(print)\n"
        "        return drain\n"
        "    def other(self):\n"
        "        threading.Thread(target=print).start()\n"
        "        threading.Lock()\n"
        "def f(pool):\n"
        "    pool.submit(print)\n"
        "    return concurrent.futures.ThreadPoolExecutor(1)\n"
        "x = ThreadPoolExecutor\n"
    )
    sites = thread_sites(src, "flow.py")
    assert sites == [
        "flow.py:<module>:ThreadPoolExecutor",
        "flow.py:<module>:threading.Thread",
        "flow.py:SlabWorkspace.map.drain:.submit(",
        "flow.py:SlabWorkspace.other:threading.Thread",
        "flow.py:f:.submit(",
        "flow.py:f:ThreadPoolExecutor",
        "flow.py:<module>:ThreadPoolExecutor",
    ]
    assert [_in_hand_out(s) for s in sites] == [False, False, True, False, False, False, False]
    assert not _in_hand_out("flow.py:SlabWorkspace.mapped:.submit(")


def test_only_map_reaches_the_worker_lane():
    sites = [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in thread_sites(path.read_text(encoding="utf-8"), path.name)
    ]
    assert [s for s in sites if not _in_hand_out(s)] == []
    # map itself makes the pool and hands it work, so the scan does see them
    assert sorted(set(sites)) == [f"{HAND_OUT}:.submit(", f"{HAND_OUT}:ThreadPoolExecutor"]
