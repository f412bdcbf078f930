"""No function in crekit calls itself, directly or through others.

Expressions come as text of any nesting depth and counter expansion nests
one level per copy, so a recursive walk would turn a deep input into a
RecursionError instead of an answer.  The guard reads each module's source
with ``ast`` and builds one call graph per module: a call ``f(...)`` or
``x.f(...)`` is an edge to every function or method named ``f`` defined in
that module, except ``super().f(...)``, which calls a base class.  Graphs
are kept per module because names repeat across modules (the CLI's
``_lengths`` calls the engine's ``length_set``).
"""

import ast
from pathlib import Path

import pytest

import crekit

SRC = Path(crekit.__file__).parent


def _calls_super(call: ast.Call) -> bool:
    receiver = getattr(call.func, "value", None)
    if not isinstance(receiver, ast.Call):
        return False
    return getattr(receiver.func, "id", None) == "super"


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Function name -> the names of the module's functions it calls."""
    defs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    graph: dict[str, set[str]] = {d.name: set() for d in defs}
    for d in defs:
        for node in ast.walk(d):
            if isinstance(node, ast.Call) and not _calls_super(node):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name in graph:
                    graph[d.name].add(name)
    return graph


def on_cycles(graph: dict[str, set[str]]) -> list[str]:
    """The names that can reach themselves, sorted."""
    out = []
    for start, callees in graph.items():
        seen, todo = set(), list(callees)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            out.append(start)
    return sorted(out)


def test_guard_sees_recursion():
    tree = ast.parse(
        "class P:\n"
        "    def expr(self): return self.atom()\n"
        "    def atom(self): return self.expr()\n"
        "def walk(e): return [walk(c) for c in e]\n"
        "def leaf(): return len([])\n"
        "class E(Exception):\n"
        "    def __init__(self): super().__init__()\n"
    )
    assert on_cycles(call_graph(tree)) == ["atom", "expr", "walk"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_recursive_calls(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), module)
    cycles = on_cycles(call_graph(tree))
    assert not cycles, f"recursive in {module}: {', '.join(cycles)}"
