"""Only ``engine.automaton`` builds position automata, and nothing expands.

``automaton`` remembers the last tree it built, so the queries that follow
on one tree share one automaton.  A call of ``glushkov`` anywhere else
would quietly bring back one build per query.  ``glushkov`` builds counted
trees directly, so no code in crekit calls ``expand``: it stays as the
reference semantics the tests compare against.  The guard reads each module
of crekit with ``ast`` and lists every call of either name, as ``f(...)``
or ``x.f(...)``, with the function that makes it."""

import ast
from pathlib import Path

import pytest

import crekit

SRC = Path(crekit.__file__).parent
BUILDERS = ("expand", "glushkov")


class _BuilderCalls(ast.NodeVisitor):
    def __init__(self):
        self.scope = ["<module>"]
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = getattr(f, "id", None) or getattr(f, "attr", None)
        if name in BUILDERS:
            self.found.append((self.scope[-1], name))
        self.generic_visit(node)


def builder_calls(tree: ast.Module) -> list[tuple[str, str]]:
    """``(enclosing function, builder)`` for each builder call, in source order."""
    visitor = _BuilderCalls()
    visitor.visit(tree)
    return visitor.found


def test_guard_sees_builds():
    tree = ast.parse(
        "def member(e, w): return glushkov(expand(e)).accepts(w)\n"
        "class C:\n"
        "    def build(self): return engine.expand(self.e)\n"
        "nfa = glushkov(e)\n"
        "def unrelated(): return expanded(e)\n"
    )
    assert builder_calls(tree) == [
        ("member", "glushkov"),
        ("member", "expand"),
        ("build", "expand"),
        ("<module>", "glushkov"),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_automaton_builds(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), module)
    want = [("automaton", "glushkov")]
    assert builder_calls(tree) == (want if module == "engine.py" else [])
