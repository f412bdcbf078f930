"""Only ``engine.automaton`` builds position automata, and nothing expands.

``automaton`` remembers the last tree it built, so the queries that follow
on one tree share one automaton.  A call of ``glushkov`` anywhere else
would quietly bring back one build per query.  ``glushkov`` builds counted
trees directly, so no code in crekit calls ``expand``: it stays as the
reference semantics the tests compare against.  The guard reads each module
of crekit with ``ast`` and lists every call of either name, as ``f(...)``
or ``x.f(...)``, with the function that makes it.

Only ``engine`` knows how an automaton stores its follow sets: shifted
masks in ``follow`` and ``offsets``, and ``links``.  Every other module
steps subsets through ``Nfa.reach`` and ``Nfa.into``, so a change of
storage or of the step stays inside ``engine``.  The same kind of guard
lists every read of those attributes, as ``x.follow``, outside it.

A second guard keeps each oracle independent of the code it checks:
``position_oracle.py`` imports nothing from ``crekit.engine``, which holds
the position pass, and ``oracle.py`` nothing from ``crekit.decision``,
which holds the product search."""

import ast
import inspect
from pathlib import Path

import pytest

import crekit

SRC = Path(crekit.__file__).parent
TESTS = Path(__file__).parent
BUILDERS = ("expand", "glushkov")
STORAGE = ("follow", "offsets", "links")
# oracle -> the crekit module it checks, and must not import from
ORACLES = {"oracle.py": "crekit.decision", "position_oracle.py": "crekit.engine"}


class _Scoped(ast.NodeVisitor):
    def __init__(self):
        self.scope = ["<module>"]
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _BuilderCalls(_Scoped):
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


class _StorageReads(_Scoped):
    def visit_Attribute(self, node):
        if node.attr in STORAGE:
            self.found.append((self.scope[-1], node.attr))
        self.generic_visit(node)


def storage_reads(tree: ast.Module) -> list[tuple[str, str]]:
    """``(enclosing function, attribute)`` for each read of the follow storage."""
    visitor = _StorageReads()
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


def test_guard_sees_storage_reads():
    tree = ast.parse(
        "def walk(a, q): return a.follow[q] << a.offsets[q]\n"
        "class C:\n"
        "    def links(self): return len(self.nfa.links)\n"
        "follow = nfa.reach(1)\n"
    )
    assert storage_reads(tree) == [
        ("walk", "follow"),
        ("walk", "offsets"),
        ("links", "links"),
    ]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "engine.py")
)
def test_only_engine_reads_the_follow_storage(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), module)
    assert storage_reads(tree) == []


def imported_from(tree: ast.Module) -> set[str]:
    """Modules that ``tree`` imports from, anywhere in it.  A name taken from
    the ``crekit`` package counts as taken from the module that defines it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            if node.module == "crekit":
                for alias in node.names:
                    value = getattr(crekit, alias.name, None)
                    module = inspect.getmodule(value)
                    if module is not None:
                        found.add(module.__name__)
    return found


def test_guard_sees_imports():
    tree = ast.parse(
        "import crekit.engine as eng\n"
        "from crekit.decision import includes\n"
        "from crekit import Nfa, syntax\n"
        "def late():\n"
        "    from crekit import union_alphabet\n"
    )
    assert imported_from(tree) == {
        "crekit",
        "crekit.decision",
        "crekit.engine",
        "crekit.syntax",
    }


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_imports_nothing_it_checks(oracle):
    tree = ast.parse((TESTS / oracle).read_text(encoding="utf-8"), oracle)
    assert ORACLES[oracle] not in imported_from(tree)
