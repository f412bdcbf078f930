"""Shared corpus builders and hypothesis strategies."""

import random

import pytest
from hypothesis import strategies as st

from crekit import decision
from crekit.engine import position_pass
from crekit.syntax import (
    EPSILON,
    Concat,
    CountRange,
    Epsilon,
    Rep,
    Symbol,
    alt,
    concat,
    postorder,
    rep,
)

SYMBOLS = ("a", "b", "c")

DEEP = 5_000  # nesting depth of the deep inputs, far past the recursion limit


def nested_groups(depth=DEEP, other="c"):
    """Text of ``depth`` nested groups: ``(a (a ... (a b|c) ...|c)|c)``."""
    return "(a " * depth + "b" + f"|{other})" * depth


def rendered_groups(depth=DEEP):
    """``render_expr`` of ``parse_expr(nested_groups(depth))``."""
    return "(a" * depth + " b" + "|c)" * depth


def random_expr(rng, depth, symbols=SYMBOLS, allow_unbounded=True, max_count=4):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.12:
            return EPSILON
        return Symbol(rng.choice(symbols))
    kind = rng.choices(("concat", "alt", "rep"), weights=(4, 3, 3))[0]
    if kind == "concat":
        parts = [
            random_expr(rng, depth - 1, symbols, allow_unbounded, max_count)
            for _ in range(rng.randint(2, 3))
        ]
        return concat(parts)
    if kind == "alt":
        branches = [
            random_expr(rng, depth - 1, symbols, allow_unbounded, max_count)
            for _ in range(rng.randint(2, 3))
        ]
        return alt(branches)
    inner = random_expr(rng, depth - 1, symbols, allow_unbounded, max_count)
    low = rng.randint(0, max_count - 1)
    if allow_unbounded and rng.random() < 0.25:
        return rep(inner, low, None)
    return rep(inner, low, rng.randint(max(low, 1), min(low + 2, max_count)))


def make_corpus(count, seed, symbols=SYMBOLS, depth=3, allow_unbounded=True):
    rng = random.Random(seed)
    return [random_expr(rng, depth, symbols, allow_unbounded) for _ in range(count)]


@pytest.fixture(scope="session")
def corpus():
    """Deterministic mixed corpus used by the engine cross-checks."""
    return make_corpus(500, seed=20240527)


@st.composite
def count_ranges(draw, unbounded=True):
    low = draw(st.integers(0, 3))
    if unbounded and draw(st.booleans()):
        return CountRange(low, None)
    return CountRange(low, draw(st.integers(max(low, 1), 4)))


def _extend(children, unbounded=True):
    concats = st.lists(children, min_size=2, max_size=3).map(concat)
    alts = st.lists(children, min_size=2, max_size=3).map(alt)
    reps = st.tuples(children, count_ranges(unbounded)).map(
        lambda t: rep(t[0], t[1].low, t[1].high)
    )
    return st.one_of(concats, alts, reps)


def expressions(symbols=SYMBOLS, unbounded=True):
    base = st.one_of(
        st.sampled_from(symbols).map(Symbol),
        st.just(EPSILON),
    )
    return st.recursive(base, lambda c: _extend(c, unbounded), max_leaves=8)


def _extend_sugar(children):
    concats = st.lists(children, min_size=2, max_size=3).map(concat)
    alts = st.lists(children, min_size=2, max_size=3).map(alt)
    sugar = st.sampled_from([(0, 1), (0, None), (1, None)])
    reps = st.tuples(children, sugar).map(lambda t: rep(t[0], *t[1]))
    return st.one_of(concats, alts, reps)


def sugar_expressions(symbols=SYMBOLS):
    """Expressions using only the classic ?/*/+ operator ranges."""
    base = st.one_of(
        st.sampled_from(symbols).map(Symbol),
        st.just(EPSILON),
    )
    return st.recursive(base, _extend_sugar, max_leaves=8)


@pytest.fixture
def searches(monkeypatch):
    """The kind of every ``decision._search`` call, in call order: "pruned",
    "departure" (pruned and seeded) or "unpruned"."""
    calls = []
    search = decision._search

    def spy(a, b, syms, split, state_budget, prune=False, seeds=None):
        calls.append("departure" if seeds else "pruned" if prune else "unpruned")
        return search(a, b, syms, split, state_budget, prune, seeds)

    monkeypatch.setattr(decision, "_search", spy)
    return calls


def follow_union(nfa, states: int) -> int:
    """The union of the follow sets of the members of ``states``, read from
    ``nfa.follow`` and ``nfa.offsets`` one state at a time: the reference
    for ``Nfa.reach``, sharing none of its code."""
    out = 0
    for q in range(nfa.state_count):
        if states >> q & 1:
            out |= nfa.follow[q] << nfa.offsets[q]
    return out


def raw_links(e, classes: bool = False) -> tuple:
    """The links the position pass records for ``e``.  An ``Nfa`` takes
    them as constructor input and keeps them only coalesced."""
    return position_pass(postorder(e), False, True, classes)[4]


def follow_into(nfa, states: int, targets: int) -> int:
    """The members of ``states`` whose follow set meets ``targets``, each
    follow set read from ``nfa.follow`` and ``nfa.offsets`` as in
    ``follow_union``: the reference for ``Nfa.into``."""
    out = 0
    for q in range(nfa.state_count):
        if states >> q & 1 and nfa.follow[q] << nfa.offsets[q] & targets:
            out |= 1 << q
    return out


def nullable_copies(e) -> bool:
    """True iff ``e`` has a counted body that is nullable, has a position and
    is laid down more than once.  The position pass builds such a body as
    its non-empty part, so its first and follow sets are subsets of those
    of ``expand(e)``; any other tree is built exactly as its expansion."""
    done = []  # (nullable, has a position) per subtree
    for x in postorder(e):
        t = type(x)
        if t is Symbol:
            done.append((False, True))
        elif t is Epsilon:
            done.append((True, False))
        elif t is Rep:
            nullable, positioned = done[-1]
            low, high = x.count.low, x.count.high
            copies = (low + 1 if low >= 2 else 1) if high is None else high
            if nullable and positioned and copies > 1:
                return True
            done[-1] = (nullable or low == 0, positioned)
        else:
            k = len(x.parts) if t is Concat else len(x.branches)
            parts = done[-k:]
            join = all if t is Concat else any
            done[-k:] = [(join(n for n, _ in parts), any(p for _, p in parts))]
    return False


def nullable_run(e):
    """A nullable concatenation of ``(e|%)`` parts around a nullable counted
    body of two such parts, padded past 64 states so that its links are
    kept: they coalesce into chains whose sources nest and into merged
    families."""
    part = alt([e, EPSILON])
    body = rep(concat([part, part]), 0, 5)
    return concat([part, body, part, rep(Symbol("z"), 64, 64)])
