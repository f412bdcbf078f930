"""Inclusion, overlap and equivalence of counted regular expressions.

Inclusion L(left) <= L(right) is decided on the product of the left
position automaton with the lazily determinized complement of the right
one: a breadth-first search that explores symbols in union-alphabet order,
so the first counterexample found is the shortest one, ties broken
lexicographically.  Determinization is built on the fly and the number of
discovered product states is charged against an explicit budget --
inclusion of counted expressions is genuinely hard, and a blowup must fail
loudly rather than hang.

A symbol occurring in only one of the two expressions still counts as a
shared alphabet symbol; the other side simply accepts no word containing
it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .engine import DEFAULT_EXPANSION_CAP, Word, expand, glushkov
from .errors import StateBudgetExceeded
from .syntax import Expr, alphabet_of

DEFAULT_STATE_BUDGET = 1_000_000


@dataclass(frozen=True)
class InclusionVerdict:
    """Outcome of an inclusion test; a witness is in L(left) - L(right)."""

    holds: bool
    witness: Word | None = None

    def __post_init__(self):
        if self.holds != (self.witness is None):
            raise ValueError("witness must be present exactly when inclusion fails")


@dataclass(frozen=True)
class OverlapVerdict:
    """Outcome of an overlap test; a witness is in both languages."""

    overlaps: bool
    witness: Word | None = None

    def __post_init__(self):
        if self.overlaps != (self.witness is not None):
            raise ValueError("witness must be present exactly when overlapping")


@dataclass(frozen=True)
class EquivalenceVerdict:
    """``side`` names the expression whose language holds the witness."""

    equivalent: bool
    witness: Word | None = None
    side: str | None = None  # "left" | "right"

    def __post_init__(self):
        if self.equivalent != (self.witness is None and self.side is None):
            raise ValueError("witness and side must be present exactly when unequal")


def union_alphabet(left: Expr, right: Expr) -> tuple[str, ...]:
    """Symbols of left in order, then symbols private to right in order."""
    out = list(alphabet_of(left))
    seen = set(out)
    for sym in alphabet_of(right):
        if sym not in seen:
            out.append(sym)
            seen.add(sym)
    return tuple(out)


def _trace(parents, pair) -> Word:
    word = []
    while parents[pair] is not None:
        prev, sym = parents[pair]
        word.append(sym)
        pair = prev
    return tuple(reversed(word))


def includes(
    left: Expr,
    right: Expr,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> InclusionVerdict:
    """Decide L(left) <= L(right) over the union alphabet.

    On failure the witness is the shortest word of L(left) - L(right),
    lexicographic ties broken by union-alphabet order.
    """
    syms = union_alphabet(left, right)
    a = glushkov(expand(left, cap))
    b = glushkov(expand(right, cap))

    det_cache: dict[tuple[frozenset[int], str], frozenset[int]] = {}

    def det_step(states: frozenset[int], sym: str) -> frozenset[int]:
        key = (states, sym)
        nxt = det_cache.get(key)
        if nxt is None:
            nxt = b.step(states, sym)
            det_cache[key] = nxt
        return nxt

    start = (a.initial, frozenset((b.initial,)))
    if a.initial in a.accepting and not (start[1] & b.accepting):
        return InclusionVerdict(holds=False, witness=())
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        qa, det = queue.popleft()
        row = a.successors.get(qa, {})
        for sym in syms:
            targets = row.get(sym)
            if not targets:
                continue
            det2 = det_step(det, sym)
            for qa2 in sorted(targets):
                pair = (qa2, det2)
                if pair in parents:
                    continue
                parents[pair] = ((qa, det), sym)
                if len(parents) > state_budget:
                    raise StateBudgetExceeded(state_budget)
                if qa2 in a.accepting and not (det2 & b.accepting):
                    return InclusionVerdict(holds=False, witness=_trace(parents, pair))
                queue.append(pair)
    return InclusionVerdict(holds=True)


def overlaps(
    left: Expr,
    right: Expr,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> OverlapVerdict:
    """Decide L(left) & L(right) != {}; witness is the shortest common word."""
    syms = union_alphabet(left, right)
    a = glushkov(expand(left, cap))
    b = glushkov(expand(right, cap))
    start = (a.initial, b.initial)
    if a.initial in a.accepting and b.initial in b.accepting:
        return OverlapVerdict(overlaps=True, witness=())
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        row_a = a.successors.get(qa, {})
        row_b = b.successors.get(qb, {})
        for sym in syms:
            targets_a = row_a.get(sym)
            targets_b = row_b.get(sym)
            if not targets_a or not targets_b:
                continue
            for qa2 in sorted(targets_a):
                for qb2 in sorted(targets_b):
                    pair = (qa2, qb2)
                    if pair in parents:
                        continue
                    parents[pair] = ((qa, qb), sym)
                    if qa2 in a.accepting and qb2 in b.accepting:
                        return OverlapVerdict(
                            overlaps=True, witness=_trace(parents, pair)
                        )
                    queue.append(pair)
    return OverlapVerdict(overlaps=False)


def equivalent(
    left: Expr,
    right: Expr,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> EquivalenceVerdict:
    """Mutual inclusion; on failure, the witness and which language owns it."""
    forward = includes(left, right, cap=cap, state_budget=state_budget)
    if not forward.holds:
        return EquivalenceVerdict(equivalent=False, witness=forward.witness, side="left")
    backward = includes(right, left, cap=cap, state_budget=state_budget)
    if not backward.holds:
        return EquivalenceVerdict(
            equivalent=False, witness=backward.witness, side="right"
        )
    return EquivalenceVerdict(equivalent=True)
