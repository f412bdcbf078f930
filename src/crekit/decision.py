"""Inclusion, overlap and equivalence of counted regular expressions.

Inclusion L(left) <= L(right) is decided on the product of the left
position automaton with the lazily determinized complement of the right
one: a breadth-first search that explores symbols in union-alphabet order,
so the first counterexample found is the shortest one, ties broken
lexicographically.  Determinization is built on the fly and the number of
discovered product states is charged against an explicit budget --
inclusion of counted expressions is genuinely hard, and a blowup must fail
loudly rather than hang.  Overlap searches the product of the two automata
in the same order, under the same budget.

A symbol occurring in only one of the two expressions still counts as a
shared alphabet symbol; the other side simply accepts no word containing
it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .engine import DEFAULT_EXPANSION_CAP, Nfa, Word, expand, glushkov
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


def _ordered(row: dict[str, list[int]], rank: dict[str, int]):
    """A row of ``Nfa.targets`` as ``(index, symbol, targets)`` in alphabet order."""
    return sorted((rank[sym], sym, targets) for sym, targets in row.items())


def _includes(
    a: Nfa, b: Nfa, syms: tuple[str, ...], state_budget: int
) -> InclusionVerdict:
    """The product search of ``includes`` on built automata.

    A product state (q, S) of a left state q and a right subset S is the int
    ``S << width | q``; the search starts from (0, {0}).  Each distinct S
    gets one row of successor subsets, one per symbol, from a single
    ``b.reach(S)``.
    """
    width = a.state_count.bit_length()
    low = (1 << width) - 1
    rank = {sym: i for i, sym in enumerate(syms)}
    masks = [b.symbol_masks.get(sym, 0) for sym in syms]
    rows: list = [None] * a.state_count
    det_rows: dict[int, list[int]] = {}
    a_accepting, b_accepting = a.accepting, b.accepting
    if a_accepting & 1 and not b_accepting & 1:
        return InclusionVerdict(holds=False, witness=())
    start = 1 << width
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, det = pair & low, pair >> width
        row = rows[qa]
        if row is None:
            row = rows[qa] = _ordered(a.targets(qa), rank)
        det_row = det_rows.get(det)
        if det_row is None:
            reach = b.reach(det)
            det_row = det_rows[det] = [reach & mask for mask in masks]
        for i, sym, targets in row:
            det2 = det_row[i]
            high = det2 << width
            rejected = not det2 & b_accepting
            for qa2 in targets:
                nxt = high | qa2
                if nxt in parents:
                    continue
                parents[nxt] = (pair, sym)
                if len(parents) > state_budget:
                    raise StateBudgetExceeded(state_budget)
                if rejected and a_accepting >> qa2 & 1:
                    return InclusionVerdict(holds=False, witness=_trace(parents, nxt))
                queue.append(nxt)
    return InclusionVerdict(holds=True)


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
    return _includes(a, b, syms, state_budget)


def overlaps(
    left: Expr,
    right: Expr,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> OverlapVerdict:
    """Decide L(left) & L(right) != {}; witness is the shortest common word.

    Every discovered pair of states is charged against ``state_budget``.
    """
    syms = union_alphabet(left, right)
    a = glushkov(expand(left, cap))
    b = glushkov(expand(right, cap))
    width = a.state_count.bit_length()
    low = (1 << width) - 1
    rank = {sym: i for i, sym in enumerate(syms)}
    rows_a: list = [None] * a.state_count
    rows_b: list = [None] * b.state_count
    a_accepting, b_accepting = a.accepting, b.accepting
    if a_accepting & b_accepting & 1:
        return OverlapVerdict(overlaps=True, witness=())
    start = 0  # the pair of initial states, packed as qb << width | qa
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, qb = pair & low, pair >> width
        row_a = rows_a[qa]
        if row_a is None:
            row_a = rows_a[qa] = _ordered(a.targets(qa), rank)
        row_b = rows_b[qb]
        if row_b is None:
            row_b = rows_b[qb] = b.targets(qb)
        for _, sym, targets_a in row_a:
            targets_b = row_b.get(sym)
            if not targets_b:
                continue
            for qa2 in targets_a:
                accepted = a_accepting >> qa2 & 1
                for qb2 in targets_b:
                    nxt = qb2 << width | qa2
                    if nxt in parents:
                        continue
                    parents[nxt] = (pair, sym)
                    if len(parents) > state_budget:
                        raise StateBudgetExceeded(state_budget)
                    if accepted and b_accepting >> qb2 & 1:
                        return OverlapVerdict(overlaps=True, witness=_trace(parents, nxt))
                    queue.append(nxt)
    return OverlapVerdict(overlaps=False)


def equivalent(
    left: Expr,
    right: Expr,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> EquivalenceVerdict:
    """Mutual inclusion; on failure, the witness and which language owns it.

    Both automata are built once and searched in both directions, each
    direction in its own union-alphabet order.
    """
    a = glushkov(expand(left, cap))
    b = glushkov(expand(right, cap))
    forward = _includes(a, b, union_alphabet(left, right), state_budget)
    if not forward.holds:
        return EquivalenceVerdict(equivalent=False, witness=forward.witness, side="left")
    backward = _includes(b, a, union_alphabet(right, left), state_budget)
    if not backward.holds:
        return EquivalenceVerdict(
            equivalent=False, witness=backward.witness, side="right"
        )
    return EquivalenceVerdict(equivalent=True)
