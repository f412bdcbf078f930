"""Inclusion, overlap and equivalence of counted regular expressions.

Inclusion L(left) <= L(right) is decided on the product of the left
position automaton with the lazily determinized right one; overlap on the
product of the two position automata.  Both run one breadth-first search
over pairs of a left state and a right key (a right subset for inclusion,
a single right state for overlap).  The pairs first discovered at one
depth form a layer, stored as a dict from right key to the bitmask of the
left states paired with it, so a whole group advances on a symbol with one
AND.  Left states are never merged into subsets: determinizing the left
side as well is exponential on expressions such as ``(a|b)* a (a|b){18}``.
When the right side has at most 64 states, each inclusion layer drops the
pairs whose key strictly contains the smallest kept key of the same left
state (antichains, De Wulf et al., CAV 2006).  The states are those of
``automaton``, where an alternation of distinct symbols is one class
position: the reduction's right side for three weights summing to 24 has
49 states, not 193, so it is pruned and stepped by its byte table.
A goal met after a drop is spelled on the kept pairs, and one search
seeded where a smaller word of that length would leave it checks the
tie-break; only if one exists is the search run unpruned.  Every walk
here, the search, its witness and ``_spell``, steps subsets with
``Nfa.reach`` and tests states backwards with ``Nfa.into``, which choose
how from the automaton; this module reads nothing of its follow storage.

When a layer holds a goal pair the layer is finished, a backward pass over
the stored layers keeps the pairs that lead to a goal, and a forward walk
takes at each step the smallest symbol that stays on a kept pair.  It
follows every pair the word so far reaches, not one of them, so the
witness is the shortest word, ties broken lexicographically in
union-alphabet order.  Every discovered pair is charged against an
explicit budget: inclusion of counted expressions is NP-hard even for
unambiguous ones, and a blowup must fail loudly rather than hang.

An inclusion whose right side fixes only lengths runs no search: when
every position of ``automaton(right)`` is entered on every symbol of the
union alphabet, as in the reduction's ``((a0|...|ak){n+1,2n}){1,2}``, and
``left`` has no unbounded repetition, the witness is the smallest word of
L(left) (``_spell``) of the least length in Len(left) - Len(right), both
folded on int bitsets by ``engine.length_bits``.  The right side is never
built, so the cap does not bound it and the budget is not charged.

A symbol occurring in only one of the two expressions still counts as a
shared alphabet symbol; the other side simply accepts no word containing
it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    DEFAULT_EXPANSION_CAP,
    Nfa,
    Word,
    _check_cap,
    _is_class,
    automaton,
    bits,
    length_bits,
)
from .errors import StateBudgetExceeded
from .syntax import Alt, Expr, Rep, Symbol, alphabet_of, postorder

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
    side: str | None = None  # "left" | "right" exactly when unequal

    def __post_init__(self):
        if self.equivalent:
            fits = self.witness is None and self.side is None
        else:
            fits = self.witness is not None and self.side in ("left", "right")
        if not fits:
            raise ValueError("witness and side must be present exactly when unequal")


def union_alphabet(left: Expr, right: Expr) -> tuple[str, ...]:
    """Symbols of left in order, then symbols private to right in order."""
    return tuple(dict.fromkeys(alphabet_of(left) + alphabet_of(right)))


class _Right:
    """The right side of a product search: keys numbered as discovered.

    A key is a set of right states.  Inclusion keeps each successor subset
    whole as one key (the lazily determinized right side, where the empty
    subset is a rejecting sink); overlap, with ``split``, makes one key per
    state.  ``rows[k][i]`` holds the ids of the successor keys of key k on
    symbol i.  ``row`` fills the whole row from one ``Nfa.reach`` when the
    search first expands key k, so the search handles small ids, never
    rehashes a subset, and steps each key once.
    """

    def __init__(self, b: Nfa, masks: list[int], split: bool):
        self.nfa, self.masks, self.split = b, masks, split
        self.ids: dict[int, int] = {}
        self.keys: list[int] = []
        self.rows: list[list[tuple[int, ...]] | None] = []

    def intern(self, key: int) -> int:
        k = self.ids.get(key)
        if k is None:
            k = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append(None)
        return k

    def row(self, k: int) -> list[tuple[int, ...]]:
        """``rows[k]``, filled in on first use."""
        row = self.rows[k]
        if row is None:
            reach, intern, row = self.nfa.reach(self.keys[k]), self.intern, []
            for mask in self.masks:
                targets = reach & mask
                if not self.split:
                    row.append((intern(targets),))
                elif not targets & (targets - 1):  # at most one state
                    row.append((intern(targets),) if targets else ())
                else:
                    row.append(tuple([intern(1 << r) for r in bits(targets)]))
            self.rows[k] = row
        return row


def _search(
    a: Nfa,
    b: Nfa,
    syms: tuple[str, ...],
    split: bool,
    state_budget: int,
    prune=False,
    seeds: dict[int, dict[int, int]] | None = None,
) -> tuple[Word, bool] | None:
    """Shortest-lex word leading the product of ``a`` and ``b`` to a goal.

    A product pair is a left state q and a right key K (see ``_Right``).  A
    layer holds the pairs first discovered at one depth, as a dict from the
    id of K to the bitmask of its left states, so a group advances on a
    symbol with one cached move of its whole mask and one cached right row.
    A pair is a goal when q accepts and K rejects (inclusion, ``split``
    false) or K accepts (overlap, ``split`` true).  Every discovered pair is
    charged to ``state_budget`` as it is added, so a search stops at most
    one group of left states past its budget.  Returns None when no goal is
    reachable, else the word and whether a pair was dropped.

    With ``prune`` (inclusion only), each new layer is visited by increasing
    key size, and q is dropped from key K when the smallest key kept so far
    with q is a strict subset of K, which reaches every goal (q, K) reaches
    by the same word, no later.  That keeps the verdict and the witness
    length but not the tie-break: the word is spelled on the kept pairs.

    ``seeds[d]`` maps right keys to left states added at depth d (by
    default the initial pair at depth 0); a seeded search ends at its
    deepest seed and only tells whether it met a goal, with an empty word.
    """
    a_masks = [a.symbol_masks.get(sym, 0) for sym in syms]
    right = _Right(b, [b.symbol_masks.get(sym, 0) for sym in syms], split)
    keys, rows = right.keys, right.rows
    a_accepting, b_accepting = a.accepting, b.accepting
    moves: dict[int, list[tuple[int, int]]] = {}
    starts = seeds or {0: {1: 1}}  # the initial left state with the initial right key
    seen: dict[int, int] = {}
    layers: list[dict[int, int]] = []
    following: dict[int, int] = {}
    found = 0
    smallest: dict[int, int] = {}  # left state -> smallest kept key with it
    dropped = False
    while following or len(layers) <= max(starts):
        for key, states in starts.get(len(layers), {}).items():
            k = right.intern(key)
            new = states & ~seen.get(k, 0)
            if new:
                seen[k] = seen.get(k, 0) | new
                following[k] = following.get(k, 0) | new
                found += new.bit_count()
                if found > state_budget:
                    raise StateBudgetExceeded(state_budget, found, len(layers))
        if prune:
            layer = {}
            for k in sorted(following, key=lambda k: keys[k].bit_count()):
                key, states = keys[k], following[k]
                for q in bits(states):
                    kept = smallest.get(q)
                    if kept is None or kept.bit_count() > key.bit_count():
                        smallest[q] = key
                    elif kept & key == kept != key:
                        states &= ~(1 << q)
                        dropped = True
                if states:
                    layer[k] = states
        else:
            layer = following
        layers.append(layer)
        goals = {
            k: states & a_accepting
            for k, states in layer.items()
            if states & a_accepting and bool(keys[k] & b_accepting) == split
        }
        if goals:
            if seeds:
                return (), dropped
            return _witness(a, a_masks, syms, layers, goals, rows, moves), dropped
        if seeds and len(layers) > max(seeds):
            return None
        following = {}
        for k, states in layer.items():
            row = right.row(k)
            move = moves.get(states)
            if move is None:  # (symbol index, successors) per symbol it can read
                union = a.reach(states)
                move = [(i, union & m) for i, m in enumerate(a_masks) if union & m]
                moves[states] = move
            for i, targets in move:
                for k2 in row[i]:
                    old = seen.get(k2, 0)
                    new = targets & ~old
                    if new:
                        seen[k2] = old | new
                        following[k2] = following.get(k2, 0) | new
                        found += new.bit_count()
                        if found > state_budget:
                            raise StateBudgetExceeded(state_budget, found, len(layers))
    return None


def _witness(a: Nfa, a_masks, syms, layers, goals, rows, moves) -> Word:
    """Spell the shortest-lex word from the first layer to ``goals``.

    Every pair on a shortest path to a goal lies in the layer of its depth,
    so a backward pass keeps, layer by layer, the pairs with a successor
    kept in the next one.  The forward walk then follows the set of kept
    pairs reached by the word so far and takes the smallest symbol that
    reaches a kept pair of the next layer.
    """
    live = [goals]
    for layer in reversed(layers[:-1]):
        after = live[-1]
        kept: dict[int, int] = {}
        for k, states in layer.items():
            hit = 0
            row = rows[k]
            for i, targets in moves[states]:
                for k2 in row[i]:
                    target = after.get(k2, 0) & targets
                    if target and hit != states:
                        hit |= a.into(states & ~hit, target)
            if hit:
                kept[k] = hit
        live.append(kept)
    live.reverse()
    word = []
    current = live[0]
    for after in live[1:]:
        steps: dict[int, dict[int, int]] = {}
        for k, states in current.items():
            row, union = rows[k], a.reach(states)
            for i, m in enumerate(a_masks):
                targets = union & m
                for k2 in row[i] if targets else ():
                    new = targets & after.get(k2, 0)
                    if new:
                        group = steps.setdefault(i, {})
                        group[k2] = group.get(k2, 0) | new
        i = min(steps)
        word.append(syms[i])
        current = steps[i]
    return tuple(word)


def _inclusion(a: Nfa, b: Nfa, syms: tuple[str, ...], state_budget: int) -> Word | None:
    """``_search`` for L(a) <= L(b), pruned when ``b`` has at most 64 states
    (wider keys paid for the bookkeeping and dropped nothing).  After a
    drop, the pruned word w is a shortest witness, and a smaller one leaves
    w at some t on a smaller symbol s.  A departure search seeded at each
    depth t + 1 with the pairs ``w[:t] s`` reaches looks for one (a pair
    first seen at a smaller depth cannot lead to a goal that deep); only if
    it meets a goal is the search run unpruned.  Each charges its own pairs.
    """
    found = _search(a, b, syms, False, state_budget, b.state_count <= 64)
    if found is None or not found[1]:
        return found and found[0]
    word, seeds, left, key = found[0], {}, 1, 1
    for t, sym in enumerate(word):
        left, key = a.reach(left), b.reach(key)
        seeds[t + 1] = seed = {}
        for s in syms[: syms.index(sym)]:
            if left & a.symbol_masks.get(s, 0):
                k = key & b.symbol_masks.get(s, 0)
                seed[k] = seed.get(k, 0) | left & a.symbol_masks[s]
        left, key = left & a.symbol_masks[sym], key & b.symbol_masks.get(sym, 0)
    if _search(a, b, syms, False, state_budget, True, seeds) is None:
        return word
    return _search(a, b, syms, False, state_budget)[0]


def _fixes_only_lengths(order: tuple[Expr, ...], syms: tuple[str, ...]) -> bool:
    """True iff each position of the automaton of ``order`` is entered on
    every symbol of ``syms``: it is a class of exactly those names, or syms
    has at most one symbol."""
    names = set(syms)
    classes = [x.branches for x in order if type(x) is Alt and _is_class(x)]
    covered = sum([len(b) for b in classes if {s.name for s in b} == names])
    return len(names) <= 1 or covered == sum([type(x) is Symbol for x in order])


def _spell(a: Nfa, syms: tuple[str, ...], length: int) -> Word:
    """The smallest word of L(a) of ``length`` in ``syms`` order; one must exist.

    A forward pass stores the states words of each length reach, each set
    as ``(low, states >> low)`` from its lowest member, so that a long
    unary word keeps O(length) bits rather than O(length**2); a backward
    pass keeps those that reach acceptance in the remaining steps; the walk
    takes at each step the smallest symbol that enters a kept state,
    ranking the few states it reaches by their smallest symbols.
    """
    if not length:
        return ()
    layers, states = [], 1
    for _ in range(length):
        states = a.reach(states)
        low = (states & -states).bit_length() - 1
        layers.append((low, states >> low))
    after = states & a.accepting
    layers[-1] = (low, after >> low)
    for i in range(length - 2, -1, -1):
        low, states = layers[i]
        after = a.into(states << low, after)
        layers[i] = (low, after >> low)
    rank = {sym: i for i, sym in enumerate(syms)}
    ranks = {  # label -> the rank of the smallest symbol it is entered on
        label: min(map(rank.get, label)) if type(label) is tuple else rank[label]
        for label in set(a.symbols)
    }
    labels, word, states = a.symbols, [], 1
    for low, kept in layers:
        reach = left = a.reach(states) >> low & kept
        best = len(syms)
        while left:  # the few kept members it reaches; state q is labels[q - 1]
            bit = left & -left
            r = ranks[labels[low + bit.bit_length() - 2]]
            if r < best:
                best = r
            left ^= bit
        word.append(syms[best])
        states = reach << low & a.symbol_masks[syms[best]]
    return tuple(word)


def includes(
    left: Expr,
    right: Expr,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> InclusionVerdict:
    """Decide L(left) <= L(right) over the union alphabet.

    On failure the witness is the shortest word of L(left) - L(right),
    lexicographic ties broken by union-alphabet order.  A right side that
    fixes only lengths, with a left side of no unbounded repetition, is
    decided on length bitsets (see above): it is never built, so ``cap``
    does not bound it, and no pair is charged to ``state_budget``.
    Otherwise every discovered product state is charged against
    ``state_budget``; on a failing query the layer holding the first
    counterexample is finished before the witness is chosen, so the budget
    can run out up to one layer earlier than a search that stops at the
    first counterexample it meets.
    """
    left_order, right_order = postorder(left), postorder(right)
    names = [x.name for x in left_order + right_order if type(x) is Symbol]
    syms = tuple(dict.fromkeys(names))
    bounded = not any(type(x) is Rep and x.count.high is None for x in left_order)
    if bounded and _fixes_only_lengths(right_order, syms):
        # the left cap check bounds the bitsets: no word is longer than
        # the left side's positions
        lengths = length_bits(left_order, _check_cap(left_order, cap))[0]
        missing = lengths & ~length_bits(right_order, lengths.bit_length() - 1)[0]
        if not missing:
            return InclusionVerdict(holds=True)
        shortest = (missing & -missing).bit_length() - 1
        witness = _spell(automaton(left, cap), syms, shortest)
    else:
        a, b = automaton(left, cap), automaton(right, cap)
        witness = _inclusion(a, b, syms, state_budget)
    return InclusionVerdict(holds=witness is None, witness=witness)


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
    a = automaton(left, cap)
    b = automaton(right, cap)
    found = _search(a, b, syms, True, state_budget)
    return OverlapVerdict(overlaps=found is not None, witness=found and found[0])


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
    a = automaton(left, cap)
    b = automaton(right, cap)
    witness = _inclusion(a, b, union_alphabet(left, right), state_budget)
    if witness is not None:
        return EquivalenceVerdict(equivalent=False, witness=witness, side="left")
    witness = _inclusion(b, a, union_alphabet(right, left), state_budget)
    if witness is not None:
        return EquivalenceVerdict(equivalent=False, witness=witness, side="right")
    return EquivalenceVerdict(equivalent=True)
