"""Exact semantics of counted regular expressions.

The semantic pipeline is: rewrite occurrence indicators into the
counter-free fragment (``expand``), build the epsilon-free position
automaton (``glushkov``), then decide membership by subset simulation or
enumerate words breadth-first.  ``length_set`` computes the set of word
lengths directly on the *unexpanded* tree, which both avoids the unary
blowup and gives an independent cross-check of the automaton path.

Counter expansion is unary, so it is guarded by an explicit node cap:
exceeding the cap raises ExpansionCapExceeded up front (the required size
is computed arithmetically before anything is built), never silently
truncates.  ``E{l,u}`` unrolls into l copies of E followed by the nested
optional chain ``(E (E (...)?)?)?`` of depth u-l, not a flat run of u-l
copies of ``(E|%)``: the last positions of one copy are then followed only
by the first positions of the next, so the position automaton has O(u)
transitions instead of O(u^2) (Brueggemann-Klein, "Regular expressions
into finite automata", TCS 1993).  Expanded trees are therefore as deep as
they are long, and every tree walk here runs on ``syntax.postorder``
instead of recursion.

``positions`` is the one position analysis: ``glushkov`` builds the
automaton from it, and the weak-unambiguity check runs it counter-blind on
the unexpanded tree.  A set of automaton states is an int, bit q for state
q.  The automaton keeps one symbol per position and one follow mask per
state, each shifted down to its lowest member, so its storage is O(n) bytes
for a chain of n positions; a subset step is ``reach(S) & symbol_mask``
(Chang and Paige, "From regular expressions to DFA's using compressed
NFA's", TCS 1997).

``automaton(e, cap)`` is the one place that runs ``glushkov(expand(e, cap))``,
and every query on a tree (``member``, ``language_iter``, ``includes``,
``overlaps``, ``equivalent``) gets its automaton from there.  It remembers
the last tree it built, by identity, so a run of queries on one tree builds
once.  That automaton stays in memory until the next build: about 5 MB for
``a{0,100000}`` built under cap 1,000,000.  The remembered build is one
tuple, read and replaced whole, so threads may share it.

Words are tuples of symbol names.  Their text form is space-separated
lexemes, with the empty word written ``%``.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from .errors import ExpansionCapExceeded, ExprSyntaxError, ResultTooLarge
from .syntax import (
    EPSILON,
    Alt,
    Concat,
    CountRange,
    Epsilon,
    Expr,
    Rep,
    Symbol,
    alphabet_of,
    alt,
    concat,
    is_symbol_name,
    postorder,
)

DEFAULT_EXPANSION_CAP = 100_000
DEFAULT_WORD_LIMIT = 100_000

Word = tuple[str, ...]


def render_word(w: Word) -> str:
    """Serialize a word; the empty word renders as '%'."""
    return " ".join(w) if w else "%"


def parse_word(text: str) -> Word:
    """Parse a space-separated word; '%' (or empty text) is the empty word."""
    stripped = text.strip()
    if stripped in ("", "%"):
        return ()
    symbols = tuple(stripped.split())
    for sym in symbols:
        if not is_symbol_name(sym):
            raise ExprSyntaxError(f"invalid symbol {sym!r} in word", text.index(sym))
    return symbols


def node_count(e: Expr) -> int:
    """Number of AST nodes, counting shared subtrees once per occurrence."""
    return len(postorder(e))


# --- counter expansion -------------------------------------------------------


def _unrolled_size(s: int, count: CountRange) -> int:
    """Node count of _unroll(inner, count) before flattening; inner has s nodes."""
    low, high = count.low, count.high
    if high is None:
        return 1 + s if low <= 1 else 1 + low * s + (1 + s)
    if high == low:
        return s if low == 1 else 1 + low * s
    # the innermost optional level (E|%) has s+2 nodes, each outer one s+3
    chain = (high - low) * (s + 3) - 1
    return chain if low == 0 else 1 + low * s + chain


def _expansion_size(order: list[Expr]) -> int:
    """Node count of expand(e) before flattening, from postorder(e); pure arithmetic."""
    sizes: list[int] = []
    for x in order:
        t = type(x)
        if t is Rep:
            sizes[-1] = _unrolled_size(sizes[-1], x.count)
        elif t is Concat or t is Alt:
            k = len(x.parts) if t is Concat else len(x.branches)
            sizes[-k:] = [1 + sum(sizes[-k:])]
        else:
            sizes.append(1)
    return sizes[0]


def expand(e: Expr, cap: int = DEFAULT_EXPANSION_CAP) -> Expr:
    """Rewrite counted repetition into the counter-free fragment.

    Rules: E{l,u} becomes l copies of E followed by the nested optional
    chain (E (E (... (E|%) ...)|%)|%) of depth u-l; E{l,unbounded} becomes
    l copies of E followed by E{0,unbounded}.  The star-normal repetitions
    {0,unbounded} and {1,unbounded} survive as-is.  The language is
    preserved; the result may share subtrees.
    """
    order = postorder(e)
    required = _expansion_size(order)
    if required > cap:
        raise ExpansionCapExceeded(required, cap)
    out: list[Expr] = []
    for x in order:
        t = type(x)
        if t is Concat:
            k = len(x.parts)
            out[-k:] = [concat(out[-k:])]
        elif t is Alt:
            k = len(x.branches)
            out[-k:] = [alt(out[-k:])]
        elif t is Rep:
            out[-1] = _unroll(out[-1], x.count)
        else:
            out.append(x)
    return out[0]


def _unroll(inner: Expr, count: CountRange) -> Expr:
    low, high = count.low, count.high
    if high is None:
        if low <= 1:
            return Rep(inner, count)
        return concat([inner] * low + [Rep(inner, CountRange(0, None))])
    # Nested rather than flat, so that the last positions of one copy are
    # followed only by the next copy: O(u) transitions instead of O(u^2).
    chain: list[Expr] = []
    if high > low:
        tail = alt([inner, EPSILON])
        for _ in range(high - low - 1):
            tail = alt([concat([inner, tail]), EPSILON])
        chain.append(tail)
    return concat([inner] * low + chain)


# --- position analysis -------------------------------------------------------


@dataclass(frozen=True)
class Positions:
    """Position analysis of an expression.

    Positions are the symbol occurrences, numbered 1..n in document order.
    ``follow[p]`` is the set of positions that may follow position p, and
    ``follow[0]`` is the first set: the successors of the initial state.
    The sets are the analysis's own working sets, each a distinct object;
    callers read them and must not change them.
    """

    symbols: tuple[str, ...]  # symbols[p-1] is the symbol at position p
    nullable: bool
    last: AbstractSet[int]
    follow: tuple[AbstractSet[int], ...]

    @property
    def first(self) -> AbstractSet[int]:
        return self.follow[0]


_STAR_RANGES = ((0, 1), (0, None), (1, None))


def _merge(a: set[int], b: set[int]) -> set[int]:
    # Union into the larger of two sets that no one else holds; merging small
    # into large keeps the growing last sets of a nested chain linear.
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def positions(e: Expr, *, counter_blind: bool = False) -> Positions:
    """Nullable, first, last and follow sets of ``e``, in one iterative pass.

    A repetition adds the iteration pairs last x first when it is
    unbounded.  By default only the ranges {0,1}, {0,unbounded} and
    {1,unbounded} are accepted; any other must be expanded first.  With
    ``counter_blind`` every range is accepted, and a repetition also adds
    the iteration pairs whenever its upper bound allows a second round, so
    counter values never disambiguate.
    """
    symbols: list[str] = []
    follow: list[set[int]] = [set()]  # follow[0] is set to the first set below
    done: list[tuple[bool, set[int], set[int]]] = []  # (nullable, first, last)
    for x in postorder(e):
        t = type(x)
        if t is Symbol:
            symbols.append(x.name)
            follow.append(set())
            p = len(symbols)
            done.append((False, {p}, {p}))
        elif t is Epsilon:
            done.append((True, set(), set()))
        elif t is Rep:
            low, high = x.count.low, x.count.high
            if not counter_blind and (low, high) not in _STAR_RANGES:
                raise ValueError(
                    f"glushkov needs expanded input, found {x.count.render()}"
                )
            n, f, l = done[-1]
            if high is None or (counter_blind and high >= 2):
                for p in l:
                    follow[p] |= f
            done[-1] = (n or low == 0, f, l)
        elif t is Alt:
            k = len(x.branches)
            nullable, first, last = done[-k]
            for n, f, l in done[1 - k :]:
                nullable, first, last = nullable or n, _merge(first, f), _merge(last, l)
            done[-k:] = [(nullable, first, last)]
        else:
            k = len(x.parts)
            nullable, first, last = done[-k]
            for n, f, l in done[1 - k :]:
                for p in last:
                    follow[p] |= f
                if nullable:
                    first = _merge(first, f)
                last = _merge(last, l) if n else l
                nullable = nullable and n
            done[-k:] = [(nullable, first, last)]
    nullable, follow[0], last = done[0]
    # The working sets are returned as they are: no two of them are one object.
    return Positions(
        symbols=tuple(symbols), nullable=nullable, last=last, follow=tuple(follow)
    )


# --- position automaton ------------------------------------------------------


def bits(x: int):
    """Indexes of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _mask(members, offset: int = 0) -> int:
    """The int with bit q - offset set for each q in members."""
    if len(members) < 64:
        mask = 0
        for q in members:
            mask |= 1 << (q - offset)
        return mask
    # one pass over a buffer instead of one big-int OR per member
    buf = bytearray(((max(members) - offset) >> 3) + 1)
    for q in members:
        q -= offset
        buf[q >> 3] |= 1 << (q & 7)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class Nfa:
    """Epsilon-free position automaton over bitmask state sets.

    State 0 is initial and states 1..n are the positions; a set of states is
    an int with bit q set for state q.  ``symbols[q-1]`` is the symbol read
    on entering position q.  The follow set of state q is
    ``follow[q] << offsets[q]``: each mask is stored shifted down to its
    lowest member, so a follow set costs bytes in proportion to its span,
    not to q, and a chain such as ``a{0,u}`` stores O(u) bits in all.  A
    step is ``reach(S) & symbol_masks[sym]``, where ``reach(S)`` is the union
    of the follow sets of the states in S, computed once for all symbols.
    """

    symbols: tuple[str, ...]
    offsets: tuple[int, ...]
    follow: tuple[int, ...]
    accepting: int
    # symbol -> the set of states entered on it
    symbol_masks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.symbols) + 1
        if len(self.offsets) != n or len(self.follow) != n:
            raise ValueError("need one follow set per state")
        for offset, mask in zip(self.offsets, self.follow):
            if mask < 0 or (mask and (offset < 1 or offset + mask.bit_length() > n)):
                raise ValueError("follow state out of range")
        if not 0 <= self.accepting < 1 << n:
            raise ValueError("accepting state out of range")
        entered: dict[str, list[int]] = {}
        for q, sym in enumerate(self.symbols, 1):
            entered.setdefault(sym, []).append(q)
        masks = {sym: _mask(qs) for sym, qs in entered.items()}
        object.__setattr__(self, "symbol_masks", masks)

    @property
    def state_count(self) -> int:
        return len(self.symbols) + 1

    def reach(self, states: int) -> int:
        """Union of the follow sets of ``states``."""
        if not states & (states - 1):  # at most one state: no bit loop
            q = states.bit_length() - 1
            return self.follow[q] << self.offsets[q] if q >= 0 else 0
        out = 0
        follow, offsets = self.follow, self.offsets
        while states:  # the loop of ``bits``, inlined: this is the hot path
            low = states & -states
            q = low.bit_length() - 1
            out |= follow[q] << offsets[q]
            states ^= low
        return out

    def step(self, states, symbol: str) -> frozenset[int]:
        """Successors of an iterable of states on ``symbol``, as a set."""
        mask = 0
        for q in states:
            mask |= 1 << q
        return frozenset(bits(self.reach(mask) & self.symbol_masks.get(symbol, 0)))

    def accepts(self, word: Word) -> bool:
        current = 1  # the initial state 0
        masks = self.symbol_masks
        for sym in word:
            current = self.reach(current) & masks.get(sym, 0)
            if not current:
                return False
        return bool(current & self.accepting)


def glushkov(e: Expr) -> Nfa:
    """Position automaton of a counter-free expression.

    Accepts the classic operator ranges {0,1}, {0,unbounded} and
    {1,unbounded}; any other occurrence indicator must be expanded first.
    """
    sets = positions(e)
    offsets = tuple([min(s) if s else 0 for s in sets.follow])
    return Nfa(
        symbols=sets.symbols,
        offsets=offsets,
        follow=tuple(map(_mask, sets.follow, offsets)),
        accepting=_mask(sets.last) | sets.nullable,
    )


# The tree, cap and automaton of the last successful ``automaton`` build.
_last: tuple[Expr, int, Nfa] | None = None


def automaton(e: Expr, cap: int = DEFAULT_EXPANSION_CAP) -> Nfa:
    """The position automaton of ``e`` after counter expansion under ``cap``.

    This is the one place that builds automata.  The last tree built is
    remembered, so the queries that follow on the same tree share one
    automaton.  Trees are compared by identity: the generated ``==`` and
    ``hash`` of the nodes recurse, and a parsed tree may nest thousands of
    levels deep.  A remembered build is reused under any cap at least as
    large; a smaller cap rebuilds, so it raises ExpansionCapExceeded exactly
    as a first build would.
    """
    global _last
    last = _last
    if last is not None and last[0] is e and cap >= last[1]:
        return last[2]
    _last = None  # let the old automaton go before building the next one
    nfa = glushkov(expand(e, cap))
    _last = (e, cap, nfa)
    return nfa


# --- membership and enumeration ----------------------------------------------


def member(e: Expr, word: Word, *, cap: int = DEFAULT_EXPANSION_CAP) -> bool:
    """True iff ``word`` belongs to the language of ``e``."""
    return automaton(e, cap).accepts(tuple(word))


def language_iter(
    e: Expr,
    max_len: int,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    symbol_order=None,
    word_limit: int = DEFAULT_WORD_LIMIT,
):
    """Yield the words of L(e) with length <= max_len.

    Order is length first, then lexicographic by ``symbol_order`` (default:
    first-occurrence order of the expression's alphabet).  The words
    yielded and the prefixes pending for the next length are each charged
    against ``word_limit``: exceeding it raises ResultTooLarge.
    """
    nfa = automaton(e, cap)
    syms = tuple(symbol_order) if symbol_order is not None else tuple(alphabet_of(e))
    steps = [(sym, nfa.symbol_masks.get(sym, 0)) for sym in syms]
    accepting = nfa.accepting
    yielded = 0
    if accepting & 1:
        yielded += 1
        yield ()
    frontier: list[tuple[Word, int]] = [((), 1)]
    for length in range(1, max_len + 1):
        last_round = length == max_len
        nxt: list[tuple[Word, int]] = []
        for word, states in frontier:
            reach = nfa.reach(states)
            for sym, mask in steps:
                reached = reach & mask
                if not reached:
                    continue
                extended = word + (sym,)
                if reached & accepting:
                    yielded += 1
                    if yielded > word_limit:
                        raise ResultTooLarge(word_limit)
                    yield extended
                if not last_round:
                    nxt.append((extended, reached))
                    if len(nxt) > word_limit:
                        raise ResultTooLarge(word_limit)
        if not nxt:
            return
        frontier = nxt


def enumerate_words(
    e: Expr,
    max_len: int,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    word_limit: int = DEFAULT_WORD_LIMIT,
) -> list[Word]:
    """All words of L(e) with length <= max_len, in length-then-lex order.

    Raises ResultTooLarge when more than ``word_limit`` words, or more than
    ``word_limit`` pending prefixes of one length, would be kept.
    """
    return list(language_iter(e, max_len, cap=cap, word_limit=word_limit))


# --- length sets ---------------------------------------------------------------


@dataclass(frozen=True)
class LengthSet:
    """Word lengths of a language within [0, cutoff].

    ``saturated`` is True exactly when the language also has words longer
    than the cutoff.
    """

    members: frozenset[int]
    saturated: bool


def _trunc_sumset(a: set[int], b: set[int], cutoff: int) -> tuple[set[int], bool]:
    out: set[int] = set()
    dropped = False
    for x in a:
        for y in b:
            if x + y <= cutoff:
                out.add(x + y)
            else:
                dropped = True
    return out, dropped


def _rep_lengths(
    s: set[int], low: int, high: int | None, cutoff: int
) -> tuple[set[int], bool]:
    dropped = False
    fold: set[int] = {0}  # lengths using exactly i copies, i advancing below
    for _ in range(low):
        fold, d = _trunc_sumset(fold, s, cutoff)
        dropped = dropped or d
        if not fold:
            break
    result = set(fold)
    copies = low
    while fold and (high is None or copies < high):
        fold, d = _trunc_sumset(fold, s, cutoff)
        dropped = dropped or d
        copies += 1
        new = fold - result
        if not new:
            # every later level stays inside result, with no further drops
            break
        result |= new
    return result, dropped


def length_set(e: Expr, cutoff: int) -> LengthSet:
    """Lengths of words of L(e) up to ``cutoff``, computed structurally."""
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    done: list[tuple[set[int], bool]] = []  # (lengths, saturated) per subtree
    for x in postorder(e):
        t = type(x)
        if t is Symbol:
            done.append(({1}, False))
        elif t is Epsilon:
            done.append(({0}, False))
        elif t is Alt:
            k = len(x.branches)
            members: set[int] = set()
            saturated = False
            for m, sat in done[-k:]:
                members |= m
                saturated = saturated or sat
            done[-k:] = [(members, saturated)]
        elif t is Concat:
            k = len(x.parts)
            members, saturated = {0}, False
            for m, sat in done[-k:]:
                members, dropped = _trunc_sumset(members, m, cutoff)
                saturated = saturated or sat or dropped
            done[-k:] = [(members, saturated)]
        else:
            m, sat = done[-1]
            members, dropped = _rep_lengths(m, x.count.low, x.count.high, cutoff)
            done[-1] = (members, sat or dropped)
    members, saturated = done[0]
    return LengthSet(frozenset(members), saturated)
