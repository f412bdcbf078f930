"""Exact semantics of counted regular expressions.

The semantic pipeline is: build the epsilon-free position automaton of the
counted tree (``glushkov``), then decide membership by subset simulation
or enumerate words breadth-first.  ``length_set`` computes the set of word
lengths directly on the tree, as an int bitset (``length_bits``): a
concatenation is a sumset spread run by run, and a counter is a power
taken by square-and-multiply, so no count is unrolled.  ``includes``
decides on the same fold when its right side fixes only lengths, so the
fold is on the decision path, and its cross-checks are the enumerated
languages of ``tests/oracle.py`` and the set-based fold of
``tests/position_oracle.py``.

The automaton has the positions of the counter-free expansion ``expand``,
where ``E{l,u}`` unrolls into l copies of E followed by the nested optional
chain ``(E (E (...)?)?)?`` of depth u-l, not a flat run of u-l copies of
``(E|%)``, so the last positions of one copy are followed only by the first
positions of the next and a non-nullable body gives O(u) transitions
instead of O(u^2) (Brueggemann-Klein, "Regular expressions into finite
automata", TCS 1993).  A nullable body E is built as E°, L(E) without
the empty word, since L(E{l,u}) = L(E°{0,u}) and L(E{l,}) = L(E°*); E°
has E's positions, first, last and follow sets but is not nullable.  So
every counted body gives O(u) transitions, and the automaton is that of
the expansion unless a nullable body has more than one copy.
``glushkov`` never builds that tree.  It makes one pass over the counted
tree, analyses each counted body once, lays its copies down by offset and
adds only the links between copies.  Its size still grows with the counts,
so it is guarded by the node cap of the expansion: one arithmetic fold,
``_expansion_sizes``, counts the expansion's nodes and positions before
anything is built, and too many nodes raise ExpansionCapExceeded up front.

The same pass, ``position_pass``, is the one position analysis: read
counter-blind, it serves the weak-unambiguity check.  A set of automaton
states is an int, bit q for state q.  The automaton keeps one label per
position and one follow mask per state, each shifted down to its lowest
member, so its storage is O(n) bytes for a chain of n positions; a subset
step is ``reach(S) & symbol_mask``.  For queries the pass makes an
alternation of distinct bare symbols, such as ``(a0|a1|...|ak)`` in the
reduction's right side, one class position entered on each of them (the
predicate-labelled state of symbolic automata: Veanes, de Halleux and
Tillmann, "Rex", ICST 2010), so its subsets are k + 1 times narrower.
An automaton of more than 64 states also keeps the links the pass adds as
data, ``Nfa.links``: rectangles, and strided families that stand for all
copies of a body at once (Chang and Paige, "From regular expressions to
DFA's using compressed NFA's", TCS 1997).  It coalesces them once built:
a run of rectangles over a nullable sequence is one chain, and every other
link a family, merged with those whose fields line up.
``Nfa.reach`` is the one subset step of membership, enumeration and every
decision: it steps dense subsets through the coalesced links, and subsets
of at most 64 states through a byte table kept on the automaton;
``Nfa.into`` reads the same links backwards.  Every tree walk here
evaluates the node tuple of ``syntax.postorder`` instead of recursing, and
that walk is remembered for the last tree, so the build, the length fold
and the unambiguity check of one tree share it.

``automaton(e, cap)`` is the one place that calls ``glushkov``, with class
positions, and every query on a tree (``member``, ``language_iter``,
``includes``, ``overlaps``, ``equivalent``) gets its automaton from there.
It remembers the last tree it built, by identity, so a run of queries on
one tree builds once.  That automaton stays in memory until the next
build: about 5 MB for ``a{0,100000}`` built under cap 1,000,000.  The
remembered build is one tuple, read and replaced whole, so threads may
share it.  Threads sharing a remembered automaton of at most 64 states
also share its byte table (see ``Nfa.reach``); each fills an entry with
the one value it can hold, so the table is filled idempotently.

Words are tuples of symbol names.  Their text form is space-separated
lexemes, with the empty word written ``%``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
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
# The most states of a narrow automaton: it steps through a byte table and
# keeps no links, and an inclusion search against it prunes its layers.
NARROW_STATES = 64

Word = tuple[str, ...]


def render_word(w: Word) -> str:
    """Serialize a word; the empty word renders as '%'."""
    return " ".join(w) if w else "%"


def parse_word(text: str) -> Word:
    """Parse a space-separated word; '%' (or empty text) is the empty word."""
    stripped = text.strip()
    if stripped in ("", "%"):
        return ()
    symbols = []
    for m in re.finditer(r"\S+", text):
        sym = m.group()
        if not is_symbol_name(sym):
            raise ExprSyntaxError(f"invalid symbol {sym!r} in word", m.start())
        symbols.append(sym)
    return tuple(symbols)


def node_count(e: Expr) -> int:
    """Number of AST nodes, counting shared subtrees once per occurrence."""
    return len(postorder(e))


# --- counter expansion -------------------------------------------------------


def _expansion_sizes(order: tuple[Expr, ...]) -> tuple[int, int]:
    """(nodes, positions) of expand(e) before flattening, from postorder(e).

    Pure arithmetic; the positions are those ``position_pass`` gives e.
    """
    done: list[tuple[int, int]] = []
    for x in order:
        t = type(x)
        if t is Rep:
            (s, p), low, high = done[-1], x.count.low, x.count.high
            if high is None:  # E{0,} and E{1,} stay; E{l,} is E^l E{0,}
                c = low + 1
                done[-1] = (1 + s, p) if low <= 1 else (2 + c * s, c * p)
            elif high == low:  # E^low, in a Concat when low > 1
                done[-1] = (s if low == 1 else 1 + low * s, low * p)
            else:  # E^low, then a chain whose innermost (E|%) has s+2 nodes
                chain = (high - low) * (s + 3) - 1  # and each outer level s+3
                done[-1] = (chain if low == 0 else 1 + low * s + chain, high * p)
        elif t is Concat or t is Alt:
            k = len(x.parts) if t is Concat else len(x.branches)
            nodes, positions = zip(*done[-k:])
            done[-k:] = [(1 + sum(nodes), sum(positions))]
        else:
            done.append((1, 1 if t is Symbol else 0))
    return done[0]


def _check_cap(order: tuple[Expr, ...], cap: int) -> int:
    """The positions of the expansion of ``order``, if it has at most ``cap`` nodes."""
    nodes, positions = _expansion_sizes(order)
    if nodes > cap:
        raise ExpansionCapExceeded(nodes, cap)
    return positions


def expand(e: Expr, cap: int = DEFAULT_EXPANSION_CAP) -> Expr:
    """Rewrite counted repetition into the counter-free fragment.

    Rules: E{l,u} becomes l copies of E followed by the nested optional
    chain (E (E (... (E|%) ...)|%)|%) of depth u-l; E{l,unbounded} becomes
    l copies of E followed by E{0,unbounded}.  The star-normal repetitions
    {0,unbounded} and {1,unbounded} survive as-is.  The language is
    preserved; the result may share subtrees.
    """
    order = postorder(e)
    _check_cap(order, cap)
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


# --- position automaton ------------------------------------------------------


def bits(x: int) -> list[int]:
    """Indexes of the set bits of ``x``, ascending, in time linear in its length."""
    out = []
    if x >> 64:  # each step of the bit loop would copy all of x
        text = bin(x)[:1:-1]  # binary digits, least significant first
        i = text.find("1")
        while i >= 0:
            out.append(i)
            i = text.find("1", i + 1)
        return out
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _mask(members) -> int:
    """The int with bit q set for each q in members."""
    if len(members) < 64:
        mask = 0
        for q in members:
            mask |= 1 << q
        return mask
    # one pass over a buffer instead of one big-int OR per member
    buf = bytearray((max(members) >> 3) + 1)
    for q in members:
        buf[q >> 3] |= 1 << (q & 7)
    return int.from_bytes(buf, "little")


Link = tuple[int, int, int, int]  # origin, width, sources, targets: see Nfa
Label = str | tuple[str, ...]  # the symbol, or symbols, a position is entered on


def _field_masks(link: Link) -> tuple[int, int, int, int, int, int]:
    """``link`` with the masks ``Nfa.reach`` tests its fields by: ``low``,
    the low w - 1 bits of each w-bit field, and ``high``, their top bits.
    ``low`` added to the low bits carries into the top bit exactly when they
    are not all zero, so one add finds the fields that meet a set; the top
    bits, shifted to the start of their fields and multiplied by the
    targets, which span less than w bits, give every hit field its targets."""
    o, w, sources, targets = link
    unit = low = 0
    if w > 1:
        fields = -(-sources.bit_length() // w)
        unit = ((1 << w * fields) - 1) // ((1 << w) - 1)  # bit 0 of each field
        low = (unit << w - 1) - unit
    return o, w, sources, targets, low, low + unit


def _top(x: int) -> int:
    return x.bit_length() - 1


def _bottom(x: int) -> int:
    return (x & -x).bit_length() - 1


def _continues(o0: int, s0: int, t0: int, o: int, s: int, t: int) -> bool:
    """True iff rectangle ``(o, s, t)`` may follow ``(o0, s0, t0)`` in a
    chain, each rectangle's sets relative to its origin: the sources nest,
    each adding only states above the last, and the targets are disjoint
    and ascending.  Nested sources share their lowest state, so both are
    compared shifted down to it."""
    b0, b = _bottom(s0), _bottom(s)
    if o0 + b0 != o + b or o + _bottom(t) <= o0 + _top(t0):
        return False
    s0 >>= b0
    return s >> b & (2 << _top(s0)) - 1 == s0


def _chain(run: list[tuple[int, int, int]]) -> tuple[int, int, int, tuple, tuple, tuple]:
    """One step entry for a run of rectangles ``(origin, sources, targets)``
    in a chain (see ``_continues``), relative to the lowest origin.

    A set meets every rectangle from the first that holds its lowest
    source hit, j, found by bisecting ``tops``, the top source of each
    rectangle, and reaches ``suffix[j]``, the union of the targets from j
    on.  Read backwards, the top target a set hits, bisected in ``parts``,
    the top target of each rectangle, names the last rectangle whose
    targets it meets, and the sources up to that rectangle's top source are
    the ones that reach the set."""
    origin = min([o for o, _, _ in run])
    run = [(s << o - origin, t << o - origin) for o, s, t in run]
    suffix = [run[-1][1]]
    for _, t in run[-2::-1]:
        suffix.append(suffix[-1] | t)
    tops, parts = zip(*[(_top(s), _top(t)) for s, t in run])
    return origin, 0, run[-1][0], tuple(suffix[::-1]), tops, parts


def _coalesce(links: tuple[Link, ...]) -> tuple:
    """The step form of ``links``: ``Nfa.links`` with rectangles in chains
    (see ``_chain``) and every other link a family, merged with the
    families of equal width and targets whose fields line up, their
    sources ORed at their offsets, so that the links of all copies of a
    body, or of every part of a concatenation, cost a few big-int
    operations per step together.  A rectangle in no chain is a family of
    one field, as wide as its sources and the span of its targets.
    Entries are the ``_field_masks`` of a family, or the ``_chain`` of a
    run of rectangles, each relative to its origin."""
    families: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    rectangles = []
    for o, w, sources, targets in links:
        if w:
            families.setdefault((w, targets, o % w), []).append((o, sources))
        else:
            rectangles.append((o, sources, targets))
    rectangles.sort(  # by absolute lowest source, top source and lowest target
        key=lambda r: (r[0] + _bottom(r[1]), r[0] + r[1].bit_length(), r[0] + _bottom(r[2]))
    )
    steps, run = [], []
    for rectangle in [*rectangles, None]:
        if run and (rectangle is None or not _continues(*run[-1], *rectangle)):
            if len(run) > 1:
                steps.append(_chain(run))
            else:
                o, s, t = run[0]
                w = max(s.bit_length(), (t >> _bottom(t)).bit_length())
                families.setdefault((w, t, o % w), []).append((o, s))
            run = []
        run.append(rectangle)
    for (w, targets, _), group in families.items():
        origin, sources = min([o for o, _ in group]), 0
        for o, s in group:
            sources |= s << o - origin
        steps.append(_field_masks((origin, w, sources, targets)))
    return tuple(steps)


@dataclass(frozen=True)
class Nfa:
    """Epsilon-free position automaton over bitmask state sets.

    State 0 is initial and states 1..n are the positions; a set of states is
    an int with bit q set for state q.  ``symbols[q-1]`` is the symbol read
    on entering position q, or a tuple of distinct symbols for a class
    position, which is entered on each of them.  The follow set of state q
    is ``follow[q] << offsets[q]``: each mask is stored shifted down to its
    lowest member, so a follow set costs bytes in proportion to its span,
    not to q, and a chain such as ``a{0,u}`` stores O(u) bits in all.  A
    step is ``reach(S) & symbol_masks[sym]``, where ``reach(S)``, the union
    of the follow sets of the states in S, is computed once for all symbols
    by the one subset step that every walk takes (see ``reach``); ``into``
    is its backward test.  No other module reads the follow storage.

    ``links``, recorded only for automata of more than 64 states, is the
    follow relation as the pass built it (Chang and Paige's compressed
    form).  A link ``(o, w, sources, targets)`` with width 0 is a
    rectangle: a set S meeting ``sources << o`` reaches ``targets << o``.
    With width w it is a strided family: for each field j, bits ``[o + j*w,
    o + (j+1)*w)``, where S meets ``sources << o``, S reaches ``targets <<
    o + j*w``; ``targets`` spans less than w bits, so all fields are spread
    by one multiply.  Read state by state, the links give the follow sets.
    ``reach`` and ``into`` step through them coalesced (``_coalesce``),
    each entry relative to its origin: the counters and the start of E1 in
    the reduction are one shift, as are the parts of a flat concatenation,
    and the rectangles between the parts of a nullable one are one chain.
    """

    symbols: tuple[Label, ...]
    offsets: tuple[int, ...]
    follow: tuple[int, ...]
    accepting: int
    links: tuple[Link, ...] = field(default=(), repr=False, compare=False)
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
        for o, w, sources, targets in self.links:
            low = (targets & -targets).bit_length() - 1
            top = o + (w and (sources.bit_length() - 1) // w * w)  # the last field
            inside = max(o + sources.bit_length(), top + targets.bit_length()) <= n
            if not inside or min(o, w, sources - 1, targets - 1, o + low - 1) < 0:
                raise ValueError("link out of range")
            if w and (targets >> low).bit_length() > w:
                raise ValueError("link targets span its width")
        # how ``reach`` steps: a narrow automaton by a table from ``chunk << 8
        # | byte`` to the follow union of that byte's states, filled on a miss
        # (at most 8 * 255 entries); a wider one by its links, coalesced
        narrow = n <= NARROW_STATES
        object.__setattr__(self, "_table", {} if narrow else None)
        object.__setattr__(self, "_links", () if narrow else _coalesce(self.links))
        entered: dict[Label, list[int]] = {}
        for q, label in enumerate(self.symbols, 1):
            entered.setdefault(label, []).append(q)
        masks = {label: _mask(qs) for label, qs in entered.items()}
        for label in [label for label in masks if type(label) is tuple]:
            mask = masks.pop(label)
            for sym in label:
                masks[sym] = masks.get(sym, 0) | mask
        object.__setattr__(self, "symbol_masks", masks)

    @property
    def state_count(self) -> int:
        return len(self.symbols) + 1

    def reach(self, states: int) -> int:
        """Union of the follow sets of ``states``: the one subset step.

        The automaton picks how.  A set of at most one state reads its
        follow set.  Up to 64 states, a set ORs one entry per nonzero byte
        from a table of the follow union of each byte at each byte position
        (the Four-Russians table of Myers, 1992), filled on a miss, as the
        bytes of subsets mostly repeat.  Above that, a set with more members
        than the automaton has coalesced links steps through them, in a few
        big-int operations per link (the bit-vector form of Le Glaunec, Kong
        and Mamouras, OOPSLA 2023; see ``_coalesce``), however many copies
        or parts a link stands for.  Any other set ORs the follow set of
        each member.
        """
        if not states & (states - 1):  # at most one state: no bit loop
            q = states.bit_length() - 1
            return self.follow[q] << self.offsets[q] if q >= 0 else 0
        table = self._table
        if table is None:  # more than NARROW_STATES states
            links = self._links
            if not links or states.bit_count() <= len(links):
                return self._members(states)
            out = 0
            for o, w, sources, targets, low, high in links:
                hit = (states >> o if o else states) & sources
                if not hit:
                    continue
                if w:  # a family: every hit field gets the targets
                    if w > 1:
                        hit = (((hit & low) + low | hit) & high) >> w - 1
                    out |= hit * targets << o
                else:  # a chain: its lowest source hit picks the targets
                    out |= targets[bisect_left(low, _bottom(hit))] << o
            return out
        out = key = 0
        while states:
            byte = states & 255
            if byte:
                got = table.get(key | byte)
                if got is None:  # the byte's states, shifted back to its chunk
                    got = table[key | byte] = self._members(byte << (key >> 5))
                out |= got
            states >>= 8
            key += 256
        return out

    def _members(self, states: int) -> int:
        """``reach`` by one OR per member of ``states``."""
        out = 0
        follow, offsets = self.follow, self.offsets
        while states:  # the loop of ``bits``, inlined: this is the hot path
            low = states & -states
            q = low.bit_length() - 1
            out |= follow[q] << offsets[q]
            states ^= low
        return out

    def into(self, states: int, targets: int) -> int:
        """The members of ``states`` whose follow set meets ``targets``.

        Above 64 states, a set with more members than the automaton has
        coalesced links reads them backwards: a family keeps the sources of
        the fields whose targets meet ``targets``, found by the carry of
        ``reach``, and a chain keeps its sources up to the top one of the
        last rectangle whose targets meet ``targets`` (see ``_chain``).  Any
        other set tests the follow set of each member.
        """
        links, out = self._links, 0
        if not links or states.bit_count() <= len(links):
            follow, offsets = self.follow, self.offsets
            while states:  # the loop of ``_members``
                low = states & -states
                q = low.bit_length() - 1
                if follow[q] << offsets[q] & targets:
                    out |= low
                states ^= low
            return out
        for o, w, sources, ends, low, high in links:
            if w:
                shift = o + _bottom(ends)
                if w > 1:  # the fields whose targets meet ``targets``
                    hit = targets >> shift & (ends >> shift - o) * (high >> w - 1)
                    if hit:
                        hit = (((hit & low) + low | hit) & high) >> w - 1
                        out |= states & (sources & hit * ((1 << w) - 1)) << o
                else:
                    out |= states & (sources & targets >> shift) << o
            else:  # a chain: the sources up to the last rectangle hit
                hit = targets >> o & ends[0]
                if hit:
                    top = low[bisect_left(high, _top(hit))]
                    out |= states & (sources & (2 << top) - 1) << o
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


# --- the position pass -------------------------------------------------------


def _tile(mask: int, width: int, count: int) -> int:
    """``count`` copies of ``mask``, copy j shifted by j * width bits."""
    out, done = 0, 0
    block, size = mask, 1  # block holds ``size`` copies
    while True:
        if count & 1:
            out |= block << done * width
            done += size
        count >>= 1
        if not count:
            return out
        block |= block << size * width
        size *= 2


def _link(offsets, follow, links, base: int, last: int, to: int, first: int) -> None:
    """Add positions ``to + i``, i in mask ``first``, to the follow set of
    each position ``base + r``, r in mask ``last``, and record that as a
    rectangle in ``links`` unless it is None; ``first`` is not 0 and ``to``
    is not below ``base``."""
    if links is not None:
        links.append((base, 0, last, first << to - base))
    low = (first & -first).bit_length() - 1
    lo, add = to + low, first >> low
    for r in bits(last):
        q = base + r
        mask = follow[q]
        if not mask:
            offsets[q], follow[q] = lo, add
        elif offsets[q] <= lo:
            follow[q] = mask | add << lo - offsets[q]
        else:
            follow[q] = add | mask << offsets[q] - lo
            offsets[q] = lo


def _copy_links(links: list[Link], base: int, m: int, copies: int) -> None:
    """Lay the links of a body of ``m`` positions at ``base`` over its copies."""
    i = len(links)
    while i and links[i - 1][0] >= base:  # the body's links end the list
        i -= 1
    body = links[i:]
    del links[i:]
    for o, w, sources, targets in body:
        if not w or m % w == 0:  # one field per copy, or fields that line up
            links.append((o, w or m, _tile(sources, m, copies), targets))
        else:
            links.extend([(o + j * m, w, sources, targets) for j in range(copies)])


def _is_class(x: Alt) -> bool:
    """True iff the branches of ``x`` are bare symbols of pairwise distinct names."""
    names = {b.name for b in x.branches if type(b) is Symbol}
    return len(names) == len(x.branches) > 1


def position_pass(
    order: tuple[Expr, ...],
    counter_blind: bool,
    record_links: bool = False,
    classes: bool = False,
) -> tuple[tuple[Label, ...], tuple[int, ...], tuple[int, ...], int, tuple[Link, ...]]:
    """The position automaton of the tree whose ``postorder`` is ``order``.

    Returns the fields of its ``Nfa``: ``(symbols, offsets, follow,
    accepting, links)``.  Positions are numbered as in the expansion, copy
    after copy in document order, and the follow masks go straight into the
    arrays.  A counted body is analysed once.  Its copies take its follow
    masks unchanged under shifted offsets, and then only the links between
    copies are added, by the rules that concatenation and the nested
    optional chain give on the expanded tree: the last positions of a copy
    are followed by the first positions of the next copy.  A nullable body
    E follows the same rule: ``E{l,u}`` is linked as ``E°{0,u}`` (see the
    module notes).  With ``counter_blind`` each repetition keeps one copy
    of its body, and its last positions are followed by its first ones
    whenever its upper bound allows a second round.  With
    ``record_links`` it also records its links (see ``Nfa``), turning a
    copied body's into families over the copies.  With ``classes`` an
    ``Alt`` of bare symbols with distinct names is one position labelled by
    the tuple of their names.  The positions it stands for have one follow
    set and lie in the same first, last and follow sets, so the automaton
    is an exact quotient of the unmerged one.
    """
    links = [] if record_links else None
    symbols: list[Label] = []
    offsets = [0]  # state 0 gets the first set at the end
    follow = [0]
    # (positions, nullable, first, last) per finished subtree; bit i of a
    # mask is the subtree's position i + 1
    done: list[tuple[int, bool, int, int]] = []
    for x in order:
        t = type(x)
        if t is Symbol:
            symbols.append(x.name)
            offsets.append(0)
            follow.append(0)
            done.append((1, False, 1, 1))
        elif t is Epsilon:
            done.append((0, True, 0, 0))
        elif t is Alt:
            k = len(x.branches)
            if classes and done[-1] == (1, False, 1, 1) and _is_class(x):
                # one position entered on each symbol: they share one follow set
                symbols[-k:] = [tuple(symbols[-k:])]
                del offsets[1 - k :], follow[1 - k :], done[1 - k :]
                continue
            size, nullable, first, last = 0, False, 0, 0
            for m, n, f, l in done[-k:]:
                nullable = nullable or n
                first |= f << size
                last |= l << size
                size += m
            done[-k:] = [(size, nullable, first, last)]
        elif t is Concat:
            k = len(x.parts)
            base = len(symbols) + 1 - sum([d[0] for d in done[-k:]])
            size, nullable, first, last = done[-k]
            for m, n, f, l in done[1 - k :]:
                if last and f:
                    # from the lowest last position: on a long run of parts
                    # that are not nullable, ``last`` is one wide bit
                    low = _bottom(last)
                    to = base + size
                    _link(offsets, follow, links, base + low, last >> low, to, f)
                if nullable:
                    first |= f << size
                last = last | l << size if n else l << size
                nullable = nullable and n
                size += m
            done[-k:] = [(size, nullable, first, last)]
        else:
            m, n, f, l = done[-1]
            if not m:  # a body of empty words only
                continue
            low, high = x.count.low, x.count.high
            if counter_blind:
                copies, loop = 1, high is None or high >= 2
            elif high is None:  # E{0,}, E{1,} or E^low E{0,}
                copies, loop = (low + 1 if low >= 2 else 1), True
            else:  # E^low and the nested optional chain of high - low copies
                copies, loop = high, False
            if n:  # E{l,u} is E°{0,u}, and E° has E's sets but is not nullable
                low = 0
            base = len(symbols) + 1 - m
            if copies > 1:
                if links is not None:
                    _copy_links(links, base, m, copies)
                    # one family for every copy but the last
                    links.append((base, m, _tile(l, m, copies - 1), f << m))
                body = offsets[base:]
                symbols.extend(symbols[base - 1 :] * (copies - 1))
                follow.extend(follow[base:] * (copies - 1))
                shifts = range(m, copies * m, m)
                offsets.extend([o and o + s for s in shifts for o in body])
                _link(offsets, follow, None, base, l, base + m, f)
                # every copy but the last links to its successor alike
                for r in bits(l):
                    q = base + r
                    o, stop = offsets[q], q + (copies - 1) * m
                    offsets[q + m : stop : m] = range(o + m, o + stop - q, m)
                    follow[q + m : stop : m] = [follow[q]] * (copies - 2)
            if loop:
                last_copy = base + (copies - 1) * m
                _link(offsets, follow, links, last_copy, l, last_copy, f)
            # a word may end in copy max(low, 1) or a later one
            skip = min(max(low, 1), copies) - 1
            done[-1] = (copies * m, low == 0, f, _tile(l, m, copies - skip) << skip * m)
    _, nullable, first, last = done[0]
    if first:
        low = (first & -first).bit_length() - 1
        offsets[0], follow[0] = 1 + low, first >> low
        if links is not None:
            links.append((0, 0, 1, first << 1))
    fields = tuple(symbols), tuple(offsets), tuple(follow), last << 1 | nullable
    return *fields, tuple(links or ())


def glushkov(
    e: Expr, cap: int = DEFAULT_EXPANSION_CAP, *, classes: bool = False
) -> Nfa:
    """Position automaton of ``e`` under counter expansion, built without it.

    The result equals ``glushkov(expand(e, cap))`` unless a nullable
    counted body has more than one copy: built as its non-empty part (see
    the module notes), it keeps the positions, symbols, accepting set and
    language, but its first and follow sets shrink.
    Raises ExpansionCapExceeded exactly when ``expand(e, cap)`` would,
    before anything is built.  The positions counted with the nodes decide
    whether the pass records links, and the automaton keeps them,
    ``Nfa.links``, when it has more than 64 states.

    With ``classes`` each alternation of distinct bare symbols is one
    position (see ``position_pass``), so the automaton may have fewer
    states than the expansion has positions, and then keeps no links; the
    cap still counts the nodes of the expansion.  Splitting each class
    position into one position per symbol gives the default build, which
    keeps one position per symbol occurrence, because callers read its
    position numbers back.
    """
    order = postorder(e)
    positions = _check_cap(order, cap)
    *fields, links = position_pass(order, False, positions + 1 > NARROW_STATES, classes)
    return Nfa(*fields, links if len(fields[0]) + 1 > NARROW_STATES else ())


# The tree, cap and automaton of the last successful ``automaton`` build.
_last: tuple[Expr, int, Nfa] | None = None


def automaton(e: Expr, cap: int = DEFAULT_EXPANSION_CAP) -> Nfa:
    """``glushkov(e, cap, classes=True)``, remembered for the last tree built.

    This is the one place that builds automata for queries.  The last tree built is
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
    nfa = glushkov(e, cap, classes=True)
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
    word_limit: int = DEFAULT_WORD_LIMIT,
):
    """Yield the words of L(e) with length <= max_len.

    Order is length first, then lexicographic by the first-occurrence order
    of the expression's alphabet.  The words yielded and the prefixes
    pending for the next length are each charged against ``word_limit``:
    exceeding it raises ResultTooLarge.
    """
    nfa = automaton(e, cap)
    steps = [(sym, nfa.symbol_masks.get(sym, 0)) for sym in alphabet_of(e)]
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


def _sumset(a: int, b: int, full: int) -> int:
    """The sums of lengths in ``a`` and ``b``, bitsets with bit i for length
    i, truncated by ``full``.  Each run of the operand with fewer runs
    spreads the other over its width in O(log width) shifts."""
    if not a & (a - 1):  # no length, or one: a shift
        return b << a.bit_length() - 1 & full if a else 0
    if not b & (b - 1):
        return a << b.bit_length() - 1 & full if b else 0
    starts_a, starts_b = a & ~(a << 1), b & ~(b << 1)
    if starts_a.bit_count() > starts_b.bit_count():
        a, b, starts_a = b, a, starts_b
    out = 0
    for lo, hi in zip(bits(starts_a), bits(a & ~(a >> 1))):
        spread, width = b, 1  # b shifted by 0 .. width - 1
        while width <= hi - lo:
            shift = min(width, hi - lo + 1 - width)
            spread |= spread << shift
            width += shift
        out |= spread << lo
    return out & full


def _power(s: int, k: int, full: int, out: int = 1) -> int:
    """``out`` plus k copies of ``s``, summed by square-and-multiply.  A
    square equal to its base is a fixed point, s^j = s for every j >= 1, so
    a huge k costs no more squarings than the cutoff's bit length."""
    while k:
        if k & 1:
            out = _sumset(out, s, full)
        k >>= 1
        if not k:
            return out
        square = _sumset(s, s, full)
        if square == s:
            return _sumset(out, s, full)
        s = square
    return out


def length_bits(order: tuple[Expr, ...], cutoff: int) -> tuple[int, int]:
    """The word lengths up to ``cutoff`` of the tree whose ``postorder`` is
    ``order``, as a bitset with bit i for length i, and a bound that exceeds
    ``cutoff`` exactly when a word does: the longest word's length, clipped
    to ``cutoff + 1`` at each repetition.

    A concatenation is a sumset, and ``E{l,u}`` is ``s^l (1|s)^(u-l)``
    for the lengths s of E; ``E{l,}`` takes u - l = cutoff, as no sum
    of more than ``cutoff`` nonzero lengths stays within it.
    """
    full, over = (1 << cutoff + 1) - 1, cutoff + 1
    one = 2 & full
    done: list[tuple[int, int]] = []  # (lengths, longest) per subtree
    for x in order:
        t = type(x)
        if t is Symbol:
            done.append((one, 1))
        elif t is Epsilon:
            done.append((1, 0))
        elif t is Alt:
            k = len(x.branches)
            lengths = longest = 0
            for s, m in done[-k:]:
                lengths |= s
                if m > longest:
                    longest = m
            done[-k:] = [(lengths, longest)]
        elif t is Concat:
            k = len(x.parts)
            lengths, longest = done[-k]
            for s, m in done[1 - k :]:
                lengths = _sumset(lengths, s, full)
                longest += m
            done[-k:] = [(lengths, longest)]
        else:
            s, m = done[-1]
            low, high = x.count.low, x.count.high
            extra = cutoff if high is None else high - low
            lengths = _power(s | 1, extra, full, _power(s, low, full))
            longest = min(m * (over if high is None else high), over)
            done[-1] = (lengths, longest)
    return done[0]


def length_set(e: Expr, cutoff: int) -> LengthSet:
    """Lengths of words of L(e) up to ``cutoff``, computed structurally."""
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    lengths, longest = length_bits(postorder(e), cutoff)
    return LengthSet(frozenset(bits(lengths)), longest > cutoff)
