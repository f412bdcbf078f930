"""Set-based references for the position analysis and the length fold.

``positions_reference`` is the position analysis with one Python set per
position, and ``first_conflict_reference`` searches its counter-blind sets
for the conflict ``check_unambiguous`` reports.  ``length_set_reference``
folds word lengths on Python sets, one copy of a repeated body at a time.
None shares code with the mask-based ``crekit.engine`` functions they
check (``position_pass`` and ``length_bits``): this module imports nothing
from ``crekit.engine``, and ``tests/test_one_build.py`` keeps it so.  They
live apart from ``oracle.py``, which the benchmark loads at every set-up.
"""

from dataclasses import dataclass

from crekit.syntax import Alt, Concat, Epsilon, Rep, Symbol, postorder
from crekit.unambiguity import FIRST_SET, FOLLOW_SET, Conflict


@dataclass(frozen=True)
class Positions:
    """Position analysis of an expression, as sets.

    Positions are the symbol occurrences, numbered 1..n in document order.
    ``follow[p]`` is the set of positions that may follow position p, and
    ``follow[0]`` is the first set: the successors of the initial state.
    """

    symbols: tuple[str, ...]  # symbols[p-1] is the symbol at position p
    nullable: bool
    last: set[int]
    follow: tuple[set[int], ...]

    @property
    def first(self) -> set[int]:
        return self.follow[0]


def _merge(a, b):
    # Union into the larger of two sets that no one else holds; merging small
    # into large keeps the growing last sets of a nested chain linear.
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def positions_reference(e, *, counter_blind=False):
    """Nullable, first, last and follow sets of ``e``, one set per position.

    The set-based position analysis that ``crekit.engine`` used before it
    built automata on masks.  A repetition adds the iteration pairs last x
    first when it is unbounded, or with ``counter_blind`` whenever its upper
    bound allows a second round.  Without ``counter_blind``, ``e`` must use
    only the ranges {0,1}, {0,unbounded} and {1,unbounded}.
    """
    symbols = []
    follow = [set()]  # follow[0] is set to the first set below
    done = []  # (nullable, first, last)
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
            if not counter_blind and (low, high) not in ((0, 1), (0, None), (1, None)):
                raise ValueError(f"needs expanded input, found {x.count.render()}")
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
    return Positions(
        symbols=tuple(symbols), nullable=nullable, last=last, follow=tuple(follow)
    )


def _set_conflict(members, symbols):
    """Smallest same-symbol position pair within one set, or None."""
    by_symbol = {}
    for p in sorted(members):
        by_symbol.setdefault(symbols[p - 1], []).append(p)
    best = None
    for sym, ps in by_symbol.items():
        if len(ps) >= 2:
            pair = (ps[0], ps[1], sym)
            if best is None or pair[:2] < best[:2]:
                best = pair
    return best


def first_conflict_reference(e):
    """The conflict ``check_unambiguous`` reports for ``e``, or None.

    Searches the counter-blind sets of ``positions_reference``: the first
    set, then each follow set in position order; within a set the smallest
    same-symbol pair wins.
    """
    sets = positions_reference(e, counter_blind=True)
    for p, succ in enumerate(sets.follow):
        hit = _set_conflict(succ, sets.symbols)
        if hit is not None:
            a, b, sym = hit
            if p == 0:
                return Conflict(sym, (a, b), FIRST_SET)
            return Conflict(sym, (a, b), FOLLOW_SET, locus_position=p)
    return None


def _trunc_sumset(a, b, cutoff):
    out = set()
    dropped = False
    for x in a:
        for y in b:
            if x + y <= cutoff:
                out.add(x + y)
            else:
                dropped = True
    return out, dropped


def _rep_lengths(s, low, high, cutoff):
    dropped = False
    fold = {0}  # lengths using exactly i copies, i advancing below
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


def length_set_reference(e, cutoff):
    """``(lengths, saturated)`` of ``e`` up to ``cutoff``, as ``length_set``
    gives them: the set-based fold it used before length bitsets, which adds
    one copy of a repeated body at a time."""
    done = []  # (lengths, saturated) per subtree
    for x in postorder(e):
        t = type(x)
        if t is Symbol:
            done.append(({1}, False))
        elif t is Epsilon:
            done.append(({0}, False))
        elif t is Alt:
            k = len(x.branches)
            members, saturated = set(), False
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
    return frozenset(members), saturated
