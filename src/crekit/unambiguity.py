"""Weak (counter-blind) unambiguity of counted regular expressions.

A counted expression is weakly unambiguous when no input symbol can ever
match two distinct marked positions: the first set and every follow set
contain at most one position per symbol.  Occurrence indicators are
counter-blind here -- iterating a repetition and exiting it are both always
considered possible whenever the upper bound allows a second round, so
counter values never disambiguate.

The fast path: an expression in which every alphabet symbol occurs exactly
once can have no two positions with the same symbol anywhere, hence is
unambiguous outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import positions
from .syntax import Expr, Symbol, postorder

FIRST_SET = "first-set"
FOLLOW_SET = "follow-set"


@dataclass(frozen=True)
class Conflict:
    """Two positions of the same symbol competing in one first/follow set."""

    symbol: str
    positions: tuple[int, int]
    locus_kind: str  # FIRST_SET or FOLLOW_SET
    locus_position: int | None = None  # set for FOLLOW_SET conflicts

    def describe(self) -> str:
        where = (
            "first-set"
            if self.locus_kind == FIRST_SET
            else f"follow-set of position {self.locus_position}"
        )
        a, b = self.positions
        return f"symbol {self.symbol!r} at positions {a} and {b} in the {where}"


@dataclass(frozen=True)
class UnambiguityVerdict:
    unambiguous: bool
    conflict: Conflict | None = None

    def __post_init__(self):
        if self.unambiguous == (self.conflict is not None):
            raise ValueError("conflict must be present exactly when ambiguous")


def is_single_occurrence(e: Expr) -> bool:
    """True iff every alphabet symbol occurs exactly once in ``e``."""
    names = [x.name for x in postorder(e) if type(x) is Symbol]
    return len(names) == len(set(names))


def _set_conflict(members, symbols) -> tuple[int, int, str] | None:
    """Smallest same-symbol position pair within one set, or None."""
    by_symbol: dict[str, list[int]] = {}
    for p in sorted(members):
        by_symbol.setdefault(symbols[p - 1], []).append(p)
    best: tuple[int, int, str] | None = None
    for sym, ps in by_symbol.items():
        if len(ps) >= 2:
            pair = (ps[0], ps[1], sym)
            if best is None or pair[:2] < best[:2]:
                best = pair
    return best


def check_unambiguous(e: Expr) -> UnambiguityVerdict:
    """Decide weak unambiguity; on failure report the first conflict.

    Conflicts are searched in document order: the first set, then the
    follow set of each position in increasing order; within a set the
    smallest position pair wins.
    """
    if is_single_occurrence(e):
        return UnambiguityVerdict(unambiguous=True)
    sets = positions(e, counter_blind=True)
    for p, succ in enumerate(sets.follow):
        hit = _set_conflict(succ, sets.symbols)
        if hit is not None:
            a, b, sym = hit
            if p == 0:
                conflict = Conflict(sym, (a, b), FIRST_SET)
            else:
                conflict = Conflict(sym, (a, b), FOLLOW_SET, locus_position=p)
            return UnambiguityVerdict(unambiguous=False, conflict=conflict)
    return UnambiguityVerdict(unambiguous=True)
