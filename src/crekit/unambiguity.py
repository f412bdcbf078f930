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

from .engine import position_pass
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


def _single_occurrence(order: tuple[Expr, ...]) -> bool:
    names = [x.name for x in order if type(x) is Symbol]
    return len(names) == len(set(names))


def is_single_occurrence(e: Expr) -> bool:
    """True iff every alphabet symbol occurs exactly once in ``e``."""
    return _single_occurrence(postorder(e))


def check_unambiguous(e: Expr) -> UnambiguityVerdict:
    """Decide weak unambiguity; on failure report the first conflict.

    Conflicts are searched in document order: the first set, then the
    follow set of each position in increasing order; within a set the
    smallest position pair wins.  A set meets a symbol in the AND of its
    mask with the symbol's mask, and the two lowest bits of that are the
    symbol's smallest pair.
    """
    order = postorder(e)
    if _single_occurrence(order):
        return UnambiguityVerdict(unambiguous=True)
    symbols, offsets, follow, _, _ = position_pass(order, counter_blind=True)
    masks: dict[str, int] = {}
    for q, sym in enumerate(symbols, 1):
        masks[sym] = masks.get(sym, 0) | 1 << q
    # a symbol that occurs once cannot conflict
    shared = [(s, m) for s, m in masks.items() if m & (m - 1)]
    for locus, (offset, mask) in enumerate(zip(offsets, follow)):
        if not mask & (mask - 1):
            continue
        succ = mask << offset
        best = None
        for sym, sym_mask in shared:
            hit = succ & sym_mask
            if hit & (hit - 1):
                a = hit & -hit
                b = hit ^ a
                pair = ((a.bit_length() - 1, (b & -b).bit_length() - 1), sym)
                if best is None or pair < best:
                    best = pair
        if best is not None:
            (a, b), sym = best
            if locus == 0:
                conflict = Conflict(sym, (a, b), FIRST_SET)
            else:
                conflict = Conflict(sym, (a, b), FOLLOW_SET, locus_position=locus)
            return UnambiguityVerdict(unambiguous=False, conflict=conflict)
    return UnambiguityVerdict(unambiguous=True)
