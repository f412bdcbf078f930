"""The in-layer prune of inclusion searches whose right side is narrow.

``decision._inclusion`` prunes the search when the right automaton has at
most 64 states.  When a goal is met after a drop, the word spelled on the
pruned layers stands unless one departure search finds a goal of the same
length left of it, and only then is the search run unpruned.  The family
``(a|b)* a (a|b){k}`` against ``(a|b)* (a|c) (a|b){k}`` keeps every right
subset unpruned (``2**(k+1)`` keys), so its queries fit a budget of 1,000
pairs only when subsumed pairs are dropped and the converse's witness
``c a^k`` is spelled without an unpruned search; its answers come from
``tests/oracle.py``.  A right side over 64 states keeps the single
unpruned search.
"""

import random

import pytest

from conftest import random_expr
from crekit import decision
from crekit.decision import equivalent, includes
from crekit.engine import automaton
from crekit.errors import StateBudgetExceeded
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import parse_expr
from oracle import includes_reference


def _family(k: int):
    narrow = parse_expr(f"(a|b)* a (a|b){{{k}}}")
    wide = parse_expr(f"(a|b)* (a|c) (a|b){{{k}}}")
    split = parse_expr(f"(a|b)* a (a|b){{{k - 1}}} (a|b)")
    return narrow, wide, split


@pytest.mark.parametrize("k", [16, 25])
def test_holding_family_fits_a_small_budget(k, searches):
    narrow, wide, split = _family(k)
    assert includes(narrow, wide, state_budget=1_000).holds
    assert equivalent(narrow, split, state_budget=1_000).equivalent
    assert searches == ["pruned"] * 3  # no goal, so no departure search


@pytest.mark.parametrize("k", [16, 25])
def test_failing_family_fits_a_small_budget(k):
    narrow, wide, _ = _family(k)
    want = ("c",) + ("a",) * k
    assert includes(wide, narrow, state_budget=1_000).witness == want
    verdict = equivalent(wide, narrow, state_budget=1_000)
    assert (verdict.witness, verdict.side) == (want, "left")


def test_converse_spells_the_pruned_word(searches):
    narrow, wide, _ = _family(11)
    assert includes(wide, narrow).witness == ("c",) + ("a",) * 11
    assert searches == ["pruned", "departure"]


def test_departure_search_falls_back_to_the_unpruned_search(searches):
    left = parse_expr("(%|(a c){4,10})((b|a){2,11}|c{6,14}a{3,11})")
    right = parse_expr("a{5,}")
    syms = decision.union_alphabet(left, right)
    a, b = (automaton(e, decision.DEFAULT_EXPANSION_CAP) for e in (left, right))
    # the pruned word loses the tie-break to "a a", so the departure search
    # meets a goal and the unpruned search spells the witness
    assert decision._search(a, b, syms, False, 1_000, True) == (("b", "a"), True)
    searches.clear()
    want = includes_reference(left, right, 2)
    got = includes(left, right)
    assert (got.holds, got.witness) == (want.holds, want.witness) == (False, ("a", "a"))
    assert searches == ["pruned", "departure", "unpruned"]


@pytest.mark.parametrize("k", range(2, 6))
def test_converse_matches_the_reference(k):
    narrow, wide, split = _family(k)
    want = includes_reference(wide, narrow, k + 1)
    got = includes(wide, narrow)
    assert (got.holds, got.witness) == (want.holds, want.witness)
    verdict = equivalent(wide, narrow)
    assert (verdict.witness, verdict.side) == (want.witness, "left")
    assert includes(split, narrow).holds


def test_only_a_strict_subset_drops_a_pair():
    # after "a a" and "b a" the left state is the same, with right keys of
    # one state each; only the second leads to the goal "b a c"
    left, right = parse_expr("(a|b) a c"), parse_expr("a a c | b a")
    want = includes_reference(left, right, 3)
    got = includes(left, right)
    assert (got.holds, got.witness) == (want.holds, want.witness) == (False, ("b", "a", "c"))


def test_wide_right_side_runs_once_unpruned(searches):
    e1, e2 = build_expressions(PartitionInstance((20, 20, 20)))
    a, b = (automaton(e, decision.DEFAULT_EXPANSION_CAP) for e in (e1, e2))
    assert b.state_count > 64
    syms = decision.union_alphabet(e1, e2)
    with pytest.raises(StateBudgetExceeded) as info:
        decision._inclusion(a, b, syms, 150)
    assert (info.value.found, info.value.depth) == (151, 90)
    assert searches == ["unpruned"]
    # E2 fixes only lengths, so ``includes`` decides it without a search
    assert includes(e1, e2, state_budget=150).holds
    assert searches == ["unpruned"]


def test_witnesses_match_the_unpruned_search(searches):
    """Counted pairs too long for ``brute_language``, against the unpruned
    search: a departure search must find every smaller word of the pruned
    word's length, and one that finds it must fall back."""
    rng = random.Random(20261019)
    count = departures = fallbacks = 0
    wrong = []
    while count < 400:
        symbols = ("a", "b", "c")[: rng.choice((2, 3))]
        left = random_expr(rng, 3, symbols, max_count=16)
        right = random_expr(rng, 3, symbols, max_count=16)
        a, b = (automaton(e, decision.DEFAULT_EXPANSION_CAP) for e in (left, right))
        if b.state_count > 64:
            continue
        count += 1
        syms = decision.union_alphabet(left, right)
        want = decision._search(a, b, syms, False, decision.DEFAULT_STATE_BUDGET)
        searches.clear()
        got = includes(left, right).witness
        departures += "departure" in searches
        fallbacks += "unpruned" in searches
        if got != (want and want[0]):
            wrong.append((left, right, got, want))
    assert wrong == []
    assert departures and fallbacks
