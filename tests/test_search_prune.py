"""The in-layer prune of inclusion searches whose right side is narrow.

``decision._inclusion`` prunes the search when the right automaton has at
most 64 states, and reruns it unpruned when a goal is met after a drop.
The family ``(a|b)* a (a|b){k}`` against ``(a|b)* (a|c) (a|b){k}`` keeps
every right subset unpruned (``2**(k+1)`` keys), so its holding queries
fit a budget of 1,000 pairs only when subsumed pairs are dropped.  The
converse fails with ``c a^k``, which the prune reaches but cannot spell;
its answers come from ``tests/oracle.py``.  A right side over 64 states
keeps the single unpruned search.
"""

import pytest

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
    assert searches == [True, True, True]  # no goal, so no rerun


def test_converse_reruns_unpruned_to_spell_the_witness(searches):
    narrow, wide, _ = _family(11)
    assert includes(wide, narrow).witness == ("c",) + ("a",) * 11
    assert searches == [True, False]


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
    assert automaton(e2, decision.DEFAULT_EXPANSION_CAP).state_count > 64
    with pytest.raises(StateBudgetExceeded) as info:
        includes(e1, e2, state_budget=150)
    assert (info.value.found, info.value.depth) == (151, 90)
    assert searches == [False]
