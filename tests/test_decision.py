import pytest
from hypothesis import given, settings

from conftest import expressions
from crekit.decision import (
    equivalent,
    includes,
    overlaps,
    union_alphabet,
)
from crekit.engine import member
from crekit.errors import StateBudgetExceeded
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import alt, parse_expr
from oracle import brute_language, includes_reference


class TestIncludes:
    def test_holds(self):
        assert includes(parse_expr("a{2,2}"), parse_expr("a{1,3}")).holds

    def test_fails_with_shortest_witness(self):
        verdict = includes(parse_expr("a{1,3}"), parse_expr("a{2,2}"))
        assert not verdict.holds
        assert verdict.witness == ("a",)

    def test_reduction_pair(self):
        e1, e2 = build_expressions(PartitionInstance((1, 1)))
        verdict = includes(e1, e2)
        assert not verdict.holds
        # derived independently: diff the two denotational languages to length 4
        diff = sorted(
            brute_language(e1, 4) - brute_language(e2, 4), key=lambda w: (len(w), w)
        )
        assert verdict.witness == diff[0] == ("a0", "a0", "a1")

    def test_epsilon_witness(self):
        verdict = includes(parse_expr("a{0,1}"), parse_expr("a{1,1}"))
        assert not verdict.holds
        assert verdict.witness == ()

    def test_budget_failure_is_loud(self):
        with pytest.raises(StateBudgetExceeded):
            includes(parse_expr("a{1,3}"), parse_expr("a{2,2}"), state_budget=1)

    def test_private_right_symbols_do_not_help(self):
        assert includes(parse_expr("a{1,1}"), parse_expr("a{1,1}|b{1,1}")).holds
        assert not includes(parse_expr("a{1,1}|b{1,1}"), parse_expr("a{1,1}")).holds


class TestIncludesReference:
    def test_fails(self):
        verdict = includes_reference(parse_expr("a{1,3}"), parse_expr("a{2,2}"), 4)
        assert not verdict.holds
        assert verdict.witness == ("a",)

    def test_holds_completely(self):
        verdict = includes_reference(parse_expr("a{2,2}"), parse_expr("a{1,3}"), 12)
        assert verdict.holds
        assert verdict.checked_up_to is None

    def test_bounded_verdict_is_flagged(self):
        verdict = includes_reference(parse_expr("a*"), parse_expr("a*"), 2)
        assert verdict.holds
        assert verdict.checked_up_to == 2

    def test_reduction_pair_without_partition(self):
        # weights (1,3): subset sums {0,1,3,4} miss n=2, so no length-5 word
        inst = PartitionInstance((1, 3))
        e1, e2 = build_expressions(inst)
        verdict = includes_reference(e1, e2, 3 * inst.n + 1)
        assert verdict.holds


class TestOverlaps:
    def test_common_word(self):
        verdict = overlaps(parse_expr("a{1,2}"), parse_expr("a{2,3}"))
        assert verdict.overlaps
        assert verdict.witness == ("a", "a")

    def test_disjoint(self):
        verdict = overlaps(parse_expr("a{1,1}"), parse_expr("b{1,1}"))
        assert not verdict.overlaps
        assert verdict.witness is None

    def test_reduction_pair(self):
        e1, e2 = build_expressions(PartitionInstance((1, 1)))
        verdict = overlaps(e1, e2)
        assert verdict.overlaps
        assert verdict.witness == ("a0", "a0")
        assert member(e1, verdict.witness) and member(e2, verdict.witness)

    def test_epsilon_overlap(self):
        verdict = overlaps(parse_expr("a{0,1}"), parse_expr("b{0,2}"))
        assert verdict.overlaps
        assert verdict.witness == ()


class TestEquivalent:
    def test_reflexive(self):
        assert equivalent(parse_expr("a{1,2}"), parse_expr("a{1,2}")).equivalent

    def test_nullability_mismatch(self):
        verdict = equivalent(parse_expr("a{1,2}"), parse_expr("(a|%)a{0,1}"))
        assert not verdict.equivalent
        assert verdict.witness == ()
        assert verdict.side == "right"

    def test_expansion_identity(self):
        assert equivalent(parse_expr("a{2,3}"), parse_expr("a a(a|%)")).equivalent


class TestUnionAlphabet:
    def test_left_order_then_right_novelty(self):
        left = parse_expr("b a")
        right = parse_expr("c a d")
        assert union_alphabet(left, right) == ("b", "a", "c", "d")


@given(expressions(), expressions())
@settings(max_examples=60, deadline=None)
def test_witnesses_are_valid(left, right):
    verdict = includes(left, right, cap=20_000, state_budget=200_000)
    if not verdict.holds:
        assert member(left, verdict.witness)
        assert not member(right, verdict.witness)
    overlap = overlaps(left, right, cap=20_000)
    if overlap.overlaps:
        assert member(left, overlap.witness)
        assert member(right, overlap.witness)
    else:
        short = brute_language(left, 3) & brute_language(right, 3)
        assert not short


@given(expressions(), expressions())
@settings(max_examples=60, deadline=None)
def test_inclusion_monotonicity(e, f):
    assert includes(e, e, cap=20_000, state_budget=200_000).holds
    assert includes(e, alt([e, f]), cap=20_000, state_budget=200_000).holds
