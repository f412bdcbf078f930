import random

import pytest
from hypothesis import given, settings

from conftest import expressions, random_expr
from crekit.decision import (
    EquivalenceVerdict,
    InclusionVerdict,
    OverlapVerdict,
    _inclusion,
    equivalent,
    includes,
    overlaps,
    union_alphabet,
)
from crekit.engine import automaton, expand, glushkov, member
from crekit.errors import StateBudgetExceeded
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import EPSILON, Symbol, alt, concat, parse_expr, render_expr
from oracle import (
    brute_language,
    glushkov_is_deterministic,
    includes_reference,
    max_length,
    overlaps_reference,
    shortlex_first,
    symbol_order,
)


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
        # a unary right side fixes only lengths: ``includes`` decides it
        # without a search and charges no pair, so the search runs directly
        left, right = parse_expr("a{1,3}"), parse_expr("a{2,2}")
        with pytest.raises(StateBudgetExceeded):
            _inclusion(automaton(left), automaton(right), ("a",), 1)
        assert includes(left, right, state_budget=1).witness == ("a",)

    def test_budget_error_reports_progress(self):
        # one new pair per depth: a^d reaches (a^d, {a^d}) and nothing else
        e = parse_expr("a{0,10}")
        with pytest.raises(StateBudgetExceeded) as caught:
            _inclusion(automaton(e), automaton(e), ("a",), 5)
        exc = caught.value
        assert (exc.budget, exc.found, exc.depth) == (5, 6, 5)
        assert str(exc) == "product-state budget of 5 exceeded: 6 pairs found by depth 5"
        assert includes(e, e, state_budget=5).holds  # decided on lengths

    def test_budget_is_charged_where_pairs_are_added(self):
        # 1,501 first positions on each side: stepping the initial key whole
        # before checking would find 2,250,001 pairs by depth 1
        part = alt([Symbol("a"), EPSILON])
        left = concat([part] * 1500 + [Symbol("c")])
        right = concat([part] * 1500 + [Symbol("d")])
        with pytest.raises(StateBudgetExceeded) as caught:
            overlaps(left, right, state_budget=1000)
        assert caught.value.found <= 1000 + automaton(left).state_count
        # the initial pair is charged as it is seeded
        e = automaton(parse_expr("a{0,10}"))
        with pytest.raises(StateBudgetExceeded) as caught:
            _inclusion(e, e, ("a",), 0)
        assert (caught.value.found, caught.value.depth) == (1, 0)

    def test_witness_follows_every_pair_of_an_access_word(self):
        # "c" reaches several left states; the children of a later one on the
        # smallest symbol (c) must still come before those of an earlier one on
        # a larger symbol (a): c c c is in the left language and not c
        left = parse_expr("(c a|c c a|c{2,2}|a{0,4}a c|(a a){0,3})c")
        verdict = includes(left, parse_expr("c"))
        assert verdict.witness == ("c", "c", "c")
        assert verdict.witness == includes_reference(left, parse_expr("c"), 9).witness

    def test_nondeterministic_left_is_not_determinized(self):
        # its 40 states reach about 2^19 subsets; determinizing them would
        # blow the budget
        left = parse_expr("(a|b)* a (a|b){18}")
        assert includes(left, parse_expr("(a|b)*"), state_budget=1_000).holds

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

    def test_witness_follows_every_pair_of_an_access_word(self):
        left = parse_expr("(c|c{2,2}|b|b|b)b(%|%|c|c b|c|b|c)")
        right = parse_expr("(c|c b){2,3}")
        assert overlaps(left, right).witness == ("c", "c", "b")
        assert overlaps_reference(left, right, 6) == ("c", "c", "b")

    def test_nondeterministic_sides_are_not_determinized(self):
        # disjoint: position -22 is a on the left and b on the right
        left = parse_expr("(a|b)* a (a|b){20} c")
        right = parse_expr("(a|b)* b (a|b){20} c")
        assert not overlaps(left, right, state_budget=10_000).overlaps


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


@pytest.mark.parametrize(
    "verdict,fields",
    [
        (InclusionVerdict, {"holds": True, "witness": ("a",)}),
        (InclusionVerdict, {"holds": False}),
        (OverlapVerdict, {"overlaps": True}),
        (OverlapVerdict, {"overlaps": False, "witness": ()}),
        (EquivalenceVerdict, {"equivalent": True, "side": "left"}),
        (EquivalenceVerdict, {"equivalent": False}),
    ],
)
def test_verdicts_reject_a_witness_that_does_not_fit(verdict, fields):
    with pytest.raises(ValueError):
        verdict(**fields)


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


def _nondeterministic_pairs(count, seed):
    """Seeded pairs of finite expressions whose left automaton is
    nondeterministic, with every word no longer than 8."""
    rng = random.Random(seed)
    while count:
        symbols = ("a", "b", "c")[: rng.choice((2, 3))]
        left = random_expr(rng, 4, symbols, allow_unbounded=False)
        right = random_expr(rng, 4, symbols, allow_unbounded=False)
        bound = max(max_length(left), max_length(right))
        if bound <= 8 and not glushkov_is_deterministic(glushkov(expand(left))):
            count -= 1
            yield left, right, bound


def fixes_only_lengths(right, syms):
    """True iff every position of ``automaton(right)`` is entered on every
    symbol of ``syms``."""
    labels = automaton(right).symbols
    return all(set(x if type(x) is tuple else (x,)) == set(syms) for x in labels)


def test_witnesses_match_brute_force_shortest_lex(searches):
    """Every witness is the shortest-lex word the enumerated languages give.

    A right side that fixes only lengths is decided without a search.
    Every other right side has at most 64 states, so each inclusion search
    is pruned; some reach a goal after a drop and run a departure search,
    and some of those fall back to the unpruned search."""
    wrong = []
    routed = departures = fallbacks = 0
    for left, right, bound in _nondeterministic_pairs(1500, seed=20261018):
        lang_l, lang_r = brute_language(left, bound), brute_language(right, bound)
        only_left = shortlex_first(lang_l - lang_r, symbol_order(left, right))
        only_right = shortlex_first(lang_r - lang_l, symbol_order(right, left))
        if only_left is not None:
            want_eq = (only_left, "left")
        elif only_right is not None:
            want_eq = (only_right, "right")
        else:
            want_eq = (None, None)
        eq = equivalent(left, right)
        searches.clear()
        inclusion = includes(left, right)
        if fixes_only_lengths(right, union_alphabet(left, right)):
            assert searches == []  # every left side here is finite
            routed += 1
        else:
            assert searches[0] == "pruned"  # the right side is narrow
        departures += "departure" in searches
        fallbacks += "unpruned" in searches
        got = (
            inclusion.witness,
            overlaps(left, right).witness,
            (eq.witness, eq.side),
        )
        want = (only_left, overlaps_reference(left, right, bound), want_eq)
        if got != want:
            wrong.append((render_expr(left), render_expr(right), got, want))
    assert wrong == []
    assert routed and departures and fallbacks
