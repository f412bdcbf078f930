import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP, expressions, make_corpus, nested_groups, sugar_expressions
from crekit.engine import Nfa, bits, expand, glushkov, position_pass
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import Alt, Concat, CountRange, Rep, Symbol, parse_expr, postorder
from crekit.unambiguity import (
    FIRST_SET,
    FOLLOW_SET,
    UnambiguityVerdict,
    check_unambiguous,
    is_single_occurrence,
)
from oracle import glushkov_is_deterministic
from position_oracle import Positions, first_conflict_reference, positions_reference

A, B = Symbol("a"), Symbol("b")


def blind_positions(e):
    """The library's counter-blind position pass, read back as sets."""
    nfa = Nfa(*position_pass(postorder(e), counter_blind=True))
    return Positions(
        symbols=nfa.symbols,
        nullable=bool(nfa.accepting & 1),
        last=set(bits(nfa.accepting)) - {0},
        follow=tuple(set(bits(f << o)) for o, f in zip(nfa.offsets, nfa.follow)),
    )


class TestSingleOccurrence:
    @pytest.mark.parametrize("weights", [(1, 1), (1, 3), (2, 2, 2), (4,)])
    def test_reduction_expressions(self, weights):
        e1, e2 = build_expressions(PartitionInstance(weights))
        assert is_single_occurrence(e1)
        assert is_single_occurrence(e2)

    def test_repeated_symbol(self):
        assert not is_single_occurrence(parse_expr("a|a"))

    def test_distinct_symbols(self):
        assert is_single_occurrence(parse_expr("a b{2,3}(c|%)"))


class TestCheckUnambiguous:
    def test_duplicate_alternative(self):
        verdict = check_unambiguous(parse_expr("a|a"))
        assert not verdict.unambiguous
        c = verdict.conflict
        assert (c.symbol, c.positions, c.locus_kind) == ("a", (1, 2), FIRST_SET)

    def test_common_prefix(self):
        e = Alt((Concat((A, B)), Concat((A, Symbol("c")))))
        verdict = check_unambiguous(e)
        assert not verdict.unambiguous
        c = verdict.conflict
        assert (c.symbol, c.positions, c.locus_kind) == ("a", (1, 3), FIRST_SET)

    def test_nested_counters_on_single_position(self):
        verdict = check_unambiguous(parse_expr("(a{1,2}){2,2}"))
        assert verdict.unambiguous

    def test_follow_conflict(self):
        verdict = check_unambiguous(parse_expr("b a?a"))
        assert not verdict.unambiguous
        c = verdict.conflict
        assert c.locus_kind == FOLLOW_SET
        assert c.locus_position == 1
        assert (c.symbol, c.positions) == ("a", (2, 3))

    def test_conflict_tie_break_prefers_smallest_pair(self):
        verdict = check_unambiguous(parse_expr("a|a|b|b"))
        assert verdict.conflict.positions == (1, 2)
        assert verdict.conflict.symbol == "a"

    def test_deep_nesting(self):
        assert check_unambiguous(parse_expr(nested_groups())).unambiguous
        verdict = check_unambiguous(parse_expr(nested_groups(other="a")))
        c = verdict.conflict
        assert (c.symbol, c.locus_kind) == ("a", FIRST_SET)
        assert c.positions == (1, 2 * DEEP + 1)

    def test_verdict_invariant_enforced(self):
        with pytest.raises(ValueError):
            UnambiguityVerdict(unambiguous=False, conflict=None)

    def test_describe_mentions_locus(self):
        verdict = check_unambiguous(parse_expr("b a?a"))
        assert "follow-set of position 1" in verdict.conflict.describe()


class TestMarkedSets:
    def test_star_concat(self):
        sets = blind_positions(parse_expr("a*b"))
        assert sets.symbols == ("a", "b")
        assert not sets.nullable
        assert sets.first == {1, 2}
        assert sets.last == {2}
        assert sets.follow[1] == {1, 2}
        assert sets.follow[2] == frozenset()

    def test_counter_blind_iteration(self):
        # upper bound 1: no iteration pairs
        once = blind_positions(Rep(Concat((A, B)), CountRange(1, 1)))
        assert once.follow[2] == frozenset()
        # upper bound 2: exit and re-entry both considered possible
        twice = blind_positions(Rep(Concat((A, B)), CountRange(2, 2)))
        assert twice.follow[2] == {1}

    def test_counter_nullability(self):
        assert blind_positions(parse_expr("a{0,2}")).nullable
        assert not blind_positions(parse_expr("a{2,4}")).nullable
        twice = Rep(parse_expr("a?"), CountRange(2, 2))
        assert blind_positions(twice).nullable


@given(expressions())
@settings(max_examples=200, deadline=None)
def test_fast_path_is_sound(e):
    if is_single_occurrence(e):
        assert check_unambiguous(e).unambiguous


@given(expressions())
@settings(max_examples=200, deadline=None)
def test_conflicts_are_recheckable(e):
    verdict = check_unambiguous(e)
    if verdict.unambiguous:
        return
    c = verdict.conflict
    sets = positions_reference(e, counter_blind=True)
    p, q = c.positions
    assert p != q
    assert sets.symbols[p - 1] == sets.symbols[q - 1] == c.symbol
    where = sets.first if c.locus_kind == FIRST_SET else sets.follow[c.locus_position]
    assert p in where and q in where


@given(sugar_expressions())
@settings(max_examples=200, deadline=None)
def test_agrees_with_position_automaton_determinism(e):
    assert check_unambiguous(e).unambiguous == glushkov_is_deterministic(glushkov(e))


@given(st.one_of(expressions(), sugar_expressions()))
@settings(max_examples=300, deadline=None)
def test_first_conflict_matches_reference(e):
    assert check_unambiguous(e).conflict == first_conflict_reference(e)


@pytest.mark.parametrize(
    "text", ["(x|y){0,260} z", "x{0,260} x", "(a|%){0,50} a", "((a|b){2,3}){1,2} b"]
)
def test_first_conflict_matches_reference_on_expansions(text):
    for e in (parse_expr(text), expand(parse_expr(text))):
        assert check_unambiguous(e).conflict == first_conflict_reference(e)


def test_first_conflict_matches_reference_on_corpus():
    for e in make_corpus(400, seed=12, depth=4):
        assert check_unambiguous(e).conflict == first_conflict_reference(e)
