import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_ranges,
    expressions,
    make_corpus,
    nested_groups,
    nullable_copies,
    sugar_expressions,
)
from crekit import engine
from crekit.decision import equivalent, includes
from crekit.engine import (
    LengthSet,
    _expansion_sizes,
    Nfa,
    automaton,
    bits,
    enumerate_words,
    expand,
    glushkov,
    length_set,
    member,
    node_count,
    parse_word,
    render_word,
)
from crekit.errors import ExpansionCapExceeded, ExprSyntaxError, ResultTooLarge
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import (
    EPSILON,
    Alt,
    Concat,
    CountRange,
    Rep,
    Symbol,
    alphabet_of,
    alt,
    concat,
    parse_expr,
    postorder,
    render_expr,
    rep,
)
from oracle import all_words, brute_language, occurrence_count
from position_oracle import positions_reference

A, B = Symbol("a"), Symbol("b")


class TestExpand:
    def test_bounded_range(self):
        got = expand(parse_expr("a{2,3}"))
        assert got == Concat((A, A, Alt((A, EPSILON))))

    def test_zero_lower_bound(self):
        got = expand(parse_expr("a{0,2}"))
        assert got == Alt((Concat((A, Alt((A, EPSILON)))), EPSILON))

    def test_group_repetition(self):
        got = expand(Rep(Concat((A, B)), CountRange(1, 2)))
        assert got == Concat((A, B, Alt((Concat((A, B)), EPSILON))))

    def test_unbounded_lower_bound(self):
        got = expand(parse_expr("a{3,}"))
        assert got == Concat((A, A, A, Rep(A, CountRange(0, None))))

    def test_star_normal_forms_survive(self):
        assert expand(parse_expr("a*")) == Rep(A, CountRange(0, None))
        assert expand(parse_expr("a+")) == Rep(A, CountRange(1, None))

    def test_cap_reports_required_and_allowed(self):
        e = parse_expr("(a{9,9}){9,9}")
        with pytest.raises(ExpansionCapExceeded) as info:
            expand(e, cap=50)
        assert info.value.allowed == 50
        assert info.value.required > 50

    def test_cap_is_checked_before_building(self):
        # triple-nested counts would need ~10^9 nodes; must fail fast
        e = parse_expr("((a{1000,1000}){1000,1000}){1000,1000}")
        with pytest.raises(ExpansionCapExceeded):
            expand(e)

    @given(expressions())
    @settings(max_examples=150, deadline=None)
    def test_expansion_preserves_language(self, e):
        assert brute_language(expand(e, cap=10_000), 5) == brute_language(e, 5)

    @given(expressions())
    @settings(max_examples=150, deadline=None)
    def test_expansion_is_counter_free(self, e):
        def check(x):
            if isinstance(x, Rep):
                assert x.count.high is None and x.count.low in (0, 1)
                check(x.inner)
            elif isinstance(x, Concat):
                for p in x.parts:
                    check(p)
            elif isinstance(x, Alt):
                for b in x.branches:
                    check(b)

        check(expand(e, cap=10_000))


def transitions(nfa):
    """The transition relation, read back through the public step."""
    return {
        (p, sym, q)
        for p in range(nfa.state_count)
        for sym in set(nfa.symbols)
        for q in nfa.step((p,), sym)
    }


class TestGlushkov:
    def test_two_positions(self):
        nfa = glushkov(Concat((A, B)))
        assert nfa.state_count == 3
        assert transitions(nfa) == {(0, "a", 1), (1, "b", 2)}
        assert set(bits(nfa.accepting)) == {2}

    def test_epsilon(self):
        nfa = glushkov(EPSILON)
        assert nfa.state_count == 1
        assert transitions(nfa) == set()
        assert set(bits(nfa.accepting)) == {0}

    def test_star(self):
        nfa = glushkov(Rep(A, CountRange(0, None)))
        assert nfa.state_count == 2
        assert transitions(nfa) == {(0, "a", 1), (1, "a", 1)}
        assert set(bits(nfa.accepting)) == {0, 1}

    def test_counted_input_is_built_as_its_expansion(self):
        e = Rep(A, CountRange(2, 3))
        assert glushkov(e) == glushkov(expand(e))
        assert transitions(glushkov(e)) == {(0, "a", 1), (1, "a", 2), (2, "a", 3)}
        big = parse_expr("(a{9,9}){9,9}")
        with pytest.raises(ExpansionCapExceeded) as fresh:
            expand(big, cap=50)
        with pytest.raises(ExpansionCapExceeded) as info:
            glushkov(big, cap=50)
        assert (info.value.required, info.value.allowed) == (fresh.value.required, 50)

    def test_invalid_states_rejected(self):
        # one position: states 0 and 1
        assert Nfa(("a",), (1, 1), (1, 1), 0b11).state_count == 2
        with pytest.raises(ValueError):
            Nfa(("a",), (1, 0), (0b10, 0), 0)  # follow set holds state 2
        with pytest.raises(ValueError):
            Nfa(("a",), (5, 0), (1, 0), 0)  # follow set holds state 5
        with pytest.raises(ValueError):
            Nfa(("a",), (1, 0), (1, 0), 0b100)  # accepting set holds state 2
        with pytest.raises(ValueError):
            Nfa(("a",), (1,), (1,), 0)  # no follow set for state 1

    @pytest.mark.parametrize("u", [1, 2, 10, 300])
    def test_counter_transitions_are_linear(self, u):
        # a flat chain of optional copies would give u(u+1)/2
        nfa = glushkov(expand(parse_expr(f"a{{0,{u}}}")))
        assert sum(mask.bit_count() for mask in nfa.follow) <= 2 * u + 1
        assert len(transitions(nfa)) <= 2 * u + 1

    @pytest.mark.parametrize("u", [10, 1000, 100_000])
    def test_follow_masks_are_packed(self, u):
        # Each mask is stored shifted to its lowest member; unshifted, the
        # mask of position p alone would take p bits, O(u^2) in all.
        nfa = glushkov(parse_expr(f"a{{0,{u}}}"), cap=10 * u)
        assert sum(mask.bit_length() for mask in nfa.follow) <= 2 * u + 1

    @given(expressions())
    @settings(max_examples=150, deadline=None)
    def test_state_count_is_positions_plus_one(self, e):
        expanded = expand(e, cap=10_000)
        assert glushkov(expanded).state_count == occurrence_count(expanded) + 1

    @given(expressions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_step_matches_follow_sets(self, e, data):
        expanded = expand(e, cap=10_000)
        nfa, sets = glushkov(expanded), positions_reference(expanded)
        states = data.draw(st.sets(st.integers(0, nfa.state_count - 1)))
        for sym in set(sets.symbols) | {"z"}:
            expected = {
                q for p in states for q in sets.follow[p] if sets.symbols[q - 1] == sym
            }
            assert nfa.step(states, sym) == expected


def set_view(nfa):
    """Symbols, follow sets and accepting set of ``nfa``, read from its masks."""
    follow = [set(bits(mask << offset)) for offset, mask in zip(nfa.offsets, nfa.follow)]
    return nfa.symbols, follow, set(bits(nfa.accepting))


def reference_view(e):
    """``set_view`` of the automaton of ``e``, from the set-based reference."""
    ref = positions_reference(e)
    accepting = set(ref.last) | ({0} if ref.nullable else set())
    return ref.symbols, [set(f) for f in ref.follow], accepting


def assert_built_as_expanded(e, cap=100_000, max_len=5):
    """``glushkov(e)`` is the automaton of ``expand(e)`` when no nullable
    counted body has more than one copy.  Otherwise each such body is built
    as its non-empty part, E{l,u} as E°{0,u}: the same positions, symbols
    and accepting set, first and follow sets within the expansion's, and
    the same language."""
    expanded = expand(e, cap)
    nfa = glushkov(e, cap)
    if not nullable_copies(e):
        assert nfa == glushkov(expanded)
        assert set_view(nfa) == reference_view(expanded)
        return
    symbols, follow, accepting = set_view(nfa)
    want_symbols, want_follow, want_accepting = reference_view(expanded)
    assert (symbols, accepting) == (want_symbols, want_accepting)
    assert len(follow) == len(want_follow)
    assert all(got <= want for got, want in zip(follow, want_follow))
    words = all_words(alphabet_of(e), max_len)
    assert {w for w in words if nfa.accepts(w)} == brute_language(e, max_len)


LADDER_EXPRESSIONS = [
    pytest.param(e, id=f"E{side}-m{m}")
    for m in (1, 2, 3, 5)
    for side, e in enumerate(build_expressions(PartitionInstance((20,) * m)), 1)
]


class TestCountedGlushkov:
    """``glushkov`` lays counted bodies down by offset, never expanding them."""

    @given(st.one_of(expressions(), sugar_expressions()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_expansion(self, e):
        assert_built_as_expanded(e)

    def test_corpus_equals_the_expansion(self):
        for e in make_corpus(400, seed=11, depth=4):
            assert_built_as_expanded(e)

    @pytest.mark.parametrize(
        "text",
        [
            "(x|y){0,260} z",
            "(a|%){0,50}",
            "((a|b){2,3}){1,2}",
            "((a|%) b?){2,4} a",
            "(a{2,3} b?){2,} (a b)*",
            "(a* b){3,}",
            "(a?){3,}",
            "(%|%){2,3} a",
            "a{1}",
        ],
    )
    def test_fixed_cases(self, text):
        assert_built_as_expanded(parse_expr(text))

    @pytest.mark.parametrize("e", LADDER_EXPRESSIONS)
    def test_partition_ladder(self, e):
        assert_built_as_expanded(e)

    @pytest.mark.parametrize("u", [2, 50, 3000])
    def test_nullable_copies_link_only_to_the_next(self, u):
        # the expansion links each copy to every later one: u(u - 1)/2 pairs
        _, follow, accepting = set_view(glushkov(parse_expr(f"(a|%){{0,{u}}}")))
        assert follow[0] == {1}
        assert sum(len(f) for f in follow[1:]) == u - 1
        assert accepting == set(range(u + 1))

    def test_last_nullable_copy_loops(self):
        _, follow, accepting = set_view(glushkov(parse_expr("(a?){3,}")))
        assert follow == [{1}, {2}, {3}, {4}, {4}]
        assert accepting == {0, 1, 2, 3, 4}

    @given(expressions(), count_ranges(), count_ranges(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_nullable_bodies_keep_their_language(self, e, inner, outer, nested, pair):
        body = alt([e, EPSILON])
        if pair:  # a nullable concatenation
            body = concat([body, alt([B, EPSILON])])
        x = rep(body, inner.low, inner.high)
        if nested:
            x = rep(x, outer.low, outer.high)
        words = enumerate_words(x, 5)
        assert len(words) == len(set(words))
        assert set(words) == brute_language(x, 5)


PARTITION_50 = build_expressions(PartitionInstance((20,) * 50))

# tree -> (nodes of its expansion before flattening, positions)
EXPANSION_SIZES = [
    pytest.param(parse_expr("a{0,30000}"), 119_999, 30_000, id="a{0,30000}"),
    pytest.param(parse_expr("(a{9,9}){9,9}"), 91, 81, id="(a{9,9}){9,9}"),
    pytest.param(parse_expr("((a|b){1,100}){1,100}"), 59_997, 20_000, id="nested"),
    pytest.param(parse_expr("(a|%){0,16000}"), 95_999, 16_000, id="nullable"),
    pytest.param(parse_expr("a{3,}"), 6, 4, id="a{3,}"),
    pytest.param(parse_expr("(a b){2,}"), 11, 6, id="(a b){2,}"),
    pytest.param(PARTITION_50[0], 1_653, 1_501, id="E1-(20,)*50"),
    pytest.param(PARTITION_50[1], 106_997, 102_000, id="E2-(20,)*50"),
]


class TestExpansionSizes:
    """One arithmetic fold sizes the expansion that ``glushkov`` never builds."""

    @pytest.mark.parametrize("e,nodes,positions", EXPANSION_SIZES)
    def test_golden_sizes(self, e, nodes, positions):
        assert _expansion_sizes(postorder(e)) == (nodes, positions)
        with pytest.raises(ExpansionCapExceeded) as info:
            glushkov(e, cap=nodes - 1)
        assert info.value.required == nodes

    @given(st.one_of(expressions(), sugar_expressions()))
    @settings(max_examples=300, deadline=None)
    def test_positions_are_the_states_but_the_initial_one(self, e):
        positions = _expansion_sizes(postorder(e))[1]
        assert positions == glushkov(e, cap=10**6).state_count - 1


class TestMember:
    def test_count_lower_edge(self):
        e = parse_expr("a{2,3}")
        assert member(e, ("a", "a")) is True
        assert member(e, ("a",)) is False

    def test_reduction_word(self):
        e1, _ = build_expressions(PartitionInstance((1, 1)))
        word = ("a0", "a0", "a1")
        # derived: the denotational language of E1 up to length 3 contains it
        assert word in brute_language(e1, 3)
        assert member(e1, word) is True

    def test_large_counters_at_the_default_cap(self):
        assert member(parse_expr("a{0,3000}"), ("a",)) is True
        e = parse_expr("(a|b){0,2000} c")
        assert member(e, ("a", "b") * 1000 + ("c",)) is True
        assert member(e, ("a",) * 2001 + ("c",)) is False

    def test_foreign_symbols_never_match(self):
        assert member(parse_expr("a{1,2}"), ("z",)) is False

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_member_matches_denotation(self, e):
        words = brute_language(e, 4)
        for w in all_words(("a", "b", "c"), 4):
            assert member(e, w) == (w in words)


@pytest.fixture
def builds(monkeypatch):
    """Records the tree of each ``glushkov`` call through the engine that returns."""
    seen = []

    def counting(e, cap, **kw):
        nfa = glushkov(e, cap, **kw)
        seen.append(e)
        return nfa

    monkeypatch.setattr(engine, "glushkov", counting)
    return seen


class TestAutomaton:
    def test_queries_on_one_tree_build_once(self, builds):
        e = parse_expr("(a|b){1,3} c")
        assert len(enumerate_words(e, 4)) == 14
        assert member(e, ("a", "c")) is True
        assert member(e, ("c",)) is False
        assert member(e, ("b", "b", "b", "c")) is True
        assert len(builds) == 1

    def test_smaller_cap_still_raises(self, builds):
        e = parse_expr("(a{9,9}){9,9}")
        with pytest.raises(ExpansionCapExceeded) as fresh:
            expand(e, cap=50)
        nfa = automaton(e, cap=10_000)
        assert automaton(e, cap=1_000_000) is nfa
        with pytest.raises(ExpansionCapExceeded) as info:
            member(e, ("a",) * 81, cap=50)
        assert (info.value.required, info.value.allowed) == (fresh.value.required, 50)
        assert member(e, ("a",) * 81) is True
        assert automaton(e) is not nfa  # the failed build dropped the old one
        assert len(builds) == 2

    def test_self_inclusion_and_equivalence_build_once(self, builds):
        e = parse_expr("(a|b)* a (a|b){2}")
        assert includes(e, e).holds
        assert len(builds) == 1
        f = parse_expr("a{1,2} b*")
        assert equivalent(f, f).equivalent
        assert len(builds) == 2

    def test_equal_but_distinct_tree_is_built_again(self, builds):
        text = "a{2,3} (b|c)?"
        e, twin = parse_expr(text), parse_expr(text)
        assert e == twin and e is not twin
        assert automaton(e) is automaton(e)
        assert automaton(twin) is not automaton(e)
        assert len(builds) == 3

    @given(expressions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_remembering_changes_no_result(self, e, data):
        text = render_expr(e)
        words = data.draw(st.lists(st.sampled_from(all_words(("a", "b", "c"), 4))))
        tree = parse_expr(text)
        remembered = [enumerate_words(tree, 4)] + [member(tree, w) for w in words]
        # a fresh parse, built directly rather than through ``automaton``
        fresh = parse_expr(text)
        nfa = glushkov(expand(fresh))
        want = [[w for w in all_words(alphabet_of(fresh), 4) if nfa.accepts(w)]]
        want += [nfa.accepts(w) for w in words]
        assert remembered == want


class TestEnumerate:
    def test_finite_language(self):
        got = enumerate_words(parse_expr("a{1,2}"), 5)
        assert got == [("a",), ("a", "a")]

    def test_star_language(self):
        got = enumerate_words(parse_expr("a*"), 2)
        assert got == [(), ("a",), ("a", "a")]

    def test_reduction_right_side_covers_length_two(self):
        _, e2 = build_expressions(PartitionInstance((1, 1)))
        got = enumerate_words(e2, 2)
        expected = {w for w in all_words(("a0", "a1", "a2"), 2) if len(w) == 2}
        assert set(got) == expected
        assert len(got) == 9
        assert all(member(e2, w) for w in got)

    def test_order_is_length_then_lex(self):
        got = enumerate_words(parse_expr("(a|b){1,2}"), 2)
        assert got == [
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        ]

    def test_word_limit(self):
        with pytest.raises(ResultTooLarge):
            enumerate_words(parse_expr("(a|b|c){0,6}"), 6, word_limit=100)

    def test_pending_prefixes_are_charged(self):
        # no word up to length 16, but 2^k pending prefixes after k symbols
        with pytest.raises(ResultTooLarge):
            enumerate_words(parse_expr("(a|b){16,} c"), 16, word_limit=1000)

    def test_last_round_keeps_no_prefixes(self):
        # 1023 words; a frontier after length 10 would hold 1536 prefixes
        words = enumerate_words(parse_expr("(a|b){0,10} c"), 10, word_limit=1100)
        assert len(words) == 1023

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_enumeration_matches_denotation(self, e):
        got = enumerate_words(e, 5)
        assert set(got) == brute_language(e, 5)
        lengths = [len(w) for w in got]
        assert lengths == sorted(lengths)


class TestLengthSet:
    def test_reduction_right_side(self):
        _, e2 = build_expressions(PartitionInstance((1, 1)))
        got = length_set(e2, 10)
        assert got == LengthSet(frozenset({2, 4}), saturated=False)

    def test_concat_sumset(self):
        got = length_set(parse_expr("a{2,3}b{0,1}"), 10)
        assert got.members == frozenset({2, 3, 4})
        assert not got.saturated

    def test_epsilon(self):
        assert length_set(EPSILON, 5) == LengthSet(frozenset({0}), saturated=False)

    def test_saturation_flags_unbounded(self):
        got = length_set(parse_expr("a*"), 4)
        assert got.members == frozenset({0, 1, 2, 3, 4})
        assert got.saturated

    def test_deep_nesting(self):
        got = length_set(parse_expr(nested_groups()), 50)
        assert got == LengthSet(frozenset(range(1, 51)), saturated=True)

    def test_saturation_flags_truncated_finite(self):
        got = length_set(parse_expr("a{9,9}"), 3)
        assert got.members == frozenset()
        assert got.saturated

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError):
            length_set(parse_expr("a"), 0)

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_matches_enumerated_lengths(self, e):
        cutoff = 5
        got = length_set(e, cutoff)
        words = brute_language(e, cutoff)
        assert got.members == {len(w) for w in words}

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_saturation_is_exact(self, e):
        cutoff = 4
        got = length_set(e, cutoff)
        if _has_unbounded(e):
            # sound direction: a longer word seen means saturated must be set
            if any(len(w) > cutoff for w in brute_language(e, 8)):
                assert got.saturated
        else:
            # finite language: the structural maximum length is realized
            assert got.saturated == (_max_len(e) > cutoff)


def _has_unbounded(e):
    if isinstance(e, Rep):
        return e.count.high is None or _has_unbounded(e.inner)
    if isinstance(e, Concat):
        return any(_has_unbounded(p) for p in e.parts)
    if isinstance(e, Alt):
        return any(_has_unbounded(b) for b in e.branches)
    return False


def _max_len(e):
    # only meaningful when _has_unbounded(e) is False
    if isinstance(e, Symbol):
        return 1
    if isinstance(e, Concat):
        return sum(_max_len(p) for p in e.parts)
    if isinstance(e, Alt):
        return max(_max_len(b) for b in e.branches)
    if isinstance(e, Rep):
        return e.count.high * _max_len(e.inner)
    return 0


class TestWords:
    def test_render(self):
        assert render_word(()) == "%"
        assert render_word(("a0", "a1")) == "a0 a1"

    def test_parse(self):
        assert parse_word("%") == ()
        assert parse_word("  a0   a1 ") == ("a0", "a1")

    def test_parse_rejects_bad_symbols(self):
        # the bad token's own offset, not that of an earlier symbol holding it
        for text, position in [("a0 $x", 3), ("a1 1", 3), (" a % b", 3)]:
            with pytest.raises(ExprSyntaxError) as info:
                parse_word(text)
            assert info.value.position == position

    def test_round_trip(self):
        for w in [(), ("a",), ("a0", "a1", "a0")]:
            assert parse_word(render_word(w)) == w


class TestNodeCount:
    def test_counts_shared_subtrees_per_occurrence(self):
        e = parse_expr("(a b){2,2}")
        expanded = expand(e)
        # a b a b under one Concat
        assert node_count(expanded) == 5

    def test_expansion_never_exceeds_reported_requirement(self):
        corpus = make_corpus(80, seed=7, allow_unbounded=False)
        for e in corpus:
            try:
                expanded = expand(e, cap=5_000)
            except ExpansionCapExceeded:
                continue
            assert node_count(expanded) <= 5_000


def test_alphabet_of_reduction_expressions():
    _, e2 = build_expressions(PartitionInstance((2, 2)))
    assert tuple(alphabet_of(e2)) == ("a0", "a1", "a2")


def test_deep_expansions_need_no_recursion():
    # Expansion nests one level per optional copy; every walk over such a
    # tree must keep its own stack.  The child runs far below the depth of
    # the trees it builds.
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    child = f"import sys; sys.path.insert(0, {tests_dir!r})\n" + textwrap.dedent(
        """
        from crekit import (
            PartitionInstance, alphabet_of, check_unambiguous,
            decide_partition_via_inclusion, enumerate_words, expand, member,
            node_count, parse_expr,
        )
        from oracle import occurrence_count
        sys.setrecursionlimit(200)
        weights = PartitionInstance((10, 20, 10, 15, 15, 10))
        print(decide_partition_via_inclusion(weights))
        e = parse_expr("(x|y){0,260} z")
        print(member(e, ("x", "y") * 130 + ("z",)), member(e, ("x",) * 261 + ("z",)))
        big = expand(e)
        print(node_count(big), occurrence_count(big), alphabet_of(big))
        print(check_unambiguous(big).unambiguous)
        print(check_unambiguous(expand(parse_expr("x{0,260} x"))).unambiguous)
        print(len(enumerate_words(parse_expr("a{0,300}"), 3)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "True",
        "True False",
        "1560 521 ('x', 'y', 'z')",
        "True",
        "False",
        "4",
        "",
    ]
