"""Inclusion decided on length bitsets when the right side fixes only lengths.

``decision.includes`` runs no product search when every position of
``automaton(right)`` is entered on every symbol of the union alphabet and
``left`` has no unbounded repetition: then L(right) is every word of one
of its lengths, and the witness is the smallest word of L(left) of the
least length missing from Len(right).  Its verdicts and witnesses must be
byte-identical to those of ``decision._inclusion`` on the two automata.
``engine.length_bits``, which both the route and ``length_set`` fold
lengths with, must agree with the set-based fold of ``position_oracle``.
"""

import random

from hypothesis import given, settings

from conftest import expressions, make_corpus, random_expr
from crekit import decision
from crekit.engine import automaton, length_set
from crekit.partition import (
    PartitionInstance,
    brute_force_partition,
    build_expressions,
)
from crekit.syntax import (
    Alt,
    Concat,
    Rep,
    Symbol,
    alt,
    concat,
    parse_expr,
    postorder,
    rep,
)
from position_oracle import length_set_reference

BUDGET = 10_000_000


def searched(left, right):
    """The verdict of the product search on the automata of both sides."""
    a, b = automaton(left), automaton(right)
    witness = decision._inclusion(a, b, decision.union_alphabet(left, right), BUDGET)
    return witness is None, witness


def assert_routed(left, right, searches):
    """``includes`` answers without a search, as the search answers."""
    searches.clear()
    got = decision.includes(left, right)
    assert searches == []
    assert (got.holds, got.witness) == searched(left, right)
    return got


def with_classes(e, sigma):
    """``e`` with each symbol replaced by the class ``(s1|...|sk)`` of
    ``sigma``; a class that would be a branch of an alternation is put
    under ``{1,1}``, as alternations flatten."""
    cls = alt([Symbol(s) for s in sigma])
    out = []
    for x in postorder(e):
        t = type(x)
        if t is Symbol:
            out.append(cls)
        elif t is Concat:
            k = len(x.parts)
            out[-k:] = [concat(out[-k:])]
        elif t is Alt:
            k = len(x.branches)
            out[-k:] = [alt([rep(b, 1, 1) if b is cls else b for b in out[-k:]])]
        elif t is Rep:
            out[-1] = rep(out[-1], x.count.low, x.count.high)
        else:
            out.append(x)
    return out[0]


def test_partition_ladder_is_decided_as_searched(searches):
    instances = [(20,) * m for m in (1, 2, 3, 5)] + [(1, 1), (1, 3), (2, 3, 5)]
    rng = random.Random(2024)
    while len(instances) < 307:
        weights = [rng.randint(1, 20) for _ in range(rng.randint(1, 8))]
        if sum(weights) % 2 == 0:
            instances.append(tuple(weights))
    for weights in instances:
        e1, e2 = build_expressions(PartitionInstance(weights))
        got = assert_routed(e1, e2, searches)
        assert got.holds != brute_force_partition(PartitionInstance(weights))[0]


@given(expressions(("a",), unbounded=False), expressions(("a",)))
@settings(max_examples=150, deadline=None)
def test_unary_pairs_are_decided_as_searched(left, right):
    got = decision.includes(left, right)
    assert (got.holds, got.witness) == searched(left, right)


def test_unary_pairs_run_no_search(searches):
    rng = random.Random(7)
    for _ in range(200):
        left = random_expr(rng, 4, ("a",), allow_unbounded=False, max_count=12)
        right = random_expr(rng, 4, ("a",), max_count=12)
        assert_routed(left, right, searches)


def test_class_right_sides_are_decided_as_searched(searches):
    rng = random.Random(20261020)
    for _ in range(400):
        sigma = ("a", "b", "c")[: rng.choice((2, 3))]
        left = random_expr(rng, 4, sigma, allow_unbounded=False, max_count=8)
        if {x.name for x in postorder(left) if type(x) is Symbol} < set(sigma):
            left = concat([left, alt([Symbol(s) for s in sigma])])
        right = with_classes(random_expr(rng, 3, ("x",), max_count=8), sigma)
        assert_routed(left, right, searches)


def test_the_route_needs_the_whole_alphabet_in_each_class(searches):
    # b is not in the right side's class, so a b is not in L(right)
    left, right = parse_expr("(a b|b b)"), parse_expr("(a|c){2}")
    assert decision.includes(left, right).witness == ("a", "b")
    assert searches == ["pruned"]
    # an unbounded left side is searched, however the right side looks
    searches.clear()
    got = decision.includes(parse_expr("a*"), parse_expr("a{0,3}"))
    assert got.witness == ("a",) * 4
    assert searches == ["pruned"]


def test_length_bits_matches_the_set_fold():
    trees = make_corpus(300, seed=11, depth=4)
    rng = random.Random(3)
    trees += [random_expr(rng, 4, ("a", "b"), max_count=16) for _ in range(200)]
    for e in trees:
        for cutoff in (1, 6, 64, 300):
            got = length_set(e, cutoff)
            assert (got.members, got.saturated) == length_set_reference(e, cutoff)


@given(expressions())
@settings(max_examples=100, deadline=None)
def test_length_set_matches_the_set_fold(e):
    for cutoff in (1, 4, 40):
        got = length_set(e, cutoff)
        assert (got.members, got.saturated) == length_set_reference(e, cutoff)
