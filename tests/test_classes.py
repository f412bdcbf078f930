"""Class positions: an alternation of distinct bare symbols is one position.

``automaton`` builds with ``classes``: each ``Alt`` whose branches are bare
symbols of pairwise distinct names becomes one position entered on each of
them.  The positions it replaces share one follow set, so splitting each
class position back into its symbols gives exactly ``glushkov(e)``, and
every verdict and witness of the decision procedures is the same on both
builds.  ``glushkov`` by default and the counter-blind pass of
``check_unambiguous`` keep one position per symbol occurrence, because
their position numbers are read back.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expressions, make_corpus, random_expr, sugar_expressions
from crekit import decision
from crekit.engine import Nfa, automaton, bits, glushkov
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import parse_expr
from crekit.unambiguity import FIRST_SET, FOLLOW_SET, Conflict, check_unambiguous


def split_classes(nfa: Nfa) -> Nfa:
    """``nfa`` with each class position replaced by one position per symbol."""
    labels = [(s,) if type(s) is str else s for s in nfa.symbols]
    start = [0, 1]  # the first split state of each state
    for label in labels:
        start.append(start[-1] + len(label))
    width = [1] + [len(label) for label in labels]

    def spread(mask):
        return sum(((1 << width[q]) - 1) << start[q] for q in bits(mask))

    offsets, follow = [], []
    for q, (offset, mask) in enumerate(zip(nfa.offsets, nfa.follow)):
        targets = spread(mask << offset)
        low = (targets & -targets).bit_length() - 1 if targets else 0
        offsets += [low] * width[q]
        follow += [targets >> low] * width[q]
    symbols = tuple(s for label in labels for s in label)
    return Nfa(symbols, tuple(offsets), tuple(follow), spread(nfa.accepting))


def assert_splits_into_plain(e):
    plain = glushkov(e, 10**6)
    merged = automaton(e, 10**6)
    assert merged == glushkov(e, 10**6, classes=True)
    assert split_classes(merged) == plain
    assert all(type(s) is str for s in plain.symbols)


class TestSplit:
    @given(st.one_of(expressions(), sugar_expressions()))
    @settings(max_examples=150, deadline=None)
    def test_split_is_the_plain_build(self, e):
        assert_splits_into_plain(e)

    def test_corpus_split_is_the_plain_build(self):
        for e in make_corpus(400, seed=11, depth=4):
            assert_splits_into_plain(e)

    @pytest.mark.parametrize(
        "text,labels",
        [
            ("(a|b|c){2,3} d", (("a", "b", "c"),) * 3 + ("d",)),
            ("(a|a) b", ("a", "a", "b")),  # repeated names stay apart
            ("(a|b c)*", ("a", "b", "c")),  # a branch that is not a symbol
            ("(a|%) (b|a)", ("a", ("b", "a"))),
            ("(a{1}|b)", ("a", "b")),
        ],
    )
    def test_which_alternations_merge(self, text, labels):
        e = parse_expr(text)
        assert automaton(e).symbols == labels
        assert_splits_into_plain(e)


def _ladder(ms):
    return [
        pytest.param(*build_expressions(PartitionInstance((20,) * m)), id=f"m{m}")
        for m in ms
    ]


@pytest.mark.parametrize("e1,e2", _ladder((1, 2, 3, 5)))
def test_partition_ladder_splits_into_plain(e1, e2):
    assert_splits_into_plain(e1)
    assert_splits_into_plain(e2)


def outcomes(left, right, classes):
    """Every search verdict of ``decision`` on the pair, on one kind of build."""
    a, b = (glushkov(e, 10**6, classes=classes) for e in (left, right))
    syms = decision.union_alphabet(left, right)
    back = decision.union_alphabet(right, left)
    budget = decision.DEFAULT_STATE_BUDGET
    return (
        decision._inclusion(a, b, syms, budget),
        decision._inclusion(b, a, back, budget),
        decision._search(a, b, syms, False, budget),
        decision._search(a, b, syms, True, budget),
    )


def _random_pairs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        symbols = ("a", "b", "c")[: rng.choice((2, 3))]
        yield (
            random_expr(rng, 3, symbols, max_count=rng.choice((4, 16))),
            random_expr(rng, 3, symbols, max_count=rng.choice((4, 16))),
        )


def test_random_pairs_decide_alike_on_both_builds():
    wrong, merged = [], 0
    for left, right in _random_pairs(1000, seed=20261019):
        merged += any(automaton(e) != glushkov(e) for e in (left, right))
        want = outcomes(left, right, classes=False)
        if outcomes(left, right, classes=True) != want:
            wrong.append((left, right, want))
    assert wrong == []
    assert merged > 100  # one pair in eight or so has a class position


@given(expressions(), expressions())
@settings(max_examples=60, deadline=None)
def test_drawn_pairs_decide_alike_on_both_builds(left, right):
    assert outcomes(left, right, True) == outcomes(left, right, False)


@pytest.mark.parametrize("e1,e2", _ladder((1, 2, 3, 5)))
def test_partition_decides_alike_on_both_builds(e1, e2):
    assert outcomes(e1, e2, classes=True) == outcomes(e1, e2, classes=False)


@pytest.mark.parametrize(
    "weights", [(1, 1), (3, 1, 2), (7, 5, 9, 3), (20,) * 5, (20,) * 50]
)
def test_partition_right_side_has_one_position_per_copy(weights):
    inst = PartitionInstance(weights)
    _, e2 = build_expressions(inst)
    assert automaton(e2, 10**6).state_count == 4 * inst.n + 1


def test_links_follow_the_merged_count():
    # n = 12, k = 3: 193 plain states, 49 class states, which step by table
    _, e2 = build_expressions(PartitionInstance((8, 8, 8)))
    plain, merged = glushkov(e2), automaton(e2)
    assert (plain.state_count, merged.state_count) == (193, 49)
    assert plain.links and merged.links == ()
    wide = automaton(build_expressions(PartitionInstance((20,) * 3))[1])
    assert wide.state_count == 121 and wide.links


@pytest.mark.parametrize(
    "text,conflict",
    [
        ("(a|b)* a", Conflict("a", (1, 3), FIRST_SET)),
        ("((a|b){2,3}) a", Conflict("a", (1, 3), FOLLOW_SET, locus_position=1)),
    ],
)
def test_unambiguity_keeps_one_position_per_occurrence(text, conflict):
    assert check_unambiguous(parse_expr(text)).conflict == conflict
