"""The links of the position pass, and the subset step through them.

``Nfa.links`` restates the follow relation in compressed form: rectangles
and strided families (see ``crekit.engine.Nfa``).  The reading here takes
each link apart bit by bit, with none of the add-and-multiply tricks of
``Nfa.reach``, and must give back every follow set exactly.  ``Nfa.reach``
is then checked against the follow sets read one state at a time on dense
subsets, where it steps through the links and not the member loop.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expressions, follow_union
from crekit.engine import Nfa, _expansion_sizes, bits, glushkov, position_pass
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import Symbol, concat, parse_expr, postorder, rep

SHAPES = [
    build_expressions(PartitionInstance((3, 3)))[1],
    build_expressions(PartitionInstance((20,) * 15))[1],
    *map(
        parse_expr,
        [
            "((a|b){1,20}){1,20}",
            "((a|b){1,5} c){1,7}",  # a stride of 2 inside a body of 11
            "(a|%){0,80}",
            "(a* b){3,30}",
            "a{0,200}",
            "(((a|b){2,3}){2,3}){2,3}",
        ],
    ),
]


def _padded(e):
    """``e`` followed by 64 positions, so that its links are recorded."""
    return concat([e, rep(Symbol("z"), 64, 64)])


def _read_links(nfa) -> list[int]:
    """The follow set of every state, read from ``nfa.links`` bit by bit."""
    out = [0] * nfa.state_count
    for o, w, sources, targets in nfa.links:
        for q in bits(sources << o):
            field = o + (q - o) // w * w if w else o
            out[q] |= targets << field
    return out


def _check_links(e) -> None:
    nfa = glushkov(e, cap=10**6)
    assert _expansion_sizes(postorder(e))[1] == nfa.state_count - 1
    recorded = nfa.state_count > 64  # only where the search can use them
    assert bool(nfa.links) == recorded
    assert position_pass(postorder(e), counter_blind=True)[4] == ()
    if recorded:
        want = [f << o for f, o in zip(nfa.follow, nfa.offsets)]
        assert _read_links(nfa) == want


@pytest.mark.parametrize("e", SHAPES, ids=range(len(SHAPES)))
def test_links_give_the_follow_sets(e):
    _check_links(e)
    _check_links(_padded(e))


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_links_give_the_follow_sets_on_random_expressions(e):
    _check_links(_padded(e))
    _check_links(rep(e, 2, 20))


def test_copies_compress_into_one_family():
    # the inner copies, the copy-to-copy links and the start: three links
    # whatever the counts, since the inner fields line up in every outer copy
    for e in SHAPES[1:3]:
        assert len(glushkov(e).links) == 3
    assert len(glushkov(parse_expr("((a|b){1,80}){1,80}")).links) == 3


def _dense(n: int, rng: random.Random) -> list[int]:
    full = (1 << n) - 1
    out = [full]
    out += [rng.getrandbits(n) for _ in range(10)]
    out += [full ^ (rng.getrandbits(n) & rng.getrandbits(n)) for _ in range(10)]
    out += [full ^ 1 << rng.randrange(n) for _ in range(10)]
    return out


@pytest.mark.parametrize("e", SHAPES, ids=range(len(SHAPES)))
def test_link_step_equals_reach_on_dense_subsets(e):
    for nfa in (glushkov(e), glushkov(_padded(e))):
        if nfa.state_count <= 64:
            continue
        assert nfa._table is None and len(nfa._links) == len(nfa.links) > 0
        rng = random.Random(nfa.state_count)
        subsets = _dense(nfa.state_count, rng)
        assert any(s.bit_count() > len(nfa.links) for s in subsets)
        for states in subsets:
            assert nfa.reach(states) == follow_union(nfa, states), bin(states)


@settings(max_examples=100, deadline=None)
@given(expressions(), st.integers(0, 2**32))
def test_link_step_equals_reach_on_random_expressions(e, seed):
    nfa = glushkov(_padded(e))
    for states in _dense(nfa.state_count, random.Random(seed)):
        assert nfa.reach(states) == follow_union(nfa, states), bin(states)


def test_dense_sets_take_the_links_and_sparse_ones_the_member_loop():
    nfa = glushkov(parse_expr("a{0,200}"))
    # the same links over follow masks that are all empty
    n = nfa.state_count
    blank = Nfa(nfa.symbols, nfa.offsets, (0,) * n, nfa.accepting, nfa.links)
    full = (1 << n) - 1
    assert blank.reach(full) == follow_union(nfa, full) != 0
    assert blank.reach(0b110) == 0


def test_bad_links_are_rejected():
    good = glushkov(parse_expr("a{0,3}"))  # states 0..3, each followed by the next
    fields = (good.symbols, good.offsets, good.follow, good.accepting)
    assert Nfa(*fields, ((0, 0, 1, 0b10), (1, 1, 0b11, 0b10))).links
    for link in [
        (0, 0, 1, 0b10000),  # a target past the last state
        (0, 0, 0b10000, 0b10),  # a source past the last state
        (0, 0, 1, 1),  # the initial state as a target
        (1, 1, 0b111, 0b10),  # the third field's target is state 4
        (1, 2, 0b1, 0b101),  # targets spanning 3 bits in a field of 2
        (0, 0, 0, 0b10),  # no source
        (-1, 0, 0b10, 0b100),
    ]:
        with pytest.raises(ValueError):
            Nfa(*fields, (link,))
