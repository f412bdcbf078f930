"""The links of the position pass, and the subset step through them.

``Nfa.links`` restates the follow relation in compressed form: rectangles
and strided families (see ``crekit.engine.Nfa``).  The reading here takes
each link apart bit by bit, with none of the add-and-multiply tricks of
``Nfa.reach``, and must give back every follow set exactly.  ``Nfa.reach``
and ``Nfa.into`` are then checked against the follow sets read one state
at a time on dense subsets, where they step through the coalesced links
(merged families and chains of rectangles), and on sets of a few states,
which take the member loop; ``decision._spell`` is checked against a
spelling on those follow sets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expressions, follow_into, follow_union, nullable_run
from crekit.decision import _spell
from crekit.engine import (
    Nfa,
    _bottom,
    _expansion_sizes,
    automaton,
    bits,
    glushkov,
    length_bits,
    position_pass,
)
from crekit.partition import PartitionInstance, build_expressions
from crekit.syntax import Symbol, alphabet_of, concat, parse_expr, postorder, rep

# E1 of the reduction, with weight-1 items and with k = 1: one merged family
# for its counters and the start, and one chain for its nullable items
E1_WEIGHTS = [(23, 3, 18, 1, 22, 19, 32, 2), (1,) * 44, (1, 1, 40, 2), (44,), (20,) * 9]
E1S = [build_expressions(PartitionInstance(w))[0] for w in E1_WEIGHTS]
# nullable sequences, whose rectangles coalesce into chains
NULLABLE = [
    *map(parse_expr, ["(a|b|%){0,70}", "(a b c|%){0,30}"]),
    # nullable concatenations of families of width > 1
    *map(parse_expr, ["((a b|%) (c d e|%) (f|%)){2,9}", "((a|%) (b c|%)){0,12}"]),
]
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
    *NULLABLE,
    *E1S,
    # the start and a nullable first part: disjoint sources, nested targets
    *map(parse_expr, ["(a|%) z{64}", "(x|y){0,260} z"]),
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
    _check_links(nullable_run(e))


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


def _sparse(n: int, rng: random.Random) -> list[int]:
    """Sets of one to three states, which take the member loop."""
    return [sum(1 << q for q in rng.sample(range(n), k)) for k in (1, 2, 3) * 5]


def _check_coalesced(nfa, rng: random.Random) -> None:
    n = nfa.state_count
    subsets = _dense(n, rng) + _sparse(n, rng)
    assert any(s.bit_count() > len(nfa._links) for s in subsets)
    for states in subsets:
        assert nfa.reach(states) == follow_union(nfa, states), bin(states)
        for targets in (rng.getrandbits(n), 1 << rng.randrange(n), states):
            got = nfa.into(states, targets)
            assert got == follow_into(nfa, states, targets), bin(states)


@pytest.mark.parametrize("e", SHAPES, ids=range(len(SHAPES)))
def test_link_step_equals_reach_on_dense_subsets(e):
    for nfa in (glushkov(e), glushkov(_padded(e))):
        if nfa.state_count <= 64:
            continue
        assert nfa._table is None and 0 < len(nfa._links) <= len(nfa.links)
        _check_coalesced(nfa, random.Random(nfa.state_count))


@settings(max_examples=100, deadline=None)
@given(expressions(), st.integers(0, 2**32))
def test_link_step_equals_reach_on_random_expressions(e, seed):
    for nfa in (glushkov(_padded(e)), glushkov(nullable_run(e))):
        _check_coalesced(nfa, random.Random(seed))


def test_dense_sets_take_the_links_and_sparse_ones_the_member_loop():
    nfa = glushkov(E1S[1])  # one shift and one chain
    assert len(nfa._links) == 2
    # the same links over follow masks that are all empty
    n = nfa.state_count
    blank = Nfa(nfa.symbols, nfa.offsets, (0,) * n, nfa.accepting, nfa.links)
    full = (1 << n) - 1
    assert blank.reach(full) == follow_union(nfa, full) != 0
    # two states, no more than the coalesced links: the member loop
    assert blank.reach(0b110) == 0 != follow_union(nfa, 0b110)


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


# --- coalesced links ---------------------------------------------------------------


def test_e1_and_nullable_chains_coalesce_into_few_links():
    for weights, e in zip(E1_WEIGHTS, E1S):
        nfa = automaton(e)
        # one shift, and one chain for the items when there are two or more
        assert len(nfa.links) > len(weights) + 1
        assert len(nfa._links) == (2 if len(weights) > 1 else 1)
    for u in (80, 800):
        for body in ("a", "a|b", "a b c"):
            nfa = glushkov(parse_expr(f"({body}|%){{0,{u}}}"))
            # the copies link by one family; "a b c" keeps its two families,
            # and over "a" the start's link joins the copies' shift
            rectangles = sum(1 for link in nfa.links if not link[1])
            assert rectangles == 1
            assert len(nfa._links) == len(nfa.links) - (body == "a")
    for text in ["(a b|%) (c d e|%) (f|%)", "(a|%)"]:  # nullable sequences coalesce
        nfa = glushkov(_padded(parse_expr(text)))
        assert len(nfa._links) < len(nfa.links)


def test_nullable_copies_keep_a_fixed_number_of_links():
    # one family for the copies and the start, however many copies, and
    # one coalesced entry: the start's link merges into the copies' shift
    for u in (65, 100, 1000, 20_000):
        nfa = glushkov(parse_expr(f"(a|%){{0,{u}}}"), cap=10**6)
        assert len(nfa.links) == 2 and len(nfa._links) == 1


def _entry_bits(nfa) -> int:
    """The bits of every int in the coalesced links."""
    ints = [x for entry in nfa._links for f in entry for x in (f if type(f) is tuple else (f,))]
    return sum(x.bit_length() for x in ints)


def test_flat_concatenation_is_one_shift_in_linear_bits():
    # each part's link and the start's are one-field families that line up
    sizes = {}
    for n in (1_000, 10_000):
        nfa = glushkov(parse_expr(" ".join("abc"[i % 3] for i in range(n))))
        assert len(nfa._links) <= 2
        sizes[n] = _entry_bits(nfa)
    assert sizes[10_000] <= 12 * sizes[1_000]


def _near_chain(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Absolute rectangles over n states that are nearly a chain: nested or
    disjoint ascending sources, and targets that nest or ascend, each rule
    broken now and then."""
    out, sources, low = [], 0, rng.randrange(1, n // 2)
    nested = rng.random() < 0.5
    for _ in range(rng.randint(2, 8)):
        top = min(max(sources.bit_length(), low), n - 1)
        if nested:  # new sources above the old ones, or anywhere
            new = rng.randrange(top, n) if rng.random() < 0.8 else rng.randrange(low, n)
            sources |= 1 << new
        else:
            sources = 1 << rng.randrange(top, n) if rng.random() < 0.8 else 1 << low
        if not out or rng.random() < 0.2:
            targets = rng.getrandbits(n) & ~1 or 2
        elif nested:  # above the last targets
            targets = 1 << rng.randrange(min(out[-1][1].bit_length(), n - 1), n)
        else:  # the last targets less their lowest
            targets = out[-1][1] & (out[-1][1] - 1) or 2
        out.append((sources, targets))
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_coalescing_keeps_rectangles_that_break_the_chain_rules(seed):
    rng, n = random.Random(seed), 70
    links = []
    for s, t in [r for _ in range(3) for r in _near_chain(rng, n)]:
        o = rng.randint(0, min(_bottom(s), _bottom(t)))  # sets relative to o
        links.append((o, 0, s >> o, t >> o))
    follow = [0] * n
    for o, _, sources, targets in links:
        for q in bits(sources << o):
            follow[q] |= targets << o
    offsets = [(f & -f).bit_length() - 1 if f else 0 for f in follow]
    shifted = [f >> o for f, o in zip(follow, offsets)]
    nfa = Nfa(("a",) * (n - 1), tuple(offsets), tuple(shifted), 0, tuple(links))
    _check_coalesced(nfa, rng)


def _spell_reference(nfa, syms, length):
    """The smallest word of ``length`` in L(nfa) in ``syms`` order, spelled
    on the follow sets read by ``follow_union``, one state at a time."""

    def entered(q):  # the symbols state q is entered on
        label = nfa.symbols[q - 1]
        return label if type(label) is tuple else (label,)

    layers = [1]
    for _ in range(length):
        layers.append(follow_union(nfa, layers[-1]))
    live = [layers[-1] & nfa.accepting]
    for states in reversed(layers[:-1]):
        kept = [q for q in bits(states) if follow_union(nfa, 1 << q) & live[-1]]
        live.append(sum(1 << q for q in kept))
    live.reverse()
    word, states = [], 1
    for kept in live[1:]:
        reach = bits(follow_union(nfa, states) & kept)
        sym = min({s for q in reach for s in entered(q)}, key=syms.index)
        word.append(sym)
        states = sum(1 << q for q in reach if sym in entered(q))
    return tuple(word)


SPELLED = [
    SHAPES[4],  # (a|%){0,80}
    *NULLABLE,
    *E1S,
    parse_expr("(a|b)* a (a|b){3}"),
    parse_expr("((a|b){1,3} (b|c|%)){2,30}"),  # class positions
]


@pytest.mark.parametrize("e", SPELLED, ids=range(len(SPELLED)))
def test_spell_is_the_smallest_word_on_the_follow_sets(e):
    nfa = automaton(e)
    syms = tuple(reversed(alphabet_of(e)))  # an order other than the automaton's
    lengths = length_bits(postorder(e), 120)[0]
    for length in bits(lengths)[:: max(1, lengths.bit_count() // 6)]:
        assert _spell(nfa, syms, length) == _spell_reference(nfa, syms, length)
