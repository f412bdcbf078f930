"""The one subset step, ``Nfa.reach``, and the search families it speeds up.

``Nfa.reach`` reads the follow mask of a set of one state.  It steps a
larger set up to 64 states through a table of follow unions per byte of a
subset, kept on the automaton; above that through the automaton's
coalesced links (``tests/test_links.py`` checks them on wide shapes), and
with the member loop for a wide automaton without links.  The property
tests pin it, and ``Nfa.into``, to the follow sets read one state at a
time on every side of that scope, also on nullable concatenations, whose
links coalesce into chains.  The family tests take their answers
from ``tests/oracle.py``, which shares no code with the search, and the
guard checks what queries leave on the automaton that ``crekit.automaton``
remembers: a bounded table and nothing else.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import crekit
from conftest import expressions, follow_into, follow_union, nullable_run, raw_links
from crekit.decision import equivalent, includes, overlaps
from crekit.engine import Nfa, glushkov
from crekit.syntax import parse_expr, rep
from oracle import brute_language, overlaps_reference, shortlex_first, symbol_order


def _subsets(n: int, rng: random.Random) -> list[int]:
    """Empty, single-state, full, random and top-byte-only sets of n states."""
    full = (1 << n) - 1
    top = 8 * ((n - 1) // 8)  # the first bit of the highest byte
    out = [0, full, full >> top << top]
    out += [1 << q for q in range(n)]
    out += [rng.getrandbits(n) for _ in range(40)]
    out += [rng.getrandbits(8) << top & full for _ in range(20)]
    return out


TABLE_ENTRIES = 8 * 255  # a nonzero byte at each of the 8 byte positions


def _check_step(nfa, seed: int, links: tuple) -> None:
    """Check ``nfa``, built from ``links``, against ``follow_union``."""
    # the table up to 64 states, the links above, and the member loop without links
    assert (nfa._table is None) == (nfa.state_count > 64)
    assert bool(nfa._links) == (nfa.state_count > 64 and bool(links))
    filled = None
    for _ in range(2):  # the second round reads the table the first one filled
        for states in _subsets(nfa.state_count, random.Random(seed)):
            assert nfa.reach(states) == follow_union(nfa, states), bin(states)
        if nfa._table is not None:
            assert filled in (None, len(nfa._table))  # the second round adds none
            filled = len(nfa._table)
            assert filled <= TABLE_ENTRIES


@settings(max_examples=150, deadline=None)
@given(expressions(), st.integers(0, 2**32))
def test_step_equals_reach_on_random_expressions(e, seed):
    _check_step(glushkov(e), seed, raw_links(e))
    run = nullable_run(e)
    _check_step(glushkov(run), seed, raw_links(run))  # coalesced links


def test_step_equals_reach_across_the_table_scope():
    for u, states in ((62, 63), (63, 64), (64, 65)):
        e = parse_expr(f"a{{0,{u}}}")
        nfa = glushkov(e)
        assert nfa.state_count == states
        for seed in range(5):
            _check_step(nfa, seed, raw_links(e))
    _check_step(Nfa(nfa.symbols, nfa.offsets, nfa.follow, nfa.accepting), 0, ())
    e = parse_expr("(a|b){0,20} c (a|b|c){0,10}")
    _check_step(glushkov(e), 0, raw_links(e))


@settings(max_examples=150, deadline=None)
@given(expressions(), st.integers(0, 2**32))
def test_into_equals_the_per_state_test(e, seed):
    rng = random.Random(seed)
    for nfa in (glushkov(e), glushkov(rep(e, 2, 30)), glushkov(nullable_run(e))):
        n = nfa.state_count
        for _ in range(10):
            states, targets = rng.getrandbits(n), rng.getrandbits(n)
            assert nfa.into(states, targets) == follow_into(nfa, states, targets)
            one = 1 << rng.randrange(n)  # one target state
            assert nfa.into(states, one) == follow_into(nfa, states, one)


# --- the families of the search benchmark, at small sizes ------------------------


def _family(k: int):
    narrow = parse_expr(f"(a|b)* a (a|b){{{k}}}")
    wide = parse_expr(f"(a|b)* (a|c) (a|b){{{k}}}")
    split = parse_expr(f"(a|b)* a (a|b){{{k - 1}}} (a|b)")
    return narrow, wide, split


def test_search_families_match_the_oracle():
    for k in range(3, 8):
        narrow, wide, split = _family(k)
        bound = k + 2
        lang_n, lang_w = brute_language(narrow, bound), brute_language(wide, bound)
        assert lang_n <= lang_w and includes(narrow, wide).holds
        want = shortlex_first(lang_w - lang_n, symbol_order(wide, narrow))
        assert want == ("c",) + ("a",) * k
        assert includes(wide, narrow).witness == want
        assert brute_language(split, bound) == lang_n
        assert equivalent(narrow, split).equivalent
    for u in range(4, 7):
        left = parse_expr(f"(a|b|c){{1,{u}}} d")
        right = parse_expr(f"(a|b){{1,{u}}} (c|d)")
        common = brute_language(left, 2) & brute_language(right, 2)
        assert common == {("a", "d"), ("b", "d")}  # a tie at the shortest length
        assert overlaps(left, right).witness == overlaps_reference(left, right, 3)
        assert overlaps(left, right).witness == ("a", "d")


def test_search_leaves_the_remembered_automaton_untouched():
    # queries fill the remembered automaton's byte table and nothing else:
    # the table stays bounded and the automaton equal to a fresh build
    e = parse_expr("(a|b)* a (a|b){5}")
    nfa = crekit.automaton(e)
    fields = set(vars(nfa))
    for query in (includes, overlaps, equivalent):
        query(e, e)
    crekit.member(e, ("a", "b") * 20)
    crekit.enumerate_words(e, 8)
    assert crekit.automaton(e) is nfa
    assert 0 < len(nfa._table) <= TABLE_ENTRIES
    assert set(vars(nfa)) == fields
    assert nfa == glushkov(e, classes=True)
    left, right = _family(5)[:2]
    for query in (includes, overlaps, equivalent):
        query(left, right)
    remembered = crekit.automaton(right)  # the last tree ``equivalent`` built
    assert 0 < len(remembered._table) <= TABLE_ENTRIES
    assert set(vars(remembered)) == set(vars(glushkov(right, classes=True)))
    assert remembered == glushkov(right, classes=True)
