"""Independent oracles for the test suite.

The language oracle is a direct denotational recursion over the AST, and
the partition oracle enumerates subsets with itertools; neither uses the
library's automaton pipeline.  The inclusion reference enumerates the left
language and membership-tests the right one: it shares ``expand``,
``glushkov`` and ``language_iter`` with the library, but nothing of
``crekit.decision``, the product search it checks.  Its witness order needs
no union alphabet: a word of L(left) holds only symbols of left, and the
union alphabet lists those first, in the order ``language_iter`` uses.  The
overlap reference intersects two ``brute_language`` enumerations.
``tests/test_one_build.py`` keeps this module from importing
``crekit.decision``.  The position references are in
``position_oracle.py``.  Expected values in the tests are frozen from (or
re-checked against) these.
"""

from dataclasses import dataclass
from itertools import combinations

from crekit.engine import DEFAULT_WORD_LIMIT, expand, glushkov, language_iter
from crekit.errors import ResultTooLarge
from crekit.syntax import Alt, Concat, Epsilon, Rep, Symbol


def brute_language(e, max_len):
    """All words of L(e) with length <= max_len, by structural recursion."""
    if isinstance(e, Symbol):
        return {(e.name,)} if max_len >= 1 else set()
    if isinstance(e, Epsilon):
        return {()}
    if isinstance(e, Alt):
        out = set()
        for b in e.branches:
            out |= brute_language(b, max_len)
        return out
    if isinstance(e, Concat):
        acc = {()}
        for part in e.parts:
            words = brute_language(part, max_len)
            acc = {u + v for u in acc for v in words if len(u) + len(v) <= max_len}
        return acc
    if isinstance(e, Rep):
        base = brute_language(e.inner, max_len)
        power = {()}
        for _ in range(e.count.low):
            power = {u + v for u in power for v in base if len(u) + len(v) <= max_len}
            if not power:
                break
        result = set(power)
        copies = e.count.low
        while power and (e.count.high is None or copies < e.count.high):
            power = {u + v for u in power for v in base if len(u) + len(v) <= max_len}
            copies += 1
            new = power - result
            if not new:
                break
            result |= new
        return result
    raise TypeError(f"not an Expr: {e!r}")


@dataclass(frozen=True)
class ReferenceVerdict:
    """A witness is in L(left) - L(right).

    ``checked_up_to`` is None for exact verdicts; when the length bound was
    too small to be conclusive, it holds that bound and the verdict means
    "no counterexample up to this length".
    """

    holds: bool
    witness: tuple | None = None
    checked_up_to: int | None = None


def includes_reference(left, right, len_bound):
    """Inclusion by exhaustive enumeration of L(left) up to ``len_bound``.

    Witness selection matches ``includes``.  A holds-verdict obtained with a
    bound below the state-count product of the two automata is only sound up
    to that bound and carries it in ``checked_up_to``.
    """
    a = glushkov(expand(left))
    b = glushkov(expand(right))
    for seen, word in enumerate(language_iter(left, len_bound), 1):
        if seen > DEFAULT_WORD_LIMIT:
            raise ResultTooLarge(DEFAULT_WORD_LIMIT)
        if not b.accepts(word):
            return ReferenceVerdict(holds=False, witness=word)
    complete = len_bound >= a.state_count * b.state_count
    return ReferenceVerdict(holds=True, checked_up_to=None if complete else len_bound)


def max_length(e):
    """Length of the longest word of L(e); None when L(e) is infinite."""
    if isinstance(e, Symbol):
        return 1
    if isinstance(e, Epsilon):
        return 0
    if isinstance(e, Rep):
        inner = max_length(e.inner)
        if inner == 0:
            return 0
        if inner is None or e.count.high is None:
            return None
        return inner * e.count.high
    lengths = [max_length(x) for x in (e.branches if isinstance(e, Alt) else e.parts)]
    if None in lengths:
        return None
    return max(lengths) if isinstance(e, Alt) else sum(lengths)


def symbol_order(*exprs):
    """Distinct symbols of ``exprs`` in order of first occurrence, left to right."""
    order = {}
    stack = list(reversed(exprs))
    while stack:
        e = stack.pop()
        if isinstance(e, Symbol):
            order.setdefault(e.name)
        elif isinstance(e, Rep):
            stack.append(e.inner)
        elif isinstance(e, (Alt, Concat)):
            stack.extend(reversed(e.branches if isinstance(e, Alt) else e.parts))
    return tuple(order)


def occurrence_count(e):
    """Number of symbol occurrences (automaton positions) in ``e``."""
    count, stack = 0, [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Symbol):
            count += 1
        elif isinstance(x, Rep):
            stack.append(x.inner)
        elif isinstance(x, (Alt, Concat)):
            stack.extend(x.branches if isinstance(x, Alt) else x.parts)
    return count


def shortlex_first(words, order):
    """The shortest word of ``words``, ties broken by ``order``; None if empty."""
    rank = {sym: i for i, sym in enumerate(order)}
    return min(words, key=lambda w: (len(w), [rank[s] for s in w]), default=None)


def overlaps_reference(left, right, max_len):
    """Shortest-lex word of L(left) & L(right) up to ``max_len``, or None.

    Enumerates both languages with ``brute_language`` and orders symbols as
    ``overlaps`` does: those of left first, then those private to right.
    """
    common = brute_language(left, max_len) & brute_language(right, max_len)
    return shortlex_first(common, symbol_order(left, right))


def naive_partition(weights):
    """PARTITION by trying every subset."""
    total = sum(weights)
    if total % 2:
        return False
    half = total // 2
    indexes = range(len(weights))
    return any(
        sum(weights[i] for i in combo) == half
        for size in range(len(weights) + 1)
        for combo in combinations(indexes, size)
    )


def all_words(symbols, max_len):
    """Every word over ``symbols`` with length <= max_len, in enum order."""
    words = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in symbols]
        words.extend(level)
    return words


def glushkov_is_deterministic(nfa):
    """Classical one-unambiguity: no state forks on a symbol."""
    return all(
        len(nfa.step((q,), sym)) <= 1
        for q in range(nfa.state_count)
        for sym in set(nfa.symbols)
    )
