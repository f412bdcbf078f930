"""Seeded query sets for the crekit benchmark, with their reference answers.

A workload is a list of ``Query`` objects plus a list of probes.  Each query
calls crekit's public API through the package namespace (``api.ck``), so a
tracer that swaps those attributes sees every call.  ``run`` is the timed
part; ``check`` runs afterwards, outside the timed region, and compares the
result with an answer computed at set-up from an independent reference:

* ``corpus``: ``brute_language`` from ``tests/oracle.py`` for words, lengths
  and membership; a structural longest-word bound for length-set
  saturation; for unambiguity, the first same-symbol conflict in the first
  and follow sets of the counter-blind star normal form, read off its
  position automaton through ``Nfa.step``;
* ``counters``: ``brute_force_partition`` cross-checked with
  ``naive_partition``, and arithmetic for the counter membership queries;
* ``search``: hand-written verdicts and witnesses for the three families,
  and ``includes_reference`` / ``brute_language`` for random pairs whose
  left language is finite.

Probes are the known defects and fail-fast cases of ROADMAP item 4 and the
n = 500 instance.  They run once per run, outside the timed loop, so the
timed query set holds only queries that decide; each probe either fails,
and is recorded by its error code or exception type, or returns a verdict
that is checked like any other.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

# Error codes that mean "a resource limit stopped the query".
RESOURCE_CODES = ("EXPANSION_CAP", "STATE_BUDGET", "RESULT_TOO_LARGE")

SYMBOL_POOL = tuple("abcdefghijklmnopqrstuvwxyz")

# corpus: expression shape and per-query work
CORPUS_DEPTH = 4
CORPUS_MAX_COUNT = 4
ENUM_LEN = 6  # enumerate_words bound; also the length_set cutoff
CORPUS_WORD_CAP = 400  # expressions with more words up to ENUM_LEN are redrawn
CORPUS_SIZE = 3000
CLI_EVERY = 20  # every CLI_EVERY-th corpus query goes through cli.main
CLI_COMMANDS = ("parse", "unambiguous", "lengths", "enumerate", "member")

# Known-expensive defects, listed in every record but never run: each one
# would take the run past its time or memory limit.
EXCLUDED = {
    "corpus": [],
    "counters": [
        {
            "query": 'member "a{0,30000}" "a"',
            "reason": "exhausts memory at the default cap (ROADMAP item 4): "
            "quadratic transition table",
        }
    ],
    "search": [
        {
            "query": 'overlap "(a|b|c|d){0,300}" "(a|b|c|d){0,300} e" --cap 1000000',
            "reason": "runs past 30 s (ROADMAP item 4): overlaps has no "
            "state budget",
        }
    ],
}


@dataclass
class Query:
    """One timed call sequence and the check of its result."""

    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Any]]  # -> (agrees, canonical verdict)


@dataclass
class Workload:
    queries: list[Query]
    probes: list[tuple[str, Query]]  # (name, probe)
    excluded: list[dict]


def error_label(exc: BaseException) -> str:
    """Stable label of a failure: the crekit code, else the exception type."""
    return getattr(exc, "code", None) or type(exc).__name__


def _word_list(words) -> list:
    return [list(w) for w in words]


# --- independent references ----------------------------------------------------


def _first_occurrence_symbols(api, e) -> list[str]:
    syn = api.ck.syntax
    out: list[str] = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, syn.Symbol):
            if x.name not in out:
                out.append(x.name)
        elif isinstance(x, syn.Concat):
            stack.extend(reversed(x.parts))
        elif isinstance(x, syn.Alt):
            stack.extend(reversed(x.branches))
        elif isinstance(x, syn.Rep):
            stack.append(x.inner)
    return out


def _union_symbols(api, left, right) -> list[str]:
    out = _first_occurrence_symbols(api, left)
    out += [s for s in _first_occurrence_symbols(api, right) if s not in out]
    return out


def _shortlex(words, order) -> list:
    rank = {s: i for i, s in enumerate(order)}
    return sorted(words, key=lambda w: (len(w), [rank[s] for s in w]))


def _max_length(api, e):
    """Length of the longest word of L(e), or None when L(e) is infinite."""
    syn = api.ck.syntax
    if isinstance(e, syn.Symbol):
        return 1
    if isinstance(e, syn.Epsilon):
        return 0
    if isinstance(e, syn.Alt):
        lengths = [_max_length(api, b) for b in e.branches]
        return None if None in lengths else max(lengths)
    if isinstance(e, syn.Concat):
        lengths = [_max_length(api, p) for p in e.parts]
        return None if None in lengths else sum(lengths)
    inner = _max_length(api, e.inner)
    if inner == 0:
        return 0
    if inner is None or e.count.high is None:
        return None
    return inner * e.count.high


def _star_normal(api, e):
    """The counter-blind reading of ``e`` as a counter-free expression.

    A repetition whose upper bound allows a second round becomes ``*`` or
    ``+``; one that does not keeps its ``{0,1}`` or ``{1,1}``.  Positions,
    nullability and first/last/follow sets are those of the weak
    unambiguity analysis.
    """
    syn = api.ck.syntax
    if isinstance(e, (syn.Symbol, syn.Epsilon)):
        return e
    if isinstance(e, syn.Concat):
        return syn.concat([_star_normal(api, p) for p in e.parts])
    if isinstance(e, syn.Alt):
        return syn.alt([_star_normal(api, b) for b in e.branches])
    inner = _star_normal(api, e.inner)
    low, high = e.count.low, e.count.high
    if high == 1:
        return inner if low == 1 else syn.rep(inner, 0, 1)
    return syn.rep(inner, min(low, 1), None)


def _first_conflict(api, e):
    """First same-symbol position pair in the first set, then in each follow set.

    Returns None or ``(symbol, (p, q), locus_kind, locus_position)``.
    """
    nfa = api.ck.glushkov(_star_normal(api, e))
    symbols = _first_occurrence_symbols(api, e)
    for locus in range(nfa.state_count):
        best = None
        for sym in symbols:
            targets = sorted(nfa.step((locus,), sym))
            if len(targets) >= 2 and (best is None or targets[:2] < best[1]):
                best = (sym, targets[:2])
        if best is not None:
            kind = "first-set" if locus == 0 else "follow-set"
            return [best[0], best[1], kind, None if locus == 0 else locus]
    return None


def _conflict_list(conflict):
    if conflict is None:
        return None
    return [
        conflict.symbol,
        list(conflict.positions),
        conflict.locus_kind,
        conflict.locus_position,
    ]


# --- corpus ----------------------------------------------------------------------


def _random_expr(api, rng, depth, symbols):
    syn = api.ck.syntax
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.08:
            return syn.EPSILON
        return syn.Symbol(rng.choice(symbols))
    kind = rng.choices(("concat", "alt", "rep"), weights=(4, 3, 3))[0]
    if kind == "concat":
        return syn.concat(
            [_random_expr(api, rng, depth - 1, symbols) for _ in range(rng.randint(2, 3))]
        )
    if kind == "alt":
        return syn.alt(
            [_random_expr(api, rng, depth - 1, symbols) for _ in range(rng.randint(2, 3))]
        )
    inner = _random_expr(api, rng, depth - 1, symbols)
    low = rng.randint(0, CORPUS_MAX_COUNT - 1)
    if rng.random() < 0.2:
        return syn.rep(inner, low, None)
    return syn.rep(inner, low, rng.randint(max(low, 1), CORPUS_MAX_COUNT))


_SUGAR = {(0, 1): "?", (0, None): "*", (1, None): "+"}


def _count_text(rng, low, high) -> str:
    if (low, high) in _SUGAR and rng.random() < 0.5:
        return _SUGAR[(low, high)]
    if high is None:
        return "{%d,}" % low
    if low == high and rng.random() < 0.5:
        return "{%d}" % low
    return "{%d,%d}" % (low, high)


def _to_text(api, e, rng) -> str:
    """Expression text written by the benchmark, with random sugar."""
    syn = api.ck.syntax
    if isinstance(e, syn.Symbol):
        return e.name
    if isinstance(e, syn.Epsilon):
        return "%"
    if isinstance(e, syn.Alt):
        return "(" + "|".join(_to_text(api, b, rng) for b in e.branches) + ")"
    if isinstance(e, syn.Concat):
        return " ".join(_to_text(api, p, rng) for p in e.parts)
    body = _to_text(api, e.inner, rng)
    if isinstance(e.inner, (syn.Concat, syn.Rep)):
        body = "(" + body + ")"
    return body + _count_text(rng, e.count.low, e.count.high)


def _word_bound(api, e, alphabet: int) -> int:
    """Upper bound on the words of L(e) up to ENUM_LEN: derivations per
    length, each clamped to the number of words of that length."""
    syn = api.ck.syntax
    top = [alphabet**n for n in range(ENUM_LEN + 1)]

    def conv(x, y):
        out = [0] * (ENUM_LEN + 1)
        for i, a in enumerate(x):
            if a:
                for j in range(ENUM_LEN + 1 - i):
                    out[i + j] += a * y[j]
        return [min(v, t) for v, t in zip(out, top)]

    def walk(x):
        if isinstance(x, syn.Symbol):
            return [0, 1] + [0] * (ENUM_LEN - 1)
        if isinstance(x, syn.Epsilon):
            return [1] + [0] * ENUM_LEN
        if isinstance(x, syn.Alt):
            vectors = [walk(b) for b in x.branches]
            return [min(sum(v), t) for v, t in zip(zip(*vectors), top)]
        if isinstance(x, syn.Concat):
            acc = [1] + [0] * ENUM_LEN
            for part in x.parts:
                acc = conv(acc, walk(part))
            return acc
        inner = walk(x.inner)
        low, high = x.count.low, x.count.high
        rounds = low + ENUM_LEN + 1 if high is None else high
        power, total = [1] + [0] * ENUM_LEN, [0] * (ENUM_LEN + 1)
        for i in range(rounds + 1):
            if i >= low:
                total = [min(a + b, t) for a, b, t in zip(total, power, top)]
            power = conv(power, inner)
        return total

    return sum(walk(e))


def _corpus_expected(api, ast, words, language):
    symbols = _first_occurrence_symbols(api, ast)
    longest = _max_length(api, ast)
    return {
        "conflict": _first_conflict(api, ast),
        "lengths": sorted({len(w) for w in language}),
        "saturated": longest is None or longest > ENUM_LEN,
        "words": _word_list(_shortlex(language, symbols)),
        "member": [w in language for w in words],
    }


def _api_query(api, text, ast, words, expected) -> Query:
    ck = api.ck

    def run():
        e = ck.parse_expr(text)
        rendered = ck.render_expr(e)
        verdict = ck.check_unambiguous(e)
        lengths = ck.length_set(e, ENUM_LEN)
        found = ck.enumerate_words(e, ENUM_LEN)
        member = [ck.member(e, w) for w in words]
        return e, rendered, verdict, lengths, found, member

    def check(result):
        e, rendered, verdict, lengths, found, member = result
        got = {
            "conflict": _conflict_list(verdict.conflict),
            "lengths": sorted(lengths.members),
            "saturated": lengths.saturated,
            "words": _word_list(found),
            "member": member,
        }
        ok = (
            e == ast
            and ck.parse_expr(rendered) == ast
            and verdict.unambiguous == (verdict.conflict is None)
            and got == expected
        )
        return ok, got

    return Query(run, check)


def _cli_call(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = api.ck.cli.main(argv)
    return status, out.getvalue()


def _cli_query(api, command, text, ast, words, expected) -> Query:
    word_text = " ".join(words[0]) if words[0] else "%"
    argv = {
        "parse": ["parse", text],
        "unambiguous": ["unambiguous", text],
        "lengths": ["lengths", text, str(ENUM_LEN)],
        "enumerate": ["enumerate", text, str(ENUM_LEN)],
        "member": ["member", text, word_text],
    }[command] + ["--format", "json"]

    def run():
        return _cli_call(api, argv)

    def check(result):
        status, stdout = result
        envelope = json.loads(stdout)
        report = envelope["report"] or {}
        if command == "parse":
            got = [status, envelope["verdict"]]
            ok = got == [0, True] and api.ck.parse_expr(report["expr"]) == ast
            return ok, got
        if command == "unambiguous":
            conflict = report["conflict"]
            got = [status, envelope["verdict"], conflict]
            want = expected["conflict"]
            ok = (status == 0) == (want is None) and envelope["verdict"] == (
                want is None
            )
            if want is not None:
                locus = "first-set" if want[2] == "first-set" else f"follow-set of {want[3]}"
                ok = ok and conflict == {
                    "symbol": want[0],
                    "positions": want[1],
                    "locus": locus,
                }
            return ok, got
        if command == "lengths":
            got = [status, report["members"], report["saturated"]]
            return got == [0, expected["lengths"], expected["saturated"]], got
        if command == "enumerate":
            got = [status, report["words"]]
            return got == [0, expected["words"]], got
        want = expected["member"][0]
        got = [status, envelope["verdict"]]
        return got == [0 if want else 1, want], got

    return Query(run, check)


def _seeded_words(rng, symbols, language) -> list[tuple]:
    inside = _shortlex(language, symbols)
    words = []
    if inside:
        words.append(rng.choice(inside))
    while len(words) < 3:
        words.append(tuple(rng.choice(symbols) for _ in range(rng.randint(0, ENUM_LEN))))
    return words


def build_corpus(api, seed: int, tiny: bool) -> Workload:
    size = 2 * CLI_EVERY if tiny else CORPUS_SIZE
    rng = random.Random(seed)
    queries = []
    while len(queries) < size:
        symbols = rng.sample(SYMBOL_POOL, rng.choice((3, 4)))
        ast = _random_expr(api, rng, CORPUS_DEPTH, symbols)
        # the bound skips the oracle on languages far past the cap
        if _word_bound(api, ast, len(symbols)) > 5 * CORPUS_WORD_CAP:
            continue
        language = api.oracle.brute_language(ast, ENUM_LEN)
        if len(language) > CORPUS_WORD_CAP:
            continue
        text = _to_text(api, ast, rng)
        words = _seeded_words(rng, _first_occurrence_symbols(api, ast) or symbols, language)
        expected = _corpus_expected(api, ast, words, language)
        if (len(queries) + 1) % CLI_EVERY == 0:
            command = CLI_COMMANDS[(len(queries) // CLI_EVERY) % len(CLI_COMMANDS)]
            queries.append(_cli_query(api, command, text, ast, words, expected))
        else:
            queries.append(_api_query(api, text, ast, words, expected))
    return Workload(queries, _corpus_probes(api), EXCLUDED["corpus"])


def _corpus_probes(api) -> list[tuple[str, Query]]:
    deep = "(" * 2000 + "a" + ")" * 2000

    def deep_check(e):
        return e == api.ck.syntax.Symbol("a"), "a"

    def zero_cutoff_check(result):
        status, stdout = result
        envelope = json.loads(stdout) if stdout else None
        ok = status == 2 and envelope is not None and envelope["error"] is not None
        return ok, [status]

    zero_cutoff = ["lengths", "a", "0", "--format", "json"]
    return [
        ("parse of 2000 nested parentheses", Query(lambda: api.ck.parse_expr(deep), deep_check)),
        (
            "cli: lengths a 0 --format json",
            Query(lambda: _cli_call(api, zero_cutoff), zero_cutoff_check),
        ),
    ]


# --- counters --------------------------------------------------------------------

# (k, n) ladder of PARTITION instances; even slots have an equal split and
# odd slots have none, so each seed does the same amount of search.
PARTITION_LADDER = (
    (3, 12), (4, 20), (4, 25), (5, 30), (5, 35), (6, 40), (6, 45), (7, 50), (8, 60), (8, 70)
)
MEMBER_LADDER = (100, 140, 180, 220, 260)
VERIFY_COUNT = 6


def _composition(rng, total, parts) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _partition_weights(rng, k, n, split: bool) -> tuple[int, ...]:
    if split:
        weights = _composition(rng, n, (k + 1) // 2) + _composition(rng, n, k // 2)
    else:
        # all weights even and n odd: every subset sum is even, so none is n
        n |= 1
        weights = [2 * w for w in _composition(rng, n, k)]
    rng.shuffle(weights)
    return tuple(weights)


def _partition_query(api, weights) -> Query:
    ck = api.ck
    inst = ck.PartitionInstance(weights)
    exists, _ = ck.brute_force_partition(inst)
    if exists != api.oracle.naive_partition(list(weights)):
        raise RuntimeError(f"partition references disagree on {weights}")

    return Query(lambda: ck.decide_partition_via_inclusion(inst), lambda got: (got == exists, got))


def _verify_query(api, weights) -> Query:
    ck = api.ck
    inst = ck.PartitionInstance(weights)
    exists, chosen = ck.brute_force_partition(inst)
    if exists != api.oracle.naive_partition(list(weights)):
        raise RuntimeError(f"partition references disagree on {weights}")
    n = inst.n
    # Shortest word of L(E1) - L(E2): a0^(n+1), then one block a_i^(w_i) per
    # chosen item; earlier items first is also the lexicographic minimum.
    witness = None
    if exists:
        witness = ["a0"] * (n + 1)
        for i in chosen:
            witness += [f"a{i}"] * weights[i - 1]

    def run():
        return ck.verify_theorem_instance(inst)

    def check(report):
        got = [
            report.partition_exists,
            report.inclusion_holds,
            list(report.inclusion_witness) if report.inclusion_witness is not None else None,
            report.all_checks_pass,
        ]
        return got == [exists, not exists, witness, True], got

    return Query(run, check)


def _member_query(api, rng, u) -> Query:
    x, y, z = rng.sample(SYMBOL_POOL, 3)
    expr = api.ck.parse_expr(f"({x}|{y}){{0,{u}}} {z}")
    length = rng.randint(u - 20, u + 20)
    word = tuple(rng.choice((x, y)) for _ in range(length)) + (z,)
    want = length <= u

    def run():
        return api.ck.member(expr, word)

    return Query(run, lambda got: (got == want, got))


def build_counters(api, seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    ladder = PARTITION_LADDER[:2] if tiny else PARTITION_LADDER
    queries = [
        _partition_query(api, _partition_weights(rng, k, n, split=i % 2 == 0))
        for i, (k, n) in enumerate(ladder)
    ]
    queries += [_member_query(api, rng, u) for u in MEMBER_LADDER[: 1 if tiny else None]]
    for _ in range(VERIFY_COUNT):
        k = rng.randint(2, 4)
        weights = [rng.randint(1, 5) for _ in range(k)]
        if sum(weights) % 2:
            weights[0] += 1
        queries.append(_verify_query(api, tuple(weights)))
    rng.shuffle(queries)
    return Workload(queries, _counters_probes(api), EXCLUDED["counters"])


def _counters_probes(api) -> list[tuple[str, Query]]:
    ck = api.ck
    big = ck.PartitionInstance((20,) * 50)
    counted = ck.parse_expr("a{0,200000}")
    def is_true(got):  # (20,)*50 splits evenly, and "a" is a member
        return got is True, got

    return [
        (
            "partition (20,)*50, n=500",
            Query(lambda: ck.decide_partition_via_inclusion(big), is_true),
        ),
        ('member "a{0,200000}" "a"', Query(lambda: ck.member(counted, ("a",)), is_true)),
    ]


# --- search ----------------------------------------------------------------------

SEARCH_KS = (8, 9, 10, 11)
OVERLAP_US = (15, 17, 19, 21, 23, 25)
OVERLAP_HITS = 2
RANDOM_PAIRS = 6


def _pair_query(api, kind, left_text, right_text, want) -> Query:
    """A pair query; ``want`` is its expected canonical verdict."""
    ck = api.ck
    left, right = ck.parse_expr(left_text), ck.parse_expr(right_text)

    def run():
        return getattr(ck, kind)(left, right)

    def check(verdict):
        got = _verdict_list(verdict)
        return got == want, got

    return Query(run, check)


def _verdict_list(verdict):
    witness = list(verdict.witness) if verdict.witness is not None else None
    if hasattr(verdict, "holds"):
        return ["includes", verdict.holds, witness]
    if hasattr(verdict, "overlaps"):
        return ["overlaps", verdict.overlaps, witness]
    return ["equivalent", verdict.equivalent, witness, verdict.side]


def _finite_pair(api, rng):
    symbols = rng.sample(SYMBOL_POOL, 3)
    while True:
        left = _random_expr(api, rng, 3, symbols)
        right = _random_expr(api, rng, 3, symbols)
        longest = _max_length(api, left)
        if longest is not None and 0 < longest <= 8:
            return left, right, longest


def _random_pair_query(api, rng, kind) -> Query:
    ck = api.ck
    left, right, longest = _finite_pair(api, rng)
    order = _union_symbols(api, left, right)
    left_words = api.oracle.brute_language(left, longest)
    right_words = api.oracle.brute_language(right, longest)
    if kind == "includes":
        ref = api.includes_reference(left, right, longest)
        witness = list(ref.witness) if ref.witness is not None else None
        missing = _shortlex(left_words - right_words, order)
        if witness != (list(missing[0]) if missing else None):
            raise RuntimeError("inclusion references disagree")
        want = ["includes", ref.holds, witness]
    else:
        common = _shortlex(left_words & right_words, order)
        want = ["overlaps", bool(common), list(common[0]) if common else None]
    return _pair_query(api, kind, ck.render_expr(left), ck.render_expr(right), want)


def build_search(api, seed: int, tiny: bool) -> Workload:
    """Three families whose cost is fixed by k or u, plus a few random pairs.

    The seed renames the symbols of the families and draws the random
    pairs, so every seed has the same spread of query costs.
    """
    rng = random.Random(seed)
    queries = []
    for k in SEARCH_KS[: 1 if tiny else None]:
        a, b, c = rng.sample(SYMBOL_POOL, 3)
        ab = f"({a}|{b})"
        narrow = f"{ab}* {a} {ab}{{{k}}}"
        wide = f"{ab}* ({a}|{c}) {ab}{{{k}}}"
        queries.append(_pair_query(api, "includes", narrow, wide, ["includes", True, None]))
        # shortest word with c at position -(k+1) is c a^k
        queries.append(
            _pair_query(api, "includes", wide, narrow, ["includes", False, [c] + [a] * k])
        )
        split = f"{ab}* {a} {ab}{{{k - 1}}} {ab}"
        queries.append(
            _pair_query(api, "equivalent", narrow, split, ["equivalent", True, None, None])
        )
    for i, u in enumerate(OVERLAP_US[: 1 if tiny else None]):
        a, b, c, d, e = rng.sample(SYMBOL_POOL, 5)
        left = f"({a}|{b}|{c}){{0,{u}}} {d}"
        right = f"({a}|{b}){{0,{u}}} ({c}|{e})"
        queries.append(_pair_query(api, "overlaps", left, right, ["overlaps", False, None]))
        if i < OVERLAP_HITS:
            # the common words of length 2 are a d and b d; a d comes first
            left = f"({a}|{b}|{c}){{1,{u}}} {d}"
            hit = f"({a}|{b}){{1,{u}}} ({c}|{d})"
            queries.append(_pair_query(api, "overlaps", left, hit, ["overlaps", True, [a, d]]))
    for i in range(2 if tiny else RANDOM_PAIRS):
        queries.append(_random_pair_query(api, rng, "includes" if i % 2 == 0 else "overlaps"))
    rng.shuffle(queries)
    return Workload(queries, [], EXCLUDED["search"])


BUILDERS = {"corpus": build_corpus, "counters": build_counters, "search": build_search}


def build(api, name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's query set for ``seed``; ``tiny`` is for the smoke test."""
    return BUILDERS[name](api, seed, tiny)
