"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import random
import subprocess
import sys
import time

import pytest

from conftest import make_corpus
from crekit.decision import includes
from crekit.engine import (
    enumerate_words,
    expand,
    glushkov,
    length_set,
    member,
)
from crekit.errors import ResultTooLarge
from crekit.partition import (
    PartitionInstance,
    brute_force_partition,
    build_expressions,
    decide_partition_via_inclusion,
    even_total_instances,
    subset_sums,
    verify_theorem_instance,
)
from crekit.syntax import Alt, Concat, Symbol, alphabet_of, parse_expr, render_expr
from crekit.unambiguity import check_unambiguous, is_single_occurrence
from oracle import all_words, includes_reference
from position_oracle import positions_reference

K_MAX, W_MAX = 4, 5


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def instances():
    return list(even_total_instances(K_MAX, W_MAX))


@pytest.fixture(scope="module")
def reports(instances):
    return [verify_theorem_instance(inst) for inst in instances]


def test_criterion_1_exhaustive_theorem(instances):
    started = time.time()
    mismatches = [
        inst.weights
        for inst in instances
        if decide_partition_via_inclusion(inst) != brute_force_partition(inst)[0]
    ]
    elapsed = time.time() - started
    _report(
        1,
        not mismatches and elapsed < 300,
        f"{len(instances)} even-total instances (k<=4, w<=5), "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_length_laws(instances):
    failures = []
    for inst in instances:
        n = inst.n
        e1, e2 = build_expressions(inst)
        got1 = length_set(e1, 3 * n + 1)
        got2 = length_set(e2, 4 * n)
        want1 = frozenset(n + 1 + s for s in subset_sums(inst.weights))
        want2 = frozenset(range(n + 1, 4 * n + 1)) - {2 * n + 1}
        if got1.members != want1 or got1.saturated:
            failures.append((inst.weights, "E1"))
        if got2.members != want2 or got2.saturated:
            failures.append((inst.weights, "E2"))
    _report(
        2,
        not failures,
        f"exact length-set equality on {len(instances)} instances, "
        f"{len(failures)} failures",
    )


def test_criterion_3_unambiguity(instances):
    failures = []
    for inst in instances:
        for e in build_expressions(inst):
            if not (is_single_occurrence(e) and check_unambiguous(e).unambiguous):
                failures.append(inst.weights)

    def valid_conflict(e, want_positions):
        verdict = check_unambiguous(e)
        if verdict.unambiguous:
            return False
        c = verdict.conflict
        sets = positions_reference(e, counter_blind=True)
        p, q = c.positions
        in_named_set = (
            {p, q} <= sets.first
            if c.locus_kind == "first-set"
            else {p, q} <= sets.follow[c.locus_position]
        )
        return (
            c.positions == want_positions
            and sets.symbols[p - 1] == sets.symbols[q - 1] == c.symbol
            and in_named_set
        )

    a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
    rejects = valid_conflict(Alt((a, a)), (1, 2)) and valid_conflict(
        Alt((Concat((a, b)), Concat((a, c)))), (1, 3)
    )
    _report(
        3,
        not failures and rejects,
        f"all {2 * len(instances)} generated expressions unambiguous; "
        f"(a|a) and (ab|ac) rejected with valid conflicts: {rejects}",
    )


def test_criterion_4_witness_law(instances, reports):
    failing = [(i, r) for i, r in zip(instances, reports) if not r.inclusion_holds]
    violations = []
    for inst, rep in failing:
        n = inst.n
        w = rep.inclusion_witness
        ok = (
            len(w) == 2 * n + 1
            and w[: n + 1] == ("a0",) * (n + 1)
            and member(rep.e1, w)
            and not member(rep.e2, w)
        )
        if not ok:
            violations.append(inst.weights)
    _report(
        4,
        bool(failing) and not violations,
        f"{len(failing)} failing inclusions, witnesses all of length 2n+1 "
        f"starting a0^(n+1), {len(violations)} violations",
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(1789)
    compared = 0
    disagreements = []
    attempts = 0
    while compared < 200 and attempts < 5000:
        attempts += 1
        pool = make_corpus(2, seed=rng.randrange(10**9), allow_unbounded=False)
        left, right = pool
        a = glushkov(expand(left))
        b = glushkov(expand(right))
        if a.state_count > 30 or b.state_count > 30:
            continue
        # finite language: its longest word cannot outrun the acyclic automaton
        lengths = length_set(left, 64)
        assert not lengths.saturated
        bound = max(lengths.members)
        fast = includes(left, right)
        try:
            slow = includes_reference(left, right, bound)
        except ResultTooLarge:
            continue
        compared += 1
        if (fast.holds, fast.witness) != (slow.holds, slow.witness):
            disagreements.append((render_expr(left), render_expr(right)))
    _report(
        5,
        compared >= 200 and not disagreements,
        f"{compared} random pairs compared, {len(disagreements)} disagreements",
    )


def test_criterion_6_engine_cross_checks():
    corpus = make_corpus(500, seed=20240527)
    assert len(corpus) >= 500
    member_fail = enum_fail = length_fail = round_trip_fail = 0
    for e in corpus:
        nfa = glushkov(expand(e))
        syms = tuple(alphabet_of(e))
        words6 = enumerate_words(e, 6, word_limit=500_000)
        accepted6 = {w for w in all_words(syms, 6) if nfa.accepts(w)}
        if set(words6) != accepted6:
            member_fail += 1
        words8 = enumerate_words(e, 8, word_limit=500_000)
        if {len(w) for w in words8} != set(length_set(e, 8).members):
            length_fail += 1
        lengths = [len(w) for w in words8]
        if lengths != sorted(lengths):
            enum_fail += 1
        if parse_expr(render_expr(e)) != e:
            round_trip_fail += 1
    total_fail = member_fail + enum_fail + length_fail + round_trip_fail
    _report(
        6,
        total_fail == 0,
        f"{len(corpus)} expressions: member/enumerate {member_fail} fail, "
        f"order {enum_fail} fail, lengths {length_fail} fail, "
        f"round-trip {round_trip_fail} fail",
    )


def test_criterion_7_resource_discipline(tmp_path):
    # 50 items of weight 20: total 1000, so n = 500
    weights_file = tmp_path / "n500.txt"
    weights_file.write_text(" ".join(["20"] * 50) + "\n")
    inst = PartitionInstance((20,) * 50)
    assert inst.n == 500
    wall_clock_bound = 120
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crekit.cli", "partition", str(weights_file)],
            capture_output=True,
            text=True,
            timeout=wall_clock_bound,
        )
    except subprocess.TimeoutExpired:
        _report(7, False, f"hung past the {wall_clock_bound}s wall-clock bound")
        return
    completed = proc.returncode in (0, 1)
    failed_loudly = proc.returncode == 3 and (
        "EXPANSION_CAP" in proc.stderr or "STATE_BUDGET" in proc.stderr
    )
    outcome = (
        f"completed with exit {proc.returncode}"
        if completed
        else f"exit {proc.returncode}, stderr: {proc.stderr.strip()}"
    )
    _report(7, completed or failed_loudly, f"n=500 instance {outcome}")
