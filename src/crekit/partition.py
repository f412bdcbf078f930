"""Deciding PARTITION through one counted-expression inclusion query.

Given positive item weights with even total 2n, two single-occurrence
expressions are built over a0..ak:

    E1 = a0{n+1,n+1} (a1{w1,w1}|%) ... (ak{wk,wk}|%)
    E2 = ((a0|a1|...|ak){n+1,2n}){1,2}

Words of E1 are a0^(n+1) followed by a suffix whose length is a subset sum
of the weights, so E1 has a word of length 2n+1 exactly when some subset
sums to n.  E2 accepts precisely the words whose length lies in [n+1,4n]
but is not 2n+1.  Hence the inclusion L(E1) <= L(E2) fails exactly when an
equal-weight split exists, and a single inclusion query decides PARTITION.
E2 fixes only lengths, so ``includes`` decides that query on the length
bitsets of E1 and E2 and builds only the automaton of E1, to spell the
witness: E2 is never built, and the cap bounds E1 alone.

``verify_theorem_instance`` checks this equivalence (and the length and
unambiguity facts it rests on) against an independent subset-sum solver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from .decision import DEFAULT_STATE_BUDGET, InclusionVerdict, includes
from .engine import DEFAULT_EXPANSION_CAP, Word, length_set
from .errors import ExprSyntaxError, OddTotalError
from .syntax import EPSILON, Expr, Symbol, alt, concat, int_digit_limit, rep
from .unambiguity import check_unambiguous, is_single_occurrence

InclusionOracle = Callable[[Expr, Expr], InclusionVerdict]


@dataclass(frozen=True)
class PartitionInstance:
    """Positive item weights w_1..w_k."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("an instance needs at least one weight")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def n(self) -> int | None:
        """Half the total weight, or None when the total is odd."""
        return self.total // 2 if self.total % 2 == 0 else None


def parse_weights(text: str) -> PartitionInstance:
    """Parse a weights file: positive decimal integers split on whitespace.

    A weight with more digits than ``int`` converts (``int_digit_limit``)
    is a syntax error.
    """
    weights = []
    limit = int_digit_limit()
    for m in re.finditer(r"\S+", text):
        token, pos = m.group(), m.start()
        if not (token.isascii() and token.isdigit()):
            raise ExprSyntaxError(
                f"weights must be decimal integers, got {token!r}", pos
            )
        if limit and len(token) > limit:
            raise ExprSyntaxError(f"weights must have at most {limit} digits", pos)
        value = int(token)
        if value < 1:
            raise ExprSyntaxError(f"weights must be positive, got {token!r}", pos)
        weights.append(value)
    if not weights:
        raise ExprSyntaxError("weights file is empty", 0)
    return PartitionInstance(tuple(weights))


def subset_sums(weights) -> set[int]:
    sums = {0}
    for w in weights:
        sums |= {s + w for s in sums}
    return sums


def build_expressions(inst: PartitionInstance) -> tuple[Expr, Expr]:
    """The two single-occurrence expressions for an even-total instance."""
    n = inst.n
    if n is None:
        raise OddTotalError(
            f"total weight {inst.total} is odd; no equal split can exist"
        )
    symbols = [Symbol(f"a{i}") for i in range(inst.k + 1)]
    parts: list[Expr] = [rep(symbols[0], n + 1, n + 1)]
    for sym, w in zip(symbols[1:], inst.weights):
        parts.append(alt([rep(sym, w, w), EPSILON]))
    e1 = concat(parts)
    e2 = rep(rep(alt(symbols), n + 1, 2 * n), 1, 2)
    return e1, e2


def brute_force_partition(
    inst: PartitionInstance,
) -> tuple[bool, tuple[int, ...] | None]:
    """Exact subset-sum check; witness is the first index set (1-based).

    "First" orders subsets as bitstrings over item indices, preferring to
    include earlier items; found by greedy selection over a suffix
    reachability table.
    """
    if inst.n is None:
        return False, None
    target = inst.n
    k = inst.k
    # reachable[i] = sums attainable from items i+1..k (0-based suffix)
    reachable: list[set[int]] = [set() for _ in range(k + 1)]
    reachable[k] = {0}
    for i in range(k - 1, -1, -1):
        w = inst.weights[i]
        nxt = reachable[i + 1]
        reachable[i] = nxt | {s + w for s in nxt if s + w <= target}
    if target not in reachable[0]:
        return False, None
    chosen: list[int] = []
    remaining = target
    for i in range(k):
        w = inst.weights[i]
        if w <= remaining and (remaining - w) in reachable[i + 1]:
            chosen.append(i + 1)
            remaining -= w
    return True, tuple(chosen)


def decide_partition_via_inclusion(
    inst: PartitionInstance,
    oracle: InclusionOracle | None = None,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """Decide PARTITION with one inclusion query.

    An odd total answers False without consulting the oracle; otherwise a
    partition exists exactly when the inclusion fails.
    """
    if inst.n is None:
        return False
    if oracle is None:
        def oracle(left, right):
            return includes(left, right, cap=cap, state_budget=state_budget)
    e1, e2 = build_expressions(inst)
    return not oracle(e1, e2).holds


@dataclass(frozen=True)
class TheoremReport:
    """Everything checked about one even-total instance."""

    instance: PartitionInstance
    e1: Expr
    e2: Expr
    partition_exists: bool
    partition_witness: tuple[int, ...] | None
    inclusion_holds: bool
    inclusion_witness: Word | None
    unambiguity_ok: tuple[bool, bool]  # (E1, E2)
    length_laws_ok: bool

    @property
    def theorem_holds(self) -> bool:
        """A partition exists exactly when the inclusion fails."""
        return self.partition_exists != self.inclusion_holds

    @property
    def all_checks_pass(self) -> bool:
        return self.theorem_holds and all(self.unambiguity_ok) and self.length_laws_ok


def verify_theorem_instance(
    inst: PartitionInstance,
    *,
    cap: int = DEFAULT_EXPANSION_CAP,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> TheoremReport:
    """Cross-check the inclusion route against brute force on one instance.

    Also verifies that both expressions are single-occurrence unambiguous
    and that their length sets are exactly {n+1+s : s a subset sum} and
    [n+1, 4n] minus {2n+1}.
    """
    n = inst.n
    if n is None:
        raise OddTotalError(
            f"total weight {inst.total} is odd; the construction is undefined"
        )
    e1, e2 = build_expressions(inst)
    exists, subset = brute_force_partition(inst)
    verdict = includes(e1, e2, cap=cap, state_budget=state_budget)

    unambiguity_ok = (
        is_single_occurrence(e1) and check_unambiguous(e1).unambiguous,
        is_single_occurrence(e2) and check_unambiguous(e2).unambiguous,
    )

    lengths_e1 = length_set(e1, 3 * n + 1)
    lengths_e2 = length_set(e2, 4 * n)
    expected_e1 = frozenset(n + 1 + s for s in subset_sums(inst.weights))
    expected_e2 = frozenset(range(n + 1, 4 * n + 1)) - {2 * n + 1}
    length_laws_ok = (
        lengths_e1.members == expected_e1
        and not lengths_e1.saturated
        and lengths_e2.members == expected_e2
        and not lengths_e2.saturated
    )

    return TheoremReport(
        instance=inst,
        e1=e1,
        e2=e2,
        partition_exists=exists,
        partition_witness=subset,
        inclusion_holds=verdict.holds,
        inclusion_witness=verdict.witness,
        unambiguity_ok=unambiguity_ok,
        length_laws_ok=length_laws_ok,
    )


def even_total_instances(k_max: int, w_max: int) -> Iterator[PartitionInstance]:
    """All weight lists with 1 <= k <= k_max, weights in 1..w_max, even total."""
    for k in range(1, k_max + 1):
        for combo in product(range(1, w_max + 1), repeat=k):
            if sum(combo) % 2 == 0:
                yield PartitionInstance(combo)
