"""crekit: counted regular expressions with exact decision procedures.

Counted (numeric-occurrence) regular expressions with a parser and
renderer, exact semantics via counter expansion and position automata,
weak-unambiguity checking, inclusion/overlap/equivalence decisions with
counterexample witnesses, and a PARTITION decider that works through a
single inclusion query.
"""

from .decision import (
    DEFAULT_STATE_BUDGET,
    EquivalenceVerdict,
    InclusionVerdict,
    OverlapVerdict,
    equivalent,
    includes,
    overlaps,
    union_alphabet,
)
from .engine import (
    DEFAULT_EXPANSION_CAP,
    DEFAULT_WORD_LIMIT,
    LengthSet,
    Nfa,
    Word,
    automaton,
    enumerate_words,
    expand,
    glushkov,
    language_iter,
    length_set,
    member,
    node_count,
    parse_word,
    render_word,
)
from .errors import (
    CrekitError,
    ExpansionCapExceeded,
    ExprSyntaxError,
    InvalidCountError,
    OddTotalError,
    ResultTooLarge,
    StateBudgetExceeded,
)
from .partition import (
    PartitionInstance,
    TheoremReport,
    brute_force_partition,
    build_expressions,
    decide_partition_via_inclusion,
    even_total_instances,
    parse_weights,
    subset_sums,
    verify_theorem_instance,
)
from .syntax import (
    EPSILON,
    Alt,
    Concat,
    CountRange,
    Epsilon,
    Expr,
    Rep,
    Symbol,
    alphabet_of,
    alt,
    concat,
    is_symbol_name,
    parse_expr,
    render_expr,
    rep,
)
from .unambiguity import (
    Conflict,
    UnambiguityVerdict,
    check_unambiguous,
    is_single_occurrence,
)

__version__ = "0.1.0"
