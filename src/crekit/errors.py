"""Exception hierarchy shared by all crekit modules.

Every error carries a stable machine-readable ``code`` so that scripted
callers (and the CLI) can dispatch on it without parsing messages.
"""

import math
import sys


def int_digit_limit() -> int:
    """The most digits ``int`` converts from text, or 0 for no limit.

    The limit is Python's ``sys.get_int_max_str_digits()``, 4,300 by
    default; Python releases before 3.10.7 have none.  It bounds ``str`` of
    an int as well.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


def _decimal(x: int) -> str:
    """``str(x)`` for x >= 0, or ``10^e or more`` when x has too many digits."""
    limit = int_digit_limit()
    if not limit or x < 10**limit:
        return str(x)
    e = int(math.log10(x))  # the float may be off by one either way
    if x >= 10 ** (e + 1):
        e += 1
    elif x < 10**e:
        e -= 1
    return f"10^{e} or more"


class CrekitError(Exception):
    """Base class for all errors raised by crekit."""

    code = "ERROR"


class ExprSyntaxError(CrekitError):
    """Expression text does not conform to the grammar."""

    code = "SYNTAX"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidCountError(CrekitError):
    """Occurrence indicator violates low <= high or is the degenerate {0,0}."""

    code = "INVALID_COUNT"

    def __init__(self, message: str, position: "int | None" = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class OddTotalError(CrekitError):
    """The instance's total weight is odd, so the construction is undefined."""

    code = "ODD_TOTAL"


class ExpansionCapExceeded(CrekitError):
    """Counter expansion would exceed the configured AST node cap."""

    code = "EXPANSION_CAP"

    def __init__(self, required: int, allowed: int):
        super().__init__(
            f"counter expansion needs {_decimal(required)} AST nodes,"
            f" cap is {_decimal(allowed)}"
        )
        self.required = required
        self.allowed = allowed


class StateBudgetExceeded(CrekitError):
    """Lazy determinization grew past the configured product-state budget."""

    code = "STATE_BUDGET"

    def __init__(self, budget: int, found: int, depth: int):
        super().__init__(
            f"product-state budget of {budget} exceeded:"
            f" {found} pairs found by depth {depth}"
        )
        self.budget = budget
        self.found = found
        self.depth = depth


class ResultTooLarge(CrekitError):
    """Enumeration produced more words than the configured limit."""

    code = "RESULT_TOO_LARGE"

    def __init__(self, limit: int):
        super().__init__(f"enumeration exceeds the word-count limit of {limit}")
        self.limit = limit
