"""Exception hierarchy shared by all crekit modules.

Every error carries a stable machine-readable ``code`` so that scripted
callers (and the CLI) can dispatch on it without parsing messages.
"""


class CrekitError(Exception):
    """Base class for all errors raised by crekit."""

    code = "ERROR"


class ExprSyntaxError(CrekitError):
    """Expression text does not conform to the grammar."""

    code = "SYNTAX"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.reason = message


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
            f"counter expansion needs {required} AST nodes, cap is {allowed}"
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
