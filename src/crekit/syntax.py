"""Concrete syntax and abstract syntax trees for counted regular expressions.

An expression is built from symbols, the empty word ``%``, juxtaposition
(concatenation), ``|`` (alternation) and numeric occurrence indicators
``{l,u}`` where the upper bound may be omitted for "unbounded".  The sugar
forms ``?``, ``*``, ``+``, ``{l}`` and ``{l,}`` normalize to occurrence
indicators at parse time.

Grammar::

    expr   := alt
    alt    := cat ("|" cat)+ | cat
    cat    := rep+
    rep    := atom count?
    atom   := SYMBOL | "%" | "(" expr ")"
    count  := "{" INT "}" | "{" INT "," "}" | "{" INT "," INT "}"
            | "?" | "*" | "+"
    SYMBOL := letter (letter|digit)*
    INT    := digit+

A symbol lexeme is a letter followed by letters or digits, so ``a0`` and
``a12`` are single symbols and adjacent symbols must be separated by
whitespace (``a b``, not ``ab`` -- the latter is one two-letter symbol).
Whitespace is otherwise insignificant.

The parser is one loop over a list of plain ``(kind, text, position)``
token tuples that keeps each open group on an explicit stack, and every
walk over a tree evaluates the node tuple of ``postorder`` with a value
stack, so the nesting depth of an expression is bounded by memory, not by
the recursion limit.  (The generated dataclass ``==``, ``hash`` and
``repr`` of the nodes still recurse.)  A parse makes one ``Symbol`` node
per name and shares it wherever the name occurs.

All AST values are immutable and structurally comparable, and every
function here is pure.  ``postorder`` remembers its last walk (see there),
which changes what stays in memory, never a result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExprSyntaxError, InvalidCountError, int_digit_limit

UNBOUNDED = None  # sentinel value of CountRange.high


@dataclass(frozen=True)
class CountRange:
    """Occurrence indicator {low,high}; ``high is None`` means unbounded."""

    low: int
    high: int | None

    def __post_init__(self):
        if self.low < 0:
            raise InvalidCountError(f"negative lower count {self.low}")
        if self.high is not None:
            if self.high < 1:
                raise InvalidCountError("upper count must be at least 1")
            if self.low > self.high:
                raise InvalidCountError(
                    f"lower count {self.low} exceeds upper count {self.high}"
                )
        # A count must render, and str() has the digit limit that int() has.
        limit = int_digit_limit()
        top = self.low if self.high is None else self.high
        if limit and top.bit_length() > 3 * limit and top >= 10**limit:
            raise InvalidCountError(f"count has more than {limit} digits")

    def render(self) -> str:
        if self.high is None:
            return "{%d,}" % self.low
        return "{%d,%d}" % (self.low, self.high)


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ()


_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


def is_symbol_name(text: str) -> bool:
    """True iff ``text`` is a valid symbol lexeme (letter, then letters/digits)."""
    return bool(_SYMBOL_RE.match(text))


@dataclass(frozen=True)
class Symbol(Expr):
    name: str

    def __post_init__(self):
        if not is_symbol_name(self.name):
            raise ValueError(f"invalid symbol name {self.name!r}")


@dataclass(frozen=True)
class Epsilon(Expr):
    pass


EPSILON = Epsilon()


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least two parts")
        if any(isinstance(p, Concat) for p in self.parts):
            raise ValueError("Concat parts must be flattened; use concat()")


@dataclass(frozen=True)
class Alt(Expr):
    branches: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.branches) < 2:
            raise ValueError("Alt needs at least two branches")
        if any(isinstance(b, Alt) for b in self.branches):
            raise ValueError("Alt branches must be flattened; use alt()")


@dataclass(frozen=True)
class Rep(Expr):
    inner: Expr
    count: CountRange

    def __post_init__(self):
        if isinstance(self.inner, Epsilon):
            raise ValueError("repetition of epsilon; use rep() to normalize")


def concat(parts) -> Expr:
    """Concatenation with flattening; 0 parts -> epsilon, 1 part -> itself."""
    flat: list[Expr] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(branches) -> Expr:
    """Alternation with flattening; a single branch is returned unchanged."""
    flat: list[Expr] = []
    for b in branches:
        if isinstance(b, Alt):
            flat.extend(b.branches)
        else:
            flat.append(b)
    if not flat:
        raise ValueError("alternation of nothing")
    if len(flat) == 1:
        return flat[0]
    return Alt(tuple(flat))


def rep(inner: Expr, low: int, high: int | None) -> Expr:
    """Counted repetition; repetition of epsilon normalizes to epsilon."""
    count = CountRange(low, high)  # validate even when normalizing away
    if isinstance(inner, Epsilon):
        return EPSILON
    return Rep(inner, count)


def _walk(e: Expr) -> tuple[Expr, ...]:
    order: list[Expr] = []
    todo = [e]
    while todo:
        x = todo.pop()
        order.append(x)
        t = type(x)
        # children pushed left to right are visited right to left, so the
        # reversed visit order is the left-to-right post-order
        if t is Concat:
            todo.extend(x.parts)
        elif t is Alt:
            todo.extend(x.branches)
        elif t is Rep:
            todo.append(x.inner)
        elif t is not Symbol and t is not Epsilon:
            raise TypeError(f"not an Expr: {x!r}")
    order.reverse()
    return tuple(order)


# The root and node tuple of the last ``postorder`` walk.
_last_walk: tuple[Expr, tuple[Expr, ...]] | None = None


def postorder(e: Expr) -> tuple[Expr, ...]:
    """The nodes of ``e``, children before parents, left to right.

    Symbols therefore come in document order, and a shared subtree is listed
    once per occurrence.  The walk keeps its own stack, so the depth of an
    expression is bounded by memory rather than by the recursion limit:
    parsed text may nest groups arbitrarily, and counter expansion nests one
    level per optional copy.  Every tree walk in crekit (rendering, length
    sets, counter expansion, position analysis) evaluates this tuple with a
    value stack, where a node with k children replaces the top k values.

    The last tree walked is remembered by identity, as ``engine.automaton``
    remembers its last build, so the queries that follow on one tree share
    one walk.  The remembered walk is one tuple, read and replaced whole,
    and it keeps that tree and its nodes alive until the next walk.
    """
    global _last_walk
    last = _last_walk
    if last is not None and last[0] is e:
        return last[1]
    _last_walk = None  # let the old walk go before making the next one
    order = _walk(e)
    _last_walk = (e, order)
    return order


def alphabet_of(e: Expr) -> tuple[str, ...]:
    """Distinct symbols of ``e`` in order of first occurrence."""
    return tuple(dict.fromkeys(x.name for x in postorder(e) if type(x) is Symbol))


# --- tokenizer -------------------------------------------------------------

# whitespace matches no group, so one ``finditer`` scan steps over it
_TOKEN_RE = re.compile(
    r"""
    (?P<symbol>[A-Za-z][A-Za-z0-9]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[%(){},|?*+])
  | (?P<bad>\S)
    """,
    re.VERBOSE,
)


_Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, then an "eof" token.

    A token's kind is "symbol", "int" or the punctuation character itself.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {lexeme!r}", m.start())
        tokens.append((lexeme if kind == "punct" else kind, lexeme, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


_SUGAR = {"?": (0, 1), "*": (0, UNBOUNDED), "+": (1, UNBOUNDED)}
_COUNT_START = ("{", "?", "*", "+")
_ATOM_START = ("symbol", "%", "(")


def _expect(tokens: list[_Token], i: int, kind: str) -> str:
    found, text, pos = tokens[i]
    if found != kind:
        raise ExprSyntaxError(
            f"expected {kind!r}, found {text or 'end of input'!r}", pos
        )
    return text


def _int(tokens: list[_Token], i: int) -> int:
    """The count at tokens[i], which must be an int token.

    A count with more digits than ``int`` converts is INVALID_COUNT.
    """
    text = _expect(tokens, i, "int")
    limit = int_digit_limit()
    if limit and len(text) > limit:
        raise InvalidCountError(f"count has more than {limit} digits", tokens[i][2])
    return int(text)


def _count(tokens: list[_Token], i: int) -> tuple[tuple[int, int | None], int]:
    """Read the occurrence indicator that starts at tokens[i], whose kind is
    in ``_COUNT_START``.

    Returns its bounds (low, high) and the index of the next token.
    """
    kind = tokens[i][0]
    if kind != "{":
        return _SUGAR[kind], i + 1
    low = _int(tokens, i + 1)
    if tokens[i + 2][0] == "}":
        return (low, low), i + 3
    _expect(tokens, i + 2, ",")
    if tokens[i + 3][0] == "}":
        return (low, UNBOUNDED), i + 4
    high = _int(tokens, i + 3)
    _expect(tokens, i + 4, "}")
    return (low, high), i + 5


def parse_expr(text: str) -> Expr:
    """Parse expression text into its AST.

    Raises ExprSyntaxError with the offending position, or InvalidCountError
    for indicators with low > high, the degenerate {0,0}, or a count too
    long to convert.
    """
    tokens = _tokenize(text)
    names: dict[str, Symbol] = {}  # one node per symbol name
    groups: list[tuple[list[Expr], list[Expr]]] = []  # enclosing (branches, parts)
    branches: list[Expr] = []  # finished branches of the innermost open group
    parts: list[Expr] = []  # finished parts of its current branch
    i = 0
    while True:
        kind, lexeme, pos = tokens[i]
        i += 1
        if kind == "(":
            groups.append((branches, parts))
            branches, parts = [], []
            continue
        if kind == "symbol":
            atom = names.get(lexeme)
            if atom is None:
                atom = names[lexeme] = Symbol(lexeme)
        elif kind == "%":
            atom = EPSILON
        else:
            raise ExprSyntaxError(
                f"expected a symbol, '%' or '(', found {lexeme or 'end of input'!r}",
                pos,
            )
        # An atom is complete: take its count, then close every group that
        # ends here; each closed group is an atom that may carry a count.
        while True:
            kind, lexeme, pos = tokens[i]
            if kind in _COUNT_START:
                count, i = _count(tokens, i)
                try:
                    atom = rep(atom, *count)
                except InvalidCountError as exc:
                    raise InvalidCountError(str(exc), pos) from None
                kind, lexeme, pos = tokens[i]
            parts.append(atom)
            if kind in _ATOM_START:
                break
            branches.append(parts[0] if len(parts) == 1 else concat(parts))
            parts = []
            if kind == "|":
                i += 1
                break
            atom = branches[0] if len(branches) == 1 else alt(branches)
            if not groups:
                if kind != "eof":
                    raise ExprSyntaxError(
                        f"unexpected {lexeme!r} after expression", pos
                    )
                return atom
            _expect(tokens, i, ")")
            i += 1
            branches, parts = groups.pop()


# --- renderer --------------------------------------------------------------


def _join_parts(chunks: list[str]) -> str:
    out = [chunks[0]]
    for chunk in chunks[1:]:
        # A space keeps adjacent symbol lexemes from fusing ("a b" not "ab").
        if out[-1][-1].isalnum() and chunk[0].isalpha():
            out.append(" ")
        out.append(chunk)
    return "".join(out)


def render_expr(e: Expr) -> str:
    """Render ``e`` as expression text; re-parsing yields an equal AST."""
    out: list[str] = []
    for x in postorder(e):
        t = type(x)
        if t is Symbol:
            out.append(x.name)
        elif t is Epsilon:
            out.append("%")
        elif t is Alt:
            k = len(x.branches)
            out[-k:] = ["(" + "|".join(out[-k:]) + ")"]
        elif t is Concat:
            k = len(x.parts)
            out[-k:] = [_join_parts(out[-k:])]
        else:
            # Only symbols and parenthesized groups may carry a count directly.
            body = out[-1]
            if type(x.inner) in (Concat, Rep):
                body = "(" + body + ")"
            out[-1] = body + x.count.render()
    return out[0]
