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

All AST values are immutable and structurally comparable; every function
here is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ExprSyntaxError, InvalidCountError

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

    @property
    def unbounded(self) -> bool:
        return self.high is None

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


def postorder(e: Expr) -> list[Expr]:
    """The nodes of ``e``, children before parents, left to right.

    Symbols therefore come in document order, and a shared subtree is listed
    once per occurrence.  The walk keeps its own stack, so the depth of an
    expression is bounded by memory rather than by the recursion limit:
    counter expansion nests one level per optional copy.  Callers evaluate
    the list with a value stack, where a node with k children replaces the
    top k values.
    """
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
    return order


def alphabet_of(e: Expr) -> tuple[str, ...]:
    """Distinct symbols of ``e`` in order of first occurrence."""
    return tuple(dict.fromkeys(x.name for x in postorder(e) if type(x) is Symbol))


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<symbol>[A-Za-z][A-Za-z0-9]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[%(){},|?*+])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "symbol" | "int" | one of the punctuation characters | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "symbol":
            tokens.append(_Token("symbol", m.group(), i))
        elif m.lastgroup == "int":
            tokens.append(_Token("int", m.group(), i))
        elif m.lastgroup == "punct":
            tokens.append(_Token(m.group(), m.group(), i))
        i = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.pos,
            )
        return self.advance()

    def parse_expr(self) -> Expr:
        branches = [self.parse_cat()]
        while self.cur.kind == "|":
            self.advance()
            branches.append(self.parse_cat())
        return alt(branches)

    def parse_cat(self) -> Expr:
        parts = [self.parse_rep()]
        while self.cur.kind in ("symbol", "%", "("):
            parts.append(self.parse_rep())
        return concat(parts)

    def parse_rep(self) -> Expr:
        atom = self.parse_atom()
        kind = self.cur.kind
        if kind == "{":
            pos = self.cur.pos
            low, high = self.parse_braced_count()
            try:
                return rep(atom, low, high)
            except InvalidCountError as exc:
                raise InvalidCountError(str(exc), pos) from None
        if kind == "?":
            self.advance()
            return rep(atom, 0, 1)
        if kind == "*":
            self.advance()
            return rep(atom, 0, UNBOUNDED)
        if kind == "+":
            self.advance()
            return rep(atom, 1, UNBOUNDED)
        return atom

    def parse_braced_count(self) -> tuple[int, int | None]:
        self.expect("{")
        low = int(self.expect("int").text)
        if self.cur.kind == "}":
            self.advance()
            return low, low
        self.expect(",")
        if self.cur.kind == "}":
            self.advance()
            return low, UNBOUNDED
        high = int(self.expect("int").text)
        self.expect("}")
        return low, high

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "symbol":
            self.advance()
            return Symbol(tok.text)
        if tok.kind == "%":
            self.advance()
            return EPSILON
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError(
            f"expected a symbol, '%' or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )


def parse_expr(text: str) -> Expr:
    """Parse expression text into its AST.

    Raises ExprSyntaxError with the offending position, or InvalidCountError
    for indicators with low > high or the degenerate {0,0}.
    """
    parser = _Parser(_tokenize(text))
    e = parser.parse_expr()
    if parser.cur.kind != "eof":
        raise ExprSyntaxError(
            f"unexpected {parser.cur.text!r} after expression", parser.cur.pos
        )
    return e


# --- renderer --------------------------------------------------------------


def _render(e: Expr) -> str:
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Epsilon):
        return "%"
    if isinstance(e, Alt):
        return "(" + "|".join(_render(b) for b in e.branches) + ")"
    if isinstance(e, Concat):
        return _join_parts([_render(p) for p in e.parts])
    if isinstance(e, Rep):
        body = _render(e.inner)
        # Only symbols and parenthesized groups may carry a count directly.
        if isinstance(e.inner, (Concat, Rep)):
            body = "(" + body + ")"
        return body + e.count.render()
    raise TypeError(f"not an Expr: {e!r}")


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
    return _render(e)
