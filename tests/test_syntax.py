import sys

import pytest
from hypothesis import given

from conftest import DEEP, expressions, nested_groups, rendered_groups
from crekit.errors import ExprSyntaxError, InvalidCountError
from crekit.syntax import (
    EPSILON,
    Alt,
    Concat,
    CountRange,
    Rep,
    Symbol,
    alphabet_of,
    alt,
    concat,
    int_digit_limit,
    parse_expr,
    postorder,
    render_expr,
    rep,
)

NO_ATOM = "expected a symbol, '%' or '(', found"

# text -> the exact message of the error it raises
PARSE_ERRORS = {
    "": f"{NO_ATOM} 'end of input' (at position 0)",
    "(": f"{NO_ATOM} 'end of input' (at position 1)",
    "a|": f"{NO_ATOM} 'end of input' (at position 2)",
    "a)": "unexpected ')' after expression (at position 1)",
    "a{": "expected 'int', found 'end of input' (at position 2)",
    "a{2": "expected ',', found 'end of input' (at position 3)",
    "a{2,3": "expected '}', found 'end of input' (at position 5)",
    "{2}": f"{NO_ATOM} '{{' (at position 0)",
    "a++b": "unexpected '+' after expression (at position 2)",
    "a$": "unexpected character '$' (at position 1)",
    "ab|": f"{NO_ATOM} 'end of input' (at position 3)",
    "(a++b)": "expected ')', found '+' (at position 3)",
    "(a b": "expected ')', found 'end of input' (at position 4)",
    "()": f"{NO_ATOM} ')' (at position 1)",
    "a||b": f"{NO_ATOM} '|' (at position 2)",
    "a{1,x}": "expected 'int', found 'x' (at position 4)",
    "a{2,}}": "unexpected '}' after expression (at position 5)",
    "(a){3,2}": "lower count 3 exceeds upper count 2 (at position 3)",
    "b a{0}": "upper count must be at least 1 (at position 3)",
    "a\x00": "unexpected character '\\x00' (at position 1)",
    "a \xe9": "unexpected character '\xe9' (at position 2)",
    "   ": f"{NO_ATOM} 'end of input' (at position 3)",
}

# text -> the rendering of its parse: whitespace of every kind separates tokens
SPACED = {
    "a\tb": "a b",
    "a\x0bb\x0c": "a b",
    "\x85a\u3000b\xa0": "a b",
    "a\x1cb": "a b",
    "a{ 1 , }": "a{1,}",
}


class TestParse:
    def test_counted_concat_alt(self):
        got = parse_expr("a0{2,2}(a1{1,1}|%)")
        want = Concat(
            (
                Rep(Symbol("a0"), CountRange(2, 2)),
                Alt((Rep(Symbol("a1"), CountRange(1, 1)), EPSILON)),
            )
        )
        assert got == want

    def test_plus_on_group(self):
        got = parse_expr("(a|b){1,}")
        assert got == Rep(Alt((Symbol("a"), Symbol("b"))), CountRange(1, None))

    def test_inverted_count_rejected(self):
        with pytest.raises(InvalidCountError):
            parse_expr("a{3,2}")

    def test_degenerate_zero_count_rejected(self):
        with pytest.raises(InvalidCountError):
            parse_expr("a{0,0}")
        with pytest.raises(InvalidCountError):
            parse_expr("a{0}")

    @pytest.mark.parametrize(
        "text,want",
        [
            ("a?", Rep(Symbol("a"), CountRange(0, 1))),
            ("a*", Rep(Symbol("a"), CountRange(0, None))),
            ("a+", Rep(Symbol("a"), CountRange(1, None))),
            ("a{3}", Rep(Symbol("a"), CountRange(3, 3))),
            ("a{2,}", Rep(Symbol("a"), CountRange(2, None))),
        ],
    )
    def test_sugar_normalizes(self, text, want):
        assert parse_expr(text) == want

    def test_symbol_lexeme_is_maximal(self):
        assert parse_expr("ab") == Symbol("ab")
        assert parse_expr("a b") == Concat((Symbol("a"), Symbol("b")))
        assert parse_expr("a12{2,3}") == Rep(Symbol("a12"), CountRange(2, 3))

    def test_epsilon_repetition_normalizes(self):
        assert parse_expr("%{2,3}") == EPSILON
        assert parse_expr("%*") == EPSILON

    def test_precedence(self):
        # count binds tightest, then concatenation, then alternation
        got = parse_expr("a b{2,2}|c")
        want = Alt(
            (Concat((Symbol("a"), Rep(Symbol("b"), CountRange(2, 2)))), Symbol("c"))
        )
        assert got == want

    @pytest.mark.parametrize("text", list(PARSE_ERRORS))
    def test_errors_carry_position(self, text):
        with pytest.raises((ExprSyntaxError, InvalidCountError)) as info:
            parse_expr(text)
        assert info.value.position is not None
        assert 0 <= info.value.position <= len(text)
        assert str(info.value) == PARSE_ERRORS[text]

    def test_deep_nesting(self):
        # compare text and counts: the dataclass == and repr of nodes recurse
        e = parse_expr(nested_groups())
        nodes, rendered = len(postorder(e)), render_expr(e)
        assert nodes == 4 * DEEP + 1
        assert rendered == rendered_groups()
        assert render_expr(parse_expr(rendered)) == rendered

    def test_count_too_long_for_int(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(InvalidCountError) as info:
            parse_expr("b a{2," + "9" * 5000 + "}")
        assert str(info.value) == f"count has more than {limit} digits (at position 6)"

    def test_built_count_must_render(self):
        longest = 10 ** sys.get_int_max_str_digits() - 1
        assert render_expr(rep(Symbol("a"), 0, longest)).endswith("9}")
        for low, high in ((0, longest + 1), (longest + 1, None)):
            with pytest.raises(InvalidCountError, match="count has more than"):
                CountRange(low, high)

    def test_no_digit_limit_before_python_3_10_7(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert int_digit_limit() == 0

    def test_whitespace_insignificant(self):
        assert parse_expr(" ( a | b ) { 1 , 2 } ") == parse_expr("(a|b){1,2}")

    @pytest.mark.parametrize("text", list(SPACED), ids=ascii)
    def test_whitespace_of_every_kind(self, text):
        assert render_expr(parse_expr(text)) == SPACED[text]

    def test_count_one_digit_over_the_limit(self):
        limit = int_digit_limit()
        with pytest.raises(InvalidCountError) as info:
            parse_expr("a{" + "1" * (limit + 1) + "}")
        assert info.value.code == "INVALID_COUNT"
        assert str(info.value) == f"count has more than {limit} digits (at position 2)"


class TestRender:
    def test_counted_symbol(self):
        assert render_expr(Rep(Symbol("a"), CountRange(2, 3))) == "a{2,3}"

    def test_alt_with_epsilon(self):
        e = Alt((Rep(Symbol("a1"), CountRange(1, 1)), EPSILON))
        assert render_expr(e) == "(a1{1,1}|%)"

    def test_epsilon(self):
        assert render_expr(EPSILON) == "%"

    def test_adjacent_symbols_stay_separate(self):
        e = Concat((Symbol("a"), Symbol("b")))
        assert render_expr(e) == "a b"
        assert parse_expr(render_expr(e)) == e

    def test_nested_repetition_parenthesized(self):
        e = Rep(Rep(Symbol("a"), CountRange(2, 2)), CountRange(1, 2))
        assert render_expr(e) == "(a{2,2}){1,2}"
        assert parse_expr(render_expr(e)) == e


class TestFactories:
    def test_concat_flattens(self):
        inner = Concat((Symbol("a"), Symbol("b")))
        e = concat([inner, Symbol("c")])
        assert e == Concat((Symbol("a"), Symbol("b"), Symbol("c")))

    def test_alt_flattens(self):
        inner = Alt((Symbol("a"), Symbol("b")))
        e = alt([inner, Symbol("c")])
        assert e == Alt((Symbol("a"), Symbol("b"), Symbol("c")))

    def test_raw_constructors_reject_unflattened(self):
        with pytest.raises(ValueError):
            Concat((Concat((Symbol("a"), Symbol("b"))), Symbol("c")))
        with pytest.raises(ValueError):
            Alt((Alt((Symbol("a"), Symbol("b"))), Symbol("c")))
        with pytest.raises(ValueError):
            Rep(EPSILON, CountRange(1, 2))

    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda: Concat((Symbol("a"),)), ValueError),
            (lambda: Alt((Symbol("a"),)), ValueError),
            (lambda: alt([]), ValueError),
            (lambda: Symbol("1a"), ValueError),
            (lambda: CountRange(-1, 2), InvalidCountError),
        ],
        ids=["one-part", "one-branch", "no-branch", "bad-name", "negative-low"],
    )
    def test_raw_constructors_reject_malformed(self, build, error):
        with pytest.raises(error):
            build()

    def test_concat_of_nothing_is_epsilon(self):
        assert concat([]) == EPSILON

    def test_postorder_rejects_a_non_expression(self):
        with pytest.raises(TypeError):
            postorder(Concat((Symbol("a"), "b")))

    def test_rep_factory_normalizes_epsilon(self):
        assert rep(EPSILON, 2, 3) == EPSILON
        with pytest.raises(InvalidCountError):
            rep(EPSILON, 3, 2)  # count is validated before normalization


class TestAlphabet:
    def test_first_occurrence_order(self):
        assert tuple(alphabet_of(parse_expr("a0{2,2}(a1{1,1}|%)"))) == ("a0", "a1")

    def test_epsilon_has_empty_alphabet(self):
        assert tuple(alphabet_of(EPSILON)) == ()

    def test_duplicates_collapse(self):
        assert tuple(alphabet_of(parse_expr("b a b a"))) == ("b", "a")


@given(expressions())
def test_round_trip(e):
    assert parse_expr(render_expr(e)) == e


def _no_nested(e):
    if isinstance(e, Concat):
        assert not any(isinstance(p, Concat) for p in e.parts)
        for p in e.parts:
            _no_nested(p)
    elif isinstance(e, Alt):
        assert not any(isinstance(b, Alt) for b in e.branches)
        for b in e.branches:
            _no_nested(b)
    elif isinstance(e, Rep):
        _no_nested(e.inner)


@given(expressions())
def test_parsed_asts_are_flattened(e):
    _no_nested(parse_expr(render_expr(e)))
