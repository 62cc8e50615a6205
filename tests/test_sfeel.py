"""Condition parsing, constant folding, satisfaction, and lowering."""

import pytest
from hypothesis import given, settings, strategies as st

from dmncheck import (ANY, EvalError, Interval1D, Kind,
                      SFeelSyntaxError, SFeelTypeError, lower_to_intervals,
                      parse_condition, render_condition, satisfies)
from dmncheck.sfeel import Alternative, Comparison, Interval, Match, Not


def iv(lo, lc, hi, hc):
    return Interval1D(lo, lc, hi, hc)


class TestParse:
    def test_closed_interval(self):
        got = parse_condition("[250..750]", Kind.INTEGER)
        assert got == Interval(True, 250, 750, True)

    def test_string_alternative(self):
        got = parse_condition("high,medium,low", Kind.STRING)
        assert got == Alternative((Match("high"), Match("medium"),
                                   Match("low")))

    def test_dash_is_any(self):
        assert parse_condition("-", Kind.REAL) is ANY

    def test_mixed_alternative(self):
        got = parse_condition("[0..18],>= 70", Kind.INTEGER)
        assert got == Alternative((Interval(True, 0, 18, True),
                                   Comparison(">=", 70)))

    def test_bare_term_is_match(self):
        assert parse_condition("500", Kind.INTEGER) == Match(500)
        assert parse_condition("true", Kind.BOOLEAN) == Match(True)

    def test_not_single_term(self):
        assert parse_condition("not(5)", Kind.INTEGER) == Not(5)
        assert parse_condition("not(red)", Kind.STRING) == Not("red")

    def test_whitespace_insignificant(self):
        assert parse_condition(" [ 250 .. 750 ] ", Kind.INTEGER) \
            == parse_condition("[250..750]", Kind.INTEGER)

    def test_open_and_half_open(self):
        assert parse_condition("(0..5]", Kind.REAL) \
            == Interval(False, 0.0, 5.0, True)
        assert parse_condition("[0..5)", Kind.REAL) \
            == Interval(True, 0.0, 5.0, False)

    def test_syntax_errors(self):
        for bad in ("[1..", "((", "1,,2", "", "..5", "not(1,2)"):
            with pytest.raises(SFeelSyntaxError):
                parse_condition(bad, Kind.INTEGER)
        with pytest.raises(SFeelTypeError):
            # word literals are a kind mismatch in a numeric column
            parse_condition("[a..b]", Kind.INTEGER)

    def test_kind_errors(self):
        with pytest.raises(SFeelTypeError):
            parse_condition("[0..18]", Kind.STRING)
        with pytest.raises(SFeelTypeError):
            parse_condition(">=3", Kind.BOOLEAN)
        with pytest.raises(SFeelTypeError):
            # real literal in an integer column
            parse_condition("2.5", Kind.INTEGER)

    def test_int_literal_coerces_under_real(self):
        assert parse_condition("500", Kind.REAL) == Match(500.0)
        got = parse_condition("[250..750]", Kind.REAL)
        assert got.lo == 250.0 and isinstance(got.lo, float)


class TestFold:
    def test_identity(self):
        assert parse_condition("70", Kind.INTEGER) == Match(70)

    def test_product_folds(self):
        assert parse_condition("2*500", Kind.INTEGER) == Match(1000)
        assert parse_condition("2·500", Kind.INTEGER) == Match(1000)

    def test_precedence_and_parens(self):
        assert parse_condition("2+3*4", Kind.INTEGER) == Match(14)
        assert parse_condition("(2+3)*4", Kind.INTEGER) == Match(20)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            parse_condition("1/0", Kind.INTEGER)
        with pytest.raises(EvalError):
            parse_condition("1÷0", Kind.REAL)

    def test_integer_division_truncates_toward_zero(self):
        assert parse_condition("7/2", Kind.INTEGER) == Match(3)
        assert parse_condition("-7/2", Kind.INTEGER) == Match(-3)

    def test_folding_inside_intervals(self):
        assert parse_condition("[2*100..1000-250]", Kind.INTEGER) \
            == Interval(True, 200, 750, True)


class TestHostileLiterals:
    @pytest.mark.parametrize("text,kind", [
        (">=1e400", Kind.REAL),
        ("[0..1e400]", Kind.REAL),
        ("1e200*1e200", Kind.REAL),
        ("1e308/1e-10", Kind.REAL),
        ("1" * 400, Kind.REAL),
        ("1" * 400, Kind.INTEGER),
        ("1" * 5000, Kind.INTEGER),
        ("*".join(["1" + "0" * 100] * 4), Kind.INTEGER),
    ], ids=["ge-1e400", "interval-1e400", "product-overflow",
            "quotient-overflow", "400-digits-real", "400-digits-integer",
            "5000-digits", "integer-product-overflow"])
    def test_out_of_range_rejected(self, text, kind):
        with pytest.raises(SFeelTypeError):
            parse_condition(text, kind)

    def test_largest_finite_literal_accepted(self):
        top = "1.7976931348623157e308"
        assert parse_condition(f"<={top}", Kind.REAL) \
            == Comparison("<=", 1.7976931348623157e308)

    @pytest.mark.parametrize("text", [
        "-" * 5000 + "1",
        "+" * 5000 + "1",
        "(" * 3000 + "1" + ")" * 3000,
        "[" + "(" * 3000 + "1" + ")" * 3000 + "..2]",
        "+".join(["1"] * 5000),
    ], ids=["unary-minus", "unary-plus", "parentheses",
            "interval-parentheses", "long-sum"])
    def test_deep_or_long_terms_rejected(self, text):
        with pytest.raises(SFeelSyntaxError):
            parse_condition(text, Kind.INTEGER)

    @pytest.mark.parametrize("text,error", [
        ("+".join(["1"] * 5000), SFeelSyntaxError),
        ("1+" * 3000 + "%", SFeelSyntaxError),
        ("[0.." + "1+" * 30 + "1", SFeelSyntaxError),
        (">=" + "9" * 5000 + ".0", SFeelTypeError),
        ("x" * 5000, SFeelTypeError),
    ], ids=["long-sum", "bad-character", "unterminated", "real-overflow",
            "long-word"])
    def test_error_echo_is_bounded(self, text, error):
        with pytest.raises(error) as caught:
            parse_condition(text, Kind.INTEGER)
        message = str(caught.value)
        assert len(message) < 300
        assert repr(text[:20])[:-1] in message and "..." in message

    def test_caps_admit_their_bound(self):
        assert parse_condition("(" * 32 + "7" + ")" * 32, Kind.INTEGER) \
            == Match(7)
        with pytest.raises(SFeelSyntaxError):
            parse_condition("(" * 33 + "7" + ")" * 33, Kind.INTEGER)
        assert parse_condition("+".join(["1"] * 101), Kind.INTEGER) \
            == Match(101)
        with pytest.raises(SFeelSyntaxError):
            parse_condition("+".join(["1"] * 102), Kind.INTEGER)


class TestSatisfies:
    @pytest.mark.parametrize("value,expected", [
        (17, True), (70, True), (45, False), (0, True), (18, True),
        (19, False), (69, False), (71, True),
    ])
    def test_underage_or_old(self, value, expected):
        cond = parse_condition("[0..18],>= 70", Kind.INTEGER)
        assert satisfies(cond, value) is expected

    def test_any_accepts_everything(self):
        assert satisfies(ANY, "whatever")
        assert satisfies(ANY, -1e9)

    def test_not(self):
        cond = parse_condition("not(red)", Kind.STRING)
        assert satisfies(cond, "green") and not satisfies(cond, "red")

    def test_open_bounds(self):
        cond = parse_condition("(0..5]", Kind.REAL)
        assert not satisfies(cond, 0.0)
        assert satisfies(cond, 0.001) and satisfies(cond, 5.0)

    def test_kind_mismatch(self):
        cond = parse_condition("[0..5]", Kind.INTEGER)
        with pytest.raises(SFeelTypeError):
            satisfies(cond, "red", kind=Kind.INTEGER)

    @pytest.mark.parametrize("text", ["[0..10]", "not(5)", "-", "<3,>=4"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, text, value):
        cond = parse_condition(text, Kind.REAL)
        with pytest.raises(SFeelTypeError):
            satisfies(cond, value)
        with pytest.raises(SFeelTypeError):
            satisfies(cond, value, kind=Kind.REAL)


class TestLower:
    def test_any_real(self):
        got = lower_to_intervals(ANY, Kind.REAL)
        assert got == (iv(float("-inf"), False, float("inf"), False),)

    def test_underage_or_old(self):
        got = lower_to_intervals(
            parse_condition("[0..18],>= 70", Kind.INTEGER), Kind.INTEGER)
        assert got == (iv(0, True, 18, True),
                       iv(70, True, float("inf"), False))

    def test_match_category(self):
        got = lower_to_intervals(Match("Refinancing"), Kind.STRING,
                                 categories=("Refinancing", "CardPayoff"))
        assert got == (iv(0, True, 0, True),)

    def test_not_category_is_codec_complement(self):
        got = lower_to_intervals(Not("Refinancing"), Kind.STRING,
                                 categories=("Refinancing", "CardPayoff",
                                             "Leasing"))
        assert got == (iv(1, True, 2, True),)

    def test_integer_comparison_normalizes_closed(self):
        got = lower_to_intervals(parse_condition("<5", Kind.INTEGER),
                                 Kind.INTEGER)
        assert got == (iv(float("-inf"), False, 4, True),)

    def test_numeric_not(self):
        got = lower_to_intervals(parse_condition("not(5)", Kind.REAL),
                                 Kind.REAL)
        assert got == (iv(float("-inf"), False, 5, False),
                       iv(5, False, float("inf"), False))

    def test_unknown_category_rejected(self):
        from dmncheck import CodecError
        with pytest.raises(CodecError):
            lower_to_intervals(Match("Leasing"), Kind.STRING,
                               categories=("Refinancing", "CardPayoff"))


# --- property tests --------------------------------------------------------

numeric_conditions = st.one_of(
    st.just("-"),
    st.integers(0, 10).map(str),
    st.integers(0, 10).map(lambda v: f"not({v})"),
    st.tuples(st.sampled_from(("<", "<=", ">", ">=")),
              st.integers(0, 10)).map(lambda t: f"{t[0]}{t[1]}"),
    st.tuples(st.integers(0, 10), st.integers(0, 10),
              st.sampled_from("[("), st.sampled_from("])")).map(
        lambda t: f"{t[2]}{min(t[0], t[1])}..{max(t[0], t[1])}{t[3]}"),
)

alt_conditions = st.one_of(
    numeric_conditions,
    st.lists(numeric_conditions.filter(lambda s: s != "-"),
             min_size=2, max_size=3).map(",".join),
)


@given(text=alt_conditions, value=st.integers(-2, 13),
       kind=st.sampled_from((Kind.INTEGER, Kind.REAL)))
def test_satisfies_agrees_with_lowering(text, value, kind):
    cond = parse_condition(text, kind)
    point = float(value) if kind is Kind.REAL else value
    assert satisfies(cond, point) == any(
        m.contains(point) for m in lower_to_intervals(cond, kind))


@given(text=alt_conditions, kind=st.sampled_from((Kind.INTEGER, Kind.REAL)))
def test_render_reparse_roundtrip(text, kind):
    cond = parse_condition(text, kind)
    assert parse_condition(render_condition(cond), kind) == cond


@given(a=numeric_conditions.filter(lambda s: s != "-"),
       b=numeric_conditions.filter(lambda s: s != "-"),
       value=st.integers(-2, 13))
def test_alternative_is_disjunction(a, b, value):
    combined = parse_condition(f"{a},{b}", Kind.INTEGER)
    assert satisfies(combined, value) == (
        satisfies(parse_condition(a, Kind.INTEGER), value)
        or satisfies(parse_condition(b, Kind.INTEGER), value))


@given(texts=st.lists(numeric_conditions.filter(lambda s: s != "-"),
                      min_size=2, max_size=4))
def test_alternatives_flattened(texts):
    cond = parse_condition(",".join(texts), Kind.INTEGER)
    if isinstance(cond, Alternative):
        assert all(not isinstance(p, Alternative) for p in cond.parts)
