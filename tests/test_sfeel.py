"""Condition parsing, constant folding, satisfaction, and lowering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dmncheck import (ANY, DecisionTableError, EvalError, Interval1D, Kind,
                      SFeelSyntaxError, SFeelTypeError, format_literal,
                      lower_to_intervals, parse_condition, render_condition,
                      satisfies)
from dmncheck import sfeel
from dmncheck.errors import echo
from dmncheck.sfeel import (Alternative, Comparison, Interval, Match, Not,
                            _NumericParser, _parse_categorical_element,
                            _split_alternatives)


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

    def test_digits_of_other_scripts_rejected(self):
        # Only ASCII digits make numbers, so a cell never parses to a
        # value whose text differs from its own.
        for bad in ("\u0663", "4\u0663", "<\u0663", "[1..\uff12]",
                    "\u0663 + 1"):
            for kind in (Kind.INTEGER, Kind.REAL):
                with pytest.raises(SFeelSyntaxError):
                    parse_condition(bad, kind)

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
        # An interval's opener is not a nesting level.
        for opener, closer in (("[", "]"), ("(", ")")):
            def text(depth):
                return f"{opener}{'(' * depth}1{')' * depth}..2{closer}"

            assert parse_condition(text(32), Kind.INTEGER) \
                == Interval(opener == "[", 1, 2, closer == "]")
            with pytest.raises(SFeelSyntaxError):
                parse_condition(text(33), Kind.INTEGER)


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


@pytest.mark.parametrize("value", ["a ", "x  ", " a", "A b", "a,b", "-",
                                   "not(a)"])
def test_string_literal_round_trip(value):
    assert parse_condition(format_literal(value), Kind.STRING) == Match(value)


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


# --- one-pass folding against a reference fold -----------------------------
#
# A term tree is an int leaf, ("sign", s, t), ("paren", t) or
# (op, left, right).  It is rendered with the fewest parentheses that
# keep its shape under left-associative precedence, plus the explicit
# "paren" nodes, and folded here independently of the parser.

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

term_trees = st.recursive(
    st.integers(0, 9),
    lambda sub: st.one_of(
        st.tuples(st.just("sign"), st.sampled_from("+-"), sub),
        st.tuples(st.just("paren"), sub),
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("/"), sub, st.integers(1, 9)),
    ),
    max_leaves=10,
)


def _precedence(tree) -> int:
    return _PRECEDENCE.get(tree[0], 3) if isinstance(tree, tuple) else 3


def _render_term(tree) -> str:
    if not isinstance(tree, tuple):
        return str(tree)
    if tree[0] == "paren":
        return f"({_render_term(tree[1])})"
    if tree[0] == "sign":
        operand = _render_term(tree[2])
        if _precedence(tree[2]) < 3:
            operand = f"({operand})"
        return tree[1] + operand
    op, left, right = tree
    left_text, right_text = _render_term(left), _render_term(right)
    if _precedence(left) < _PRECEDENCE[op]:
        left_text = f"({left_text})"
    if _precedence(right) <= _PRECEDENCE[op]:
        right_text = f"({right_text})"
    return f"{left_text}{op}{right_text}"


def _reference_fold(tree, kind: Kind):
    if not isinstance(tree, tuple):
        return float(tree) if kind is Kind.REAL else tree
    if tree[0] == "paren":
        return _reference_fold(tree[1], kind)
    if tree[0] == "sign":
        value = _reference_fold(tree[2], kind)
        return value if tree[1] == "+" else -value
    op, left, right = tree
    a, b = _reference_fold(left, kind), _reference_fold(right, kind)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b if kind is Kind.REAL else int(Fraction(a, b))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=term_trees, u=term_trees,
       kind=st.sampled_from((Kind.INTEGER, Kind.REAL)))
def test_folding_matches_reference(t, u, kind):
    tt, ut = _render_term(t), _render_term(u)
    v, w = _reference_fold(t, kind), _reference_fold(u, kind)
    cases = [
        (tt, Match(v)),
        (f"not({tt})", Not(v)),
        (f">={tt}", Comparison(">=", v)),
        (f"[{tt}..{ut}]", Interval(True, v, w, True)),
        (f"({tt}..{ut})", Interval(False, v, w, False)),
    ]
    literal_type = float if kind is Kind.REAL else int
    for text, expected in cases:
        got = parse_condition(text, kind)
        assert got == expected, text
        values = (got.lo, got.hi) if isinstance(got, Interval) \
            else (got.value,)
        assert all(type(x) is literal_type for x in values), text


# ---------------------------------------------------------------------------
# The one-regex path for simple numeric elements against the token parser


def _reference_parse(text: str, kind: Kind):
    """``parse_condition`` without its shortcuts: every text goes
    through the quote-aware split, and every numeric element through
    the token parser."""
    parts = [p.strip() for p in _split_alternatives(text)]
    if any(not p for p in parts):
        raise SFeelSyntaxError(f"empty condition branch in {echo(text)}")
    conditions = [ANY if p == "-"
                  else _parse_categorical_element(p, kind)
                  if kind.is_categorical
                  else _NumericParser(p, kind).element()
                  for p in parts]
    if len(conditions) == 1:
        return conditions[0]
    return Alternative(tuple(conditions))


def _outcome(parse, text: str, kind: Kind):
    # repr tells 0.0 from -0.0 and 1 from 1.0, which == does not.
    try:
        return repr(parse(text, kind))
    except DecisionTableError as exc:
        return type(exc).__name__, str(exc)


_PLAIN_NUMBERS = ("0", "3", "42", "007", "1.5", ".5", "0.0", "1e3", "1E-2",
                  "2.5e+1")
_ODD_NUMBERS = ("2.", "1e", "1e400", "9" * 400, "1" * 4400, "٣", "4٣")
_NUMBERS = _PLAIN_NUMBERS + _ODD_NUMBERS
_NUMERIC_TOKENS = _NUMBERS + (
    "-0", "+5", "-", "+", "..", "...", "[", "]", "(", ")", "<", "<=", ">",
    ">=", "≤", "≥", "−", "·", "÷", "*", "/", "\t", " ", "e", "x", "not",
    "[5..1]", ",", '"')
_CATEGORICAL_TOKENS = ("a", "b c", "true", "false", ",", ", ", '"', '"x,y"',
                       '""', " ", "\t", "not(", ")", "-", "[", "<", "(", "1")


def _simple_shape(rng) -> str:
    """A literal, a comparison or an interval, with drawn spacing, signs
    and numbers; each part is odd one time in ten."""
    def pick(usual, odd):
        return rng.choice(odd if rng.random() < 0.1 else usual)

    def number():
        space = ("", " ", "\t")
        return (pick(space, (" \t ",)) + pick(("", "-", "+", "- "),
                                              ("−", "--", "+-"))
                + pick(_PLAIN_NUMBERS, _ODD_NUMBERS) + pick(space, (" \t ",)))

    shape = rng.randrange(3)
    if shape == 0:
        return number()
    if shape == 1:
        return pick(("<", "<=", ">", ">="), ("≤", "≥", "< =", "=")) + number()
    return (pick("[(", ("]", "")) + number() + pick(("..",), (". .", "..."))
            + number() + pick("])", ("[", "", "]]")))


def test_simple_numeric_path_matches_token_parser(monkeypatch):
    taken = []
    simple = sfeel._parse_simple_numeric

    def counting(text, kind):
        cond = simple(text, kind)
        taken.append(cond is not None)
        return cond

    monkeypatch.setattr(sfeel, "_parse_simple_numeric", counting)
    rng = random.Random(20161)
    texts = [_simple_shape(rng) if rng.random() < 0.6
             else "".join(rng.choice(_NUMERIC_TOKENS)
                          for _ in range(rng.randint(1, 6)))
             for _ in range(20_000)]
    texts += ["-0", "+5", "[5..1]", "-0.0", "[-0..+0]", "1e400", "9" * 400,
              "≤3", "−3", "٣", "\t[1\t..\t2\t)\t", "[1...2]", "(.5..5.)"]
    for text in texts:
        for kind in (Kind.INTEGER, Kind.REAL):
            assert _outcome(parse_condition, text, kind) \
                == _outcome(_reference_parse, text, kind), (text, kind)
    # Both routes were exercised.
    assert 8000 < sum(taken) < len(taken) - 8000


def test_unsplit_text_matches_quote_aware_split():
    rng = random.Random(20162)
    for _ in range(2000):
        text = "".join(rng.choice(_CATEGORICAL_TOKENS)
                       for _ in range(rng.randint(1, 6)))
        for kind in (Kind.STRING, Kind.BOOLEAN):
            assert _outcome(parse_condition, text, kind) \
                == _outcome(_reference_parse, text, kind), (text, kind)
