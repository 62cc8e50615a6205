"""S-FEEL input-entry conditions: parsing, evaluation, and lowering.

A condition text is one of::

    -                       matches anything
    term                    shorthand for equality with the term
    not(term)               negated equality
    < term   <= term        comparison (numeric kinds only)
    > term   >= term
    [a..b]  (a..b)  etc.    interval with open/closed ends (numeric only)
    q1, q2, ...             alternative: any branch may match

Terms are literals or arithmetic over literals (``+ - * /``, with the
multiplication-dot and division-sign accepted as spellings of ``*`` and
``/``).  Each operation is folded as soon as it is parsed, so no term
tree exists.  A comparison or an interval condition is the
``Interval1D`` it was written as, built by ``_written``: ``<5`` is
(-inf, open, 5, open), ``(0..5]`` stays open at 0 under an integer
column and ``[5..1]`` stays empty.  ``interval()`` normalises it only
when it is lowered, and only if it is not normal already.  Every other
node carries plain literal values.

A numeric element that holds no arithmetic (an optionally signed
literal, a comparison against one, or an interval between two) is
matched whole by one regular expression, with the lexer's numbers and
whitespace, and builds the same condition the token parser would.  A
literal that parser refuses (a real one under an integer column, or
one out of range), and every other text, go to the token parser, which
alone raises parse errors and folds arithmetic.

Four value kinds exist: string, boolean, integer, real.  Their domains
are treated as pairwise disjoint; equality is defined for all kinds,
ordering and arithmetic only for the numeric ones.  Parsing is
kind-directed: ``123`` under a string column is the three-character
string, and ``[0..18]`` under a string column is a type error.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

from .errors import (CodecError, EvalError, SFeelSyntaxError, SFeelTypeError,
                     echo)
from .intervals import (FULL, NEG_INF, POS_INF, Interval1D, _new, canonical,
                        interval)


class Kind(str, Enum):
    """Value kind of a column."""

    STRING = "string"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"

    @property
    def is_numeric(self) -> bool:
        return self in (Kind.INTEGER, Kind.REAL)

    @property
    def is_categorical(self) -> bool:
        return self in (Kind.STRING, Kind.BOOLEAN)

    @property
    def article(self) -> str:
        """The kind's name after its indefinite article: "an integer"."""
        return ("an " if self is Kind.INTEGER else "a ") + self.value


# An enum member lookup such as ``Kind.INTEGER`` costs several global
# lookups, so the per-cell parse and lowering paths test these.
_INTEGER, _REAL = Kind.INTEGER, Kind.REAL


def kind_of(value) -> Kind:
    """Kind of a literal value; bool is checked before int on purpose."""
    if isinstance(value, bool):
        return Kind.BOOLEAN
    if isinstance(value, int):
        return Kind.INTEGER
    if isinstance(value, float):
        return Kind.REAL
    if isinstance(value, str):
        return Kind.STRING
    raise SFeelTypeError(f"unsupported literal type {type(value).__name__}")


_FLOAT_MAX = sys.float_info.max


def is_finite_number(value) -> bool:
    """True for an int or float within the range of a finite float.

    Rule regions hold only such values, so literals and folded results
    outside it (NaN, the infinities, integers too large for a float)
    are rejected where they enter.
    """
    return -_FLOAT_MAX <= value <= _FLOAT_MAX


# ---------------------------------------------------------------------------
# Condition AST


@dataclass(frozen=True)
class AnyValue:
    """The '-' condition: every legal value matches."""


ANY = AnyValue()


@dataclass(frozen=True)
class Match:
    value: Union[bool, int, float, str]


@dataclass(frozen=True)
class Not:
    value: Union[bool, int, float, str]


@dataclass(frozen=True)
class Alternative:
    """Disjunction of branches; never nested, always two or more parts."""

    parts: tuple["Condition", ...]


# A comparison or an interval is the Interval1D it was written as.
Condition = Union[AnyValue, Match, Not, Interval1D, Alternative]


def _written(op: str, value, hi=POS_INF, closer: str = ")") -> Interval1D:
    """The interval of the comparison ``op value``, or of the interval
    ``op value..hi closer`` whose opening bracket is ``op``, as written:
    neither normalised nor tested for emptiness."""
    if op[0] == "<":
        return _new(Interval1D, (NEG_INF, False, value, op == "<="))
    return _new(Interval1D, (value, op in (">=", "["), hi, closer == "]"))


# ---------------------------------------------------------------------------
# Lexing and parsing

_CANON = str.maketrans({"·": "*", "÷": "/", "−": "-",
                        "≤": "<=", "≥": ">="})

# A number literal, in ASCII digits only: another script's digits would
# parse to a value whose text differs from the cell's.
_ASCII_NUM = r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

_TOKEN_RE = re.compile(
    rf"""\s*(?:
      (?P<num>{_ASCII_NUM})
    | (?P<dots>\.\.)
    | (?P<cmp><=|>=|<|>)
    | (?P<op>[+\-*/])
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<lbrack>\[)
    | (?P<rbrack>\])
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.X,
)

# Bounds on one numeric condition element, which keep parsing within
# the interpreter's recursion limit.  Nesting counts open parentheses
# and unary signs; operators count every arithmetic operation, unary
# minus included.
_MAX_NESTING = 32
_MAX_OPERATORS = 100

# A whole numeric element with no arithmetic: an optionally signed
# literal, alone or after a comparison, or two as an interval's bounds.
# Numbers are the lexer's, and whitespace is allowed where the lexer
# allows it.  Other texts go to the token parser.
_SIMPLE_NUMERIC_RE = re.compile(
    rf"""\s*(?:
      (?P<cmp><=|>=|<|>)?\s*(?:(?P<sign>[+-])\s*)?(?P<num>{_ASCII_NUM})
    | (?P<open>[\[(])\s*(?:(?P<lo_sign>[+-])\s*)?(?P<lo>{_ASCII_NUM})
      \s*\.\.\s*(?:(?P<hi_sign>[+-])\s*)?(?P<hi>{_ASCII_NUM})
      \s*(?P<close>[\])])
    )\s*""",
    re.X,
)

_QUOTED_RE = re.compile(r'"([^"]*)"')
_BARE_STRING_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_ .\-]*")


def _number(text: str):
    """Value of a number token; inf for more digits than int() converts."""
    try:
        return int(text) if text.isdigit() else float(text)
    except ValueError:
        return math.inf


def _lex_numeric(text: str) -> list[tuple[str, object]]:
    text = text.translate(_CANON)
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SFeelSyntaxError(f"unexpected character {rest[0]!r} "
                                   f"in {echo(text)}")
        pos = m.end()
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "num":
            number = _number(value)
            if not is_finite_number(number):
                raise SFeelTypeError(f"numeric literal out of range "
                                     f"in {echo(text)}")
            tokens.append(("num", number))
        else:
            tokens.append((kind, value))
    return tokens


def _apply(op: str, left, right):
    """One arithmetic step over two operands of one numeric kind.

    Integer division truncates toward zero; division by zero raises
    EvalError, and a result outside the range of a finite float
    SFeelTypeError.
    """
    if op == "+":
        result = left + right
    elif op == "-":
        result = left - right
    elif op == "*":
        result = left * right
    else:
        if right == 0:
            raise EvalError("division by zero")
        if isinstance(left, int):
            q = abs(left) // abs(right)
            return -q if (left < 0) != (right < 0) else q
        result = left / right
    if not is_finite_number(result):
        raise SFeelTypeError(f"arithmetic result of {op!r} is not a finite "
                             f"number")
    return result


class _NumericParser:
    """Recursive-descent parser for numeric condition elements.

    Each arithmetic operation is folded by ``_apply`` as soon as both
    operands are parsed, so a term yields its literal value and no term
    tree is built.  Every leaf takes the column's kind in ``_literal``,
    so both operands of an operation share it.
    """

    def __init__(self, text: str, kind: Kind):
        self.text = text
        self.kind = kind
        self.tokens = _lex_numeric(text)
        self.pos = 0
        self.depth = 0
        self.operators = 0

    def peek(self) -> Optional[tuple[str, object]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, object]:
        tok = self.peek()
        if tok is None:
            raise SFeelSyntaxError(f"unexpected end of condition "
                                   f"in {echo(self.text)}")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object]:
        tok = self.take()
        if tok[0] != kind:
            raise SFeelSyntaxError(f"expected {kind} but found {tok[1]!r} "
                                   f"in {echo(self.text)}")
        return tok

    def nest(self) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise SFeelSyntaxError(f"more than {_MAX_NESTING} nested "
                                   f"parentheses or signs "
                                   f"in {echo(self.text)}")

    def operator(self) -> None:
        self.operators += 1
        if self.operators > _MAX_OPERATORS:
            raise SFeelSyntaxError(f"more than {_MAX_OPERATORS} arithmetic "
                                   f"operators in {echo(self.text)}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def require_end(self) -> None:
        if not self.at_end():
            raise SFeelSyntaxError(f"trailing input after condition "
                                   f"in {echo(self.text)}")

    # term grammar: addsub -> muldiv -> unary -> atom

    def addsub(self):
        value = self.muldiv()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            self.operator()
            value = _apply(str(tok[1]), value, self.muldiv())
        return value

    def muldiv(self):
        value = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.take()
            self.operator()
            value = _apply(str(tok[1]), value, self.unary())
        return value

    def unary(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            self.nest()
            operand = self.unary()
            self.depth -= 1
            if tok[1] == "+":
                return operand
            self.operator()
            # 0 - x rather than -x, so -0 folds to 0.0 under a real
            # column, not to -0.0.
            zero = 0 if self.kind is Kind.INTEGER else 0.0
            return _apply("-", zero, operand)
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            return self._literal(tok[1])
        if tok[0] == "lpar":
            self.nest()
            value = self.addsub()
            self.expect("rpar")
            self.depth -= 1
            return value
        if tok[0] == "word":
            raise SFeelTypeError(f"{echo(tok[1])} is not {self.kind.article} "
                                 f"literal in {echo(self.text)}")
        raise SFeelSyntaxError(f"unexpected {tok[1]!r} in {echo(self.text)}")

    def _literal(self, value):
        if isinstance(value, int):
            return float(value) if self.kind is Kind.REAL else value
        if self.kind is Kind.INTEGER:
            raise SFeelTypeError(f"real literal in integer condition "
                                 f"{echo(self.text)}")
        return value

    # condition elements

    def element(self) -> Condition:
        tok = self.peek()
        if tok is None:
            raise SFeelSyntaxError(f"empty condition in {echo(self.text)}")
        if tok[0] == "word" and tok[1] == "not":
            self.take()
            self.expect("lpar")
            cond = Not(self.addsub())
            self.expect("rpar")
        elif tok[0] == "cmp":
            self.take()
            cond = _written(str(tok[1]), self.addsub())
        elif tok[0] == "lbrack" or (tok[0] == "lpar"
                                    and ("dots", "..") in self.tokens):
            # No term holds '..', so a '(' element holding one is an
            # interval, and any other '(' opens a parenthesised term.
            cond = self._interval()
        else:
            cond = Match(self.addsub())
        self.require_end()
        return cond

    def _interval(self) -> Interval1D:
        # The opening bracket or paren is not a nesting level.
        opener = self.take()
        lo = self.addsub()
        tok = self.peek()
        if tok is None or tok[0] != "dots":
            raise SFeelSyntaxError(f"expected '..' inside interval "
                                   f"in {echo(self.text)}")
        self.take()
        hi = self.addsub()
        closer = self.take()
        if closer[0] not in ("rbrack", "rpar"):
            raise SFeelSyntaxError(f"unterminated interval "
                                   f"in {echo(self.text)}")
        return _written(str(opener[1]), lo, hi, str(closer[1]))


def _split_alternatives(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    in_quote = False
    start = 0
    for i, ch in enumerate(text):
        if in_quote:
            if ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
        elif ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if in_quote:
        raise SFeelSyntaxError(f"unterminated string literal "
                               f"in {echo(text)}")
    parts.append(text[start:])
    return parts


def _parse_string_literal(text: str) -> str:
    m = _QUOTED_RE.fullmatch(text)
    if m is not None:
        return m.group(1)
    if '"' in text:
        raise SFeelSyntaxError(f"malformed string literal {echo(text)}")
    return text


def _parse_categorical_element(text: str, kind: Kind) -> Condition:
    def literal(raw: str):
        raw = raw.strip()
        if not raw:
            raise SFeelSyntaxError("empty literal")
        if kind is Kind.BOOLEAN:
            if raw == "true":
                return True
            if raw == "false":
                return False
            raise SFeelTypeError(f"{echo(raw)} is not a boolean literal")
        return _parse_string_literal(raw)

    negated = text.startswith("not(") and text.endswith(")")
    if negated:
        # S-FEEL reads not(a,b) as neither a nor b.  A single value is
        # supported, read as a top-level cell reads one, and it must be
        # a literal: neither "-" nor another not(...).
        inner = _split_alternatives(text[4:-1])
        value = inner[0].strip()
        if len(inner) > 1 or value == "-" or value.startswith("not("):
            raise SFeelSyntaxError(f"not(...) takes a single literal: "
                                   f"{echo(text)}")
        text = value
    if text.startswith(("<", ">", "[")):
        raise SFeelTypeError(f"comparisons and intervals are not defined "
                             f"for {kind.value} columns: {echo(text)}")
    if kind is Kind.STRING and text.startswith("("):
        raise SFeelTypeError(f"intervals are not defined for string "
                             f"columns: {echo(text)}")
    value = literal(text)
    return Not(value) if negated else Match(value)


def parse_condition(text: str, kind: Kind) -> Condition:
    """Parse a condition text for a column of the given kind.

    Raises SFeelSyntaxError for malformed text, SFeelTypeError for
    kind mismatches, and EvalError when folding divides by zero.
    """
    if not isinstance(text, str):
        raise SFeelSyntaxError(f"condition must be text, got "
                               f"{type(text).__name__}")
    if "," in text or '"' in text:
        parts = [p.strip() for p in _split_alternatives(text)]
    else:  # nothing to split and no quote to close
        parts = [text.strip()]
        if parts[0]:
            return _parse_element(parts[0], kind)
    if any(not p for p in parts):
        raise SFeelSyntaxError(f"empty condition branch in {echo(text)}")
    if len(parts) == 1:
        return _parse_element(parts[0], kind)
    return Alternative(tuple(_parse_element(p, kind) for p in parts))


def _parse_element(text: str, kind: Kind) -> Condition:
    if text == "-":
        return ANY
    if kind is not _INTEGER and kind is not _REAL:
        return _parse_categorical_element(text, kind)
    cond = _parse_simple_numeric(text, kind)
    if cond is None:
        cond = _NumericParser(text, kind).element()
    return cond


def _parse_simple_numeric(text: str, kind: Kind) -> Optional[Condition]:
    """The condition of a literal, a comparison against one or an
    interval between two, each literal optionally signed, as
    ``_NumericParser`` builds it; None for any other text and for a
    literal it would refuse, so that the parser raises its own error."""
    m = _SIMPLE_NUMERIC_RE.fullmatch(text)
    if m is None:
        return None
    op, sign, num, opener, lo_sign, lo, hi_sign, hi, closer = m.groups()
    integer = kind is _INTEGER
    if num is not None:
        value = _simple_literal(sign, num, integer)
        if value is None:
            return None
        return Match(value) if op is None else _written(op, value)
    lo = _simple_literal(lo_sign, lo, integer)
    hi = _simple_literal(hi_sign, hi, integer)
    if lo is None or hi is None:
        return None
    return _written(opener, lo, hi, closer)


def _simple_literal(sign: Optional[str], digits: str, integer: bool):
    """The value of an optionally signed number token under an integer
    or a real column, as the token parser folds it; None where that
    parser raises: a real literal under an integer column, or a value
    beyond the range of a finite float.  The digits carry no sign, so
    only the upper end of that range is tested."""
    if digits.isdigit():
        try:
            number = int(digits)
        except ValueError:  # more digits than int() converts
            return None
    elif integer:
        return None
    else:
        number = float(digits)
    if number > _FLOAT_MAX:
        return None
    if sign == "-":
        # 0 - x, as the parser folds a unary minus.
        return (0 if integer else 0.0) - number
    return number if integer else float(number)


# ---------------------------------------------------------------------------
# Evaluation


def _eq(value, literal) -> bool:
    vk, lk = kind_of(value), kind_of(literal)
    if vk != lk:
        raise SFeelTypeError(f"cannot compare {vk.value} value with "
                             f"{lk.value} literal")
    return value == literal


def satisfies(cond: Condition, value) -> bool:
    """True when the value meets the condition.

    A value that cannot be compared with the condition, such as a
    string against an interval, raises SFeelTypeError rather than
    returning False.  So does a NaN or infinite real value, which no
    rule region holds.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise SFeelTypeError(f"expected a finite number, got {value!r}")
    if isinstance(cond, AnyValue):
        return True
    if isinstance(cond, Match):
        return _eq(value, cond.value)
    if isinstance(cond, Not):
        return not _eq(value, cond.value)
    if isinstance(cond, Interval1D):
        if not kind_of(value).is_numeric:
            raise SFeelTypeError("comparison or interval test against a "
                                 "non-numeric value")
        # Inline rather than Interval1D.contains: this is the
        # evaluator's innermost test.
        lo, lo_closed, hi, hi_closed = cond
        if value < lo or (value == lo and not lo_closed):
            return False
        if value > hi or (value == hi and not hi_closed):
            return False
        return True
    if isinstance(cond, Alternative):
        return any(satisfies(part, value) for part in cond.parts)
    raise SFeelTypeError(f"not a condition: {cond!r}")


# ---------------------------------------------------------------------------
# Rendering


def format_literal(value) -> str:
    """Canonical literal text; parsing it back under the same kind
    reproduces the value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if not isinstance(value, str):
        raise SFeelTypeError(f"unsupported literal type {type(value).__name__}")
    # The parser strips whitespace around a bare literal, so a string
    # that ends in a space keeps its quotes.
    if (_BARE_STRING_RE.fullmatch(value) and not value.endswith(" ")
            and not value.startswith("not(")):
        return value
    if '"' in value:
        raise SFeelSyntaxError(f"string literal {value!r} cannot be rendered")
    return f'"{value}"'


def render_condition(cond: Condition) -> str:
    """Canonical text for a condition; inverse of parse_condition."""
    if isinstance(cond, AnyValue):
        return "-"
    if isinstance(cond, Match):
        return format_literal(cond.value)
    if isinstance(cond, Not):
        return f"not({format_literal(cond.value)})"
    if isinstance(cond, Interval1D):
        lo, lo_closed, hi, hi_closed = cond
        if lo == NEG_INF:
            return ("<=" if hi_closed else "<") + format_literal(hi)
        if hi == POS_INF:
            return (">=" if lo_closed else ">") + format_literal(lo)
        left = "[" if lo_closed else "("
        right = "]" if hi_closed else ")"
        return f"{left}{format_literal(lo)}..{format_literal(hi)}{right}"
    if isinstance(cond, Alternative):
        return ",".join(render_condition(part) for part in cond.parts)
    raise SFeelTypeError(f"not a condition: {cond!r}")


# ---------------------------------------------------------------------------
# Lowering to interval sets


def category_codes(literals: Iterable) -> dict:
    """A column's code table: each distinct literal to its position in
    first-seen order.  The table keeps that order, and a column's
    literals share one type."""
    codes: dict = {}
    for literal in literals:
        codes.setdefault(literal, len(codes))
    return codes


def category_index(codes: Mapping, literal) -> int:
    """Code of ``literal`` in a code table from ``category_codes``,
    matching the type too, so ``1`` is not the category ``True``;
    CodecError if absent."""
    try:
        code = codes.get(literal)
    except TypeError:  # unhashable, so no category
        code = None
    if code is None or type(literal) is not type(next(iter(codes))):
        raise CodecError(f"literal {echo(literal)} is not among the column's "
                         f"{len(codes)} known categories")
    return code


def lower_to_intervals(cond: Condition, kind: Kind,
                       codes: Optional[Mapping] = None
                       ) -> tuple[Interval1D, ...]:
    """Geometric image of a condition as a canonical interval set.

    Numeric kinds map directly.  A closed interval between two finite
    bounds of the column's exact type, and the point of a literal of
    that type, are normal already, so they are taken as they are: the
    interval itself, or its point built once.  Every other interval goes
    through ``interval()``.  Categorical kinds need the column's code
    table (``category_codes``): the k-th category is the integer point
    [k..k].  Integer and categorical sets use the closed-bound discrete
    form, so adjacent categories merge when both are present.
    """
    if isinstance(cond, Alternative):
        return canonical(
            [iv for part in cond.parts
             for iv in lower_to_intervals(part, kind, codes)],
            kind is not _REAL)
    if kind is not _INTEGER and kind is not _REAL:
        if not codes:
            raise CodecError(f"no categories known for {kind.value} column")
        k = len(codes)
        if isinstance(cond, AnyValue):
            return _one(0, True, k - 1, True, True)
        if isinstance(cond, Match):
            i = category_index(codes, cond.value)
            return _one(i, True, i, True, True)
        if isinstance(cond, Not):
            i = category_index(codes, cond.value)
            return canonical([interval(0, True, i - 1, True),
                              interval(i + 1, True, k - 1, True)], True)
        raise SFeelTypeError(f"condition {cond!r} is not defined for "
                             f"{kind.value} columns")

    # A bound of exactly the column's type needs no kind test, and the
    # infinite side of a comparison is not a literal.
    discrete = kind is _INTEGER
    exact = int if discrete else float
    if isinstance(cond, Interval1D):
        lo, lo_closed, hi, hi_closed = cond
        if (lo_closed and hi_closed and type(lo) is exact
                and type(hi) is exact and NEG_INF < lo <= hi < POS_INF):
            return (cond,)  # interval() would rebuild an equal one
        for bound in (lo, hi):
            if type(bound) is not exact and bound not in (NEG_INF, POS_INF):
                _numeric_literal(bound, kind)
        return _one(lo, lo_closed, hi, hi_closed, discrete)
    if isinstance(cond, Match):
        v = cond.value
        if type(v) is exact and NEG_INF < v < POS_INF:
            return (_new(Interval1D, (v, True, v, True)),)
        v = _numeric_literal(v, kind)
        return _one(v, True, v, True, discrete)
    if isinstance(cond, AnyValue):
        return FULL
    if isinstance(cond, Not):
        v = _numeric_literal(cond.value, kind)
        return canonical(
            [interval(NEG_INF, False, v, False),
             interval(v, False, POS_INF, False)], discrete)
    raise SFeelTypeError(f"not a condition: {cond!r}")


def _one(lo, lo_closed: bool, hi, hi_closed: bool,
         discrete: bool) -> tuple[Interval1D, ...]:
    # The canonical set of one interval, normalised once by interval().
    iv = interval(lo, lo_closed, hi, hi_closed, discrete)
    return () if iv is None else (iv,)


def _numeric_literal(value, kind: Kind):
    vk = kind_of(value)
    if vk != kind:
        raise SFeelTypeError(f"{vk.value} literal in {kind.article} "
                             f"condition")
    return value
