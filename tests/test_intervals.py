"""Interval primitives: bound ordering, the factory, contiguity, and
set algebra."""

import pytest
from hypothesis import given, strategies as st

from dmncheck import Interval1D, IntervalSet, interval
from dmncheck.intervals import (LOWER_CLOSED, LOWER_OPEN, NEG_INF, POS_INF,
                                UPPER_CLOSED, UPPER_OPEN, contiguous)


def iv(lo, lc, hi, hc):
    return Interval1D(lo, lc, hi, hc)


class TestEventRank:
    def test_total_order_at_equal_value(self):
        # upper-open < lower-closed < upper-closed < lower-open
        assert (UPPER_OPEN, LOWER_CLOSED, UPPER_CLOSED, LOWER_OPEN) \
            == (0, 1, 2, 3)

    def test_closed_touch_counts_as_intersection(self):
        # Input 1000 triggers both [0..1000] and [1000..2000].
        a = iv(0, True, 1000, True)
        b = iv(1000, True, 2000, True)
        got = a.intersect(b)
        assert got == iv(1000, True, 1000, True)
        assert got.lo == got.hi

    def test_open_touch_is_disjoint(self):
        assert iv(0, True, 5, False).intersect(iv(5, False, 9, True)) is None
        assert iv(0, True, 5, False).intersect(iv(5, True, 9, True)) is None


class TestFactory:
    def test_empty_never_materialized(self):
        assert interval(5, True, 3, True) is None
        assert interval(5, False, 5, True) is None
        assert interval(5, True, 5, False) is None
        assert interval(5, False, 5, False) is None
        assert interval(5, True, 5, True) == iv(5, True, 5, True)

    def test_infinities_forced_open(self):
        got = interval(NEG_INF, True, POS_INF, True)
        assert got == iv(NEG_INF, False, POS_INF, False)

    def test_integer_normalized_to_closed(self):
        # <5 over integers is ..4]; (2..7) is [3..6]
        assert interval(NEG_INF, False, 5, False, discrete=True) \
            == iv(NEG_INF, False, 4, True)
        assert interval(2, False, 7, False, discrete=True) \
            == iv(3, True, 6, True)
        assert interval(4, False, 5, False, discrete=True) is None


class TestContiguity:
    def test_integer_adjacent(self):
        assert contiguous(iv(0, True, 3, True), iv(4, True, 9, True),
                          discrete=True)
        assert not contiguous(iv(0, True, 3, True), iv(5, True, 9, True),
                              discrete=True)

    def test_real_complementary_closedness(self):
        assert contiguous(iv(0, True, 3, True), iv(3, False, 9, True),
                          discrete=False)
        assert contiguous(iv(0, True, 3, False), iv(3, True, 9, True),
                          discrete=False)
        # both closed at 3 -> they intersect, not merely touch
        assert not contiguous(iv(0, True, 3, True), iv(3, True, 9, True),
                              discrete=False)
        # both open at 3 -> the point 3 is a genuine gap
        assert not contiguous(iv(0, True, 3, False), iv(3, False, 9, True),
                              discrete=False)


class TestIntervalSet:
    def test_build_canonicalizes(self):
        got = IntervalSet.build(
            [iv(0, True, 3, True), iv(3, False, 5, True),
             iv(8, True, 9, True), None], discrete=False)
        assert got.members == (iv(0, True, 5, True), iv(8, True, 9, True))

    def test_contains(self):
        s = IntervalSet.build([iv(0, True, 3, False)], discrete=False)
        assert s.contains(0) and s.contains(2.5)
        assert not s.contains(3) and not s.contains(-0.1)


bounds = st.integers(min_value=-20, max_value=20)


@st.composite
def interval_sets(draw, discrete):
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a = draw(bounds)
        b = draw(bounds)
        if a > b:
            a, b = b, a
        parts.append(interval(a, draw(st.booleans()), b,
                              draw(st.booleans()), discrete=discrete))
    return IntervalSet.build(parts, discrete=discrete)


@given(a=interval_sets(discrete=True), b=interval_sets(discrete=True),
       x=st.integers(-25, 25))
def test_union_and_intersection_pointwise(a, b, x):
    union = IntervalSet.build(a.members + b.members, discrete=True)
    assert union.contains(x) == (a.contains(x) or b.contains(x))
    assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))


@given(s=interval_sets(discrete=False))
def test_canonical_members_disjoint_and_sorted(s):
    members = s.members
    for left, right in zip(members, members[1:]):
        assert left.intersect(right) is None
        assert not contiguous(left, right, discrete=False)
        assert (left.lo, not left.lo_closed) <= (right.lo,
                                                 not right.lo_closed)
