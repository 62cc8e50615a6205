"""Interval primitives: bound ordering, the factory, contiguity, and
set algebra."""

import pytest
from hypothesis import given, strategies as st

from dmncheck import Interval1D, interval
from dmncheck.intervals import (LOWER_CLOSED, LOWER_OPEN, NEG_INF, POS_INF,
                                UPPER_CLOSED, UPPER_OPEN, canonical,
                                canonical_key, intersect_sets, join_ordered)


def iv(lo, lc, hi, hc):
    return Interval1D(lo, lc, hi, hc)


def member(s, x) -> bool:
    return any(m.contains(x) for m in s)


def contiguous(a, b, discrete) -> bool:
    # Disjoint, yet canonical joins them into one interval.
    return a.intersect(b) is None and len(canonical([a, b], discrete)) == 1


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
        got = canonical(
            [iv(0, True, 3, True), iv(3, False, 5, True),
             iv(8, True, 9, True), None], discrete=False)
        assert got == (iv(0, True, 5, True), iv(8, True, 9, True))

    def test_contains(self):
        s = canonical([iv(0, True, 3, False)], discrete=False)
        assert member(s, 0) and member(s, 2.5)
        assert not member(s, 3) and not member(s, -0.1)


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
    return canonical(parts, discrete=discrete)


@given(discrete=st.booleans(), data=st.data())
def test_union_and_intersection_pointwise(discrete, data):
    a = data.draw(interval_sets(discrete))
    b = data.draw(interval_sets(discrete))
    # Discrete sets speak for integers only; halves probe open bounds.
    x = data.draw(st.integers(-25, 25)) if discrete \
        else data.draw(st.integers(-50, 50)) / 2
    union = canonical(a + b, discrete)
    assert member(union, x) == (member(a, x) or member(b, x))
    both = intersect_sets(a, b)
    assert member(both, x) == (member(a, x) and member(b, x))
    # Intersecting canonical sets needs no canonical merge afterwards.
    assert both == canonical(both, discrete)


@given(s=interval_sets(discrete=False))
def test_canonical_members_disjoint_and_sorted(s):
    for left, right in zip(s, s[1:]):
        assert left.intersect(right) is None
        assert len(canonical([left, right], discrete=False)) == 2
        assert (left.lo, not left.lo_closed) <= (right.lo,
                                                 not right.lo_closed)


@given(discrete=st.booleans(), data=st.data())
def test_join_ordered_equals_canonical_on_ordered_disjoint_parts(discrete,
                                                                 data):
    # Normal parts in line order, each disjoint from the one before; on
    # a small range many of them touch, so the join has work to do.
    ends = st.one_of(bounds, st.sampled_from((NEG_INF, POS_INF)))
    parts = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        a, b = sorted((data.draw(ends), data.draw(ends)))
        part = interval(a, data.draw(st.booleans()), b,
                        data.draw(st.booleans()), discrete)
        if part is not None:
            parts.append(part)
    parts.sort(key=canonical_key)
    ordered = []
    for part in parts:
        if not ordered or ordered[-1].intersect(part) is None:
            ordered.append(part)
    joined = join_ordered(ordered, discrete)
    assert joined == canonical(ordered, discrete)
    # canonical joins through join_ordered, so check the union itself.
    for x in (range(-25, 26) if discrete else [k / 2 for k in range(-50, 51)]):
        assert member(joined, x) == member(ordered, x)
    for left, right in zip(joined, joined[1:]):
        # A gap of at least one value separates neighbours.
        if discrete:
            assert right.lo > left.hi + 1
        else:
            assert right.lo > left.hi or (
                right.lo == left.hi
                and not (left.hi_closed or right.lo_closed))
