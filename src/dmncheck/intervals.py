"""One-dimensional intervals and canonical interval sets.

This module is the only place that knows interval semantics: membership,
intersection, cover, contiguity, the canonical order and the sweep tie
ranks.  ``Interval1D`` is a ``NamedTuple``, so the sweeps hash, sort and
unpack intervals as plain tuples and no second representation exists.
A canonical set is a sorted, disjoint, non-contiguous tuple of
``Interval1D``, built by :func:`canonical` and met by
:func:`intersect_sets`.  A box is a tuple of ``Interval1D``, one per
input column.

All geometric reasoning in this package is symbolic over interval
endpoints.  Endpoint values come from parsed literals (64-bit-ish ints,
binary floats, or small category codes), never from accumulated
arithmetic, so exact comparison is safe.

Two endpoint disciplines exist:

* continuous intervals, those of real columns, keep their open/closed
  flags;
* discrete intervals, those of integer and categorical columns, are
  normalised to closed finite bounds, e.g. ``(0..5]`` becomes
  ``[1..5]`` and ``< 5`` becomes ``(-inf..4]``; a category is coded
  as an integer point.

Intervals order canonically by :func:`canonical_key`: lower bound first,
a closed lower bound before an open one at the same value.  Raw tuple
order differs there (``False < True``) and puts ``(1..2]`` before
``[1..1]``.

Sweep algorithms order endpoint events by value and, at equal values, by
a fixed tie rank: upper-open < lower-closed < upper-closed < lower-open.
That ordering makes closed-touching intervals count as intersecting
(an input of 1000 triggers both ``[0..1000]`` and ``[1000..2000]``)
while open-touching intervals stay disjoint.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

NEG_INF = float("-inf")
POS_INF = float("inf")

# Event tie ranks for sweeps; see module docstring.  Lower bounds have
# odd ranks.
UPPER_OPEN = 0
LOWER_CLOSED = 1
UPPER_CLOSED = 2
LOWER_OPEN = 3


class Interval1D(NamedTuple):
    """A non-empty interval with independent open/closed bounds.

    Instances are normally created through :func:`interval`, which
    rejects empty combinations and normalises discrete bounds, so code
    holding an ``Interval1D`` may assume it denotes at least one value.
    """

    lo: float
    lo_closed: bool
    hi: float
    hi_closed: bool

    def contains(self, x) -> bool:
        lo, lo_closed, hi, hi_closed = self
        if x < lo or (x == lo and not lo_closed):
            return False
        if x > hi or (x == hi and not hi_closed):
            return False
        return True

    def intersect(self, other: "Interval1D") -> Optional["Interval1D"]:
        lo, lo_closed, hi, hi_closed = self
        if (other.lo, not other.lo_closed) > (lo, not lo_closed):
            lo, lo_closed = other.lo, other.lo_closed
        if (other.hi, other.hi_closed) < (hi, hi_closed):
            hi, hi_closed = other.hi, other.hi_closed
        return interval(lo, lo_closed, hi, hi_closed)

    def covers(self, other: "Interval1D") -> bool:
        """True when every value of ``other`` lies in this interval."""
        lo, lo_closed, hi, hi_closed = self
        return ((other.lo, not other.lo_closed) >= (lo, not lo_closed)
                and (other.hi, other.hi_closed) <= (hi, hi_closed))


# The whole line, as a canonical set.
FULL = (Interval1D(NEG_INF, False, POS_INF, False),)


def canonical_key(iv: Interval1D) -> tuple:
    """Sort key ordering intervals by position on the line."""
    return (iv.lo, not iv.lo_closed, iv.hi, iv.hi_closed)


def interval(lo, lo_closed: bool, hi, hi_closed: bool,
             discrete: bool = False) -> Optional[Interval1D]:
    """Build an interval, or return None when the combination is empty.

    Infinite bounds are forced open.  With ``discrete=True`` finite open
    bounds are tightened to the nearest enclosed integer.
    """
    if lo == NEG_INF:
        lo_closed = False
    if hi == POS_INF:
        hi_closed = False
    if discrete:
        if lo != NEG_INF and not lo_closed:
            lo, lo_closed = lo + 1, True
        if hi != POS_INF and not hi_closed:
            hi, hi_closed = hi - 1, True
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval1D(lo, lo_closed, hi, hi_closed)


def _mergeable(a: Interval1D, b: Interval1D, discrete: bool) -> bool:
    # a sorted before b by lower bound; True when a union b is one interval.
    if discrete:
        return b.lo <= a.hi + 1
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


def contiguous(a: Interval1D, b: Interval1D, discrete: bool) -> bool:
    """True when a and b are disjoint but their union is one interval.

    Discrete intervals are contiguous when ``a.hi + 1 == b.lo`` (or the
    mirror image); continuous ones when they meet at an equal endpoint
    with complementary openness, e.g. ``[0..2)`` followed by ``[2..5]``
    or ``[1..1]`` followed by ``(1..2]``.
    """
    if canonical_key(a) > canonical_key(b):
        a, b = b, a
    if discrete:
        return a.hi + 1 == b.lo
    return a.hi == b.lo and (a.hi_closed != b.lo_closed)


def canonical(parts: Iterable[Optional[Interval1D]],
              discrete: bool = False) -> tuple[Interval1D, ...]:
    """The canonical set of a union of intervals: sorted, disjoint and
    non-contiguous, so equal sets are equal tuples.  ``None`` parts are
    skipped; ``discrete`` selects integer endpoint discipline."""
    normal = []
    for p in parts:
        if p is None:
            continue
        p = interval(p.lo, p.lo_closed, p.hi, p.hi_closed, discrete)
        if p is not None:
            normal.append(p)
    normal.sort(key=canonical_key)
    merged: list[Interval1D] = []
    for iv in normal:
        if merged and _mergeable(merged[-1], iv, discrete):
            last = merged[-1]
            hi, hi_closed = last.hi, last.hi_closed
            if (iv.hi, iv.hi_closed) > (hi, hi_closed):
                hi, hi_closed = iv.hi, iv.hi_closed
            merged[-1] = Interval1D(last.lo, last.lo_closed, hi, hi_closed)
        else:
            merged.append(iv)
    return tuple(merged)


def intersect_sets(a: tuple[Interval1D, ...], b: tuple[Interval1D, ...]
                   ) -> tuple[Interval1D, ...]:
    """The intersection of two canonical sets, itself canonical: two of
    its pieces that touched would lie inside one member of each set."""
    out: list[Interval1D] = []
    i = j = 0
    while i < len(a) and j < len(b):
        piece = a[i].intersect(b[j])
        if piece is not None:
            out.append(piece)
        # advance whichever interval ends first
        if (a[i].hi, a[i].hi_closed) < (b[j].hi, b[j].hi_closed):
            i += 1
        else:
            j += 1
    return tuple(out)
