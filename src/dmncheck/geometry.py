"""Geometric view of decision tables.

A rule becomes a region with one axis per input column: one canonical
set per column, a tuple of ``Interval1D``, whose product is the region.
``analysis.table_rects`` builds every rule's sets from the codec and
universe defined here.  Numeric columns map onto the number line
directly.  Categorical columns are coded: the k-th known category of a
column is the integer point [k..k], and the column is discrete like an
integer column, so a multi-valued entry such as ``VG,G`` becomes
[0..1] and ``-`` over k categories becomes [0..k-1].

The category order is deterministic: facet declaration order first,
then first appearance scanning the rules top to bottom.  Boolean
columns with an unrestricted facet use the canonical order
``false, true``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CodecError
from .intervals import Interval1D
from .sfeel import (Alternative, AnyValue, Condition, Kind, Match, Not,
                    category_index, lower_to_intervals)

if TYPE_CHECKING:  # pragma: no cover
    from .model import DecisionTable


def _condition_literals(cond: Condition) -> list:
    if isinstance(cond, (Match, Not)):
        return [cond.value]
    if isinstance(cond, Alternative):
        out = []
        for part in cond.parts:
            out.extend(_condition_literals(part))
        return out
    return []


@dataclass(frozen=True)
class CategoryCodec:
    """Ordered category lists for every categorical column of a table."""

    columns: dict[str, tuple]

    def categories(self, column: str) -> tuple:
        try:
            return self.columns[column]
        except KeyError:
            raise CodecError(f"column {column!r} has no categorical codec") \
                from None

    def encode(self, column: str, literal) -> int:
        return category_index(self.categories(column), literal)

    def decode(self, column: str, iv: Interval1D) -> tuple:
        """The categories whose codes lie in the given closed integer
        interval."""
        return self.categories(column)[iv.lo:iv.hi + 1]


def build_codec(table: "DecisionTable") -> CategoryCodec:
    """Deterministic codec over all categorical columns of the table."""
    columns: dict[str, tuple] = {}
    rule_entries = {
        attr.name: [rule.input_entries[i] for rule in table.rules]
        for i, attr in enumerate(table.inputs)
    }
    for i, attr in enumerate(table.outputs):
        rule_entries[attr.name] = [Match(rule.output_entries[i])
                                   for rule in table.rules]
    for attr in table.inputs + table.outputs:
        if not attr.kind.is_categorical:
            continue
        ordered: list = []
        if attr.kind is Kind.BOOLEAN and isinstance(attr.facet, AnyValue):
            ordered = [False, True]
        for literal in _condition_literals(attr.facet):
            if literal not in ordered:
                ordered.append(literal)
        for cond in rule_entries[attr.name]:
            for literal in _condition_literals(cond):
                if literal not in ordered:
                    ordered.append(literal)
        if not ordered:
            # Column never names a category: collapse its (infinite)
            # domain to a single representative so geometry stays finite.
            ordered = ["<any>"] if attr.kind is Kind.STRING else [False, True]
        columns[attr.name] = tuple(ordered)
    return CategoryCodec(columns)


def lower_condition(cond: Condition, attr,
                    codec: CategoryCodec) -> tuple[Interval1D, ...]:
    """Interval image of a condition over the column ``attr``, with
    categories coded by ``codec``."""
    categories = codec.categories(attr.name) if attr.kind.is_categorical \
        else None
    return lower_to_intervals(cond, attr.kind, categories)


def build_universe(table: "DecisionTable",
                   codec: CategoryCodec) -> tuple[tuple[Interval1D, ...], ...]:
    """Legal-value canonical set per input column (the facet image)."""
    return tuple(lower_condition(attr.facet, attr, codec)
                 for attr in table.inputs)


def encode_point(table: "DecisionTable", codec: CategoryCodec,
                 config: dict) -> tuple:
    """Geometric coordinates of an input configuration."""
    point = []
    for attr in table.inputs:
        value = config[attr.name]
        if attr.kind.is_categorical:
            point.append(codec.encode(attr.name, value))
        else:
            point.append(value)
    return tuple(point)
