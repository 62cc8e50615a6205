"""Verification toolkit for decision tables.

Load a table from its JSON document, evaluate it against input
configurations, and verify it: facet compatibility, overlap detection,
missing-rule detection, hit policy soundness, and completeness, all
with exact interval geometry rather than sampling.
"""

from .errors import (CapacityError, CodecError, DecisionTableError,
                     EvalError, SchemaError, SFeelSyntaxError,
                     SFeelTypeError, SpecError)
from .intervals import Interval1D, interval
from .sfeel import (ANY, Kind, format_literal, lower_to_intervals,
                    parse_condition, render_condition, satisfies)
from .model import (COMPLETENESS_MISMATCH, FACET_INCOMPAT, MASKED_RULE,
                    MISSING_RULE, OUTPUT_DISAGREEMENT, OVERLAP,
                    PRIORITY_ERROR, Attribute, DecisionTable, Diagnostic,
                    Rule, dump_table, load_table, validate_structure)
from .analysis import (MissingRegion, OverlapGroup, encode_point,
                       find_missing_rules, find_overlapping_rules,
                       oracle_missing, oracle_overlaps, render_box)
from .semantics import (EvalResult, Outcome, evaluate, masked_by,
                        triggered_by)
from .correctness import (CompletenessVerdict, CorrectnessReport,
                          check_correct)
from .synth import (BenchCell, BenchReport, ColumnSpec, GenSpec,
                    bench_columns, benchmark_grid, generate_table,
                    inject_noise, pairwise_overlap_fragments,
                    run_benchmark)

__version__ = "0.1.0"

__all__ = [
    "ANY", "Attribute", "BenchCell", "BenchReport", "CapacityError",
    "CodecError", "ColumnSpec", "COMPLETENESS_MISMATCH",
    "CompletenessVerdict",
    "CorrectnessReport", "DecisionTable", "DecisionTableError",
    "Diagnostic", "EvalError", "EvalResult",
    "FACET_INCOMPAT", "GenSpec", "Interval1D",
    "Kind", "MASKED_RULE", "MISSING_RULE", "MissingRegion",
    "OUTPUT_DISAGREEMENT", "OVERLAP", "Outcome", "OverlapGroup",
    "PRIORITY_ERROR", "Rule", "SchemaError", "SFeelSyntaxError",
    "SFeelTypeError", "SpecError", "bench_columns", "benchmark_grid",
    "check_correct", "dump_table", "encode_point", "evaluate",
    "find_missing_rules", "find_overlapping_rules", "format_literal",
    "generate_table", "inject_noise", "interval",
    "load_table",
    "lower_to_intervals", "masked_by",
    "oracle_missing",
    "oracle_overlaps", "pairwise_overlap_fragments", "parse_condition",
    "render_box", "render_condition", "run_benchmark",
    "satisfies", "triggered_by", "validate_structure",
]
