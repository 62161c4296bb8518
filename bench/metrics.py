"""Names and units of the metrics the benchmark reports (standard library only)."""

# End-to-end metrics: reported by a run with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: reported by a traced run.  Each entry is
# (metric, unit, span names, attribute, n).  Attribute None sums busy
# seconds; any other attribute sums that count over the spans.  A non-None
# n keeps only spans whose "n" attribute equals it.  Values are per pass
# over the seeded input set.
LAYER_SPANS = (
    ("green.series.batch_s", "s", ("green.series.batch",), None, None),
    ("green.series.batch_points", "count", ("green.series.batch",), "points", None),
    ("green.series.n2_s", "s", ("green.series.batch",), None, 2),
    ("green.series.scalar_s", "s", ("green.series.scalar",), None, None),
    ("green.series.scalar_points", "count", ("green.series.scalar",), "points", None),
    ("green.integral_s", "s", ("green.integral",), None, None),
    ("green.integral_points", "count", ("green.integral",), "points", None),
    ("green.integral_failed", "count", ("green.integral",), "failed", None),
    ("green.integral_near_diag_failed", "count", ("green.integral",), "near_diag_failed", None),
    ("green.closed_s", "s", ("green.closed",), None, None),
    ("green.closed_points", "count", ("green.closed",), "points", None),
    ("green_tables.eval_s", "s", ("green_tables.eval",), None, None),
    ("green_tables.eval_points", "count", ("green_tables.eval",), "points", None),
    ("closedform.derive_s", "s", ("closedform.derive",), None, None),
    ("closedform.derive_calls", "count", ("closedform.derive",), "calls", None),
    ("closedform.eval_s", "s", ("closedform.eval",), None, None),
    ("closedform.eval_points", "count", ("closedform.eval",), "points", None),
    ("solver.solve_s", "s", ("solver.solve",), None, None),
    ("solver.solves", "count", ("solver.solve",), "solves", None),
    ("solver.coeffs", "count", ("solver.solve",), "coeffs", None),
    ("spectra.parse_s", "s", ("spectra.parse",), None, None),
    ("spectra.format_s", "s", ("spectra.format",), None, None),
    ("spectra.io_bytes", "B", ("spectra.parse", "spectra.format"), "bytes", None),
    ("spectra.rule_s", "s", ("spectra.rule",), None, None),
    ("spectra.rule_nodes", "count", ("spectra.rule",), "nodes", None),
    ("spectra.synthesize_s", "s", ("spectra.synthesize",), None, None),
    ("spectra.analyze_s", "s", ("spectra.analyze",), None, None),
    ("spectra.analysis_cells", "count", ("spectra.synthesize", "spectra.analyze"), "cells", None),
    ("wavelets.forward_s", "s", ("wavelets.forward",), None, None),
    ("wavelets.inverse_s", "s", ("wavelets.inverse",), None, None),
    ("wavelets.cells", "count", ("wavelets.forward", "wavelets.inverse"), "cells", None),
)

# Per-layer metrics that do not come from summing spans.
_LAYER_OTHER = (
    ("green.series.tail_honest_ratio", "1"),
    ("solver.max_residual", "1"),
    ("bench.fail_ratio", "1"),
    ("bench.trace_overhead_s", "s"),
)

PER_LAYER = tuple(entry[:2] for entry in LAYER_SPANS) + _LAYER_OTHER
