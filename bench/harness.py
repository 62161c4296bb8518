"""Span recording and failure accounting of the benchmark.

Spans are recorded only here, in the benchmark's own files, around its
calls into each spherepde module's public functions.  A span carries its
name, start and end (perf_counter seconds), the span that caused it, the
index of the operation it belongs to, and count attributes set at the same
boundary (points evaluated, cells computed, bytes formatted, failures).
"""

from collections import Counter
from math import isfinite
from time import perf_counter

from spherepde import errors

from metrics import LAYER_SPANS

LIBRARY_ERRORS = (
    errors.ConvergenceError,
    errors.NoClosedFormError,
    errors.QuadratureError,
    errors.ResonanceError,
    errors.SolvabilityError,
    errors.SphereDomainError,
)


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.op = None

    def span(self, name, **attrs):
        """Context manager around one call; yields the attribute dict to update."""
        if not self.enabled:
            return _NullSpan(attrs)
        return _Span(self, name, attrs)

    def layer_metrics(self, passes):
        """Per-pass busy seconds and counts for every span-derived metric."""
        out = {}
        for metric, unit, names, attr, n in LAYER_SPANS:
            total = 0.0
            for sp in self.spans:
                if sp["name"] in names and (n is None or sp["attrs"].get("n") == n):
                    total += (sp["end"] - sp["start"]) if attr is None else sp["attrs"].get(attr, 0)
            out[metric] = (total / passes, unit)
        residuals = [sp["attrs"]["residual"] for sp in self.spans if sp["name"] == "solver.solve"]
        out["solver.max_residual"] = (max(residuals, default=0.0), "1")
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        stack = tracer._stack
        self.record = {"id": len(tracer.spans), "parent": stack[-1] if stack else None,
                       "op": tracer.op, "name": name, "start": 0.0, "end": 0.0,
                       "attrs": attrs}

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = perf_counter()
        return self.record["attrs"]

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()
        return False


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self, attrs):
        self.attrs = attrs

    def __enter__(self):
        return self.attrs

    def __exit__(self, *exc):
        return False


class Tally:
    """Checked results: attempted, failed, and why they failed.

    A result fails when its call raised or when it returned a value that
    missed its check against the reference.  A raised spherepde error is
    the library's documented way of declining (the CLI maps it to an exit
    code); it counts as failed but leaves the run correct.  A wrong value,
    or any other exception, makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.unexpected = 0
        self.wrong = 0
        self.errors = Counter()
        self.tail_checked = 0
        self.tail_honest = 0

    @property
    def failed(self):
        return self.raised + self.unexpected + self.wrong

    @property
    def correct(self):
        return self.wrong == 0 and self.unexpected == 0

    def error(self, exc, count=1):
        """Results never returned because the call raised exc."""
        self.attempted += count
        if isinstance(exc, LIBRARY_ERRORS):
            self.raised += count
        else:
            self.unexpected += count
        self.errors[type(exc).__name__] += count

    def check(self, ok):
        """One returned result and whether it met its check."""
        self.attempted += 1
        if not ok:
            self.wrong += 1

    def close(self, value, ref, tol):
        """Check |value - ref| <= tol * (1 + |ref|); NaN or inf fails."""
        self.check(isfinite(value) and abs(value - ref) <= tol * (1.0 + abs(ref)))
