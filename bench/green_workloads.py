"""The two Green-function workloads: green_table and green_pointwise.

Each workload builds its seeded input set once (a list of jobs), runs one
job per operation through ``run`` and checks the returned outputs in
``check``.  References that call into spherepde are computed in ``check``,
outside the timed phase, and cached across passes.
"""

from math import isfinite

import numpy as np

from spherepde import (
    GreenFunction,
    green_eval_integral,
    green_tables,
    helmholtz_parameter,
    make_context,
)
from spherepde.closedform import derive_green_closed_form
from spherepde.green import green_series_batch

from harness import Tracer

# The 20 points of acceptance criterion 1 plus two near-diagonal points,
# where the n = 2 doubling runs longest and the integral backend raises.
TABLE_POINTS = np.concatenate([np.linspace(-0.95, 0.95, 20), [0.99, 0.999]])
NEAR_DIAG = 0.99

SERIES_TOL = 1e-4       # series vs registry, relative to 1 + |G|
INTEGRAL_TOL = 1e-6     # integral vs registry, relative to 1 + |G|
DERIVED_ROW_TOL = 1e-10  # derived closed form vs registry row, relative
FACADE_TOL = 1e-12      # facade closed path vs registry row, relative
SCALAR_TOL = 1e-4       # facade series path vs integral, relative


def _param(n, a):
    return helmholtz_parameter(make_context(n), float(a))


class GreenTable:
    """One operation tabulates one registry row with all three backends.

    Calls green_series_batch once over the points, green_eval_integral once
    per point and TableRow.eval for the reference, the work of
    ``spherepde green table --backend all`` and acceptance criterion 1.
    """

    def __init__(self, seed, scale):
        rng = np.random.default_rng(seed)
        self.points = TABLE_POINTS
        if scale == "tiny":
            self.points = np.array([-0.5, 0.5, 0.999])
            self.jobs = [green_tables.lookup_by_root(3, 0), green_tables.lookup_by_root(5, 2)]
            return
        rows = green_tables.rows_for()
        half = [r for r in rows if r.L.denominator == 2]
        integer = [r for r in rows if r.L.denominator == 1]
        # Strata keep the cost of a pass, and which row sits at the median
        # latency, nearly independent of the seed: every n = 2 row runs the
        # same doubling depth, half-integer-L rows cost the integral backend
        # about ten times an integer-L row, and the eight integer-L rows with
        # n >= 4 cost within about 20% of each other.
        strata = (
            (1, [r for r in integer if r.n == 2]),
            (1, [r for r in half if r.table == 3]),
            (1, [r for r in half if r.table == 4]),
            (1, [r for r in integer if r.table == 4 and r.n != 8]),
            (2, [r for r in integer if r.n == 8]),
            (5, [r for r in integer if r.n >= 5 and r.n != 8 and r.table != 4]),
        )
        jobs = []
        for count, pool in strata:
            pick = rng.choice(len(pool), size=count, replace=False)
            jobs.extend(pool[i] for i in pick)
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]

    def label(self, row):
        return f"row n={row.n} L={row.L}"

    def warm_up(self):
        row = green_tables.lookup_by_root(3, 0)
        saved, self.points = self.points, np.array([-0.5, 0.5])
        try:
            self.run(row, Tracer(False))
        finally:
            self.points = saved

    def run(self, row, tr):
        param = _param(row.n, row.a)
        ts = self.points
        out = {"series": None, "tails": None, "integral": []}
        with tr.span("green.series.batch", points=ts.size, n=row.n) as sp:
            try:
                out["series"], out["tails"] = green_series_batch(param, ts)
            except Exception as exc:  # counted by check as failed results
                out["series"] = exc
                sp["failed"] = ts.size
        for t in ts:
            with tr.span("green.integral", points=1) as sp:
                try:
                    value = green_eval_integral(param, float(t))
                except Exception as exc:  # counted by check as a failed result
                    value = exc
                    sp["failed"] = 1
                    sp["near_diag_failed"] = int(t >= NEAR_DIAG)
            out["integral"].append(value)
        with tr.span("green_tables.eval", points=ts.size):
            out["ref"] = [row.eval(float(t)) for t in ts]
        return out

    def check(self, row, out, tally):
        ref = out["ref"]
        series = out["series"]
        if isinstance(series, Exception):
            tally.error(series, len(ref))
        else:
            for value, tail, r in zip(series, out["tails"], ref):
                err = abs(value - r)
                tally.tail_checked += 1
                tally.tail_honest += int(tail >= err)
                tally.check(isfinite(value) and (err <= SERIES_TOL * (1.0 + abs(r)) or err <= tail))
        for value, r in zip(out["integral"], ref):
            if isinstance(value, Exception):
                tally.error(value)
            else:
                tally.close(value, r, INTEGRAL_TOL)


class GreenPointwise:
    """A caller that evaluates G one point at a time.

    Jobs: derive a closed form for even n and integer L and evaluate it
    point by point; sample a registry row through GreenFunction(param,
    "auto"); and, as a minority share, evaluate the same facade at a few
    points for untabulated a, which resolves to the scalar series path.
    """

    DERIVE_DIMS = (2, 4, 6, 8, 10, 12)
    DERIVE_ROOTS = (0, 1, 2, 3, 4)
    # Untabulated facade calls run at one even and one odd dimension; n = 2
    # is left to green_table, whose batch call covers its slow doubling.
    SERIES_DIMS = (4, 7)

    def __init__(self, seed, scale):
        rng = np.random.default_rng(seed)
        if scale == "tiny":
            dims, roots, rows, grid, series_points, checked = (2, 4), (0, 1), (0, 40), 20, 1, 2
        else:
            # Every registry row, so that the seed does not change where the
            # facade's linear registry lookup finds the sampled rows.
            dims, roots, rows, grid, series_points, checked = (
                self.DERIVE_DIMS, self.DERIVE_ROOTS, None, 500, 2, 8)

        def points(count, lim=0.95):
            return np.sort(rng.uniform(-lim, lim, count))

        jobs = []
        for n in dims:
            for L in roots:
                ts = points(grid)
                jobs.append(("derive", (n, L), ts, rng.choice(ts[np.abs(ts) <= 0.9], checked)))
        registry = green_tables.rows_for()
        for row in registry if rows is None else [registry[i] for i in rows]:
            jobs.append(("closed", row, points(grid), None))
        for n in self.SERIES_DIMS:
            jobs.append(("series", (n, self._untabulated_a(rng, n)), points(series_points, 0.9), None))
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        self._refs = {}

    @staticmethod
    def _untabulated_a(rng, n):
        """a = L(n+L-1) with L at least 0.15 from every integer and half-integer."""
        while True:
            L = int(rng.integers(-1, 4)) + float(rng.choice([0.25, 0.75])) + rng.uniform(-0.1, 0.1)
            a = L * (n + L - 1.0)
            if green_tables.lookup(n, a) is None:
                return a

    def label(self, job):
        return f"{job[0]} {job[1]}"

    def warm_up(self):
        ts = np.array([-0.5, 0.5])
        for job in (("derive", (2, 0), ts, ts), ("closed", green_tables.lookup_by_root(3, 0), ts, None),
                    ("series", (3, 1.3), ts[:1], None)):
            self.run(job, Tracer(False))

    def run(self, job, tr):
        kind, key, ts, _ = job
        if kind == "series":
            g = GreenFunction(_param(*key), "auto")
            values = []
            for t in ts:
                with tr.span("green.series.scalar", points=1):
                    try:
                        values.append(g(t))
                    except Exception as exc:  # counted by check as a failed result
                        values.append(exc)
            return values
        try:
            if kind == "derive":
                with tr.span("closedform.derive", calls=1):
                    form = derive_green_closed_form(*key)
                with tr.span("closedform.eval", points=ts.size):
                    return [form.eval(t) for t in ts]
            g = GreenFunction(_param(key.n, key.a), "auto")
            with tr.span("green.closed", points=ts.size):
                return [g(t) for t in ts]
        except Exception as exc:  # counted by check as failed results
            return exc

    def _ref(self, kind, key, t):
        """Reference value at one point, computed once per run."""
        k = (kind, key, t)
        if k not in self._refs:
            if kind == "row":
                self._refs[k] = key.eval(t)
            else:
                try:
                    self._refs[k] = green_eval_integral(_param(*key), t)
                except Exception as exc:  # a reference that raises fails its check
                    self._refs[k] = exc
        return self._refs[k]

    def check(self, job, values, tally):
        kind, key, ts, sample = job
        if kind == "series":
            for t, v in zip(ts, values):
                if isinstance(v, Exception):
                    tally.error(v)
                else:
                    self._close(tally, v, self._ref("integral", key, t), SCALAR_TOL)
            return
        row = key if kind == "closed" else green_tables.lookup_by_root(*key)
        if isinstance(values, Exception):
            tally.error(values, len(ts) if row is not None else len(sample))
        elif row is not None:
            tol = FACADE_TOL if kind == "closed" else DERIVED_ROW_TOL
            for t, v in zip(ts, values):
                tally.close(v, self._ref("row", row, t), tol)
        else:
            n, L = key
            at = dict(zip(ts, values))
            for t in sample:
                self._close(tally, at[t], self._ref("integral", (n, L * (n + L - 1)), t), INTEGRAL_TOL)

    @staticmethod
    def _close(tally, value, ref, tol):
        if isinstance(ref, Exception):
            tally.check(False)
        else:
            tally.close(value, ref, tol)
