"""Helmholtz parameters and the three Green-function backends."""

import tracemalloc
from dataclasses import fields
from fractions import Fraction
from math import floor, pi, sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherepde import (
    ConvergenceError,
    GreenFunction,
    NoClosedFormError,
    SphereDomainError,
    analyze,
    green_coefficient,
    green_coefficients,
    green_eval_integral,
    helmholtz_parameter,
    make_context,
    parameter_from_root,
)
from spherepde import HelmholtzParameter, green
from spherepde.geometry import RESONANCE_RTOL, helmholtz_root
from spherepde.green import (
    _ABEL_DIAG_GAP,
    condition_warnings,
    eigen_gap,
    green_series_batch,
)
from spherepde.spectra import gauss_gegenbauer_rule
from spherepde import green_tables

import integral_values
import oracles


class TestParameter:
    def test_root_identity(self):
        for n in (2, 3, 5, 8):
            ctx = make_context(n)
            for a in (-3.0, -0.4, 0.0, 2.7, 41.0):
                p = helmholtz_parameter(ctx, a)
                if p.L is not None:
                    assert abs(p.L * (n + p.L - 1) - a) <= 1e-12 * (1 + abs(a))

    def test_l0_values(self):
        # the integral's subtraction depth is floor(L); root is the half-integer a sits on
        ctx = make_context(3)
        p = helmholtz_parameter(ctx, 1.25)      # L = 1/2
        assert p.L == pytest.approx(0.5)
        assert floor(p.L) == 0 and p.root == Fraction(1, 2)
        p = helmholtz_parameter(ctx, -0.75)     # L = -1/2, reflection -3/2
        assert p.L == pytest.approx(-0.5)
        assert floor(p.L) == -1 and p.root == Fraction(-1, 2)

    def test_l0_is_floor_of_the_principal_root(self):
        # the reflected root -n-L+1 never exceeds L, so it never sets the depth
        rng = np.random.default_rng(3)
        for n in range(2, 40):
            ctx = make_context(n)
            low = -(n - 1) ** 2 / 4.0
            for a in [low, 0.0, *rng.uniform(low, 60.0, 40), *rng.uniform(low, low + 1.0, 10)]:
                p = helmholtz_parameter(ctx, a)
                assert floor(-n - p.L + 1) <= floor(p.L), (n, a)
                assert p.root is None or p.root == round(2 * p.L) / 2, (n, a)

    def test_resonance_detection(self):
        ctx = make_context(2)
        assert helmholtz_parameter(ctx, 2.0).resonant
        assert helmholtz_parameter(ctx, 2.0).L_res == 1
        assert helmholtz_parameter(ctx, 0.0).resonant           # Poisson: L = 0
        assert helmholtz_parameter(ctx, 0.0).L_res == 0
        assert not helmholtz_parameter(ctx, 2.5).resonant
        assert not helmholtz_parameter(ctx, -1.0).resonant      # negative a never is

    def test_reflection_symmetry(self):
        # L and L' = -n-L+1 define the same parameter
        for n in (2, 4, 7):
            ctx = make_context(n)
            for L in (0.6, 1.0, 2.5):
                p1 = parameter_from_root(ctx, L)
                p2 = parameter_from_root(ctx, -n - L + 1)
                assert p1.a == pytest.approx(p2.a, rel=1e-14)
                assert p1.L == pytest.approx(p2.L, rel=1e-14)
                got = green_coefficients(p1, 12)
                assert_allclose(green_coefficients(p2, 12), got, rtol=1e-13)

    def test_complex_root_case(self):
        ctx = make_context(2)     # lam^2 = 1/4
        p = helmholtz_parameter(ctx, -1.0)
        assert p.L is None and p.root is None
        p = helmholtz_parameter(ctx, -0.25 - 1e-10)     # just below the double root -1/2
        assert p.L is None and p.root == Fraction(-1, 2)

    def test_record_holds_a_and_its_roots_only(self):
        assert [f.name for f in fields(HelmholtzParameter)] == ["ctx", "a", "L", "root"]

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_a_refused(self, a):
        with pytest.raises(SphereDomainError, match="must be finite"):
            helmholtz_parameter(make_context(2), a)
        with pytest.raises(SphereDomainError, match="must be finite"):
            green_tables.lookup(2, a)

    @pytest.mark.parametrize("L", [float("nan"), float("inf"), -float("inf"), 1e300])
    def test_non_finite_a_from_a_root_refused(self, L):
        # L = 1e300 is finite, but a = L(n+L-1) is not
        with pytest.raises(SphereDomainError, match="must be finite"):
            parameter_from_root(make_context(2), L)

    def test_root_decision_matches_the_rules_it_replaced(self):
        # the registry scan and the round(L) resonance rule (tests/oracles.py)
        # agree with the one root decision, on and just off every row's a ...
        rows = green_tables.rows_for()
        for row in rows:
            a0 = float(row.a)
            for f in (0.0, 0.99, -0.99, 1.01, -1.01):
                a = a0 + f * RESONANCE_RTOL * (1.0 + abs(a0))
                p = helmholtz_parameter(make_context(row.n), a)
                want = oracles.registry_scan(rows, row.n, a, RESONANCE_RTOL)
                assert (want is row) == (abs(f) < 1.0), (row.n, row.L, f)
                assert green_tables.lookup(row.n, a) is want, (row.n, row.L, f)
                assert GreenFunction(p, "auto")._row is want, (row.n, row.L, f)
                res = oracles.resonant_degree_by_rounding(row.n, a, RESONANCE_RTOL)
                assert (p.resonant, p.L_res) == (res is not None, res), (row.n, row.L, f)
        # ... and at random a, every half-integer root and the double roots, n = 2..40
        rng = np.random.default_rng(22)
        for n in range(2, 41):
            low = -(n - 1) ** 2 / 4.0
            roots = [Fraction(k, 2) for k in range(1 - n, 24)]
            on = [float(r * (n + r - 1)) for r in roots]
            for a0 in [*rng.uniform(low - 5.0, 200.0, 40), *on]:
                for f in (0.0, 0.5, -0.5, 2.0, -2.0):
                    a = a0 + f * RESONANCE_RTOL * (1.0 + abs(a0))
                    p = helmholtz_parameter(make_context(n), a)
                    assert green_tables.lookup(n, a) is oracles.registry_scan(
                        rows, n, a, RESONANCE_RTOL), (n, a)
                    res = oracles.resonant_degree_by_rounding(n, a, RESONANCE_RTOL)
                    assert (p.resonant, p.L_res) == (res is not None, res), (n, a)
                    if a0 in on and abs(f) < 1.0:
                        assert p.root == roots[on.index(a0)], (n, a)

    @pytest.mark.parametrize("a", [3e17, 1e20, 1e300])
    def test_no_root_where_the_window_spans_the_root_gap(self, a):
        # RESONANCE_RTOL (1 + |a|) is wider than half the a-gap between
        # neighbouring half-integer roots here (was 547722557, 19999999999/2
        # and a 150-digit integer)
        assert helmholtz_root(2, a)[1] is None
        p = helmholtz_parameter(make_context(2), a)
        assert p.root is None and not p.resonant and p.excluded == -1

    def test_roots_kept_where_they_are_resolved(self):
        assert helmholtz_root(2, 1e16)[1] == Fraction(199999999, 2)
        for row in green_tables.rows_for():
            assert helmholtz_root(row.n, float(row.a))[1] == row.L, (row.n, row.L)
        halves = np.unique(np.geomspace(1, 2e6, 80).astype(int))
        for n in range(2, 41):
            for k in halves:
                L = Fraction(int(k), 2)
                assert parameter_from_root(make_context(n), float(L)).root == L, (n, L)


class TestCoefficients:
    def test_poisson_n2(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        # -1/(1*2) * (lam+1)/lam = -1/2 * 3
        assert green_coefficient(p, 1) == pytest.approx(-1.5)
        assert green_coefficient(p, 0) == 0.0     # excluded degree

    def test_resonant_excluded_degree(self):
        p = helmholtz_parameter(make_context(2), 2.0)
        assert green_coefficient(p, 1) == 0.0

    def test_negative_a_value(self):
        p = helmholtz_parameter(make_context(3), -0.75)
        assert green_coefficient(p, 0) == pytest.approx(-4.0 / 3.0)

    def test_defining_property(self):
        # (a - l(n+l-1)) * G-hat(l) * lam/(lam+l) = 1 for all in-scope l
        for n in (2, 4, 6):
            ctx = make_context(n)
            for a in (0.0, 3.3, -2.0, 41.5):
                p = helmholtz_parameter(ctx, a)
                lam = ctx.lam
                g = green_coefficients(p, 24)
                for l in range(25):
                    assert green_coefficient(p, l) == g[l]
                    if p.resonant and l == p.L_res:
                        assert g[l] == 0.0
                        continue
                    val = float(eigen_gap(p, l)) * g[l] * lam / (lam + l)
                    assert val == pytest.approx(1.0, rel=1e-14)

    def test_condition_warnings(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 2.0 + 1e-7)   # near the l=1 eigenvalue
        assert not p.resonant
        warns = condition_warnings(p, np.arange(9))
        assert warns and warns[0][0] == 1

    def test_condition_warnings_over_the_given_degrees(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 2.0 + 1e-7)
        assert condition_warnings(p, [0, 2, 5]) == []
        assert [l for l, _g in condition_warnings(p, [5, 1, 3, 1])] == [1]
        # the excluded degree is never flagged
        assert condition_warnings(helmholtz_parameter(ctx, 2.0), [0, 1, 2]) == []
        # a midway between the eigenvalues of l and l + 1, each within the
        # relative window 1e-6 (1 + |a|): both flagged, once each, ascending
        l = 10**6
        p = helmholtz_parameter(ctx, float(l * (l + 1) + l + 1))
        warns = condition_warnings(p, [l + 1, 3, l, l + 1])
        assert [d for d, _g in warns] == [l, l + 1]
        assert [g for _d, g in warns] == [l + 1.0, l + 1.0]

    def test_coefficient_of_one_high_degree(self):
        p = helmholtz_parameter(make_context(3), 0.5)
        tracemalloc.start()
        try:
            g = green_coefficient(p, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5, peak
        assert g == (1.0 + 1e8) / (0.5 - 1e8 * (1e8 + 2))

    def test_negative_degree_rejected(self):
        p = helmholtz_parameter(make_context(2), 1.0)
        with pytest.raises(SphereDomainError):
            green_coefficient(p, -1)


class TestSeries:
    def test_resonant_series(self):
        p = helmholtz_parameter(make_context(2), 2.0)
        # table value at t = 0: 1 + 0 + 0
        assert abs(GreenFunction(p, "series")(0.0) - 1.0) < 1e-3

    def test_adaptive_matches_closed(self):
        for n, a in ((2, 0.0), (3, 3.0), (5, -4.0), (8, 44.0)):
            p = helmholtz_parameter(make_context(n), a)
            row = green_tables.lookup(n, a)
            for t in (-0.9, 0.0, 0.6):
                c = row.eval(t)
                assert abs(GreenFunction(p, "series")(t) - c) <= 1e-6 * (1 + abs(c))

    def test_tail_reporting(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        vals, tails = green_series_batch(p, np.array([0.3]))
        val, tail = float(vals[0]), float(tails[0])
        assert tail > 0
        ref = green_tables.lookup(2, 0.0).eval(0.3)
        assert abs(val - ref) < 10 * tail + 1e-6

    def test_series_only_regime(self):
        # a below -(n-1)^2/4 has no real root; series still works
        ctx = make_context(6)
        p = helmholtz_parameter(ctx, -30.0)
        assert p.L is None
        v1 = GreenFunction(p, "series")(0.2)
        coef = green_coefficients(p, 400)
        assert np.isfinite(v1)
        assert coef[0] == pytest.approx((ctx.lam + 0) / ctx.lam / -30.0)

    def test_n2_rows_near_diagonal(self):
        # the Abel path serves n = 2 too: each value meets the benchmark's
        # check, within 1e-4 (1 + |G|) or within its own tail estimate
        ts = np.array([0.99, 0.999])
        for row in [r for r in green_tables.rows_for() if r.n == 2]:
            p = helmholtz_parameter(make_context(2), float(row.a))
            vals, tails = green_series_batch(p, ts)
            for v, tail, t in zip(vals, tails, ts):
                c = row.eval(t)
                err = abs(v - c)
                assert err <= 1e-4 * (1 + abs(c)) or err <= tail, (row.L, t, err, tail)

    def test_abel_cut_cap_raises(self, monkeypatch):
        # a radius r = 1 - 1e-6 would need far more than the 2 000 000-degree cap
        monkeypatch.setattr(green, "_ABEL_EPS", (0.05, 1e-6))
        p = helmholtz_parameter(make_context(3), 0.0)
        with pytest.raises(ConvergenceError, match="2000000 degrees"):
            green_series_batch(p, np.array([0.3]))

    def test_every_tail_bounds_its_error_on_the_registry(self):
        # the green_table points on every row: each tail is at least the
        # value's distance from the row, including (3, 24) at t = 0.75 and
        # (5, 5) at t = 0.55, where the change from dropping the innermost
        # radius passes through zero, and n >= 8 at t = -0.95, where the
        # Abel sums cancel and only the roundoff floor covers the error
        ts = np.concatenate([np.linspace(-0.95, 0.95, 20), [0.99, 0.999]])
        short = []
        for row in green_tables.rows_for():
            p = helmholtz_parameter(make_context(row.n), float(row.a))
            vals, tails = green_series_batch(p, ts)
            for t, v, tail in zip(ts, vals, tails):
                err = abs(v - row.eval(float(t)))
                if not err <= tail:
                    short.append((row.n, row.L, float(t), err, tail))
        assert not short, short

    def test_abel_cut_is_the_first_degree_under_the_bound(self, monkeypatch):
        # the sum stops at the first degree from 64 on whose bound on the rest,
        # (lambda+l)/(lambda |gap|) (n+l-2)^{n-2} r^l / (1-r), is below _ABEL_RTOL
        seen = []
        sums = green.gegenbauer_sums
        monkeypatch.setattr(green, "gegenbauer_sums",
                            lambda ctx, w, t: seen.append(w.shape[-1] - 1) or sums(ctx, w, t))
        r = 1.0 - min(green._ABEL_EPS)
        for n, a in ((2, 0.0), (5, 6.0), (8, -20.0), (10, 1e4)):
            p = helmholtz_parameter(make_context(n), a)
            green_series_batch(p, np.array([0.3]))
            lam = p.ctx.lam

            def bound(l):
                return ((lam + l) / (lam * abs(float(eigen_gap(p, l))))
                        * float(n + l - 2) ** (n - 2) * r ** l / (1.0 - r))

            cut = seen[-1]
            assert bound(cut) < green._ABEL_RTOL <= bound(cut - 1), (n, a, cut)

    def test_abel_cut_search_steps_over_the_excluded_degree(self):
        # a = 64 * 65 on S^2 excludes degree 64, the search's first probe,
        # where the bound's gap is 0 (a ZeroDivisionError before)
        p = helmholtz_parameter(make_context(2), 64.0 * 65.0)
        assert p.excluded == 64
        vals, tails = green_series_batch(p, np.array([-0.5, 0.3]))
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(tails))

    def test_adaptive_rejects_unresolved_diagonal(self):
        # n = 2: the diagonal itself and a point the radii cannot resolve
        p = helmholtz_parameter(make_context(2), 0.0)
        with pytest.raises(SphereDomainError):
            green_series_batch(p, np.array([0.0, 1.0]))
        with pytest.raises(ConvergenceError):
            green_series_batch(p, np.array([0.0, 0.9999999]))
        with pytest.raises(ConvergenceError):
            GreenFunction(p, "series")(0.9999999)
        # untabulated a: auto is the integral, which resolves the point
        auto = GreenFunction(helmholtz_parameter(make_context(2), 0.7), "auto")
        assert auto(0.9999999) == pytest.approx(-15.38127704081575, rel=1e-13)
        # n = 3 at 1 - t = 1e-4: a tail of 0.59 would understate an error of 1.02
        with pytest.raises(ConvergenceError):
            green_series_batch(helmholtz_parameter(make_context(3), 0.0), np.array([0.9999]))

    def test_adaptive_rejects_n_above_17(self):
        # at n = 18 the Abel sums cancel to a relative error ~1e-3 with a
        # tail that falls short of it; n = 17 is the last dimension served
        for n in (18, 60):
            p = helmholtz_parameter(make_context(n), 0.0)
            with pytest.raises(ConvergenceError, match="integral backend"):
                green_series_batch(p, np.array([0.3]))
            with pytest.raises(ConvergenceError, match="integral backend"):
                GreenFunction(p, "series")(0.3)
        p = helmholtz_parameter(make_context(17), 0.0)
        vals, tails = green_series_batch(p, np.array([0.3]))
        ref = green_eval_integral(p, 0.3)
        assert abs(vals[0] - ref) <= max(1e-4 * (1 + abs(ref)), tails[0])

    def test_tail_honest_at_the_diagonal_limit(self):
        # just outside the rejected band each value is within its tail
        for n in (2, 3, 5, 8, 10):
            t = 1.0 - 1.05 * n * _ABEL_DIAG_GAP
            vals, tails = green_series_batch(helmholtz_parameter(make_context(n), 0.0),
                                             np.array([t]))
            c = green_tables.lookup(n, 0.0).eval(t)
            assert abs(vals[0] - c) <= tails[0], (n, t, vals[0], c, tails[0])

    def test_diagonal_warns_n2_raises_n3(self):
        p2 = helmholtz_parameter(make_context(2), 0.0)
        with pytest.raises(SphereDomainError):
            GreenFunction(p2, "series")(1.0)
        p3 = helmholtz_parameter(make_context(3), 0.0)
        with pytest.raises(SphereDomainError):
            GreenFunction(p3, "series")(1.0)


class TestIntegral:
    @pytest.mark.parametrize("n, L", [(2, 1), (3, 2), (4, 3), (8, 2)])
    @pytest.mark.parametrize("f", [-3e-10, 3e-10])
    def test_resonant_a_just_off_its_root(self, n, L, f):
        # floor(L) falls one short of the resonant degree for f < 0; the
        # subtraction depth is still L, whose coefficient is excluded
        p = helmholtz_parameter(make_context(n), L * (n + L - 1) * (1.0 + f))
        assert p.resonant and p.L_res == L
        ts = np.array([-0.5, 0.3, 0.9])
        want = GreenFunction(p, "closed")(ts)
        got = GreenFunction(p, "integral")(ts)
        assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want))), (got, want)

    def test_poisson_n2(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        assert abs(green_eval_integral(p, 0.0) - 0.3068528194400547) < 1e-6

    def test_negative_integer_root(self):
        p = helmholtz_parameter(make_context(4), -2.0)
        assert abs(green_eval_integral(p, 0.0) - (-1.0 / 3.0)) < 1e-8

    def test_half_integer_root(self):
        p = helmholtz_parameter(make_context(3), 1.25)
        assert abs(green_eval_integral(p, 0.0) - pi / (2.0 * sqrt(2.0))) < 1e-8
        # and roots just below an integer (L = 2.916, 0.928, -0.087), where
        # the weight r^{-L-1} meets the tail's first power as r^{-0.08}
        for n, a in ((4, 17.25), (6, 5.5), (16, -1.3)):
            p = helmholtz_parameter(make_context(n), a)
            for t in (-0.7, 0.2, 0.7):
                ref = oracles.green_integral_quad(n, a, t)
                assert abs(green_eval_integral(p, t) - ref) <= 1e-11 * (1 + abs(ref)), (n, a, t)

    def test_degenerate_double_root(self):
        # a = -lam^2: n=5, a=-4 (L = -2); table 4 row
        p = helmholtz_parameter(make_context(5), -4.0)
        row = green_tables.lookup(5, -4.0)
        for t in (-0.5, 0.3):
            assert abs(green_eval_integral(p, t) - row.eval(t)) < 1e-7

    def test_registry_near_diagonal(self):
        # relative error control: |G| reaches 2e7 at t = 0.999 (row (8, 3))
        double_roots = []
        for row in green_tables.rows_for():
            p = helmholtz_parameter(make_context(row.n), float(row.a))
            if row.n + 2 * p.L - 1 == 0.0:      # the limit weight applies
                double_roots.append((row.n, row.L))
            for t in (0.99, 0.999):
                c = row.eval(t)
                err = abs(green_eval_integral(p, t) - c)
                assert err <= 1e-6 * (1 + abs(c)), (row.n, row.L, t, err)
        assert sorted(double_roots) == [(5, -2), (7, -3)]

    def test_large_n_against_the_high_precision_oracle(self):
        # the oracle reproduces registry rows, so its large-n pins can judge
        for n, L in ((2, 0), (3, 1), (4, 1), (8, 1)):
            row = green_tables.lookup_by_root(n, L)
            for t in (-0.9, 0.3, 0.9):
                c = row.eval(t)
                ref = float(oracles.green_integral_mp(n, float(row.a), t, dps=30))
                assert abs(ref - c) <= 1e-13 * (1 + abs(c)), (n, L, t)
        # n = 30..342, a = 0 and a = n; |G| spans 0.008 to 2e119
        for (n, a, t), ref in integral_values.LARGE_N.items():
            got = green_eval_integral(helmholtz_parameter(make_context(n), float(a)), t)
            assert abs(got - ref) <= 1e-8 * (1 + abs(ref)), (n, a, t, got, ref)

    def test_complex_root_pins_match_the_series(self):
        # the oracle's sin weight branch against the independent series, at
        # the points verify checks; one pin recomputed ties them to the oracle
        ref = integral_values.COMPLEX_ROOTS
        assert float(oracles.green_integral_mp(8, -20, 0.5, dps=30)) == ref[(8, -20, 0.5)]
        for n, a in ((2, -0.5), (3, -2), (5, -10), (8, -20)):
            ts = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
            vals, _tails = green_series_batch(helmholtz_parameter(make_context(n), a), ts)
            for v, t in zip(vals, ts):
                assert abs(v - ref[(n, a, t)]) <= 1e-6 * (1 + abs(ref[(n, a, t)])), (n, a, t)

    def test_complex_roots_match_the_oracle(self):
        # a < -(n-1)^2/4: |G| spans 4e-28 to 7e21 over these pins
        cases = {}
        for (n, a, t), ref in integral_values.COMPLEX_ROOTS.items():
            cases.setdefault((n, a), []).append((t, ref))
        assert len(cases) == 9
        for (n, a), pins in cases.items():
            p = helmholtz_parameter(make_context(n), a)
            assert p.L is None
            ts, refs = map(np.array, zip(*pins))
            got = green_eval_integral(p, ts)
            assert np.all(np.abs(got - refs) <= 1e-13 * (1 + np.abs(refs))), (n, a, got - refs)

    def test_complex_root_beyond_the_panels_raises(self):
        # beta = 99.9: sin(beta ln r) turns ~35 radians per panel
        p = helmholtz_parameter(make_context(11), -10000.0)
        for backend in ("integral", "auto"):
            with pytest.raises(ConvergenceError, match="did not reach 1e-08"):
                GreenFunction(p, backend)(0.0)

    def test_depth_beyond_the_doubles_refused_before_allocating(self, monkeypatch):
        # r^{-L-1} reaches 2^{L+1} at r_s = 1/2: from depth 1023 on it leaves the doubles
        def no_matrix(*args):
            raise AssertionError("allocated")

        monkeypatch.setattr(green, "_blocks", no_matrix)
        for n, a in ((2, 1e300), (2, 3000.37 * 3001.37), (8, 1023.2 * 1030.2), (3, 2000 * 2002)):
            with pytest.raises(ConvergenceError, match="subtraction depth above 1022"):
                green_eval_integral(helmholtz_parameter(make_context(n), a), 0.0)
        with pytest.raises(AssertionError, match="allocated"):     # depth 1022 goes on
            green_eval_integral(parameter_from_root(make_context(2), 1022.9), 0.0)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_smooth_across_the_double_root(self, n):
        # complex roots below a = -(n-1)^2/4, the log weight at it, real
        # roots above: second differences are G'' h^2 (G'' ~ 130 at n = 2)
        # and shrink 100-fold from h = 1e-3 to 1e-4, where a jump in G or
        # G' between the branches would shrink at most 10-fold
        ctx, a0 = make_context(n), -(n - 1) ** 2 / 4.0
        ts = np.array([-0.9, -0.3, 0.2, 0.6, 0.95])

        def second_difference(h):
            g = [green_eval_integral(helmholtz_parameter(ctx, a0 + s * h), ts) for s in (-1, 0, 1)]
            return g[0] - 2.0 * g[1] + g[2], g[1]

        d2_wide, _g = second_difference(1e-3)
        d2, g = second_difference(1e-4)
        assert np.all(np.abs(d2) <= 1e-6 * (1 + np.abs(g)))
        assert np.linalg.norm(d2_wide) / np.linalg.norm(d2) == pytest.approx(100.0, rel=1e-2)

    def test_rejects_diagonal(self):
        p = helmholtz_parameter(make_context(3), 0.0)
        with pytest.raises(SphereDomainError):
            green_eval_integral(p, 1.0)


class TestClosed:
    def test_table1_n2_endpoint(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        assert GreenFunction(p, "closed")(-1.0) == pytest.approx(1.0)   # 1 + ln(1)

    def test_table2_n3(self):
        p = helmholtz_parameter(make_context(3), 3.0)
        # (pi - pi/2)(1-0)/2 + 0 = pi/4
        assert GreenFunction(p, "closed")(0.0) == pytest.approx(pi / 4.0)

    def test_table4_n5(self):
        p = helmholtz_parameter(make_context(5), -3.0)
        assert GreenFunction(p, "closed")(0.0) == pytest.approx(-pi / 16.0)

    def test_table4_n7(self):
        p = helmholtz_parameter(make_context(7), -9.0)
        # -(pi/2)/48 at t = 0
        assert GreenFunction(p, "closed")(0.0) == pytest.approx(-pi / 96.0)

    def test_missing_row(self):
        p = helmholtz_parameter(make_context(6), 100.5)
        with pytest.raises(NoClosedFormError):
            GreenFunction(p, "closed")(0.0)
        with pytest.raises(NoClosedFormError):
            GreenFunction(p, "closed")(np.array([0.0, 0.3]))
        assert GreenFunction(p, "closed").resolved_backend() == "closed"

    @pytest.mark.parametrize("n, a", [(3, 0.0), (5, 0.0), (5, -3.0), (7, -9.0), (9, 0.0)])
    @pytest.mark.parametrize("backend", ["closed", "auto"])
    def test_antipode_refused_on_a_1_plus_t_denominator(self, n, a, backend):
        # the row's terms are 0/0 at t = -1 (nan or ZeroDivisionError unguarded)
        gf = GreenFunction(helmholtz_parameter(make_context(n), a), backend)
        with pytest.raises(NoClosedFormError, match="t = -1; use the series or integral"):
            gf(-1.0)
        with pytest.raises(NoClosedFormError, match="t = -1"):
            gf(np.array([0.3, -1.0]))
        assert np.isfinite(gf(-0.999)) and np.all(np.isfinite(gf(np.array([-0.999, 0.3]))))

    def test_antipode_refused_exactly_where_the_row_has_a_1_plus_t_denominator(self):
        refused = 0
        for row in green_tables.rows_for():
            gf = GreenFunction(helmholtz_parameter(make_context(row.n), float(row.a)), "closed")
            if any(b for _atom, _a, b, _c in green_tables.lookup(row.n, float(row.a)).terms):
                refused += 1
                with pytest.raises(NoClosedFormError, match="t = -1"):
                    gf(-1.0)
            else:
                assert np.isfinite(gf(-1.0))
        assert refused == 21

    def test_a_row_refuses_its_own_antipode(self):
        # ClosedForm.eval refuses t = -1 on a (1+t) denominator, also called
        # directly (it was a ZeroDivisionError), and answers next to it
        for n, a in ((3, 0.0), (5, 0.0), (9, 0.0), (7, -9.0)):
            row = green_tables.lookup(n, a)
            with pytest.raises(NoClosedFormError,
                               match=f"n={n}, a={a} has a \\(1\\+t\\) denominator .* t = -1"):
                row.eval(-1.0)
            with pytest.raises(NoClosedFormError, match="t = -1"):
                row.eval(np.array([0.3, -1.0]))
            assert np.isfinite(row.eval(-0.999))
        assert np.isfinite(green_tables.lookup(2, 0.0).eval(-1.0))

    def test_registry_size_and_keys(self):
        assert len(green_tables.rows_for()) == 66
        tables = [row.table for row in green_tables.rows_for()]
        assert len([t for t in tables if t == 1]) == 9
        assert len([t for t in tables if t == 2]) == 28
        assert len([t for t in tables if t == 3]) == 12
        assert len([t for t in tables if t == 4]) == 17
        row = green_tables.lookup_by_root(3, Fraction(1, 2))
        assert row is not None and float(row.a) == 1.25

    def test_coefficient_consistency(self):
        # analysing the closed form reproduces the coefficient formula; the
        # diagonal singularity needs a large rule (Gauss error ~ m^-2 here)
        cases = [(2, 0.0), (3, 3.0), (4, -2.0), (5, -3.0), (2, 2.0)]
        rules = {}
        for n, a in cases:
            ctx = make_context(n)
            p = helmholtz_parameter(ctx, a)
            if n not in rules:
                rules[n] = gauss_gegenbauer_rule(ctx.lam, 12033)
            rule = rules[n]
            spec = analyze(ctx, green_tables.lookup(n, a).eval, 32, rule=rule)
            want = green_coefficients(p, 32)
            assert_allclose(spec.coeffs, want, rtol=1e-6, atol=1e-6)
            if p.resonant:
                assert spec.coeffs[p.L_res] == pytest.approx(0.0, abs=1e-6)


class TestFacade:
    def test_auto_backend_tag(self):
        p = helmholtz_parameter(make_context(3), -0.75)
        gf = GreenFunction(p)
        assert gf.resolved_backend() == "closed_form(table4)"
        p2 = helmholtz_parameter(make_context(6), 123.4)
        assert GreenFunction(p2).resolved_backend() == "integral"

    @pytest.mark.parametrize("n, a", [(4, 1.3), (20, 1.5), (40, 7.0), (6, -30.0), (17, -400.0)])
    def test_auto_off_the_registry_is_the_integral(self, n, a):
        # every untabulated a, real or complex roots, at any n
        p = helmholtz_parameter(make_context(n), a)
        gf = GreenFunction(p)
        assert green_tables.lookup(n, a) is None and gf.resolved_backend() == "integral"
        ts = np.array([-0.9, 0.3, 0.9])
        assert np.array_equal(gf(ts), green_eval_integral(p, ts))
        assert gf(0.3) == green_eval_integral(p, 0.3)

    def test_auto_beyond_the_series_dimensions(self):
        # the series refuses n >= 18; the integral's value, to 13 digits
        gf = GreenFunction(helmholtz_parameter(make_context(20), 1.5))
        assert gf(0.3) == pytest.approx(0.53675012320530, rel=1e-13)

    def test_backend_dispatch(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        ref = green_tables.lookup(2, 0.0).eval(0.25)
        assert GreenFunction(p, "closed")(0.25) == pytest.approx(ref)
        assert GreenFunction(p, "integral")(0.25) == pytest.approx(ref, abs=1e-6)
        assert GreenFunction(p, "series")(0.25) == pytest.approx(ref, abs=1e-5)

    @pytest.mark.parametrize("backend", ["auto", "closed", "series", "integral"])
    def test_array_matches_scalar_calls(self, backend):
        # an array gives an array of its shape, equal to the calls point by point
        gf = GreenFunction(helmholtz_parameter(make_context(7), -9.0), backend)
        ts = np.array([[-0.8, -0.2], [0.4, 0.9]])
        vals = gf(ts)
        assert isinstance(vals, np.ndarray) and vals.shape == ts.shape
        want = [[gf(float(t)) for t in row] for row in ts]
        # the series extrapolation magnifies the batch's different summation order
        assert_allclose(vals, want, rtol=1e-9 if backend == "series" else 1e-13, atol=0)
        assert isinstance(gf(0.3), float) and isinstance(gf(np.float64(0.3)), float)
        assert isinstance(gf(np.array(0.3)), float)

    @pytest.mark.parametrize("backend", ["closed", "series", "integral"])
    def test_array_domain_and_diagonal_checks(self, backend):
        gf = GreenFunction(helmholtz_parameter(make_context(3), 0.0), backend)
        with pytest.raises(SphereDomainError, match="singular on the diagonal"):
            gf(np.array([0.0, 1.0]))
        with pytest.raises(SphereDomainError, match=r"\|t\| = 1.5"):
            gf(np.array([0.0, -1.5]))

    @pytest.mark.parametrize("backend", ["auto", "closed", "series", "integral"])
    def test_nan_t_is_a_domain_error(self, backend):
        # NaN fails the range test rather than passing it, as a scalar and in an array
        gf = GreenFunction(helmholtz_parameter(make_context(3), 0.0), backend)
        for t in (float("nan"), np.float64("nan"), np.array([0.2, np.nan])):
            with pytest.raises(SphereDomainError, match=r"\|t\| = nan"):
                gf(t)

    def test_unknown_backend(self):
        # refused when built, before any call
        with pytest.raises(SphereDomainError, match="unknown Green backend 'bogus'"):
            GreenFunction(helmholtz_parameter(make_context(3), 0.0), "bogus")
