"""Helmholtz parameters and the three Green-function backends."""

from fractions import Fraction
from math import pi, sqrt

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
    green_eval_closed,
    green_eval_integral,
    green_eval_series,
    helmholtz_parameter,
    make_context,
    parameter_from_root,
)
from spherepde import green
from spherepde.green import (
    _ABEL_DIAG_GAP,
    condition_warnings,
    eigen_gap,
    green_series_batch,
)
from spherepde.spectra import default_rule
from spherepde import green_tables


class TestParameter:
    def test_root_identity(self):
        for n in (2, 3, 5, 8):
            ctx = make_context(n)
            for a in (-3.0, -0.4, 0.0, 2.7, 41.0):
                p = helmholtz_parameter(ctx, a)
                if p.L is not None:
                    assert abs(p.L * (n + p.L - 1) - a) <= 1e-12 * (1 + abs(a))

    def test_l0_values(self):
        ctx = make_context(3)
        p = helmholtz_parameter(ctx, 1.25)      # L = 1/2
        assert p.L == pytest.approx(0.5)
        assert p.L0 == 0
        p = helmholtz_parameter(ctx, -0.75)     # L = -1/2, reflection -3/2
        assert p.L == pytest.approx(-0.5)
        assert p.L0 == -1

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
        assert p.L is None and p.L0 is None


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
                    if p.resonant and l == p.L_res:
                        assert g[l] == 0.0
                        continue
                    val = float(eigen_gap(p, l)) * g[l] * lam / (lam + l)
                    assert val == pytest.approx(1.0, rel=1e-14)

    def test_condition_warnings(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 2.0 + 1e-7)   # near the l=1 eigenvalue
        assert not p.resonant
        warns = condition_warnings(p, 8)
        assert warns and warns[0][0] == 1

    def test_negative_degree_rejected(self):
        p = helmholtz_parameter(make_context(2), 1.0)
        with pytest.raises(SphereDomainError):
            green_coefficient(p, -1)


class TestSeries:
    def test_resonant_series(self):
        p = helmholtz_parameter(make_context(2), 2.0)
        # table value at t = 0: 1 + 0 + 0
        assert abs(green_eval_series(p, 0.0) - 1.0) < 1e-3

    def test_adaptive_matches_closed(self):
        for n, a in ((2, 0.0), (3, 3.0), (5, -4.0), (8, 44.0)):
            p = helmholtz_parameter(make_context(n), a)
            row = green_tables.lookup(n, a)
            for t in (-0.9, 0.0, 0.6):
                c = row.eval(t)
                assert abs(green_eval_series(p, t) - c) <= 1e-6 * (1 + abs(c))

    def test_tail_reporting(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        val, tail = green_eval_series(p, 0.3, with_tail=True)
        assert tail > 0
        ref = green_tables.lookup(2, 0.0).eval(0.3)
        assert abs(val - ref) < 10 * tail + 1e-6

    def test_series_only_regime(self):
        # a below -(n-1)^2/4 has no real root; series still works
        ctx = make_context(6)
        p = helmholtz_parameter(ctx, -30.0)
        assert p.L is None
        v1 = green_eval_series(p, 0.2)
        coef = green_coefficients(p, 400)
        assert np.isfinite(v1)
        assert coef[0] == pytest.approx((ctx.lam + 0) / ctx.lam / -30.0)

    def test_n2_rows_near_diagonal(self):
        # the Abel path serves n = 2 too: each value meets the benchmark's
        # check, within 1e-4 (1 + |G|) or within its own tail estimate
        ts = np.array([0.99, 0.999])
        for row in green_tables.rows_for(n=2):
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

    def test_adaptive_rejects_unresolved_diagonal(self):
        # n = 2: the diagonal itself and a point the radii cannot resolve
        p = helmholtz_parameter(make_context(2), 0.0)
        with pytest.raises(SphereDomainError):
            green_series_batch(p, np.array([0.0, 1.0]))
        with pytest.raises(ConvergenceError):
            green_series_batch(p, np.array([0.0, 0.9999999]))
        with pytest.raises(ConvergenceError):
            green_eval_series(p, 0.9999999)
        with pytest.raises(ConvergenceError):     # untabulated a: auto is series
            GreenFunction(helmholtz_parameter(make_context(2), 0.7), "auto")(0.9999999)
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
                green_eval_series(p, 0.3)
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
            green_eval_series(p2, 1.0)
        p3 = helmholtz_parameter(make_context(3), 0.0)
        with pytest.raises(SphereDomainError):
            green_eval_series(p3, 1.0)


class TestIntegral:
    def test_poisson_n2(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        assert abs(green_eval_integral(p, 0.0) - 0.3068528194400547) < 1e-6

    def test_negative_integer_root(self):
        p = helmholtz_parameter(make_context(4), -2.0)
        assert abs(green_eval_integral(p, 0.0) - (-1.0 / 3.0)) < 1e-8

    def test_half_integer_root(self):
        p = helmholtz_parameter(make_context(3), 1.25)
        assert abs(green_eval_integral(p, 0.0) - pi / (2.0 * sqrt(2.0))) < 1e-8

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

    def test_rejects_complex_root(self):
        p = helmholtz_parameter(make_context(2), -1.0)
        with pytest.raises(SphereDomainError):
            green_eval_integral(p, 0.0)

    def test_rejects_diagonal(self):
        p = helmholtz_parameter(make_context(3), 0.0)
        with pytest.raises(SphereDomainError):
            green_eval_integral(p, 1.0)


class TestClosed:
    def test_table1_n2_endpoint(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        assert green_eval_closed(p, -1.0) == pytest.approx(1.0)   # 1 + ln(1)

    def test_table2_n3(self):
        p = helmholtz_parameter(make_context(3), 3.0)
        # (pi - pi/2)(1-0)/2 + 0 = pi/4
        assert green_eval_closed(p, 0.0) == pytest.approx(pi / 4.0)

    def test_table4_n5(self):
        p = helmholtz_parameter(make_context(5), -3.0)
        assert green_eval_closed(p, 0.0) == pytest.approx(-pi / 16.0)

    def test_table4_n7(self):
        p = helmholtz_parameter(make_context(7), -9.0)
        # -(pi/2)/48 at t = 0
        assert green_eval_closed(p, 0.0) == pytest.approx(-pi / 96.0)

    def test_missing_row(self):
        p = helmholtz_parameter(make_context(6), 100.5)
        with pytest.raises(NoClosedFormError):
            green_eval_closed(p, 0.0)

    def test_registry_size_and_keys(self):
        assert len(green_tables.rows_for()) == 66
        assert len(green_tables.rows_for(table=1)) == 9
        assert len(green_tables.rows_for(table=2)) == 28
        assert len(green_tables.rows_for(table=3)) == 12
        assert len(green_tables.rows_for(table=4)) == 17
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
                rules[n] = default_rule(ctx, 32, margin=2 * 12000)
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
        assert GreenFunction(p2).resolved_backend() == "series"

    def test_backend_dispatch(self):
        p = helmholtz_parameter(make_context(2), 0.0)
        ref = green_tables.lookup(2, 0.0).eval(0.25)
        assert GreenFunction(p, "closed")(0.25) == pytest.approx(ref)
        assert GreenFunction(p, "integral")(0.25) == pytest.approx(ref, abs=1e-6)
        assert GreenFunction(p, "series")(0.25) == pytest.approx(ref, abs=1e-5)
