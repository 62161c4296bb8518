"""Recurrence tables, antiderivative families, and the Green assembler."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from spherepde import NoClosedFormError, make_context
from spherepde import closedform as cf
from spherepde import green_tables

import derived_forms
import oracles


RNG = np.random.default_rng(2024)


def numdiff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# exact polynomials: integer numerators over one denominator
# ---------------------------------------------------------------------------

_RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36))


def _polys(bivariate, nonzero=False):
    """{exponent: Fraction} polynomials, univariate or bivariate, no zero coefficient."""
    keys = st.tuples(st.integers(0, 4), st.integers(0, 4)) if bivariate else st.integers(0, 7)
    return st.dictionaries(keys, _RATIONALS.filter(bool), min_size=int(nonzero), max_size=6)


_POLY_PAIRS = st.booleans().flatmap(lambda bi: st.tuples(_polys(bi), _polys(bi), _polys(bi)))


def _invariants(pair):
    """pair is an exact polynomial: integer numerators, none 0, over a
    positive denominator, in lowest terms."""
    num, den = pair
    assert type(den) is int and den > 0, pair
    assert all(type(c) is int and c != 0 for c in num.values()), pair
    assert math.gcd(den, *num.values()) == 1, pair


def _check(pair, want):
    """pair keeps the invariants and converts to want exactly."""
    _invariants(pair)
    got = cf._fractions(pair)
    assert got == want and all(type(c) is Fraction for c in got.values()), (got, want)


class TestExactPolynomials:
    """The integer-numerator arithmetic against {exponent: Fraction} dicts."""

    @given(_POLY_PAIRS)
    def test_sum_and_product(self, polys):
        p, q, r = polys
        P, Q, R = (cf._exact(x) for x in polys)
        for x, X in zip(polys, (P, Q, R)):
            _check(X, x)
        _check(cf._sum([P, Q]), oracles.fraction_add(p, q))
        _check(cf._sum([P, Q, R]), oracles.fraction_add(oracles.fraction_add(p, q), r))
        _check(cf._sum([P, cf._scale(P, -1)]), {})
        _check(cf._mul(P, Q), oracles.fraction_mul(p, q))
        _check(cf._mul(cf._mul(P, Q), R), oracles.fraction_mul(oracles.fraction_mul(p, q), r))

    @given(st.booleans().flatmap(_polys), st.one_of(_RATIONALS, st.integers(-9, 9)))
    def test_scale(self, p, s):
        _check(cf._scale(cf._exact(p), s), oracles.fraction_scale(p, s))

    @settings(deadline=None)
    @given(st.booleans().flatmap(lambda bi: _polys(bi, nonzero=True)), st.integers(0, 5))
    def test_powers(self, p, m):
        unit = (0, 0) if isinstance(next(iter(p)), tuple) else 0
        table = cf._powers(cf._exact(p), m)
        assert len(table) == m + 1
        for i, power in enumerate(table):
            _check(power, oracles.fraction_pow(p, i, unit))

    @settings(deadline=None)
    @given(_polys(True), _polys(True, nonzero=True), _polys(True, nonzero=True))
    def test_substitution_through_power_tables(self, p, x, y):
        P = cf._exact(p)
        xs = cf._powers(cf._exact(x), max((i for i, _j in p), default=0))
        ys = cf._powers(cf._exact(y), max((j for _i, j in p), default=0))
        _check(cf._substitute(P, xs, ys), oracles.fraction_substitute(p, x, y))

    @given(_polys(True), st.sampled_from([0, 1]))
    def test_value_at_v(self, p, v0):
        want = {}
        for (i, j), c in p.items():
            if v0 or not j:
                want = oracles.fraction_add(want, {i: c})
        _check(cf._at_v(cf._exact(p), v0), want)

    @given(st.integers(-9, 9), st.integers(1, 4), st.integers(0, 12), _RATIONALS)
    def test_gegenbauer_polynomials(self, p, q, l_max, t):
        lam = Fraction(p, q)
        table = cf._gegenbauer_polys(p, q, l_max)
        assert len(table) == l_max + 1
        for l, poly in enumerate(table):
            _invariants(poly)
            value = sum(c * t ** i for i, c in cf._fractions(poly).items())
            assert value == oracles.gegenbauer_fraction(lam, l, t), (lam, l)


# ---------------------------------------------------------------------------
# recurrence tables
# ---------------------------------------------------------------------------

class TestSplittingPolynomials:
    def test_lambda_three_halves(self):
        table = cf.radial_split_polynomials(Fraction(3, 2))
        assert table == {0: {0: Fraction(1)}}

    def test_lambda_five_halves(self):
        table = cf.radial_split_polynomials(Fraction(5, 2))
        assert table[0] == {0: Fraction(1, 3)}
        # Q_1 = (2 + 3T)/3
        assert table[1] == {0: Fraction(2, 3), 1: Fraction(1)}

    def test_lambda_half_empty(self):
        assert cf.radial_split_polynomials(Fraction(1, 2)) == {}

    def test_rejects_non_half_integer(self):
        with pytest.raises(Exception):
            cf.radial_split_polynomials(Fraction(2))

    @pytest.mark.parametrize("lam", [Fraction(3, 2), Fraction(5, 2),
                                     Fraction(7, 2), Fraction(9, 2)])
    def test_independent_naive_path(self, lam):
        assert cf.radial_split_polynomials(lam) == \
            oracles.naive_split_polynomials(lam)


class TestShiftedCoefficients:
    def test_lead_value(self):
        # kappa = 1, J = 1: quadrature fixes the log coefficient at +1
        assert cf.shifted_leading_coefficient(1, 1) == Fraction(1)
        assert cf.shifted_leading_coefficient(2, 1) == Fraction(-3, 2)
        assert cf.shifted_leading_coefficient(0, 0) == Fraction(1)

    @pytest.mark.parametrize("J", [0, 1, 2, 3])
    @pytest.mark.parametrize("kappa", [0, 1, 2, 3, 4, 5])
    def test_independent_naive_path(self, kappa, J):
        if kappa < J:
            return
        table = cf.shifted_polynomial_coefficients(kappa, J)
        assert table["lead"] == oracles.naive_shifted_lead(kappa, J)
        assert table["poly"] == oracles.naive_shifted_poly(kappa, J)


class TestLogCoefficients:
    def test_small_orders(self):
        assert cf.log_coefficient_polynomials(1)[0] == {0: Fraction(1, 2)}
        pi2 = cf.log_coefficient_polynomials(2)
        assert pi2[1] == {0: Fraction(1, 6)}
        assert pi2[0] == {1: Fraction(1, 2)}        # 3 t pi_1 - 2 pi_2, pi_2 = 0

    @pytest.mark.parametrize("k", range(1, 10))
    def test_independent_naive_path(self, k):
        assert cf.log_coefficient_polynomials(k) == oracles.naive_log_pi(k)


# ---------------------------------------------------------------------------
# antiderivative families: derivative + definite-integral checks
# ---------------------------------------------------------------------------

class TestShiftedFamily:
    def test_odd_k_value(self):
        val = cf.eval_shifted(cf.shifted_power_antiderivative(1, 1), 1.0, 1.0)
        assert val == pytest.approx(-1.0 / np.sqrt(2.0))

    def test_even_small_kappa_value(self):
        expr = cf.shifted_power_antiderivative(0, 1)
        val = cf.eval_shifted(expr, 1.0, 1.0)
        assert val == pytest.approx(1.0 / np.sqrt(2.0))
        # definite integral cross-check: int_0^1 (1+V^2)^{-3/2} dV = 1/sqrt(2)
        quad = oracles.adaptive_quad(lambda V: (1 + V * V) ** -1.5, 0.0, 1.0)
        lo = cf.eval_shifted(expr, 1.0, 0.0)
        assert val - lo == pytest.approx(quad, abs=1e-12)

    def test_log_case_against_quadrature(self):
        # int_0^1 V^2/(T+V^2)^{3/2}: the kappa >= J branch with its log term
        expr = cf.shifted_power_antiderivative(2, 1)
        for T in (0.5, 1.0, 2.0):
            quad = oracles.adaptive_quad(lambda V: V * V / (T + V * V) ** 1.5, 0, 1)
            hi, lo = cf.eval_shifted(expr, T, 1.0), cf.eval_shifted(expr, T, 0.0)
            assert hi - lo == pytest.approx(quad, abs=1e-12)

    def test_rejects_zero_shift(self):
        with pytest.raises(Exception):
            cf.eval_shifted(cf.shifted_power_antiderivative(1, 1), 0.0, 0.5)

    def test_derivative_property(self):
        for _ in range(50):
            k = int(RNG.integers(0, 7))
            J = int(RNG.integers(0, 4))
            T = float(RNG.uniform(0.1, 2.0))
            V = float(RNG.uniform(-1.4, 1.4))
            expr = cf.shifted_power_antiderivative(k, J)
            f = lambda VV: cf.eval_shifted(expr, T, VV)
            want = V ** k / (T + V * V) ** (J + 0.5)
            assert numdiff(f, V) == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestKernelPowerFamily:
    def test_plain_log_case(self):
        val = cf.expr_eval(cf.kernel_power_antiderivative(0, 0), 0.0, 1.0)
        assert val == pytest.approx(np.log(1.0 + np.sqrt(2.0)))

    def test_definite_against_quadrature(self):
        t = 0.3
        quad = oracles.adaptive_quad(
            lambda R: R / (1 - 2 * t * R + R * R) ** 1.5, 0.0, 0.5)
        expr = cf.kernel_power_antiderivative(1, 1)
        hi, lo = cf.expr_eval(expr, t, 0.5), cf.expr_eval(expr, t, 0.0)
        assert hi - lo == pytest.approx(quad, abs=1e-10)

    def test_binomial_decomposition_consistency(self):
        # direct assembly vs the term-by-term shifted decomposition
        for _ in range(20):
            L = int(RNG.integers(0, 7))
            J = int(RNG.integers(0, 4))
            t = float(RNG.uniform(-0.9, 0.9))
            V = float(RNG.uniform(0.05, 1.4))
            direct = cf.expr_eval(cf.kernel_power_antiderivative(L, J), t, V)
            total = 0.0
            for k in range(L + 1):
                c = float(math.comb(L, k)) * t ** (L - k)
                total += c * cf.eval_shifted(
                    cf.shifted_power_antiderivative(k, J), 1 - t * t, V - t)
            assert direct == pytest.approx(total, rel=1e-12, abs=1e-12)

    def test_derivative_property(self):
        for _ in range(50):
            L = int(RNG.integers(0, 8))
            J = int(RNG.integers(0, 4))
            t = float(RNG.uniform(-0.9, 0.9))
            V = float(RNG.uniform(0.05, 1.4))
            expr = cf.kernel_power_antiderivative(L, J)
            f = lambda VV: cf.expr_eval(expr, t, VV)
            want = V ** L / (1 - 2 * t * V + V * V) ** (J + 0.5)
            assert numdiff(f, V) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_rejects_diagonal(self):
        with pytest.raises(Exception):
            cf.expr_eval(cf.kernel_power_antiderivative(1, 1), 1.0, 0.5)


class TestKernelLogFamily:
    def test_k1_definite(self):
        quad = oracles.adaptive_quad(
            lambda R: R * np.log(1 + np.sqrt(1 + R * R)), 0.0, 1.0)
        expr = cf.kernel_log_antiderivative(1)
        hi, lo = cf.expr_eval(expr, 0.0, 1.0), cf.expr_eval(expr, 0.0, 0.0)
        assert hi - lo == pytest.approx(quad, abs=1e-10)

    def test_k2_random_definite(self):
        for _ in range(10):
            t = float(RNG.uniform(-0.9, 0.9))
            b = float(RNG.uniform(0.2, 1.3))
            quad = oracles.adaptive_quad(
                lambda R: R * R * np.log(1 - t * R
                                         + np.sqrt(1 - 2 * t * R + R * R)), 0.0, b)
            expr = cf.kernel_log_antiderivative(2)
            hi, lo = cf.expr_eval(expr, t, b), cf.expr_eval(expr, t, 0.0)
            assert hi - lo == pytest.approx(quad, abs=1e-9)

    def test_derivative_property(self):
        for _ in range(50):
            k = int(RNG.integers(0, 9))
            t = float(RNG.uniform(-0.9, 0.9))
            V = float(RNG.uniform(0.05, 1.4))
            expr = cf.kernel_log_antiderivative(k)
            f = lambda VV: cf.expr_eval(expr, t, VV)
            u = 1 - 2 * t * V + V * V
            want = V ** k * np.log(1 - t * V + np.sqrt(u))
            assert numdiff(f, V) == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestRadialAntiderivative:
    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(3, 2),
                                     Fraction(5, 2), Fraction(7, 2),
                                     Fraction(9, 2)])
    def test_derivative_property(self, lam):
        expr = cf.zonal_kernel_radial_antiderivative(lam)
        for _ in range(10):
            t = float(RNG.uniform(-0.9, 0.9))
            r = float(RNG.uniform(0.08, 0.95))
            f = lambda rr: cf.expr_eval(expr, t, rr)
            u = 1 - 2 * t * r + r * r
            want = (1 - r * r) / (r * u ** (float(lam) + 1)) - 1 / r
            assert numdiff(f, r) == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_definite_against_quadrature(self):
        lam = Fraction(5, 2)        # n = 6
        t = 0.4
        expr = cf.zonal_kernel_radial_antiderivative(lam)
        quad = oracles.adaptive_quad(
            lambda r: (1 - r * r) / (r * (1 - 2 * t * r + r * r) ** 3.5) - 1 / r,
            1e-12, 0.8)
        got = cf.expr_eval(expr, t, 0.8) - cf.expr_eval(expr, t, 0.0)
        assert got == pytest.approx(quad, abs=1e-8)


# ---------------------------------------------------------------------------
# assembler
# ---------------------------------------------------------------------------

class TestAssembler:
    def test_poisson_n2_expression(self):
        form = cf.derive_green_closed_form(2, 0)
        # the assembled expression is literally 1 + 1*ln((1-t)/2), no denominator
        assert form.terms == (("1", 0, 0, (Fraction(1),)), ("lg", 0, 0, (Fraction(1),)))
        row = green_tables.lookup_by_root(2, 0)
        for t in np.linspace(-0.99, 0.99, 100):
            assert form.eval(t) == pytest.approx(row.eval(t), abs=1e-12)

    def test_n4_value(self):
        form = cf.derive_green_closed_form(4, 0)
        assert form.eval(0.0) == pytest.approx(4.0 / 9.0 + np.log(0.5) / 3.0)

    def test_n2_resonant_value(self):
        form = cf.derive_green_closed_form(2, 1)
        assert form.eval(0.5) == pytest.approx(1 + 2.0 / 3.0 + 0.5 * np.log(0.25))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_matches_registry_everywhere(self, n):
        for L in range(-4, 5):
            if 2 * L <= -(n - 1):
                continue
            row = green_tables.lookup_by_root(n, L)
            if row is None:
                continue
            form = cf.derive_green_closed_form(n, L)
            for t in np.linspace(-0.95, 0.95, 20):
                ref = row.eval(t)
                assert abs(form.eval(t) - ref) <= 1e-10 * (1.0 + abs(ref)), (n, L, t)

    @pytest.mark.parametrize("row", [r for r in green_tables.rows_for()
                                     if r.n % 2 == 0 and r.L.denominator == 1],
                             ids=lambda r: f"n{r.n}-L{r.L}")
    def test_equals_registry_row_exactly(self, row):
        assert cf.derive_green_closed_form(row.n, row.L) == row

    def test_beyond_registry_against_series(self):
        # the engine extends past the tabulated rows (here n=10, L=1)
        from spherepde import GreenFunction, parameter_from_root
        form = cf.derive_green_closed_form(10, 1)
        p = parameter_from_root(make_context(10), 1)
        for t in (-0.6, 0.2, 0.7):
            ref = GreenFunction(p, "series")(t)
            assert form.eval(t) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("n", [12, 14])
    @pytest.mark.parametrize("L", [-3, -1, 0, 2])
    def test_beyond_registry_against_integral(self, n, L):
        # one derivation route for every L, off the registry rows (n <= 10)
        from spherepde import green_eval_integral, parameter_from_root
        form = cf.derive_green_closed_form(n, L)
        p = parameter_from_root(make_context(n), L)
        for t in (-0.6, 0.2, 0.7):
            ref = green_eval_integral(p, t)
            assert abs(form.eval(t) - ref) <= 1e-9 * (1.0 + abs(ref)), (n, L, t)

    def test_every_derivation_matches_its_pin(self):
        # all 76 derivable (n, L), even n <= 16 and L <= 5, exactly as pinned
        got = {key: derived_forms.form_fingerprint(cf.derive_green_closed_form(*key))
               for key in derived_forms.FORMS}
        assert got == derived_forms.FORMS

    def test_kernel_power_antiderivatives_match_their_pins(self):
        got = {key: derived_forms.terms_fingerprint(cf.kernel_power_antiderivative(*key))
               for key in derived_forms.KERNEL_POWER}
        assert got == derived_forms.KERNEL_POWER

    def test_derivation_bounded_before_building_anything(self, monkeypatch):
        # (2, 200) ran past a 15 s timeout; every pinned form stays inside
        def refuse(*args):
            raise AssertionError("built a kernel power antiderivative")

        assert all(n + L <= cf._DERIVE_MAX_NL for n, L in derived_forms.FORMS)
        monkeypatch.setattr(cf, "_kernel_power_terms", refuse)
        for n, L in ((2, 200), (2, 39), (40, 1), (80, -39)):
            with pytest.raises(NoClosedFormError, match="n \\+ L <= 40"):
                cf.derive_green_closed_form(n, L)

    def test_odd_dimension_falls_back(self):
        with pytest.raises(NoClosedFormError):
            cf.derive_green_closed_form(3, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(NoClosedFormError):
            cf.derive_green_closed_form(4, 0.5)

    def test_printer_output(self):
        form = cf.derive_green_closed_form(2, 0)
        assert form.text() == "1 + log((1-t)/2)"
        assert form.latex() == "1 + \\ln\\frac{1-t}{2}"
        form = cf.derive_green_closed_form(4, 0)
        assert form.text() == "(4 - 7*t)/(9*(1-t)) + log((1-t)/2)/3"
