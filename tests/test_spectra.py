"""Spectra, quadrature, convolution, and the Poisson kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spherepde import (
    GeneralSpectrum,
    QuadratureError,
    SpectrumParseError,
    SphereDomainError,
    ZonalSpectrum,
    analyze,
    convolve,
    default_rule,
    gauss_gegenbauer_rule,
    inner,
    laplace_beltrami,
    make_context,
    norm_l2,
    poisson_kernel,
    poisson_kernel_spectrum,
    synthesize,
)
from spherepde.geometry import gegenbauer_matrix
from spherepde.spectra import (
    degree_norms,
    format_spectrum,
    parse_spectrum,
    zonal_weight_constant,
)

from oracles import (
    weight_moment_mp,
    zonal_convolution_quadrature,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

class TestQuadrature:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
    def test_moments_exact(self, n):
        mu = (n - 1) / 2.0
        rule = gauss_gegenbauer_rule(mu, 30)
        for m in range(0, rule.exactness + 1):
            got = np.sum(rule.weights * rule.nodes ** m)
            want = weight_moment_mp(mu, m)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (n, m)

    def test_chebyshev_case(self):
        rule = gauss_gegenbauer_rule(0.0, 16)
        assert_allclose(np.sum(rule.weights), np.pi, rtol=1e-14)

    def test_positive_weights_and_open_nodes(self):
        rule = gauss_gegenbauer_rule(1.5, 64)
        assert np.all(rule.weights > 0)
        assert np.all(np.abs(rule.nodes) < 1.0)


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

class TestAnalyze:
    def test_single_mode(self):
        ctx = make_context(3)
        spec = analyze(ctx, lambda t: gegenbauer_matrix(ctx, 3, t)[3], 8)
        expected = np.zeros(9)
        expected[3] = 1.0
        assert_allclose(spec.coeffs, expected, atol=1e-12)

    def test_constant(self):
        ctx = make_context(5)
        spec = analyze(ctx, lambda t: np.ones_like(t), 6)
        assert_allclose(spec.coeffs[0], 1.0, rtol=1e-13)
        assert_allclose(spec.coeffs[1:], 0.0, atol=1e-13)

    def test_poisson_kernel_coefficients(self):
        # Sigma_n * p_r has Gegenbauer coefficients r^l (lam+l)/lam
        ctx = make_context(3)
        r = 0.5
        spec = analyze(ctx, lambda t: ctx.sigma_n * poisson_kernel(ctx, r, t), 12,
                       rule=default_rule(ctx, 12, margin=60))
        l = np.arange(13)
        assert_allclose(spec.coeffs, r ** l * (ctx.lam + l) / ctx.lam, rtol=1e-9)

    def test_insufficient_exactness_raises(self):
        ctx = make_context(2)
        rule = gauss_gegenbauer_rule(ctx.lam, 8)
        with pytest.raises(QuadratureError):
            analyze(ctx, np.cos, 8, rule=rule)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            ctx = make_context(n)
            coeffs = rng.standard_normal(21)
            f = ZonalSpectrum(ctx, coeffs)
            back = analyze(ctx, lambda t: synthesize(f, t), 20)
            assert_allclose(back.coeffs, coeffs, rtol=1e-10, atol=1e-10)


class TestSynthesize:
    def test_constant(self):
        ctx = make_context(4)
        assert synthesize(ZonalSpectrum(ctx, [1.0]), 0.37) == 1.0

    def test_single_mode_value(self):
        ctx = make_context(2)
        f = ZonalSpectrum(ctx, [0.0, 0.0, 2.0])
        # 2 * C_2^{1/2}(0.5) = 2 * (-1/8) = -1/4
        assert_allclose(synthesize(f, 0.5), -0.25, rtol=1e-14)

    def test_poisson_series_matches_closed_form(self):
        ctx = make_context(2)
        spec = poisson_kernel_spectrum(ctx, 0.5, 200)
        got = synthesize(spec, 0.3)
        assert_allclose(got, poisson_kernel(ctx, 0.5, 0.3), rtol=1e-10)

    def test_domain_error(self):
        with pytest.raises(SphereDomainError):
            synthesize(ZonalSpectrum(make_context(2), [1.0]), 1.5)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class TestConvolve:
    def test_delta_times_delta(self):
        ctx = make_context(2)
        d2 = ZonalSpectrum(ctx, [0.0, 0.0, 1.0])
        out = convolve(d2, d2)
        assert_allclose(out.coeffs, [0.0, 0.0, 0.2], rtol=1e-14)

    def test_poisson_kernel_scaling(self):
        # convolving with Sigma_n p_r multiplies f-hat(l) by r^l
        rng = np.random.default_rng(5)
        ctx = make_context(4)
        f = ZonalSpectrum(ctx, rng.standard_normal(9))
        r = 0.6
        g = ZonalSpectrum(ctx, ctx.sigma_n * poisson_kernel_spectrum(ctx, r, 8).coeffs)
        out = convolve(f, g)
        assert_allclose(out.coeffs, r ** np.arange(9) * f.coeffs, rtol=1e-13)

    def test_zero_kernel(self):
        ctx = make_context(3)
        f = ZonalSpectrum(ctx, [1.0, 2.0, 3.0])
        out = convolve(f, ZonalSpectrum(ctx, np.zeros(3)))
        assert_allclose(out.coeffs, 0.0)

    def test_context_mismatch(self):
        f = ZonalSpectrum(make_context(2), [1.0])
        g = ZonalSpectrum(make_context(3), [1.0])
        with pytest.raises(SphereDomainError):
            convolve(f, g)

    def test_general_spectrum(self):
        ctx = make_context(3)
        f = GeneralSpectrum(ctx, {(1, "k1"): 1 + 2j, (2, "k7"): -0.5})
        g = ZonalSpectrum(ctx, [1.0, 1.0, 2.0])
        out = convolve(f, g)
        lam = ctx.lam
        assert out.entries[(1, "k1")] == pytest.approx(lam / (lam + 1) * (1 + 2j))
        assert out.entries[(2, "k7")] == pytest.approx(lam / (lam + 2) * (-0.5) * 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan")),
                                     complex(float("-inf"), 0.0),
                                     np.complex128(complex(0, np.inf))])
    def test_general_spectrum_rejects_non_finite(self, bad):
        with pytest.raises(SphereDomainError, match="finite"):
            GeneralSpectrum(make_context(3), {(1, "k1"): 1.0, (2, "k0"): bad})

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(11)
        ctx = make_context(5)
        f = ZonalSpectrum(ctx, rng.standard_normal(12))
        g = ZonalSpectrum(ctx, rng.standard_normal(12))
        h = ZonalSpectrum(ctx, rng.standard_normal(12))
        assert_allclose(convolve(f, g).coeffs, convolve(g, f).coeffs, rtol=1e-14)
        assert_allclose(convolve(convolve(f, g), h).coeffs,
                        convolve(f, convolve(g, h)).coeffs, rtol=1e-13)

    def test_convolution_theorem_against_quadrature(self):
        # coefficient formula vs direct numerical convolution over the sphere
        rng = np.random.default_rng(17)
        for n in (2, 3, 5):
            ctx = make_context(n)
            fc = rng.standard_normal(33) / (1.0 + np.arange(33)) ** 2
            gc = rng.standard_normal(33) / (1.0 + np.arange(33)) ** 2
            f = ZonalSpectrum(ctx, fc)
            g = ZonalSpectrum(ctx, gc)
            spec = convolve(f, g)
            for t in (-0.8, -0.2, 0.5, 0.95):
                direct = zonal_convolution_quadrature(
                    n, lambda x: synthesize(f, x), lambda x: synthesize(g, x), t,
                    m_theta=80, m_gamma=80)
                assert abs(direct - synthesize(spec, t)) < 1e-8


class TestLaplaceBeltrami:
    def test_eigenvalues(self):
        ctx = make_context(2)
        f = ZonalSpectrum(ctx, [0.0, 0.0, 1.0])
        assert_allclose(laplace_beltrami(f).coeffs, [0.0, 0.0, -6.0])

    def test_constant_annihilated(self):
        ctx = make_context(6)
        f = ZonalSpectrum(ctx, [3.3])
        assert laplace_beltrami(f).coeffs[0] == 0.0

    def test_general(self):
        ctx = make_context(5)
        f = GeneralSpectrum(ctx, {(3, "x"): 2.0})
        assert laplace_beltrami(f).entries[(3, "x")] == -21.0 * 2.0

    def test_self_adjoint(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 7):
            ctx = make_context(n)
            f = ZonalSpectrum(ctx, rng.standard_normal(10))
            g = ZonalSpectrum(ctx, rng.standard_normal(10))
            lhs = inner(laplace_beltrami(f), g)
            rhs = inner(f, laplace_beltrami(g))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestInnerProduct:
    def test_degree_norms_match_quadrature(self):
        # <C_l, C_l> = lam/(lam+l) C_l(1) under the 1/Sigma_n-normalised product
        for n in (2, 3, 5):
            ctx = make_context(n)
            rule = gauss_gegenbauer_rule(ctx.lam, 80)
            C = gegenbauer_matrix(ctx, 6, rule.nodes)
            quad = zonal_weight_constant(ctx) * ((C * C) @ rule.weights)
            assert_allclose(quad, degree_norms(ctx, 6), rtol=1e-12)

    def test_norm(self):
        ctx = make_context(3)
        f = ZonalSpectrum(ctx, [0.0, 2.0])
        # ||2 C_1||^2 = 4 <C_1, C_1> = 4 * (1/2) * 2
        assert_allclose(norm_l2(f), 2.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# Poisson kernel
# ---------------------------------------------------------------------------

class TestPoissonKernel:
    def test_r_zero(self):
        ctx = make_context(4)
        for t in (-1.0, 0.0, 0.9):
            assert_allclose(poisson_kernel(ctx, 0.0, t), 1.0 / ctx.sigma_n, rtol=1e-15)

    def test_closed_form_value(self):
        ctx = make_context(2)
        # (1/4pi) 0.75/0.25^{3/2}; series cross-check frozen: 0.47746482927...
        assert_allclose(poisson_kernel(ctx, 0.5, 1.0), 0.477464829275686, rtol=1e-12)

    def test_series_matches_closed_form(self):
        ctx = make_context(3)
        spec = poisson_kernel_spectrum(ctx, 0.7, 300)
        got = synthesize(spec, -0.2)
        assert_allclose(got, poisson_kernel(ctx, 0.7, -0.2), rtol=1e-10)

    def test_rejects_bad_radius(self):
        ctx = make_context(2)
        with pytest.raises(SphereDomainError):
            poisson_kernel(ctx, 1.0, 0.0)
        with pytest.raises(SphereDomainError):
            poisson_kernel_spectrum(ctx, -0.1, 8)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

class TestFileFormat:
    def test_zonal_roundtrip(self, tmp_path):
        ctx = make_context(3)
        f = ZonalSpectrum(ctx, np.array([1.5, -2.25, 1e-17, 0.3333333333333333]))
        text = format_spectrum(f, extra_comments=["written by the tests"])
        back = parse_spectrum(text)
        assert isinstance(back, ZonalSpectrum)
        assert back.ctx.n == 3
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_complex_zonal(self):
        ctx = make_context(2)
        f = ZonalSpectrum(ctx, np.array([1 + 2j, 0.5 - 1j]))
        back = parse_spectrum(format_spectrum(f))
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_general_roundtrip(self):
        ctx = make_context(4)
        f = GeneralSpectrum(ctx, {(2, "k0"): 1 - 3j, (5, "zz"): 0.25})
        back = parse_spectrum(format_spectrum(f))
        assert isinstance(back, GeneralSpectrum)
        assert back.entries == {(2, "k0"): (1 - 3j), (5, "zz"): (0.25 + 0j)}

    @pytest.mark.parametrize("token", ["a\tb", "a\nb", "a\r\nb", "a\u2028b", "a\n"],
                             ids=["tab", "newline", "crlf", "line-separator", "trailing-newline"])
    def test_token_that_would_not_parse_back_rejected(self, token):
        f = GeneralSpectrum(make_context(3), {(1, "ok"): 1.0, (2, token): 2.0})
        with pytest.raises(SphereDomainError, match="tab or a line break"):
            format_spectrum(f)

    def test_header_required(self):
        with pytest.raises(SphereDomainError):
            parse_spectrum("0\t1.0\n")

    ZONAL = "# zonal n=2 Lmax=3\n0\t1\n2\t3\n"

    def _raises_at_line(self, text, lineno, match):
        with pytest.raises(SpectrumParseError, match=f"line {lineno}: {match}"):
            parse_spectrum(text)

    def test_negative_degree_rejected(self):
        self._raises_at_line(self.ZONAL + "-1\t5\n", 4, "negative degree -1")
        self._raises_at_line("# general n=3\n-2\tk1\t1\t0\n", 2, "negative degree -2")

    def test_degree_above_lmax_rejected(self):
        self._raises_at_line(self.ZONAL + "7\t5\n", 4, "degree 7 above Lmax=3")

    def test_header_out_of_range_rejected(self):
        self._raises_at_line("# zonal n=2 Lmax=-1\n0\t1\n", 1, "malformed header")
        self._raises_at_line("# general n=-3\n2\tk1\t1\t0\n", 1, "malformed header")
        self._raises_at_line("# zonal n=1 Lmax=2\n0\t1\n", 1, "malformed header")

    def test_malformed_number_rejected(self):
        self._raises_at_line(self.ZONAL + "1\tabc\n", 4, "expected")

    def test_repeated_degree_rejected(self):
        self._raises_at_line(self.ZONAL + "2\t0.5\n", 4, "repeated 2")
        text = "# general n=3\n2\tk1\t1\t0\n2\tk2\t1\t0\n2\tk1\t5\t0\n"
        self._raises_at_line(text, 4, "repeated \\(2, 'k1'\\)")

    def test_parse_error_is_a_domain_error(self):
        # library callers that catch SphereDomainError keep catching it
        with pytest.raises(SphereDomainError):
            parse_spectrum(self.ZONAL + "7\t5\n")

    def test_parses_with_leading_metadata(self):
        text = "# spherepde v0\n# zonal n=2 Lmax=1\n0\t1\n1\t2\n"
        back = parse_spectrum(text)
        assert back.coeffs.tolist() == [1.0, 2.0]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
# order tokens the format can carry: no tab, and nothing str.splitlines splits on
_TOKENS = st.text().filter(lambda k: "\t" not in k and len(f"<{k}>".splitlines()) == 1)


class TestFileFormatRoundTrip:
    @given(st.integers(2, 9), st.lists(_FINITE, min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_zonal_real(self, n, values):
        f = ZonalSpectrum(make_context(n), np.array(values))
        back = parse_spectrum(format_spectrum(f))
        assert isinstance(back, ZonalSpectrum) and back.ctx == f.ctx
        assert np.array_equal(back.coeffs, f.coeffs)

    @given(st.integers(2, 9), st.lists(_COMPLEX, min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_zonal_complex(self, n, values):
        f = ZonalSpectrum(make_context(n), np.array(values, dtype=complex))
        back = parse_spectrum(format_spectrum(f))
        assert isinstance(back, ZonalSpectrum) and back.ctx == f.ctx
        assert np.array_equal(back.coeffs, f.coeffs)

    @given(st.integers(2, 9),
           st.dictionaries(st.tuples(st.integers(0, 40), _TOKENS), _COMPLEX, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_general_str_tokens(self, n, entries):
        f = GeneralSpectrum(make_context(n), entries)
        back = parse_spectrum(format_spectrum(f))
        assert isinstance(back, GeneralSpectrum) and back.ctx == f.ctx
        assert back.entries == f.entries
