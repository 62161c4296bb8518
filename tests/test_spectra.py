"""Spectra, quadrature, convolution, and the Poisson kernel."""

import tracemalloc
import warnings
from math import gamma

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
from spherepde import spectra
from spherepde.geometry import BLOCK_SIZE, gegenbauer_blocks
from spherepde.spectra import (
    QuadratureRule,
    degree_norms,
    format_spectrum,
    parse_spectrum,
    zonal_weight_constant,
)

from oracles import (
    gauss_gegenbauer_reference,
    weight_moment_mp,
    zonal_convolution_quadrature,
)


def _matrix(ctx, l_max, t):
    """C[l, j] = C_l^lambda(t_j): the blocks, copied out and stacked."""
    return np.concatenate([rows.copy() for _l0, rows in gegenbauer_blocks(ctx, l_max, t)])


def _peak_bytes(run):
    """The traced peak of run() above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize(
        "mu, m",
        [(mu, m) for mu in (0.0, 0.5, 1.0, 2.0, 3.5) for m in (1, 2, 3, 7, 30, 301)]
        # mu < 1/2 has no turning point; a large mu puts it far from the endpoint
        + [(mu, m) for mu in (0.25, 5.0, 8.0, 19.5, 50.0, 170.5) for m in (2, 7, 30, 301)]
        # b_k^2 from a product of roundings of k + mu put these 2.7e-12 off
        + [(8.0, 1029), (0.3, 301), (2.2, 301)])
    def test_against_extended_precision(self, mu, m):
        # the Golub-Welsch rule this replaced was 1.4e-11 off in the weights at m = 301
        rule = gauss_gegenbauer_rule(mu, m)
        nodes, weights = gauss_gegenbauer_reference(mu, m)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-15
        assert np.max(np.abs(rule.weights / weights - 1.0)) <= (1e-13 if m <= 30 else 1e-12)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])

    @given(st.floats(0.0, 170.5), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_rule_shape_property(self, mu, m):
        rule = gauss_gegenbauer_rule(mu, m)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        mu0 = np.sqrt(np.pi) * gamma(mu + 0.5) / gamma(mu + 1.0)
        # at most 1.2e-14 over 20 480 draws, 13 of them above 1e-14 (mu < 1e-6
        # at m >= 54, and mu = 127.3 at m = 2); the eigensolver rule this
        # replaced reached 1.02e-14
        assert abs(np.sum(rule.weights) / mu0 - 1.0) <= 2e-14

    def test_no_warning_at_the_largest_dimension(self):
        # n = 342 (mu = 170.5): p_{m-1}^2 passes the doubles at m = 2053, which
        # was an overflow warning; the suite turns a RuntimeWarning into a
        # failure, and a weight below the doubles may be 0
        rule = gauss_gegenbauer_rule(170.5, 2053)
        assert np.all(np.isfinite(rule.nodes)) and np.all(rule.weights >= 0.0)
        assert np.all(rule.weights[1000:1053] > 0.0)

    def test_merged_starting_nodes_raise(self, monkeypatch):
        # two starts in one zero's basin converge to one node: the rule is
        # refused rather than returned short of a zero
        good = spectra._starting_nodes
        monkeypatch.setattr(spectra, "_starting_nodes",
                            lambda mu, m: np.sort(np.r_[good(mu, m)[:1], good(mu, m)[:-1]]))
        with pytest.raises(QuadratureError, match="merged or lost"):
            gauss_gegenbauer_rule(1.5, 40)

    @pytest.mark.parametrize("mu", [-0.5, float("nan"), float("inf")])
    def test_weight_exponent_refused(self, mu):
        with pytest.raises(QuadratureError, match="finite and >= 0"):
            gauss_gegenbauer_rule(mu, 5)

    @pytest.mark.parametrize("mu", [171.0, 400.0])
    def test_weight_exponent_beyond_the_doubles_refused(self, mu):
        # the zeroth moment's Gamma(mu + 1) leaves the doubles past mu = 170.6
        with pytest.raises(QuadratureError, match="beyond the doubles"):
            gauss_gegenbauer_rule(mu, 5)

    @pytest.mark.parametrize("m", [5.5, 5.0, "5", None, 0, -3])
    def test_node_count_refused(self, m):
        # a count that is not a whole number is refused, not sliced with
        with pytest.raises(QuadratureError, match="whole number of nodes"):
            gauss_gegenbauer_rule(2.0, m)
        assert gauss_gegenbauer_rule(2.0, np.int64(5)).nodes.size == 5

    def test_unconverged_passes_raise(self, monkeypatch):
        monkeypatch.setattr(spectra, "_NEWTON_PASSES", 1)
        with pytest.raises(QuadratureError, match="did not converge"):
            gauss_gegenbauer_rule(1.5, 40)


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

class TestAnalyze:
    def test_single_mode(self):
        ctx = make_context(3)
        spec = analyze(ctx, lambda t: _matrix(ctx, 3, t)[3], 8)
        expected = np.zeros(9)
        expected[3] = 1.0
        assert_allclose(spec.coeffs, expected, atol=1e-12)

    def test_constant(self):
        ctx = make_context(5)
        spec = analyze(ctx, lambda t: np.ones_like(t), 6)
        assert_allclose(spec.coeffs[0], 1.0, rtol=1e-13)
        assert_allclose(spec.coeffs[1:], 0.0, atol=1e-13)

    def test_constant_returning_callable(self):
        # samples is called once, on the nodes; a scalar result is broadcast
        ctx = make_context(4)
        calls = []

        def samples(t):
            calls.append(np.shape(t))
            return 2.5

        spec = analyze(ctx, samples, 6)
        assert calls == [(default_rule(ctx, 6).nodes.size,)]
        assert_allclose(spec.coeffs[0], 2.5, rtol=1e-13)
        assert_allclose(spec.coeffs[1:], 0.0, atol=1e-13)

    def test_poisson_kernel_coefficients(self):
        # Sigma_n * p_r has Gegenbauer coefficients r^l (lam+l)/lam
        ctx = make_context(3)
        r = 0.5
        spec = analyze(ctx, lambda t: ctx.sigma_n * poisson_kernel(ctx, r, t), 12,
                       rule=gauss_gegenbauer_rule(ctx.lam, 43))
        l = np.arange(13)
        assert_allclose(spec.coeffs, r ** l * (ctx.lam + l) / ctx.lam, rtol=1e-9)

    def test_insufficient_exactness_raises(self):
        ctx = make_context(2)
        rule = gauss_gegenbauer_rule(ctx.lam, 8)
        with pytest.raises(QuadratureError):
            analyze(ctx, np.cos, 8, rule=rule)

    def test_rule_for_another_sphere_refused(self):
        ctx = make_context(3)
        with pytest.raises(QuadratureError, match="does not match lambda=1.0"):
            analyze(ctx, np.cos, 4, rule=default_rule(make_context(4), 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_refused(self, bad):
        ctx = make_context(3)
        with pytest.raises(SphereDomainError, match="finite on the quadrature nodes"):
            analyze(ctx, lambda t: np.where(t > 0.5, bad, 1.0), 4)

    def test_rough_spectrum_roundtrip(self):
        # a slowly decaying spectrum at a large Lmax: the weights' accuracy
        # shows directly in analyze(synthesize(u)) (the Golub-Welsch rule
        # with rule-integrated norms gave 3.9e-9 here)
        ctx = make_context(8)
        l_max = 2048
        u = np.random.default_rng(3).standard_normal(l_max + 1) / (1.0 + np.arange(l_max + 1))
        rule = default_rule(ctx, l_max)
        values = synthesize(ZonalSpectrum(ctx, u), rule.nodes)
        back = analyze(ctx, lambda t: values, l_max, rule)
        assert np.max(np.abs(back.coeffs - u)) <= 1e-10 * np.max(np.abs(u))

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            ctx = make_context(n)
            coeffs = rng.standard_normal(21)
            f = ZonalSpectrum(ctx, coeffs)
            back = analyze(ctx, lambda t: synthesize(f, t), 20)
            assert_allclose(back.coeffs, coeffs, rtol=1e-10, atol=1e-10)


class TestAnalysisFold:
    """analyze folds the weighted samples onto |x|; it must equal the
    unfolded sum sum_j w_j v_j C_l(x_j) to roundoff in that sum's own
    error scale sum_j |w_j v_j C_l(x_j)|, on any node set."""

    @staticmethod
    def _check(ctx, rule, values, l_max):
        got = analyze(ctx, lambda t: values, l_max, rule).coeffs
        C = _matrix(ctx, l_max, rule.nodes)
        wv = rule.weights * values
        norms = degree_norms(ctx, l_max) / zonal_weight_constant(ctx)
        want = (C @ wv) / norms
        scale = (np.abs(C) @ np.abs(wv)) / norms
        assert got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale), \
            np.max(np.abs(got - want) / scale)

    @pytest.mark.parametrize("m", [40, 41, 2053, 2054])
    @pytest.mark.parametrize("n", [2, 5])
    def test_gauss_rules_with_and_without_the_middle_node(self, n, m):
        # odd m puts a node at x = 0, which pairs with no other and counts once
        ctx = make_context(n)
        rule = gauss_gegenbauer_rule(ctx.lam, m)
        assert (0.0 in rule.nodes) == (m % 2 == 1)
        values = np.exp(rule.nodes) + np.random.default_rng(m).standard_normal(m)
        self._check(ctx, rule, values, m - 5)

    def test_asymmetric_hand_built_rule(self):
        # some nodes pair (+-0.3, +-0.9), some do not (0.5, 0.7, -0.1), and 0 is one node
        ctx = make_context(3)
        nodes = np.array([-0.9, -0.3, -0.1, 0.0, 0.3, 0.5, 0.7, 0.9])
        weights = np.array([0.1, 0.4, 0.2, 0.3, 0.35, 0.25, 0.15, 0.05])
        rule = QuadratureRule(nodes=nodes, weights=weights, exactness=20, mu=ctx.lam)
        values = np.array([1.0, -2.0, 0.5, 3.0, 0.25, -1.5, 2.0, 0.75])
        self._check(ctx, rule, values, 9)

    def test_complex_samples(self):
        ctx = make_context(4)
        rule = gauss_gegenbauer_rule(ctx.lam, 301)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        self._check(ctx, rule, values, 296)


class TestBoundedMemory:
    def test_analysis_and_synthesis_within_two_blocks(self):
        # the spectral_pipeline's top rung: neither builds the (L+1) x m matrix
        ctx = make_context(8)
        l_max = 2048
        u = ZonalSpectrum(ctx, np.random.default_rng(8).standard_normal(l_max + 1))
        rule = default_rule(ctx, l_max)
        values = synthesize(u, rule.nodes)
        budget = 2 * BLOCK_SIZE * np.dtype(float).itemsize
        assert _peak_bytes(lambda: synthesize(u, rule.nodes)) <= budget
        assert _peak_bytes(lambda: analyze(ctx, lambda t: values, l_max, rule)) <= budget


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

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_streamed_sum_matches_the_matrix_product(self, n):
        # one recurrence pass, summed degree by degree: only the order of the sum changes
        ctx = make_context(n)
        coeffs = np.random.default_rng(n).standard_normal(2049)
        ts = np.linspace(-1.0, 1.0, 301)
        C = _matrix(ctx, 2048, ts)
        want = coeffs @ C
        got = synthesize(ZonalSpectrum(ctx, coeffs), ts)
        scale = np.abs(coeffs) @ np.abs(C)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_domain_error(self):
        with pytest.raises(SphereDomainError):
            synthesize(ZonalSpectrum(make_context(2), [1.0]), 1.5)

    def test_nan_t_is_a_domain_error(self):
        f = ZonalSpectrum(make_context(2), [1.0, 2.0])
        for t in (float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(SphereDomainError, match=r"\|t\| = nan"):
                synthesize(f, t)


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

    def test_general_kernel_refused(self):
        ctx = make_context(3)
        f = ZonalSpectrum(ctx, [1.0, 2.0])
        with pytest.raises(SphereDomainError, match="kernel must be zonal"):
            convolve(f, GeneralSpectrum(ctx, {(1, "k"): 1.0}))

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


class TestConstruction:
    @pytest.mark.parametrize("coeffs", [[[1.0, 2.0], [3.0, 4.0]], ["a", "b"],
                                        np.array([1.0, 2.0], dtype=object)])
    def test_zonal_rejects_malformed_coefficients(self, coeffs):
        with pytest.raises(SphereDomainError, match="1-D array of numbers"):
            ZonalSpectrum(make_context(3), coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_zonal_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(SphereDomainError, match="coefficients must be finite"):
            ZonalSpectrum(make_context(3), [1.0, bad, 2.0])

    def test_general_copy_is_a_new_map(self):
        f = GeneralSpectrum(make_context(3), {(2, "a"): 1.0})
        g = f.copy()
        g.entries[(3, "b")] = 2.0
        assert f.entries == {(2, "a"): 1.0} and g.ctx == f.ctx

    def test_zonal_rejects_empty_coefficients(self):
        with pytest.raises(SphereDomainError, match="degree-0"):
            ZonalSpectrum(make_context(3), [])

    @pytest.mark.parametrize("degree", ["2", None, 2.5, -1, float("nan"), float("inf")])
    def test_general_rejects_malformed_degrees(self, degree):
        with pytest.raises(SphereDomainError, match="non-negative integers"):
            GeneralSpectrum(make_context(3), {(degree, "a"): 1.0})

    @pytest.mark.parametrize("degree", [np.float64("inf"), np.float64("-inf"), np.float64("nan")])
    def test_general_rejects_numpy_non_finite_degrees_without_a_warning(self, degree):
        # under the CI's -W error::RuntimeWarning, NumPy's scalar remainder of
        # inf would raise its own warning before the domain error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SphereDomainError, match="non-negative integers"):
                GeneralSpectrum(make_context(3), {(degree, "a"): 1.0})

    @pytest.mark.parametrize("value", ["x", None])
    def test_general_rejects_non_numeric_coefficients(self, value):
        with pytest.raises(SphereDomainError, match="finite numbers"):
            GeneralSpectrum(make_context(3), {(2, "a"): value})

    @pytest.mark.parametrize("degree", [2, 2.0, np.int64(2)])
    def test_general_accepts_integral_degrees(self, degree):
        f = GeneralSpectrum(make_context(3), {(degree, "a"): 1.0})
        assert f.entries == {(2, "a"): 1.0} and type(next(iter(f.entries))[0]) is int


class TestInnerProduct:
    def test_degree_norms_match_quadrature(self):
        # <C_l, C_l> = lam/(lam+l) C_l(1) under the 1/Sigma_n-normalised product
        for n in (2, 3, 5):
            ctx = make_context(n)
            rule = gauss_gegenbauer_rule(ctx.lam, 80)
            C = _matrix(ctx, 6, rule.nodes)
            quad = zonal_weight_constant(ctx) * ((C * C) @ rule.weights)
            assert_allclose(quad, degree_norms(ctx, 6), rtol=1e-12)

    def test_norm(self):
        ctx = make_context(3)
        f = ZonalSpectrum(ctx, [0.0, 2.0])
        # ||2 C_1||^2 = 4 <C_1, C_1> = 4 * (1/2) * 2
        assert_allclose(norm_l2(f), 2.0, rtol=1e-14)

    def test_norm_of_a_general_spectrum_is_its_coefficient_norm(self):
        f = GeneralSpectrum(make_context(3), {(0, "a"): 3.0, (2, "b"): 4j, (2, "c"): -12.0})
        assert norm_l2(f) == 13.0


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

    def test_float_degree_roundtrip(self):
        f = GeneralSpectrum(make_context(3), {(2.0, "a"): 1.0})
        assert type(next(iter(f.entries))[0]) is int
        text = format_spectrum(f)
        assert "\n2\ta\t" in text
        assert parse_spectrum(text).entries == f.entries

    @pytest.mark.parametrize("token", ["a\tb", "a\nb", "a\r\nb", "a\u2028b", "a\n"],
                             ids=["tab", "newline", "crlf", "line-separator", "trailing-newline"])
    def test_token_that_would_not_parse_back_rejected(self, token):
        f = GeneralSpectrum(make_context(3), {(1, "ok"): 1.0, (2, token): 2.0})
        with pytest.raises(SphereDomainError, match="tab or a line break"):
            format_spectrum(f)

    def test_tokens_that_print_alike_rejected(self):
        # (0, 1) and (0, "1") would both be written as "0<TAB>1", a repeated row
        f = GeneralSpectrum(make_context(3), {(0, 1): 1.0, (2, "1"): 3.0, (0, "1"): 2.0})
        with pytest.raises(SphereDomainError, match="degree 0 print as '1'"):
            format_spectrum(f)

    @pytest.mark.parametrize("comment", ["x\n3\tb\t7\t0", "x\r5", "x\u2028y"])
    def test_comment_with_a_line_break_rejected(self, comment):
        # the first would read back as an extra coefficient (3, 'b') with no error
        f = GeneralSpectrum(make_context(3), {(1, "a"): 1.0})
        with pytest.raises(SphereDomainError, match="comment holds a line break"):
            format_spectrum(f, extra_comments=["fine", comment])
        with pytest.raises(SphereDomainError, match="comment holds a line break"):
            format_spectrum(ZonalSpectrum(make_context(2), [1.0, 2.0]), extra_comments=[comment])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected(self, value):
        self._raises_at_line(self.ZONAL + f"1\t{value}\n", 4, "non-finite value")
        self._raises_at_line(self.ZONAL + f"1\t0\t{value}\n", 4, "non-finite value")
        self._raises_at_line(f"# general n=3\n2\tk1\t1\t0\n2\tk2\t{value}\t0\n", 3,
                             "non-finite value")
        self._raises_at_line(f"# general n=3\n2\tk2\t1\t{value}\n", 2, "non-finite value")

    def test_header_dimension_beyond_the_doubles_rejected(self):
        self._raises_at_line("# zonal n=400 Lmax=1\n0\t1\n", 1, "malformed header")

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


# Text built from the format's own pieces, so that the fuzzing reaches the
# header and row checks; degrees and Lmax stay small, since a valid file
# may ask for a coefficient array of any size.
_CELLS = st.one_of(st.integers(-1, 12).map(str),
                   st.sampled_from(["0.5", "nan", "-inf", "1e999", "0x10", "1_0", "k", ""]),
                   st.text(max_size=3))
_HEADERS = st.builds("# {} {}n={} {}".format,
                     st.sampled_from(["zonal", "general", "Zonal"]),
                     st.sampled_from(["", "spherepde ", "# "]),
                     st.one_of(st.integers(2, 9), st.integers(-1, 500), st.text(max_size=3)),
                     st.one_of(st.integers(-1, 12).map("Lmax={}".format), st.text(max_size=6)))
_ROWS = st.lists(_CELLS, min_size=2, max_size=4).map("\t".join)
_LINES = st.one_of(_HEADERS, _ROWS, _ROWS, st.text(max_size=6))


class TestParseFuzz:
    @given(st.tuples(_HEADERS, st.lists(_LINES, max_size=8)).map(
        lambda parts: "\n".join([parts[0], *parts[1]])))
    @settings(max_examples=400, deadline=None)
    def test_structured_text(self, text):
        self._parses_or_names_the_error(text)

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        self._parses_or_names_the_error(text)

    @staticmethod
    def _parses_or_names_the_error(text):
        try:
            spec = parse_spectrum(text)
        except SpectrumParseError:
            return
        assert isinstance(spec, (ZonalSpectrum, GeneralSpectrum))
