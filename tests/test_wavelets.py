"""Wavelet families, admissibility, transform and inversion."""

import warnings
from dataclasses import replace
from math import exp, gamma, lgamma, log, sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from spherepde import (
    QuadratureError,
    SphereDomainError,
    WaveletFamily,
    ZonalSpectrum,
    check_admissibility,
    inverse_transform,
    make_context,
    make_scale_grid,
    poisson_scale_grid,
    poisson_wavelet,
    reconstruction_wavelet,
    roundtrip_error,
    wavelet_transform,
)

WIDE = dict(rho_min=1e-8, rho_max=60.0, count=800)


class TestPoissonWavelet:
    def test_coefficient_value(self):
        # d=1, n=2, l=1, rho=1: 2 * e^{-1} * (lam+1)/lam = 2 e^{-1} * 3
        w = poisson_wavelet(make_context(2), 1)
        assert_allclose(w.hat(1.0, 1), 2.0 * exp(-1.0) * 3.0, rtol=1e-14)

    def test_degree_zero_vanishes(self):
        w = poisson_wavelet(make_context(5), 3)
        assert w.hat(0.7, 0) == 0.0

    def test_order_two_value(self):
        # d=2, n=3, l=2, rho=0.5: (4/sqrt(Gamma(4))) * 1 * e^{-1} * (1+2)/1
        w = poisson_wavelet(make_context(3), 2)
        expected = 4.0 / sqrt(6.0) * exp(-1.0) * 3.0
        assert_allclose(w.hat(0.5, 2), expected, rtol=1e-14)
        assert_allclose(w.hat(0.5, 2), 1.8022338354605114, rtol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (8, 3), (5, 7)])
    def test_table_matches_the_direct_formula(self, n, d):
        # the table is built as exp(-rho l) * [l^d ...] * rho^d, the direct
        # formula takes (rho l)^d: a few roundings apart where exp(-rho l)
        # is a normal double
        ctx = make_context(n)
        lam = ctx.lam
        rho = make_scale_grid(1e-3 / 2048, 50.0, 200).nodes[:, None]
        ls = np.arange(1, 2049)
        x = rho * ls
        want = 2.0 ** d / sqrt(gamma(2 * d)) * x ** d * np.exp(-x) * (lam + ls) / lam
        normal = x < 700.0
        table = poisson_wavelet(ctx, d).hat(rho, ls)
        assert_allclose(table[normal], want[normal], rtol=(d + 3) * 2.3e-16, atol=0)

    def test_rejects_bad_order(self):
        with pytest.raises(SphereDomainError):
            poisson_wavelet(make_context(2), 0)

    @pytest.mark.parametrize("rho,l", [(0.05, 5000), (1e-3, 100000), (145.0, 1),
                                       (0.05, 100000)])
    def test_highest_order_at_high_degrees(self, rho, l):
        # l^85 alone overflows from l = 4200 on; the value is finite and
        # matches the formula taken in logs
        ctx = make_context(3)
        d = 85
        x = rho * l
        want = exp(d * log(2.0) - lgamma(2 * d) / 2 + d * log(x) - x
                   + log((ctx.lam + l) / ctx.lam))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_wavelet(ctx, d).hat(rho, l)
        assert_allclose(got, want, rtol=1e-12)
        if (rho, l) == (0.05, 5000):
            assert_allclose(got, 1.6700143793e-28, rtol=1e-9)

    @pytest.mark.parametrize("n,d", [(2, 1), (5, 2), (8, 3)])
    def test_table_matches_scalar_calls(self, n, d):
        # hat(nodes[:, None], ls) holds the one-degree calls as its columns
        w = poisson_wavelet(make_context(n), d)
        nodes = make_scale_grid(1e-4, 50.0, 40).nodes
        ls = np.arange(33)
        table = w.hat(nodes[:, None], ls)
        assert table.shape == (40, 33)
        want = np.stack([w.hat(nodes, int(l)) for l in ls], axis=1)
        assert np.array_equal(table, want)
        assert_allclose(table[7, 5], w.hat(float(nodes[7]), 5), rtol=1e-14)


class TestScaleGrid:
    def test_constant_integrand_exact(self):
        g = make_scale_grid(1e-4, 50.0, 400)
        assert_allclose(np.sum(g.weights), log(50.0 / 1e-4), rtol=1e-10)

    def test_rejects_bad_ranges(self):
        with pytest.raises(QuadratureError):
            make_scale_grid(1.0, 0.5, 10)
        with pytest.raises(QuadratureError):
            make_scale_grid(0.1, 1.0, 1)


# (n, d, L) over which poisson_scale_grid is gated
_RULE_CASES = [(n, d, L) for n in (2, 3, 8) for d in (1, 2, 3, 4, 8, 20, 85)
               for L in (1, 16, 256, 2048)] + [(n, 85, 5000) for n in (2, 3, 8)]


class TestPoissonScaleGrid:
    @pytest.mark.parametrize("n,d,L", _RULE_CASES)
    def test_admissible_and_invertible_to_the_tail_tolerance(self, n, d, L):
        ctx = make_context(n)
        w = poisson_wavelet(ctx, d)
        grid = poisson_scale_grid(d, L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_admissibility(w, w, L, grid)
            coeffs = np.random.default_rng(n * 10007 + d * 101 + L).standard_normal(L + 1)
            coeffs[0] = 0.0
            err = roundtrip_error(w, w, ZonalSpectrum(ctx, coeffs), grid)
        assert rep.max_rel_deviation() <= 1e-11
        assert err <= 1e-11
        # the range is ln(rho_max/rho_min) = ln(L s_hi/s_lo): 9.7 e-folds at
        # d = 85, L = 5000, where the step is 0.0617
        assert grid.count <= (150 if L <= 2048 else 160)

    def test_degree_zero_takes_the_degree_one_grid(self):
        for d in (1, 4):
            g0, g1 = poisson_scale_grid(d, 0), poisson_scale_grid(d, 1)
            assert np.array_equal(g0.nodes, g1.nodes)
            assert np.array_equal(g0.weights, g1.weights)

    def test_range_follows_l_max_and_step_follows_d(self):
        g16, g2048 = poisson_scale_grid(2, 16), poisson_scale_grid(2, 2048)
        assert g2048.rho_max == g16.rho_max
        assert_allclose(g2048.rho_min * 2048, g16.rho_min * 16, rtol=1e-15)
        steps = [log(g.nodes[1] / g.nodes[0]) for g in map(poisson_scale_grid, (1, 8, 85),
                                                           (16, 16, 16))]
        assert steps[0] > steps[1] > steps[2]

    def test_rejects_bad_order(self):
        for d in (0, 1.5, 86):
            with pytest.raises(SphereDomainError):
                poisson_scale_grid(d, 8)


class TestAdmissibility:
    def test_poisson_d1_targets(self):
        ctx = make_context(2)
        w = poisson_wavelet(ctx, 1)
        rep = check_admissibility(w, w, 8, make_scale_grid(**WIDE))
        # l=1 target ((lam+1)/lam)^2 = 9; analytic scale integral equals it
        assert_allclose(rep.integral[1], 9.0, atol=1e-6)
        assert rep.integral[0] == 0.0
        assert rep.max_rel_deviation() < 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_poisson_family_admissible(self, n, d):
        ctx = make_context(n)
        w = poisson_wavelet(ctx, d)
        rep = check_admissibility(w, w, 32, make_scale_grid(**WIDE))
        assert rep.max_rel_deviation() < 1e-6
        assert rep.integral[0] == 0.0

    def test_analytic_cross_check(self):
        # independent quadrature of the defining scale integral at one degree
        ctx = make_context(4)
        w = poisson_wavelet(ctx, 2)
        l = 3
        val, _ = integrate.quad(lambda r: abs(w.hat(r, l)) ** 2 / r, 0, np.inf,
                                limit=200)
        lam = ctx.lam
        assert_allclose(val, ((lam + l) / lam) ** 2, rtol=1e-9)

    def test_narrow_grid_rejected(self):
        ctx = make_context(2)
        w = poisson_wavelet(ctx, 1)
        with pytest.raises(QuadratureError):
            check_admissibility(w, w, 8, make_scale_grid(0.5, 2.0, 50))

    def test_context_mismatch(self):
        w2 = poisson_wavelet(make_context(2), 1)
        w3 = poisson_wavelet(make_context(3), 1)
        with pytest.raises(SphereDomainError):
            check_admissibility(w2, w3, 4, make_scale_grid(**WIDE))

    def test_negative_l_max_rejected(self):
        # no degree to check: an IndexError on the empty degree range before
        psi = poisson_wavelet(make_context(2), 1)
        grid = make_scale_grid(**WIDE)
        for build in (lambda: poisson_scale_grid(1, -1),
                      lambda: check_admissibility(psi, psi, -1, grid),
                      lambda: reconstruction_wavelet(psi, -1, grid)):
            with pytest.raises(SphereDomainError, match="l_max must be >= 0, got -1"):
                build()


class TestReconstruction:
    def test_poisson_self_reconstructing(self):
        ctx = make_context(3)
        psi = poisson_wavelet(ctx, 1)
        omega = reconstruction_wavelet(psi, 8, make_scale_grid(**WIDE))
        for rho in (0.05, 0.3, 1.0, 4.0):
            for l in (1, 3, 8):
                assert_allclose(omega.hat(rho, l), psi.hat(rho, l), rtol=1e-6)

    def test_table_matches_scalar_calls(self):
        psi = poisson_wavelet(make_context(4), 2)
        omega = reconstruction_wavelet(psi, 16, make_scale_grid(**WIDE))
        nodes = make_scale_grid(1e-3, 20.0, 30).nodes
        ls = np.arange(17)
        table = omega.hat(nodes[:, None], ls)
        want = np.stack([omega.hat(nodes, int(l)) for l in ls], axis=1)
        assert np.array_equal(table, want)
        assert np.all(table[:, 0] == 0.0)

    def test_degree_above_lmax_rejected(self):
        psi = poisson_wavelet(make_context(3), 1)
        omega = reconstruction_wavelet(psi, 8, make_scale_grid(**WIDE))
        with pytest.raises(SphereDomainError, match="asked for 9"):
            omega.hat(np.array([0.1, 1.0])[:, None], np.arange(10))
        with pytest.raises(SphereDomainError):
            omega.hat(0.5, 9)

    def test_unnormalised_family(self):
        # hat = rho l e^{-rho l}: alpha_l = (lam/(lam+l))^2 / 4 per degree
        ctx = make_context(2)
        lam = ctx.lam

        def hat(rho, l):
            x = np.multiply(rho, l, dtype=float)
            return np.where(l == 0, 0.0, x * np.exp(-x))

        psi = WaveletFamily(ctx=ctx, hat=hat, tag="bare")
        omega = reconstruction_wavelet(psi, 6, make_scale_grid(**WIDE))
        rep = check_admissibility(psi, omega, 6, make_scale_grid(**WIDE))
        assert rep.max_rel_deviation() < 1e-6
        # analytic alpha: int (rho l)^2 e^{-2 rho l} drho/rho = 1/4
        assert_allclose(omega.hat(0.7, 2), hat(0.7, 2) / ((lam / (lam + 2)) ** 2 / 4.0),
                        rtol=1e-8)

    def test_vanishing_alpha_names_degree(self):
        ctx = make_context(2)
        poisson = poisson_wavelet(ctx, 1)

        def hat(rho, l):
            return np.where(l == 5, 0.0, poisson.hat(rho, l))

        psi = WaveletFamily(ctx=ctx, hat=hat, tag="gap")
        with pytest.raises(SphereDomainError, match="alpha_5"):
            reconstruction_wavelet(psi, 6, make_scale_grid(**WIDE))


class TestTransform:
    def test_single_mode_value(self):
        ctx = make_context(2)
        psi = poisson_wavelet(ctx, 1)
        f = ZonalSpectrum(ctx, [0.0, 1.0])
        grid = make_scale_grid(1.0, 2.0, 2)     # includes rho = 1 as first node
        W = wavelet_transform(psi, f, grid)
        # (lam/(lam+1)) * conj(hat(1,1)) = (1/3) * 2 e^{-1} * 3 = 2 e^{-1}
        assert_allclose(W.coeffs[0, 1], 2.0 * exp(-1.0), rtol=1e-13)

    def test_zero_signal(self):
        ctx = make_context(3)
        psi = poisson_wavelet(ctx, 2)
        f = ZonalSpectrum(ctx, np.zeros(5))
        W = wavelet_transform(psi, f, make_scale_grid(1e-3, 10, 20))
        assert np.all(W.coeffs == 0.0)

    def test_scale_decay_shape(self):
        # per degree the d=1 transform decays like rho e^{-rho l}
        ctx = make_context(2)
        psi = poisson_wavelet(ctx, 1)
        rng = np.random.default_rng(9)
        f = ZonalSpectrum(ctx, rng.standard_normal(17))
        grid = make_scale_grid(1e-2, 20.0, 60)
        W = wavelet_transform(psi, f, grid)
        for l in (1, 5, 16):
            profile = np.abs(W.coeffs[:, l])
            model = grid.nodes * l * np.exp(-grid.nodes * l)
            keep = model > 1e-12
            ratio = profile[keep] / model[keep]
            assert np.ptp(ratio) <= 1e-8 * (1.0 + ratio.max())

    def test_linearity(self):
        ctx = make_context(4)
        psi = poisson_wavelet(ctx, 2)
        rng = np.random.default_rng(13)
        f = ZonalSpectrum(ctx, rng.standard_normal(9))
        g = ZonalSpectrum(ctx, rng.standard_normal(9))
        grid = make_scale_grid(1e-3, 30.0, 50)
        combo = ZonalSpectrum(ctx, 2.0 * f.coeffs - 0.5 * g.coeffs)
        lhs = wavelet_transform(psi, combo, grid).coeffs
        rhs = (2.0 * wavelet_transform(psi, f, grid).coeffs
               - 0.5 * wavelet_transform(psi, g, grid).coeffs)
        assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-16)


    def test_complex_typed_real_inputs_give_real_transforms(self):
        # a real signal or family held in a complex array comes back float64
        ctx = make_context(3)
        psi = poisson_wavelet(ctx, 2)
        twin = WaveletFamily(ctx=ctx, hat=lambda rho, l: psi.hat(rho, l).astype(complex),
                             tag="complex-typed")
        f = ZonalSpectrum(ctx, np.random.default_rng(5).standard_normal(9))
        grid = poisson_scale_grid(2, f.l_max)
        W = wavelet_transform(psi, f, grid)
        for family, signal in ((psi, ZonalSpectrum(ctx, f.coeffs.astype(complex))), (twin, f)):
            got = wavelet_transform(family, signal, grid)
            assert got.coeffs.dtype == np.float64
            assert_allclose(got.coeffs, W.coeffs, rtol=1e-15, atol=0)
        back = inverse_transform(psi, W, grid)
        for family, transform in ((psi, replace(W, coeffs=W.coeffs.astype(complex))), (twin, W)):
            got = inverse_transform(family, transform, grid)
            assert got.coeffs.dtype == np.float64
            assert_allclose(got.coeffs, back.coeffs, rtol=1e-15, atol=0)


class TestInversion:
    def test_single_mode_roundtrip(self):
        ctx = make_context(2)
        psi = poisson_wavelet(ctx, 1)
        f = ZonalSpectrum(ctx, [0.0, 0.0, 1.0])
        grid = make_scale_grid(1e-4, 50.0, 400)  # the reference grid
        rec = inverse_transform(psi, wavelet_transform(psi, f, grid), grid)
        assert abs(rec.coeffs[2] - 1.0) < 1e-4

    def test_zero_roundtrip(self):
        ctx = make_context(3)
        psi = poisson_wavelet(ctx, 1)
        f = ZonalSpectrum(ctx, np.zeros(4))
        assert roundtrip_error(psi, psi, f, make_scale_grid(1e-4, 50.0, 400)) == 0.0

    def test_random_bandlimited_roundtrip(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 6):
            ctx = make_context(n)
            coeffs = rng.standard_normal(17)
            coeffs[0] = 0.0
            f = ZonalSpectrum(ctx, coeffs)
            psi = poisson_wavelet(ctx, 1)
            err = roundtrip_error(psi, psi, f, make_scale_grid(1e-4, 50.0, 400))
            assert err <= 1e-3

    def test_refinement_improves(self):
        ctx = make_context(2)
        psi = poisson_wavelet(ctx, 1)
        rng = np.random.default_rng(37)
        coeffs = rng.standard_normal(33)
        coeffs[0] = 0.0
        f = ZonalSpectrum(ctx, coeffs)
        grids = [make_scale_grid(1e-3, 20.0, 100),
                 make_scale_grid(1e-4, 50.0, 400),
                 make_scale_grid(1e-5, 100.0, 1600)]
        errs = [roundtrip_error(psi, psi, f, g) for g in grids]
        assert errs[0] > errs[1] > errs[2]

    def test_complex_signal_and_family_roundtrip(self):
        # a degree-dependent phase leaves |hat|^2 alone, so the family is
        # its own reconstruction family, and a complex f comes back complex
        ctx = make_context(3)
        poisson = poisson_wavelet(ctx, 2)

        def hat(rho, l):
            return poisson.hat(rho, l) * np.exp(0.3j * np.asarray(l))

        psi = WaveletFamily(ctx=ctx, hat=hat, tag="phased")
        rng = np.random.default_rng(41)
        coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        coeffs[0] = 0.0
        f = ZonalSpectrum(ctx, coeffs)
        grid = make_scale_grid(**WIDE)
        W = wavelet_transform(psi, f, grid)
        assert np.iscomplexobj(W.coeffs)
        rec = inverse_transform(psi, W, grid)
        assert np.iscomplexobj(rec.coeffs)
        assert_allclose(rec.coeffs, coeffs, rtol=0, atol=1e-6 * np.max(np.abs(coeffs)))

    def test_cached_hat_table_left_intact(self):
        # the transforms read the table a family's hat returns and never
        # write into it, so a family may hand out one stored array
        ctx = make_context(4)
        grid = make_scale_grid(1e-3, 30.0, 50)
        ls = np.arange(9)
        table = poisson_wavelet(ctx, 1).hat(grid.nodes[:, None], ls)
        kept = table.copy()
        psi = WaveletFamily(ctx=ctx, hat=lambda rho, l: table, tag="stored")
        rng = np.random.default_rng(43)
        for coeffs in (rng.standard_normal(9), rng.standard_normal(9) + 1j):
            W = wavelet_transform(psi, ZonalSpectrum(ctx, coeffs), grid)
            inverse_transform(psi, W, grid)
            assert np.array_equal(table, kept)

    def test_mean_forced_to_zero(self):
        ctx = make_context(2)
        psi = poisson_wavelet(ctx, 1)
        f = ZonalSpectrum(ctx, [5.0, 1.0])
        grid = make_scale_grid(1e-4, 50.0, 400)
        rec = inverse_transform(psi, wavelet_transform(psi, f, grid), grid)
        assert rec.coeffs[0] == 0.0

    def test_grid_mismatch(self):
        ctx = make_context(2)
        psi = poisson_wavelet(ctx, 1)
        f = ZonalSpectrum(ctx, [0.0, 1.0])
        g1 = make_scale_grid(1e-3, 10.0, 50)
        g2 = make_scale_grid(1e-3, 10.0, 60)
        W = wavelet_transform(psi, f, g1)
        with pytest.raises(QuadratureError):
            inverse_transform(psi, W, g2)
