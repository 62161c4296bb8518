"""Sphere context and Gegenbauer evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spherepde import SphereContext, SphereDomainError, gegenbauer, gegenbauer_batch, make_context
from spherepde.geometry import (
    eigenvalue,
    gegenbauer_at_one,
    gegenbauer_bound,
    gegenbauer_matrix,
    gegenbauer_rows,
)

from oracles import gegenbauer_fraction, legendre, surface_measure_mp


class TestContext:
    def test_n2(self):
        ctx = make_context(2)
        assert ctx.lam == 0.5
        # 2 pi^{3/2}/Gamma(3/2) = 4 pi, frozen from the mpmath Gamma oracle
        assert_allclose(ctx.sigma_n, 12.566370614359172, rtol=1e-14)
        assert_allclose(ctx.sigma_n, surface_measure_mp(2), rtol=1e-14)

    def test_n3(self):
        ctx = make_context(3)
        assert ctx.lam == 1.0
        # 2 pi^2
        assert_allclose(ctx.sigma_n, 19.739208802178716, rtol=1e-14)
        assert_allclose(ctx.sigma_n, surface_measure_mp(3), rtol=1e-14)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_gamma_formula(self, n):
        assert_allclose(make_context(n).sigma_n, surface_measure_mp(n), rtol=1e-14)

    def test_rejects_low_dimension(self):
        with pytest.raises(SphereDomainError):
            make_context(1)
        with pytest.raises(SphereDomainError):
            make_context(0)

    def test_rejects_dimension_beyond_the_doubles(self):
        # Sigma_n needs Gamma((n+1)/2), which overflows a double above n = 342
        assert make_context(342).sigma_n > 0.0
        for n in (343, 10 ** 400):
            with pytest.raises(SphereDomainError, match="too large"):
                make_context(n)

    @pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), np.float64("inf"), None, "3",
                                   True, Fraction(10**400)])
    def test_rejects_a_dimension_that_is_not_an_integer(self, n):
        with pytest.raises(SphereDomainError, match="must be an integer >= 2"):
            make_context(n)

    @pytest.mark.parametrize("n", [3, np.int64(3), 3.0, np.float64(3.0), np.float32(3.0)])
    def test_integral_dimension_stored_as_an_int(self, n):
        ctx = make_context(n)
        assert ctx == make_context(3) and type(ctx.n) is int

    @pytest.mark.parametrize("field", ["lam", "sigma_n"])
    def test_derived_constants_cannot_be_passed(self, field):
        # lam and sigma_n follow from n: a context cannot disagree with it
        with pytest.raises(TypeError):
            SphereContext(3, **{field: 1.0})

    def test_make_context_is_the_record(self):
        assert make_context is SphereContext
        assert SphereContext(7).lam == 3.0


class TestGegenbauer:
    def test_negative_top_degree_refused(self):
        with pytest.raises(SphereDomainError, match="degree l must be >= 0, got -1"):
            gegenbauer_matrix(make_context(3), -1, np.array([0.2]))

    def test_degree_zero(self):
        assert gegenbauer(make_context(2), 0, 0.3) == 1.0

    def test_legendre_value(self):
        # C_2^{1/2}(1/2) = (3 t^2 - 1)/2 = -1/8; exact-rational oracle
        assert gegenbauer_fraction(Fraction(1, 2), 2, Fraction(1, 2)) == Fraction(-1, 8)
        assert_allclose(gegenbauer(make_context(2), 2, 0.5), -0.125, rtol=1e-14)

    def test_high_degree_against_rational_oracle(self):
        # lam = 3/2 (n = 4), l = 5, t = 9/10
        exact = float(gegenbauer_fraction(Fraction(3, 2), 5, Fraction(9, 10)))
        assert_allclose(gegenbauer(make_context(4), 5, 0.9), exact, rtol=1e-12)

    @pytest.mark.parametrize("n,l", [(2, 37), (3, 50), (5, 24), (8, 61)])
    def test_random_degrees_against_rational_oracle(self, n, l):
        t = Fraction(-13, 32)
        exact = float(gegenbauer_fraction(Fraction(n - 1, 2), l, t))
        assert_allclose(gegenbauer(make_context(n), l, float(t)), exact, rtol=1e-11)

    def test_domain_errors(self):
        ctx = make_context(3)
        with pytest.raises(SphereDomainError):
            gegenbauer(ctx, -1, 0.0)
        with pytest.raises(SphereDomainError):
            gegenbauer(ctx, 3, 1.5)

    def test_roundoff_clamp(self):
        ctx = make_context(3)
        assert gegenbauer(ctx, 4, 1.0 + 5e-13) == gegenbauer(ctx, 4, 1.0)


class TestBatch:
    def test_matches_singles_bitwise(self):
        ctx = make_context(5)
        batch = gegenbauer_batch(ctx, 40, 0.73)
        for l in range(41):
            assert batch[l] == gegenbauer(ctx, l, 0.73)

    def test_example_values(self):
        ctx = make_context(2)
        assert_allclose(gegenbauer_batch(ctx, 2, 0.5), [1.0, 0.5, -0.125], rtol=1e-14)

    def test_l_max_zero(self):
        assert gegenbauer_batch(make_context(7), 0, -0.2).tolist() == [1.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_at_one_binomial_identity(self, n):
        # C_l(1) = binom(l + 2 lam - 1, l)
        ctx = make_context(n)
        batch = gegenbauer_batch(ctx, 10, 1.0)
        lam = Fraction(n - 1, 2)
        for l in range(11):
            expected = Fraction(1)
            for i in range(l):
                expected = expected * (l + 2 * lam - 1 - i) / (l - i)
            assert_allclose(batch[l], float(expected), rtol=1e-13)
        assert_allclose(gegenbauer_at_one(ctx, 10), batch, rtol=1e-13)

    def test_matrix_matches_batch(self):
        ctx = make_context(4)
        ts = np.array([-0.9, 0.1, 0.77])
        mat = gegenbauer_matrix(ctx, 25, ts)
        for j, t in enumerate(ts):
            assert np.array_equal(mat[:, j], gegenbauer_batch(ctx, 25, t))

    def test_rows_match_the_plain_recurrence_bitwise(self):
        # the recurrence written over the rows of a matrix, as it stood
        # before analysis streamed the rows: matrix and rows equal it bit
        # for bit
        ctx = make_context(7)
        ts = np.linspace(-1.0, 1.0, 41)
        lam = ctx.lam
        want = [np.ones_like(ts), 2.0 * lam * ts]
        for l in range(2, 61):
            want.append((2.0 * (l + lam - 1.0) * ts * want[-1]
                         - (l + 2.0 * lam - 2.0) * want[-2]) / l)
        assert np.array_equal(gegenbauer_matrix(ctx, 60, ts), np.array(want))
        rows = list(gegenbauer_rows(ctx, 60, ts))
        assert len(rows) == 61 and all(np.array_equal(r, w) for r, w in zip(rows, want))


class TestProperties:
    def test_uniform_bound(self):
        # |C_l(t)| <= (n+l-2)^{n-2} for n in 2..10, l in 0..200, 1000 random t
        rng = np.random.default_rng(42)
        ts = rng.uniform(-1.0, 1.0, size=1000)
        for n in range(2, 11):
            ctx = make_context(n)
            mat = np.abs(gegenbauer_matrix(ctx, 200, ts))
            bounds = np.array([gegenbauer_bound(ctx, l) for l in range(201)])
            assert np.all(mat <= bounds[:, None] + 1e-9)

    def test_parity(self):
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, 1.0, size=50)
        for n in (2, 3, 5, 8):
            ctx = make_context(n)
            plus = gegenbauer_matrix(ctx, 30, ts)
            minus = gegenbauer_matrix(ctx, 30, -ts)
            signs = (-1.0) ** np.arange(31)
            assert_allclose(minus, signs[:, None] * plus, rtol=1e-12, atol=1e-12)

    def test_legendre_oracle(self):
        ctx = make_context(2)
        ts = np.linspace(-1, 1, 41)
        mat = gegenbauer_matrix(ctx, 60, ts)
        for l in (0, 1, 2, 7, 25, 60):
            assert_allclose(mat[l], legendre(l, ts), rtol=1e-12, atol=1e-12)

    @given(st.integers(2, 8), st.integers(0, 40),
           st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_bound_property(self, n, l, t):
        ctx = make_context(n)
        assert abs(gegenbauer(ctx, l, t)) <= gegenbauer_bound(ctx, l) + 1e-9


def test_eigenvalue_examples():
    assert eigenvalue(make_context(2), 2) == -6.0
    assert eigenvalue(make_context(5), 3) == -21.0
    assert eigenvalue(make_context(4), 0) == 0.0
