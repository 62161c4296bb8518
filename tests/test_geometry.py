"""Sphere context and Gegenbauer evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spherepde import SphereContext, SphereDomainError, make_context
from spherepde.geometry import (
    eigenvalue,
    gegenbauer_at_one,
    gegenbauer_bound,
    gegenbauer_rows,
    gegenbauer_sums,
)

from oracles import (
    fixed_dot,
    gegenbauer_fixed,
    gegenbauer_fraction,
    gegenbauer_mp,
    legendre,
    surface_measure_mp,
)

EPS = np.finfo(float).eps


def _matrix(ctx, l_max, t):
    """C[l, j] = C_l^lambda(t_j): the streamed rows, stacked."""
    return np.array(list(gegenbauer_rows(ctx, l_max, t)))


def _value(ctx, l, t):
    """C_l^lambda(t) for one degree at one point."""
    return float(_matrix(ctx, l, t)[l, 0])


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
            _matrix(make_context(3), -1, np.array([0.2]))

    def test_degree_zero(self):
        assert _value(make_context(2), 0, 0.3) == 1.0

    def test_legendre_value(self):
        # C_2^{1/2}(1/2) = (3 t^2 - 1)/2 = -1/8; exact-rational oracle
        assert gegenbauer_fraction(Fraction(1, 2), 2, Fraction(1, 2)) == Fraction(-1, 8)
        assert_allclose(_value(make_context(2), 2, 0.5), -0.125, rtol=1e-14)

    def test_high_degree_against_rational_oracle(self):
        # lam = 3/2 (n = 4), l = 5, t = 9/10
        exact = float(gegenbauer_fraction(Fraction(3, 2), 5, Fraction(9, 10)))
        assert_allclose(_value(make_context(4), 5, 0.9), exact, rtol=1e-12)

    @pytest.mark.parametrize("n,l", [(2, 37), (3, 50), (5, 24), (8, 61)])
    def test_random_degrees_against_rational_oracle(self, n, l):
        t = Fraction(-13, 32)
        exact = float(gegenbauer_fraction(Fraction(n - 1, 2), l, t))
        assert_allclose(_value(make_context(n), l, float(t)), exact, rtol=1e-11)

    def test_domain_errors(self):
        ctx = make_context(3)
        with pytest.raises(SphereDomainError):
            _value(ctx, -1, 0.0)
        with pytest.raises(SphereDomainError):
            _value(ctx, 3, 1.5)

    def test_roundoff_clamp(self):
        ctx = make_context(3)
        assert _value(ctx, 4, 1.0 + 5e-13) == _value(ctx, 4, 1.0)


class TestBatch:
    def test_matches_singles_bitwise(self):
        ctx = make_context(5)
        batch = _matrix(ctx, 40, 0.73)[:, 0]
        for l in range(41):
            assert batch[l] == _value(ctx, l, 0.73)

    def test_example_values(self):
        ctx = make_context(2)
        assert_allclose(_matrix(ctx, 2, 0.5)[:, 0], [1.0, 0.5, -0.125], rtol=1e-14)

    def test_l_max_zero(self):
        assert _matrix(make_context(7), 0, -0.2)[:, 0].tolist() == [1.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_at_one_binomial_identity(self, n):
        # C_l(1) = binom(l + 2 lam - 1, l)
        ctx = make_context(n)
        batch = _matrix(ctx, 10, 1.0)[:, 0]
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
        mat = _matrix(ctx, 25, ts)
        for j, t in enumerate(ts):
            assert np.array_equal(mat[:, j], _matrix(ctx, 25, t)[:, 0])

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
        assert np.array_equal(_matrix(ctx, 60, ts), np.array(want))
        rows = list(gegenbauer_rows(ctx, 60, ts))
        assert len(rows) == 61 and all(np.array_equal(r, w) for r, w in zip(rows, want))


SUM_DIMS = (2, 3, 5, 8, 12, 17, 40)
SUM_POINTS = np.array([1.0, -1.0, -0.999, -0.95, 0.0, 0.999])
SUM_DEGREES = (1, 2, 3, 100, 20_000)


def _sum_weights(count):
    """Three rows of weights over count degrees: random signs and sizes,
    a slow 1/(1+l) decay and an alternating geometric decay."""
    l = np.arange(count)
    return np.stack([np.random.default_rng(count).standard_normal(count),
                     1.0 / (1.0 + l), (-0.999) ** l])


class TestSums:
    """gegenbauer_sums against a 256-bit recurrence, in units of eps (|W| @ |C|).

    The blocked recurrence's error reached 15 of these units at |t| <= 0.95,
    125 at t = -0.999 (N = 100) and 0.34 N at t = +-1 (N = 20 000; the
    forward recurrence reached 6.8 N there, at n = 8); the bounds below are
    64 units at |t| <= 0.95 and 2N units everywhere.
    """

    @pytest.mark.parametrize("n", SUM_DIMS)
    def test_oracle_matches_mpmath(self, n):
        for t in SUM_POINTS:
            fixed = gegenbauer_fixed(n, t, 300)
            ref = gegenbauer_mp(n, t, 300)
            for v, r in zip(fixed, ref):
                assert abs(Fraction(v, 1 << 256) - r) <= 1e-30 * max(1, abs(r))

    @pytest.mark.parametrize("n", SUM_DIMS)
    def test_against_the_high_precision_recurrence(self, n):
        ctx = make_context(n)
        fixed = [gegenbauer_fixed(n, t, max(SUM_DEGREES)) for t in SUM_POINTS]
        for count in SUM_DEGREES:
            W = _sum_weights(count)
            total, absolute = gegenbauer_sums(ctx, W, SUM_POINTS)
            assert total.shape == absolute.shape == (3, SUM_POINTS.size)
            for j, t in enumerate(SUM_POINTS):
                C = np.array([v / (1 << 256) for v in fixed[j][:count]])    # rounded once
                size = np.abs(W) @ np.abs(C)
                ref = np.array([fixed_dot(w, fixed[j][:count]) for w in W])
                units = 64 if abs(t) <= 0.95 else 2 * count
                assert np.all(np.abs(total[:, j] - ref) <= units * EPS * size), (n, t, count)
                assert np.all(np.abs(absolute[:, j] - size) <= 2 * count * EPS * size), (n, t, count)

    def test_one_row_of_weights_and_a_float_t(self):
        ctx = make_context(4)
        W = _sum_weights(50)
        total, absolute = gegenbauer_sums(ctx, W[0], 0.3)
        full, full_abs = gegenbauer_sums(ctx, W, np.array([0.3]))
        assert total.shape == absolute.shape == (1,)
        assert total[0] == full[0, 0] and absolute[0] == full_abs[0, 0]
        C = _matrix(ctx, 49, np.array([0.3]))
        assert_allclose(total, W[0] @ C, rtol=1e-13)

    def test_needs_a_degree_and_clamps_t(self):
        ctx = make_context(3)
        with pytest.raises(SphereDomainError, match="at least degree 0"):
            gegenbauer_sums(ctx, np.zeros((2, 0)), np.array([0.3]))
        with pytest.raises(SphereDomainError):
            gegenbauer_sums(ctx, np.ones(5), np.array([1.5]))
        assert np.array_equal(gegenbauer_sums(ctx, np.ones(5), 1.0 + 5e-13)[0],
                              gegenbauer_sums(ctx, np.ones(5), 1.0)[0])


class TestProperties:
    def test_uniform_bound(self):
        # |C_l(t)| <= (n+l-2)^{n-2} for n in 2..10, l in 0..200, 1000 random t
        rng = np.random.default_rng(42)
        ts = rng.uniform(-1.0, 1.0, size=1000)
        for n in range(2, 11):
            ctx = make_context(n)
            mat = np.abs(_matrix(ctx, 200, ts))
            bounds = np.array([gegenbauer_bound(ctx, l) for l in range(201)])
            assert np.all(mat <= bounds[:, None] + 1e-9)

    def test_parity(self):
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, 1.0, size=50)
        for n in (2, 3, 5, 8):
            ctx = make_context(n)
            plus = _matrix(ctx, 30, ts)
            minus = _matrix(ctx, 30, -ts)
            signs = (-1.0) ** np.arange(31)
            assert_allclose(minus, signs[:, None] * plus, rtol=1e-12, atol=1e-12)

    def test_legendre_oracle(self):
        ctx = make_context(2)
        ts = np.linspace(-1, 1, 41)
        mat = _matrix(ctx, 60, ts)
        for l in (0, 1, 2, 7, 25, 60):
            assert_allclose(mat[l], legendre(l, ts), rtol=1e-12, atol=1e-12)

    @given(st.integers(2, 8), st.integers(0, 40),
           st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_bound_property(self, n, l, t):
        ctx = make_context(n)
        assert abs(_value(ctx, l, t)) <= gegenbauer_bound(ctx, l) + 1e-9


def test_eigenvalue_examples():
    assert eigenvalue(make_context(2), 2) == -6.0
    assert eigenvalue(make_context(5), 3) == -21.0
    assert eigenvalue(make_context(4), 0) == 0.0
