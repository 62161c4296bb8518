"""Spectral Helmholtz/Poisson solves, resonant handling, residual checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherepde import (
    GeneralSpectrum,
    ResonanceError,
    SolvabilityError,
    SolveRequest,
    ZonalSpectrum,
    analyze,
    helmholtz_parameter,
    make_context,
    solve_helmholtz,
    solve_resonant,
    synthesize,
    verify_solution,
)
from spherepde import green_tables
from spherepde.spectra import default_rule

from oracles import zonal_convolution_quadrature


def _delta(ctx, l, l_max=None, value=1.0):
    coeffs = np.zeros((l_max or l) + 1)
    coeffs[l] = value
    return ZonalSpectrum(ctx, coeffs)


class TestSolve:
    def test_poisson_single_mode(self):
        ctx = make_context(2)
        req = SolveRequest(param=helmholtz_parameter(ctx, 0.0), f=_delta(ctx, 2))
        rep = solve_helmholtz(req)
        assert rep.u.coeffs[2] == pytest.approx(-1.0 / 6.0)
        assert rep.residual_norm <= 1e-14

    def test_zero_rhs(self):
        ctx = make_context(4)
        req = SolveRequest(param=helmholtz_parameter(ctx, 5.5),
                           f=ZonalSpectrum(ctx, np.zeros(6)))
        rep = solve_helmholtz(req)
        assert np.all(rep.u.coeffs == 0.0)

    def test_mean_component(self):
        ctx = make_context(3)
        req = SolveRequest(param=helmholtz_parameter(ctx, -0.75), f=_delta(ctx, 0))
        rep = solve_helmholtz(req)
        assert rep.u.coeffs[0] == pytest.approx(-4.0 / 3.0)

    def test_poisson_requires_zero_mean(self):
        ctx = make_context(2)
        req = SolveRequest(param=helmholtz_parameter(ctx, 0.0),
                           f=ZonalSpectrum(ctx, [1.0, 1.0]))
        with pytest.raises(SolvabilityError):
            solve_helmholtz(req)

    def test_resonant_redirect(self):
        ctx = make_context(2)
        req = SolveRequest(param=helmholtz_parameter(ctx, 2.0),
                           f=_delta(ctx, 2))
        with pytest.raises(ResonanceError):
            solve_helmholtz(req)

    def test_general_spectrum(self):
        ctx = make_context(3)
        f = GeneralSpectrum(ctx, {(2, "k1"): 1.0, (2, "k2"): 1j, (0, "k0"): 2.0})
        rep = solve_helmholtz(SolveRequest(param=helmholtz_parameter(ctx, 1.0), f=f))
        # gap at l=2: 1 - 8 = -7; at l=0: 1
        assert rep.u.entries[(2, "k1")] == pytest.approx(-1.0 / 7.0)
        assert rep.u.entries[(2, "k2")] == pytest.approx(-1j / 7.0)
        assert rep.u.entries[(0, "k0")] == pytest.approx(2.0)
        assert rep.residual_norm <= 1e-14

    @pytest.mark.parametrize("a", [0.0, 3.0, 7.3])
    def test_zonal_and_general_agree(self, a):
        # the same coefficients as a zonal and as a general spectrum
        rng = np.random.default_rng(11)
        ctx = make_context(3)
        p = helmholtz_parameter(ctx, a)
        coeffs = rng.standard_normal(12)
        if p.resonant:
            coeffs[p.L_res] = 0.0
        solve = solve_resonant if p.resonant and p.L_res >= 1 else solve_helmholtz
        zonal = solve(SolveRequest(param=p, f=ZonalSpectrum(ctx, coeffs))).u
        general = solve(SolveRequest(param=p, f=GeneralSpectrum(
            ctx, {(l, "m0"): float(v) for l, v in enumerate(coeffs)}))).u
        assert [general.entries[(l, "m0")] for l in range(12)] == list(zonal.coeffs)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        ctx = make_context(5)
        p = helmholtz_parameter(ctx, 7.3)
        f = ZonalSpectrum(ctx, rng.standard_normal(12))
        g = ZonalSpectrum(ctx, rng.standard_normal(12))
        lhs = solve_helmholtz(SolveRequest(param=p, f=ZonalSpectrum(
            ctx, 2.0 * f.coeffs + 3.0 * g.coeffs))).u.coeffs
        rhs = (2.0 * solve_helmholtz(SolveRequest(param=p, f=f)).u.coeffs
               + 3.0 * solve_helmholtz(SolveRequest(param=p, f=g)).u.coeffs)
        assert_allclose(lhs, rhs, rtol=5e-15, atol=5e-16)

    def test_backend_tag(self):
        ctx = make_context(3)
        rep = solve_helmholtz(SolveRequest(param=helmholtz_parameter(ctx, -0.75),
                                           f=_delta(ctx, 1)))
        assert rep.green_backend == "closed_form(table4)"

    def test_residual_property_random(self):
        rng = np.random.default_rng(77)
        for n in range(2, 7):
            ctx = make_context(n)
            for _ in range(8):
                a = float(rng.uniform(-10.0, 50.0))
                p = helmholtz_parameter(ctx, a)
                if p.resonant:
                    continue
                f = ZonalSpectrum(ctx, rng.standard_normal(33))
                rep = solve_helmholtz(SolveRequest(param=p, f=f))
                assert rep.residual_norm <= 1e-10 * np.linalg.norm(f.coeffs)


class TestResonant:
    def test_single_mode(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 2.0)
        rep = solve_resonant(SolveRequest(param=p, f=_delta(ctx, 2)))
        assert rep.u.coeffs[2] == pytest.approx(1.0 / (2.0 - 6.0))
        assert rep.u.coeffs[1] == 0.0

    def test_unsolvable(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 2.0)
        with pytest.raises(SolvabilityError):
            solve_resonant(SolveRequest(param=p, f=_delta(ctx, 1, l_max=3)))

    def test_n3_example(self):
        ctx = make_context(3)
        p = helmholtz_parameter(ctx, 3.0)       # L = 1, eigenvalue at l=2 is -8
        rep = solve_resonant(SolveRequest(param=p, f=_delta(ctx, 2)))
        assert rep.u.coeffs[2] == pytest.approx(1.0 / (3.0 - 8.0))
        res = verify_solution(p, rep.u, _delta(ctx, 2))
        assert res.norm <= 1e-14
        assert res.resonant_mass == pytest.approx(0.0)

    def test_wrong_degree_rejected(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 2.0)
        with pytest.raises(ResonanceError):
            solve_resonant(SolveRequest(param=p, f=_delta(ctx, 2)), L_res=2)

    def test_nonresonant_redirect(self):
        ctx = make_context(2)
        with pytest.raises(ResonanceError):
            solve_resonant(SolveRequest(param=helmholtz_parameter(ctx, 2.5),
                                        f=_delta(ctx, 2)))

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_solvability_contract(self, n, L):
        rng = np.random.default_rng(100 * n + L)
        ctx = make_context(n)
        a = L * (n + L - 1)
        p = helmholtz_parameter(ctx, float(a))
        assert p.resonant and p.L_res == L
        coeffs = rng.standard_normal(12)
        coeffs[L] = 0.0
        f = ZonalSpectrum(ctx, coeffs)
        req = SolveRequest(param=p, f=f)
        rep = solve_resonant(req) if L >= 1 else solve_helmholtz(req)
        res = verify_solution(p, rep.u, f)
        assert res.norm <= 1e-10 * np.linalg.norm(coeffs)
        assert rep.u.coeffs[L] == 0.0
        # injecting resonant mass breaks solvability
        coeffs[L] = 0.5
        bad = SolveRequest(param=p, f=ZonalSpectrum(ctx, coeffs))
        with pytest.raises(SolvabilityError):
            solve_resonant(bad) if L >= 1 else solve_helmholtz(bad)


class TestVerify:
    def test_perturbation_scaling(self):
        ctx = make_context(2)
        p = helmholtz_parameter(ctx, 0.0)
        f = _delta(ctx, 2)
        rep = solve_helmholtz(SolveRequest(param=p, f=f))
        u = rep.u.copy()
        u.coeffs[2] += 1e-3
        res = verify_solution(p, u, f)
        # residual at degree 2 is the eigenvalue gap (-6) times the bump
        idx = list(res.degrees).index(2)
        assert abs(res.residual[idx]) == pytest.approx(6e-3, rel=1e-10)

    def test_general_keys_differ(self):
        # u lacks one of f's keys and has one f lacks; each reads 0 where absent
        ctx = make_context(3)
        p = helmholtz_parameter(ctx, 1.0)     # gaps: l=0: 1, l=2: -7
        f = GeneralSpectrum(ctx, {(2, "k1"): 1.0, (2, "k2"): 1j, (0, "k0"): 2.0})
        u = GeneralSpectrum(ctx, {(2, "k1"): -1.0 / 7.0, (0, "k0"): 2.0, (1, "x"): 0.5})
        res = verify_solution(p, u, f)
        got = dict(zip(res.degrees.tolist(), res.residual.tolist()))
        assert sorted(res.degrees.tolist()) == [0, 1, 2, 2]
        assert got[1] == pytest.approx((1.0 - 3.0) * 0.5)
        assert sorted(abs(r) for r in res.residual) == pytest.approx([0.0, 0.0, 1.0, 1.0])
        assert res.norm == pytest.approx(np.sqrt(2.0))

    def test_two_path_consistency(self):
        # spectral solve vs synthesize -> pointwise convolution with the
        # closed-form Green function (quadrature) -> re-analyze
        rng = np.random.default_rng(55)
        for n, a in [(2, 0.0), (3, 3.0), (4, -2.0), (5, -3.0), (3, 1.25)]:
            ctx = make_context(n)
            p = helmholtz_parameter(ctx, float(a))
            coeffs = rng.standard_normal(7)
            if p.resonant:
                coeffs[p.L_res] = 0.0
            f = ZonalSpectrum(ctx, coeffs)
            req = SolveRequest(param=p, f=f)
            rep = solve_resonant(req) if (p.resonant and p.L_res >= 1) \
                else solve_helmholtz(req)

            row = green_tables.lookup(n, a)

            def g_vec(x):
                return row.eval(np.minimum(x, 1 - 1e-13))

            def u_pointwise(alpha):
                return zonal_convolution_quadrature(
                    n, g_vec, lambda x: synthesize(f, x), float(alpha),
                    m_theta=3000, m_gamma=24)

            rule = default_rule(ctx, 6, margin=16)
            got = analyze(ctx, np.vectorize(u_pointwise), 6, rule=rule)
            want = rep.u.padded(6)
            assert_allclose(got.coeffs, want, atol=2e-6, rtol=2e-6)
