"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import time
from fractions import Fraction

import numpy as np

from spherepde import (
    SolvabilityError,
    SolveRequest,
    ZonalSpectrum,
    check_admissibility,
    green_eval_integral,
    helmholtz_parameter,
    inner,
    laplace_beltrami,
    make_context,
    make_scale_grid,
    norm_l2,
    poisson_kernel,
    poisson_kernel_spectrum,
    poisson_wavelet,
    roundtrip_error,
    solve_helmholtz,
    solve_resonant,
    synthesize,
    verify_solution,
)
from spherepde import closedform as cf
from spherepde import green_tables
from spherepde.geometry import gegenbauer_bound
from spherepde.green import green_series_batch
from spherepde.spectra import convolve, degree_norms

import oracles


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. table reproduction across the three backends
# ---------------------------------------------------------------------------

def test_criterion_1_table_reproduction():
    start = time.time()
    ts = np.linspace(-0.95, 0.95, 20)
    worst_series = 0.0
    worst_integral = 0.0
    for row in green_tables.rows_for():
        ctx = make_context(row.n)
        param = helmholtz_parameter(ctx, float(row.a))
        closed = np.array([row.eval(t) for t in ts])
        scale = 1.0 + np.abs(closed)
        series, _tails = green_series_batch(param, ts)
        worst_series = max(worst_series, np.max(np.abs(series - closed) / scale))
        integral = np.array([green_eval_integral(param, t) for t in ts])
        worst_integral = max(worst_integral, np.max(np.abs(integral - closed) / scale))
    elapsed = time.time() - start
    ok = worst_series <= 1e-4 and worst_integral <= 1e-6 and elapsed < 300.0
    _report(1, ok,
            f"66 rows x 20 points: closed-vs-series {worst_series:.2e} <= 1e-4, "
            f"closed-vs-integral {worst_integral:.2e} <= 1e-6, {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 2. assembled Poisson closed form on S^2
# ---------------------------------------------------------------------------

def test_criterion_2_assembled_expression():
    form = cf.derive_green_closed_form(2, 0)
    row = green_tables.lookup_by_root(2, 0)
    ts = np.linspace(-0.999, 0.999, 100)
    worst = max(abs(form.eval(t) - row.eval(t)) for t in ts)
    # exactly 1 + 1*ln((1-t)/2), with no denominator
    structural = form.terms == (("1", 0, 0, (Fraction(1),)), ("lg", 0, 0, (Fraction(1),)))
    _report(2, worst <= 1e-12 and structural,
            f"expression '{form.text()}', max |diff| {worst:.2e} <= 1e-12 "
            f"at 100 points")


# ---------------------------------------------------------------------------
# 3. solver correctness, including the resonant contract
# ---------------------------------------------------------------------------

def test_criterion_3_solver_property():
    rng = np.random.default_rng(314159)
    worst = 0.0
    solves = 0
    for n in (2, 3, 4, 5, 6):
        ctx = make_context(n)
        h = degree_norms(ctx, 32)
        done = 0
        while done < 25:
            a = float(rng.uniform(-10.0, 50.0))
            param = helmholtz_parameter(ctx, a)
            if param.resonant:
                continue
            f = ZonalSpectrum(ctx, rng.standard_normal(33))
            rep = solve_helmholtz(SolveRequest(param=param, f=f))
            res = verify_solution(param, rep.u, f)
            wres = np.sqrt(float(np.sum(np.abs(res.residual) ** 2
                                        * h[res.degrees])))
            worst = max(worst, wres / norm_l2(f))
            done += 1
            solves += 1
    resonant_ok = True
    for n in (2, 3, 4, 5, 6):
        ctx = make_context(n)
        for L in range(0, 5):
            param = helmholtz_parameter(ctx, float(L * (n + L - 1)))
            coeffs = rng.standard_normal(12)
            coeffs[L] = 0.0
            f = ZonalSpectrum(ctx, coeffs)
            req = SolveRequest(param=param, f=f)
            rep = solve_resonant(req) if L >= 1 else solve_helmholtz(req)
            res = verify_solution(param, rep.u, f)
            resonant_ok &= res.norm <= 1e-10 * np.linalg.norm(coeffs)
            resonant_ok &= rep.u.coeffs[L] == 0.0
            coeffs[L] = 1.0
            try:
                bad = SolveRequest(param=param, f=ZonalSpectrum(ctx, coeffs))
                solve_resonant(bad) if L >= 1 else solve_helmholtz(bad)
                resonant_ok = False
            except SolvabilityError:
                pass
    _report(3, worst <= 1e-10 and resonant_ok,
            f"{solves} random solves, worst residual/||f|| = {worst:.2e} <= 1e-10; "
            f"resonant solvability contract {'OK' if resonant_ok else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# 4. Poisson wavelet admissibility
# ---------------------------------------------------------------------------

def test_criterion_4_admissibility():
    worst = 0.0
    zero_ok = True
    for n in range(2, 9):
        ctx = make_context(n)
        for d in (1, 2, 3):
            w = poisson_wavelet(ctx, d)
            rep = check_admissibility(w, w, 32, make_scale_grid(1e-8, 60.0, 800))
            worst = max(worst, rep.max_rel_deviation())
            zero_ok &= rep.integral[0] == 0.0
    _report(4, worst <= 1e-6 and zero_ok,
            f"d in 1..3, n in 2..8, l <= 32: worst relative deviation "
            f"{worst:.2e} <= 1e-6; l=0 integrals exactly 0: {zero_ok}")


# ---------------------------------------------------------------------------
# 5. wavelet inversion on the reference grid, with monotone refinement
# ---------------------------------------------------------------------------

def test_criterion_5_roundtrip():
    rng = np.random.default_rng(2718)
    worst = 0.0
    monotone = True
    grids = [make_scale_grid(1e-3, 20.0, 100),
             make_scale_grid(1e-4, 50.0, 400),          # reference grid
             make_scale_grid(1e-5, 100.0, 1600)]
    for n in (2, 3, 5):
        ctx = make_context(n)
        psi = poisson_wavelet(ctx, 1)
        coeffs = rng.standard_normal(33)
        coeffs[0] = 0.0
        f = ZonalSpectrum(ctx, coeffs)
        errs = [roundtrip_error(psi, psi, f, g) for g in grids]
        worst = max(worst, errs[1])
        monotone &= errs[0] > errs[1] > errs[2]
    _report(5, worst <= 1e-3 and monotone,
            f"reference-grid round-trip error {worst:.2e} <= 1e-3; "
            f"monotone improvement under refinement: {monotone}")


# ---------------------------------------------------------------------------
# 6. Poisson kernel identity with bound-driven truncation
# ---------------------------------------------------------------------------

def _poisson_cut(ctx, r, tol=1e-12):
    """Truncation from the geometric tail bound (lam+l)/lam (n+l-2)^{n-2} r^l."""
    lam, n = ctx.lam, ctx.n
    q = (1.0 + r) / 2.0
    l = 8
    while True:
        term = (lam + l) / lam * gegenbauer_bound(ctx, l) * r ** l
        if term / (1.0 - q) < tol or l > 200000:
            return l
        l = int(l * 1.5) + 4

def test_criterion_6_poisson_kernel():
    worst = 0.0
    ts = np.linspace(-1.0, 1.0, 50)
    for n in range(2, 9):
        ctx = make_context(n)
        for r in (0.3, 0.5, 0.7, 0.9):
            l_cut = _poisson_cut(ctx, r)
            spec = poisson_kernel_spectrum(ctx, r, l_cut)
            series = synthesize(spec, ts)
            closed = poisson_kernel(ctx, r, ts)
            worst = max(worst, np.max(np.abs(series - closed)
                                      / (1.0 + np.abs(closed))))
    _report(6, worst <= 1e-10,
            f"n in 2..8, r in {{0.3,0.5,0.7,0.9}}, 50 samples: worst relative "
            f"deviation {worst:.2e} <= 1e-10 (truncation from the uniform bound)")


# ---------------------------------------------------------------------------
# 7. appendix machinery: derivative/definite checks and table reproduction
# ---------------------------------------------------------------------------

def test_criterion_7_antiderivatives():
    rng = np.random.default_rng(16180)

    def numdiff(f, x, h=1e-6):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    worst_d = 0.0
    worst_q = 0.0
    # derivative checks: 50 randomized instances per family
    for _ in range(50):
        k, J = int(rng.integers(0, 7)), int(rng.integers(0, 4))
        T, V = float(rng.uniform(0.15, 2.0)), float(rng.uniform(-1.3, 1.3))
        got = numdiff(lambda x: cf.shifted_power_integral(k, J, T, x)[0], V)
        want = V ** k / (T + V * V) ** (J + 0.5)
        worst_d = max(worst_d, abs(got - want) / (1.0 + abs(want)))
    for _ in range(50):
        L, J = int(rng.integers(0, 8)), int(rng.integers(0, 4))
        t, V = float(rng.uniform(-0.9, 0.9)), float(rng.uniform(0.05, 1.3))
        got = numdiff(lambda x: cf.kernel_power_integral(L, J, t, x)[0], V)
        want = V ** L / (1 - 2 * t * V + V * V) ** (J + 0.5)
        worst_d = max(worst_d, abs(got - want) / (1.0 + abs(want)))
    for _ in range(50):
        k = int(rng.integers(0, 9))
        t, V = float(rng.uniform(-0.9, 0.9)), float(rng.uniform(0.05, 1.3))
        got = numdiff(lambda x: cf.kernel_log_integral(k, t, x)[0], V)
        want = V ** k * np.log(1 - t * V + np.sqrt(1 - 2 * t * V + V * V))
        worst_d = max(worst_d, abs(got - want) / (1.0 + abs(want)))
    for _ in range(50):
        lam = Fraction(int(rng.integers(1, 6)) * 2 - 1, 2)
        t, r = float(rng.uniform(-0.9, 0.9)), float(rng.uniform(0.08, 0.95))
        expr = cf.zonal_kernel_radial_antiderivative(lam)
        got = numdiff(lambda x: cf.expr_eval(expr, t, x), r)
        u = 1 - 2 * t * r + r * r
        want = (1 - r * r) / (r * u ** (float(lam) + 1)) - 1 / r
        worst_d = max(worst_d, abs(got - want) / (1.0 + abs(want)))
    # definite integrals against adaptive quadrature
    for _ in range(50):
        L, J = int(rng.integers(0, 6)), int(rng.integers(0, 3))
        t = float(rng.uniform(-0.85, 0.85))
        a, b = sorted(rng.uniform(0.05, 1.2, size=2))
        quad = oracles.adaptive_quad(
            lambda R: R ** L / (1 - 2 * t * R + R * R) ** (J + 0.5), a, b)
        got = (cf.kernel_power_integral(L, J, t, b)[0]
               - cf.kernel_power_integral(L, J, t, a)[0])
        worst_q = max(worst_q, abs(got - quad))
    for _ in range(50):
        k = int(rng.integers(0, 7))
        t = float(rng.uniform(-0.85, 0.85))
        a, b = sorted(rng.uniform(0.05, 1.2, size=2))
        quad = oracles.adaptive_quad(
            lambda R: R ** k * np.log(1 - t * R + np.sqrt(1 - 2 * t * R + R * R)),
            a, b)
        got = (cf.kernel_log_integral(k, t, b)[0]
               - cf.kernel_log_integral(k, t, a)[0])
        worst_q = max(worst_q, abs(got - quad))
    # recurrence tables reproduced by the independent naive path
    tables_ok = True
    for lam in (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)):
        tables_ok &= (cf.radial_split_polynomials(lam)
                      == oracles.naive_split_polynomials(lam))
    for J in range(0, 4):
        for kappa in range(J, J + 4):
            tab = cf.shifted_polynomial_coefficients(kappa, J)
            tables_ok &= tab["lead"] == oracles.naive_shifted_lead(kappa, J)
            tables_ok &= tab["poly"] == oracles.naive_shifted_poly(kappa, J)
    for k in range(1, 9):
        tables_ok &= (cf.log_coefficient_polynomials(k)
                      == oracles.naive_log_pi(k))
    # and the assembler agrees with the registry on every shared row
    worst_a = 0.0
    for n in (2, 4, 6, 8, 10):
        for L in range(-4, 5):
            if 2 * L <= -(n - 1) or green_tables.lookup_by_root(n, L) is None:
                continue
            form = cf.derive_green_closed_form(n, L)
            row = green_tables.lookup_by_root(n, L)
            for t in np.linspace(-0.95, 0.95, 11):
                ref = row.eval(t)
                worst_a = max(worst_a, abs(form.eval(t) - ref) / (1.0 + abs(ref)))
    ok = worst_d <= 1e-6 and worst_q <= 1e-9 and tables_ok and worst_a <= 1e-10
    _report(7, ok,
            f"derivative checks {worst_d:.2e} <= 1e-6, definite-integral checks "
            f"{worst_q:.2e} <= 1e-9, naive-table equality {tables_ok}, "
            f"assembly vs registry {worst_a:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# 8. spectral identities: self-adjointness and the convolution theorem
# ---------------------------------------------------------------------------

def test_criterion_8_spectral_identities():
    rng = np.random.default_rng(27182818)
    worst_sa = 0.0
    worst_conv = 0.0
    for n in (2, 3, 4, 6):
        ctx = make_context(n)
        decay = 1.0 / (1.0 + np.arange(33.0)) ** 2
        f = ZonalSpectrum(ctx, rng.standard_normal(33) * decay)
        g = ZonalSpectrum(ctx, rng.standard_normal(33) * decay)
        lhs = inner(laplace_beltrami(f), g)
        rhs = inner(f, laplace_beltrami(g))
        worst_sa = max(worst_sa, abs(lhs - rhs) / (1.0 + abs(lhs)))
        spec = convolve(f, g)
        for t in (-0.8, -0.2, 0.4, 0.9):
            direct = oracles.zonal_convolution_quadrature(
                n, lambda x: synthesize(f, x), lambda x: synthesize(g, x), t,
                m_theta=80, m_gamma=80)
            worst_conv = max(worst_conv, abs(direct - synthesize(spec, t)))
    ok = worst_sa <= 1e-8 and worst_conv <= 1e-8
    _report(8, ok,
            f"self-adjointness {worst_sa:.2e} <= 1e-8, convolution theorem vs "
            f"direct sphere quadrature {worst_conv:.2e} <= 1e-8")
