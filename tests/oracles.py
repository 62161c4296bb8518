"""Independent oracles used to derive expected values in the tests.

Everything here deliberately avoids the library's own evaluation paths:
exact Fraction recurrences, mpmath high-precision arithmetic, and scipy
adaptive quadrature serve as the second route for each checked identity.
"""

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import eval_gegenbauer, eval_legendre, roots_jacobi


def gegenbauer_fraction(lam, l, t):
    """Exact-rational forward recurrence for C_l^lam(t), lam and t rational."""
    lam = Fraction(lam)
    t = Fraction(t)
    prev2 = Fraction(1)
    if l == 0:
        return prev2
    prev1 = 2 * lam * t
    for m in range(2, l + 1):
        cur = (2 * (m + lam - 1) * t * prev1 - (m + 2 * lam - 2) * prev2) / m
        prev2, prev1 = prev1, cur
    return prev1 if l >= 1 else prev2


def gegenbauer_fixed(n, t, count, bits=256):
    """[C_l^lambda(t) 2^bits for l < count] on S^n, lambda = (n-1)/2, as ints.

    The forward recurrence l C_l = (2l + n - 3) t C_{l-1} - (l + n - 3) C_{l-2}
    has integer coefficients and a double t is a dyadic rational, so each
    step is exact in integers but for two floor divisions, each off by less
    than 2^-bits: a high-precision recurrence (checked against mpmath's in
    tests/test_geometry.py) that runs 20 000 degrees in ~10 ms, where
    mpmath's own takes ~0.15 s.
    """
    num, den = float(t).as_integer_ratio()
    shift = den.bit_length() - 1
    prev, cur = 0, 1 << bits
    out = [cur]
    for l in range(1, count):
        prev, cur = cur, ((2 * l + n - 3) * ((num * cur) >> shift) - (l + n - 3) * prev) // l
        out.append(cur)
    return out


def gegenbauer_mp(n, t, count, dps=40):
    """[C_l^lambda(t) for l < count] on S^n by the forward recurrence at dps
    digits, each value as the exact Fraction of its mpf."""
    with mp.workdps(dps):
        t = mp.mpf(float(t))
        prev, cur = mp.mpf(0), mp.mpf(1)
        out = [cur]
        for l in range(1, count):
            prev, cur = cur, ((2 * l + n - 3) * t * cur - (l + n - 3) * prev) / l
            out.append(cur)
    return [Fraction(int(mp.sign(v)) * int(v.man)) * Fraction(2) ** int(v.exp) for v in out]


def fixed_dot(weights, fixed, bits=256):
    """sum_l w_l v_l 2^-bits for doubles w and the ints v of gegenbauer_fixed,
    exact and then rounded once to a double."""
    ratios = [float(w).as_integer_ratio() for w in weights]
    den = max(d for _n, d in ratios)
    total = sum(num * (den // d) * v for (num, d), v in zip(ratios, fixed))
    return float(Fraction(total, den << bits))


def surface_measure_mp(n, dps=50):
    """Sigma_n via mpmath Gamma at high precision."""
    with mp.workdps(dps):
        return float(2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2))


def legendre(l, t):
    return eval_legendre(l, t)


def adaptive_quad(f, a, b, **kw):
    val, _err = integrate.quad(f, a, b, limit=400, **kw)
    return val


@lru_cache(maxsize=None)
def gauss_weight_rule(mu, m):
    """Gauss rule for (1-t^2)^{mu-1/2} on [-1,1] straight from scipy Jacobi.

    Memoised: the convolution oracle asks for the same few rules at every
    evaluation point, and a 3000-node rule costs ~0.2 s to build.
    """
    x, w = roots_jacobi(m, mu - 0.5, mu - 0.5)
    x.flags.writeable = w.flags.writeable = False     # shared by every caller
    return x, w


def zonal_convolution_quadrature(n, f, g, alpha_t, m_theta=200, m_gamma=200):
    """(f * g)(alpha_t) by direct tensor quadrature of the sphere integral.

    f, g: callables of t = cos(angle), g zonal kernel sampled at the polar
    angle of the integration variable.  Uses the two-step zonal reduction

        (f*g)(cos a) = (Sigma_{n-2}/Sigma_n) *
            int int f(cos th) g(cos a cos th + sin a sin th cos ga)
                    sin^{n-1} th  sin^{n-2} ga  d th d ga,

    with Gauss rules absorbing both sine weights; exact for band-limited
    f, g once the rules are large enough.
    """
    x1, w1 = gauss_weight_rule((n - 1) / 2.0, m_theta)        # cos theta
    x2, w2 = gauss_weight_rule((n - 2) / 2.0, m_gamma)        # cos gamma
    sa = np.sqrt(max(0.0, 1.0 - alpha_t * alpha_t))
    st = np.sqrt(np.clip(1.0 - x1 * x1, 0.0, None))
    inner_arg = (alpha_t * x1)[:, None] + (sa * st)[:, None] * x2[None, :]
    flat = np.clip(inner_arg, -1.0, 1.0).ravel()
    gv = np.asarray(g(flat)).reshape(inner_arg.shape)
    inner = gv @ w2
    total = np.sum(w1 * f(x1) * inner)
    return total * surface_measure_mp(n - 2) / surface_measure_mp(n)


def zonal_kernel_convolution(n, kernel, f, alpha_t, m_theta=4000, m_gamma=None,
                             f_l_max=None):
    """(kernel * f)(alpha_t) with the kernel sampled at its own polar angle.

    Useful when the kernel is singular on the diagonal: the singular
    factor stays one-dimensional in cos(theta).
    """
    if m_gamma is None:
        m_gamma = 80
    return zonal_convolution_quadrature(n, kernel, f, alpha_t, m_theta, m_gamma)


def green_integral_mp(n, a, t, dps=40):
    """G(t) for Delta* + a on S^n from its radial integral representation, at dps digits.

    The representation of the library's integral backend (green module
    docstring), by an independent route in mpmath:

        G(t) = -int_0^1 S(r) w(r) dr + sum_{l<=M'} G-hat(l) C_l(t).

    For a < -(n-1)^2/4 the roots are -lambda +- i beta, M = -1 and the
    weight is the real -r^{(n-3)/2} sin(beta ln r)/beta; its moments are
    -Im(x^{q + i beta}/(q + i beta))/beta with q = l + lambda, and the
    quadrature above r0 splits at the zeros r = e^{-j pi/beta} of the sine.

    Below r0 = 1/(8 (lambda+1)) the tail series S = sum_{l>M} c_l r^l is
    integrated term by term with exact moments, summed until a term falls
    below 10^-(dps+5) of the sum.  Above r0, tanh-sinh quadrature of the
    closed kernel minus its partial sum, split at 1/2 and at t.  Near r = 0
    that difference cancels to nothing at any working precision (at a
    resonant a it loses every digit by r ~ 1e-30), hence the series there;
    at r0 it still cancels to ~r0^(M+1) of the kernel, so the working
    precision carries that many more digits.
    """
    complex_roots = (n - 1) ** 2 + 4 * Fraction(a) < 0
    with mp.workdps(dps + 10):
        if complex_roots:
            M = corr_top = -1
        else:
            L = (-(n - 1) + mp.sqrt((n - 1) ** 2 + 4 * mp.mpf(a))) / 2
            M = int(mp.floor(L + mp.mpf(10) ** -(dps // 2)))
            resonant = abs(L - M) < mp.mpf(10) ** -(dps // 2)
            M = max(M, -1)
            corr_top = M - 1 if resonant else M
    with mp.workdps(dps + 10 + int((M + 1) * math.log10(4 * (n + 1)))):
        n, a, t = mp.mpf(n), mp.mpf(a), mp.mpf(t)
        lam = (n - 1) / 2
        if complex_roots:
            beta = mp.sqrt(-(n - 1) ** 2 - 4 * a) / 2
        else:
            L = (-(n - 1) + mp.sqrt((n - 1) ** 2 + 4 * a)) / 2
            k = n + 2 * L - 1

        def gegenbauer():
            prev, cur, l = mp.mpf(0), mp.mpf(1), 0
            while True:
                yield l, cur
                prev, cur, l = cur, (2 * (l + lam) * t * cur - (l + 2 * lam - 1) * prev) / (l + 1), l + 1

        def weight(r):
            if complex_roots:
                return -r ** ((n - 3) / 2) * mp.sin(beta * mp.log(r)) / beta
            return -mp.log(r) * r ** ((n - 3) / 2) if k == 0 else (r ** (-L - 1) - r ** (n + L - 2)) / k

        def moment(l, x):     # int_0^x r^l w(r) dr
            if complex_roots:
                q = mp.mpc(l + lam, beta)
                return -mp.im(mp.exp(q * mp.log(x)) / q) / beta
            p = l - L
            if k == 0:
                return -x ** p * (mp.log(x) / p - 1 / p ** 2)
            return (x ** p / p - x ** (p + k) / (p + k)) / k

        r0 = 1 / (8 * (lam + 1))
        low, corr, sizes, tail = [], mp.mpf(0), [], mp.mpf(0)
        for l, C in gegenbauer():
            c = (lam + l) / lam * C
            if l <= M:
                low.append(c)
                if l <= corr_top:
                    corr += c / (a - l * (n + l - 1))
                continue
            term = c * moment(l, r0)
            tail += term
            sizes.append(abs(term))
            if len(sizes) > 4 and max(sizes[-3:]) < mp.mpf(10) ** -(dps + 5) * abs(tail):
                break

        def integrand(r):
            kernel = (1 - r * r) / (1 - 2 * r * t + r * r) ** ((n + 1) / 2)
            return (kernel - sum(c * r ** l for l, c in enumerate(low))) * weight(r)

        split = {r0, mp.mpf(1) / 2, *([t] if r0 < t < 1 else []), mp.mpf(1)}
        if complex_roots:
            split |= {mp.exp(-j * mp.pi / beta) for j in range(1, int(-mp.log(r0) * beta / mp.pi) + 1)}
        split = sorted(split)
        body = mp.quad(integrand, split)
        return -(tail + body) + corr


def green_integral_quad(n, a, t):
    """green_integral_mp's representation in double precision, by adaptive_quad.

    The tail series (sixty terms past M, C_l from scipy) below
    r0 = 1/(8 (lambda+1)) and the closed kernel minus its partial sum
    above it, split at 1/2 and at t, each through adaptive Gauss-Kronrod
    to a tight target.  The r^{-L-1} weight meets the tail's first power
    r^{M+1} as an integrable r^{M-L} at r = 0, which QAGS extrapolates.
    """
    lam = (n - 1) / 2.0
    L = (-(n - 1) + np.sqrt((n - 1) ** 2 + 4.0 * a)) / 2.0
    k = n + 2.0 * L - 1.0
    M = max(int(np.floor(L + 1e-9)), -1)
    corr_top = M - 1 if abs(L - round(L)) <= 1e-9 else M
    ls = np.arange(M + 61)
    c = (lam + ls) / lam * eval_gegenbauer(ls, lam, t)

    def weight(r):
        return -np.log(r) * r ** ((n - 3) / 2.0) if k == 0 else (r ** (-L - 1) - r ** (n + L - 2)) / k

    def low(r):
        return (r ** ls[M + 1:]) @ c[M + 1:] * weight(r)

    def high(r):
        kernel = (1 - r * r) / (1 - 2 * r * t + r * r) ** ((n + 1) / 2.0)
        return (kernel - (r ** ls[:M + 1]) @ c[:M + 1]) * weight(r)

    r0 = 1.0 / (8.0 * (lam + 1.0))
    split = sorted({r0, 0.5, *([t] if r0 < t < 1 else []), 1.0})
    tight = {"epsabs": 1e-14, "epsrel": 1e-12}
    body = adaptive_quad(low, 0.0, r0, **tight)
    body += sum(adaptive_quad(high, lo, hi, **tight) for lo, hi in zip(split, split[1:]))
    corr = sum(c[l] / (a - l * (n + l - 1)) for l in range(corr_top + 1))
    return corr - body


# exact Gauss-Gegenbauer moments for the quadrature tests
def weight_moment_mp(mu, m, dps=50):
    """int_{-1}^{1} t^m (1-t^2)^{mu-1/2} dt at high precision."""
    if m % 2 == 1:
        return 0.0
    with mp.workdps(dps):
        val = mp.beta(mp.mpf(m + 1) / 2, mu + mp.mpf(1) / 2)
        return float(val)


# ---------------------------------------------------------------------------
# naive reimplementations of the closed-form recurrence tables
# ---------------------------------------------------------------------------
# Straight transliterations of the defining displays, with no shared code
# or optimisation; used to check the library tables reproduce identically.
# The fraction_* helpers are polynomial arithmetic on {exponent: Fraction}
# dicts, one Fraction operation per coefficient, the reference for the
# library's integer-numerator polynomials.

def naive_split_polynomials(lam):
    """Q_j as {exponent: Fraction} maps, solved one display line at a time."""
    lam = Fraction(lam)
    top = int(lam - Fraction(3, 2))
    qs = {}
    if top < 0:
        return qs
    qs[0] = {0: Fraction(1) / (2 * (lam - 1))}
    if top >= 1:
        # 0 = 2(lam-2) Q_1 - [(2lam-3) + 2(lam-1)T] Q_0
        q1 = {}
        for e, c in qs[0].items():
            q1[e] = q1.get(e, Fraction(0)) + (2 * lam - 3) * c
            q1[e + 1] = q1.get(e + 1, Fraction(0)) + 2 * (lam - 1) * c
        qs[1] = {e: c / (2 * (lam - 2)) for e, c in q1.items()}
    for j in range(2, top + 1):
        acc = {}
        for e, c in qs[j - 1].items():
            acc[e] = acc.get(e, Fraction(0)) + (2 * lam - 2 * j - 1) * c
            acc[e + 1] = acc.get(e + 1, Fraction(0)) + 2 * (lam - j) * c
        for e, c in qs[j - 2].items():
            acc[e + 1] = acc.get(e + 1, Fraction(0)) - (2 * lam - 2 * j + 1) * c
        qs[j] = {e: c / (2 * (lam - j - 1)) for e, c in acc.items() if c != 0}
    return qs


def fraction_add(a, b):
    """Sum of two {exponent: Fraction} polynomials, zero coefficients dropped."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c != 0}


def fraction_scale(a, s):
    s = Fraction(s)
    return {k: c * s for k, c in a.items() if c * s != 0}


def fraction_mul(a, b):
    """Product; exponents are ints or (i, j) pairs, added componentwise."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1]) if isinstance(ka, tuple) else ka + kb
            out[k] = out[k] + ca * cb if k in out else ca * cb
    return {k: c for k, c in out.items() if c != 0}


def fraction_pow(a, m, unit):
    """a^m by repeated products; unit is the exponent of the constant 1."""
    out = {unit: Fraction(1)}
    for _ in range(m):
        out = fraction_mul(out, a)
    return out


def fraction_substitute(p, x, y):
    """Bivariate p(x, y) for bivariate x and y, every power raised afresh."""
    out = {}
    for (i, j), c in p.items():
        term = fraction_mul(fraction_pow(x, i, (0, 0)), fraction_pow(y, j, (0, 0)))
        out = fraction_add(out, fraction_scale(term, c))
    return out


def naive_double_factorial(m):
    if m <= 0:
        return 1
    out = 1
    for x in range(m, 0, -2):
        out *= x
    return out


def naive_shifted_lead(kappa, J):
    import math
    return (Fraction((-1) ** (kappa - J)) * naive_double_factorial(2 * kappa - 1)
            / (Fraction(2) ** (kappa - J) * math.factorial(kappa - J)
               * naive_double_factorial(2 * J - 1)))


def naive_shifted_poly(kappa, J):
    import math
    a = naive_shifted_lead(kappa, J)
    vals = {}
    if kappa >= 1:
        vals[0] = -a
    if kappa >= 2:
        vals[1] = -Fraction(3 * J - 2) * a / 3
    for iota in range(2, kappa):
        binom = (Fraction(math.comb(J, iota)) if iota <= J else Fraction(0))
        vals[iota] = (2 * (J - iota) * vals[iota - 1] - a * binom) / (2 * iota + 1)
    return [vals[i] for i in range(kappa)]


def naive_log_pi(k):
    """pi_j^k via the backward recursion with out-of-range indices zero."""
    pi = {}

    def get(j):
        if j < 0 or j > k - 1:
            return {}
        return pi[j]

    pi[k - 1] = {0: Fraction(1, k * (k + 1))}
    for j in range(k - 2, -1, -1):
        acc = {}
        for e, c in get(j + 1).items():
            acc[e + 1] = acc.get(e + 1, Fraction(0)) + Fraction(2 * j + 3, j + 1) * c
        for e, c in get(j + 2).items():
            acc[e] = acc.get(e, Fraction(0)) - Fraction(j + 2, j + 1) * c
        pi[j] = {e: c for e, c in acc.items() if c != 0}
    return pi


@lru_cache(maxsize=None)
def gauss_gegenbauer_reference(mu, m, digits=40):
    """Nodes and weights of the m-point Gauss rule for (1-t^2)^{mu-1/2}, ascending.

    Computed to `digits` significant digits, independently of the
    library's asymptotic starts: two Newton steps on C_m^mu from scipy's
    roots_jacobi nodes, with C_m and C_{m-1} from the forward recurrence,
    C_m' from (1-x^2) C_m' = (m+2mu-1) C_{m-1} - m x C_m, and the
    classical weight formula

        w = 2^{2-2mu} pi Gamma(m+2mu) / (m! Gamma(mu)^2 (1-x^2) C_m'(x)^2)

    evaluated after the first step.  The recurrence runs in the stdlib's
    decimal arithmetic (about ten times faster than mpmath's mpf here);
    the constant comes from mpmath.  mu = 0 is Chebyshev's closed form
    x_i = cos((2i-1) pi/(2m)), w_i = pi/m.  Returns float arrays.
    """
    if mu == 0:
        with mp.workdps(digits):
            nodes = [mp.cos((2 * i - 1) * mp.pi / (2 * m)) for i in range(m, 0, -1)]
            return np.array([float(x) for x in nodes]), np.full(m, float(mp.pi / m))
    with mp.workdps(digits + 5):
        const = (2 ** (2 - 2 * mp.mpf(mu)) * mp.pi * mp.gamma(m + 2 * mp.mpf(mu))
                 / (mp.factorial(m) * mp.gamma(mu) ** 2))
        const = mp.nstr(const, digits + 5)
    start, _w = roots_jacobi(m, mu - 0.5, mu - 0.5)
    nodes, weights = [], []
    with decimal.localcontext(prec=digits + 5):
        lam, const = Decimal(mu), Decimal(const)
        steps = [(2 * (l + lam - 1) / l, (l + 2 * lam - 2) / l) for l in range(1, m + 1)]
        for x in map(Decimal, start.tolist()):
            for _ in range(2):
                c_prev, c = Decimal(0), Decimal(1)
                for alpha, gam in steps:
                    c_prev, c = c, alpha * x * c - gam * c_prev
                s = 1 - x * x
                dc = ((m + 2 * lam - 1) * c_prev - m * x * c) / s
                w = const / (s * dc * dc)
                x -= c / dc
            nodes.append(float(x))
            weights.append(float(w))
    return np.array(nodes), np.array(weights)


def registry_scan(rows, n, a, rtol):
    """The row of dimension n whose float a lies within rtol (1 + |a|) of a,
    by a linear scan over the rows (the registry match before helmholtz_root)."""
    for row in rows:
        if row.n == n and abs(a - float(row.a)) <= rtol * (1.0 + abs(a)):
            return row
    return None


def resonant_degree_by_rounding(n, a, rtol):
    """The integer l >= 0 with a within rtol (1 + |a|) of l(n+l-1), found by
    rounding the principal root L; None if there is none (the resonance test
    before helmholtz_root)."""
    disc = (n - 1.0) ** 2 + 4.0 * a
    if disc < 0.0:
        return None
    L = (-(n - 1.0) + math.sqrt(disc)) / 2.0
    cand = int(round(L))
    if L >= -0.5 and cand >= 0 and abs(a - cand * (n + cand - 1)) <= rtol * (1.0 + abs(a)):
        return cand
    return None
