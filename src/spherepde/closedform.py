"""Exact-rational antiderivative engine for even-dimension Green functions.

The Green function of Delta* + a on S^n is an iterated radial integral of
the (subtracted) Poisson kernel.  For even n the kernel power (n+1)/2 is a
half-integer and all the radial antiderivatives stay inside a small closed
algebra: bivariate rational terms over powers of

    u(t, v) = 1 - 2 t v + v^2        (v is the radial variable),

half-integer powers of u (sqrt(u) factors), powers of 1 - t^2, and the
logarithms ln(v - t + sqrt(u)), ln(1 - t v + sqrt(u)), ln v.  This module
implements that algebra in exact rational arithmetic, the recurrence
tables behind four antiderivative families, and the assembler that turns
the kernel_power family into the closed form of the Green function for
even n and integer L (a = L(n+L-1)).  Floating point enters only at
evaluation time.

Every antiderivative term is one Term(poly, kind, uhalf, tpow): a
bivariate polynomial with rational coefficients times either a power of a
core (kind "rat") or a logarithm (the other kinds), over a power of a
denominator.  What core, denominator and logarithms are depends on the
variables the term is written in:

  sphere (t, v):   poly(t, v) u^{uhalf/2} / (1-t^2)^{tpow}    ("rat"),
                   poly(t, v) ln(arg) / (1-t^2)^{tpow},  arg by kind:
                   "A" v - t + sqrt(u),  "B" 1 - t v + sqrt(u),  "V" v;
  shifted (T, V):  poly(T, V) (T+V^2)^{uhalf/2} / T^{tpow}    ("rat"),
                   poly(T, V) ln(V + sqrt(T+V^2))             ("A").

The shifted family is written in (T, V); the substitution T = 1-t^2,
V = v-t in the polynomials alone carries it into sphere variables, where
everything else lives.

Antiderivative families (constants of integration fixed to the displayed
forms, C = 0):

  radial_split_polynomials(lam) / zonal_kernel_radial_antiderivative(lam)
      int [ (1-r^2) / (r u^{lam+1}) - 1/r ] dr   for half-integer lam,
      via the splitting polynomials Q_j.

  shifted_power_antiderivative(k, J)
      int V^k / (T + V^2)^{J+1/2} dV   in shifted variables, T != 0;
      three coefficient patterns by the parity of k and k/2 vs J.

  kernel_power_antiderivative(L, J)
      int v^L / u^{J+1/2} dv = A(t,v)/(u^{J-1/2} (1-t^2)^J)
                               + B(t) ln(v - t + sqrt(u)),
      assembled from the shifted family through T = 1-t^2, V = v-t.

  kernel_log_antiderivative(k)
      int v^k ln(1 - t v + sqrt(u)) dv
        = p_k(t,v) sqrt(u) + q_k(t) ln(v - t + sqrt(u))
          + v^{k+1}/(k+1) [ ln(1 - t v + sqrt(u)) - 1/(k+1) ],
      with recursively defined coefficient polynomials pi_j^k
      (out-of-range indices are zero; validated by quadrature in the
      tests).  k = 0 degenerates to
      v ln(1 - t v + sqrt(u)) - v + ln(v - t + sqrt(u)).

The families return their polynomials as dicts of Fraction coefficients.
Inside, every polynomial is one exact pair of integer numerators over a
common denominator (see "exact polynomials" below), and the Fractions
are made once, when a family or a ClosedForm hands its result out.

Assembly.  With J = n/2, lambda = J - 1/2, and S(r) = Sigma_n p_r(t) minus
its partial sum through degree M = max(L, -1), the Green function is the
double radial integral

    G(t) = -int_0^1 R^{-(n+2L)} int_0^R r^{n+L-2} S(r) dr dR + correction.

Swapping the integration order collapses it to two single integrals

    G(t) = -(D1 - D2)/(n+2L-1) + correction,
    D1 = int_0^1 r^{-L-1} S(r) dr,    D2 = int_0^1 r^{n+L-2} S(r) dr

(n+2L-1 is odd, hence nonzero, for even n).  One route serves every
integer L, the Poisson case L = 0 and L < 0 included: D2 is a direct
kernel_power antiderivative, and the D1 integrand is mapped by r = 1/w
onto [1, infinity), where it is again a kernel_power antiderivative; the
finite part at w -> infinity is extracted from exact asymptotic series
(generating-function expansions of the u powers), and every divergent
power of w - and the ln w coefficient - is asserted to cancel exactly.
The radial-split and kernel_log families are not used by the assembler:
they give the two-step route for L = 0 (radial antiderivative, then the
back integral), which the order swap makes unnecessary.  They stay public
as the appendix machinery of the paper, checked on their own.

The collected endpoint values have the shape

    rational(t) / ((1-t)^p (1+t)^q)  +  c(t) * ln((1-t)/2);

sqrt(1-t) and ln(1-t+sqrt(2(1-t))) contributions must cancel identically
for even n, and ln 2 must pair with ln(1-t).  Each cancellation is
asserted by merging the terms concerned with the canonical ClosedForm
construction and checking that nothing is left.  The result is a
ClosedForm, the exact type the green_tables registry rows share, so a
derived form and a registry row compare with ==.

Cost.  A derivation builds its two kernel_power antiderivatives once, and
D1 and D2 share them.  The substitution T = 1-t^2, V = v-t reads power
tables of 1-t^2 and v-t, built once per pass, instead of raising powers
for every monomial.  Collector.add_definite sums the polynomials of like
terms (same kind, uhalf and tpow) before it takes them to the endpoints,
expands each power of u at infinity from one Gegenbauer table per
exponent, and each bucket sums its pieces once, when it is read.  All the
arithmetic is on integers, with one gcd per result, so no Fraction is made
per coefficient operation.  The 30 forms n = 2..12 even, L = 0..4 take
0.06 s together, (16, 3) 0.007 s (best of 15, shared 2-vCPU host; 0.18 s
and 0.027 s with Fraction coefficients).  All of it is exact, so the
derived forms do not change; nothing is memoised, so a repeated
derivation costs the same.
"""

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, inf, lcm, log, pi, prod, sqrt

import numpy as np

from .errors import NoClosedFormError, SphereDomainError
from .geometry import _check_t_for_eval


# ---------------------------------------------------------------------------
# exact polynomials: integer numerators over one denominator
# ---------------------------------------------------------------------------
# A polynomial is a pair (num, den).  num maps each exponent -- an int for
# a univariate polynomial, an (i, j) pair for a bivariate one -- to a
# nonzero integer numerator, and den > 0 is their common denominator, with
# gcd(den, *num.values()) == 1, so each polynomial has exactly one pair.
# Every operation reduces its result with one gcd.  Pairs are never
# mutated, so results may share them.  Scalars are ints or Fractions, read
# through .numerator and .denominator.

_ZERO = ({}, 1)


def _reduced(num, den):
    """The pair num / den in lowest terms, zero numerators dropped (den > 0)."""
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: c // g for k, c in num.items()}, den // g


def _monomial(key, c):
    """The pair of c x^key for a rational c."""
    return _reduced({key: c.numerator}, c.denominator)


def _sum(polys):
    """Sum of pairs, over the lcm of their denominators."""
    polys = [p for p in polys if p[0]]
    if len(polys) < 2:
        return polys[0] if polys else _ZERO
    den = lcm(*(d for _num, d in polys))
    out = {}
    for num, d in polys:
        f = den // d
        for k, c in num.items():
            out[k] = out[k] + c * f if k in out else c * f
    return _reduced(out, den)


def _mul(p, q):
    """Product of two univariate or two bivariate pairs."""
    (a, da), (b, db) = p, q
    out = {}
    if a and isinstance(next(iter(a)), tuple):
        for (i, j), c in a.items():
            for (e, f), d in b.items():
                k = (i + e, j + f)
                out[k] = out[k] + c * d if k in out else c * d
    else:
        for i, c in a.items():
            for e, d in b.items():
                out[i + e] = out[i + e] + c * d if i + e in out else c * d
    return _reduced(out, da * db)


def _scale(p, s):
    """p times a rational s."""
    num, den = p
    m = s.numerator
    return _reduced({k: c * m for k, c in num.items()}, den * s.denominator)


def _times(p, key):
    """p times the monomial x^key, key an exponent of p's kind."""
    num, den = p
    if isinstance(key, tuple):
        i, j = key
        return {(a + i, b + j): c for (a, b), c in num.items()}, den
    return {a + key: c for a, c in num.items()}, den


def _powers(p, m):
    """p^0, ..., p^m of a pair, each by one product."""
    unit = (0, 0) if isinstance(next(iter(p[0]), 0), tuple) else 0
    out = [({unit: 1}, 1)]
    for _ in range(m):
        out.append(_mul(out[-1], p))
    return out


def _substitute(p, xs, ys):
    """Bivariate p with x and y put in for its variables, given their power
    tables xs[i] = x^i and ys[j] = y^j (pairs)."""
    num, den = p
    scales = {key: xs[key[0]][1] * ys[key[1]][1] for key in num}
    common = lcm(*scales.values())
    out = {}
    for (i, j), c in num.items():
        c *= common // scales[i, j]
        for (a, b), x in xs[i][0].items():
            cx = c * x
            for (e, f), y in ys[j][0].items():
                k = (a + e, b + f)
                out[k] = out[k] + cx * y if k in out else cx * y
    return _reduced(out, den * common)


def _at_v(p, v0):
    """Bivariate pair -> univariate in t at v = v0, v0 = 0 or 1."""
    if v0 not in (0, 1):
        raise ValueError(f"_at_v takes v0 = 0 or 1, got {v0}")
    num, den = p
    out = {}
    for (i, j), c in num.items():
        if v0 or not j:
            out[i] = out[i] + c if i in out else c
    return _reduced(out, den)


def _to_bi(p):
    """Univariate pair in t -> bivariate in (t, v)."""
    num, den = p
    return {(i, 0): c for i, c in num.items()}, den


def _fractions(p):
    """A pair as the dict {exponent: Fraction} the public families return."""
    num, den = p
    return {k: Fraction(c, den) for k, c in num.items()}


def _fraction_terms(terms):
    return [_with_poly(term, _fractions(term.poly)) for term in terms]


def bi_eval(p, t, v):
    """Floating-point value at (t, v) of a bivariate {(i, j): rational} dict."""
    return sum(float(c) * t ** i * v ** j for (i, j), c in p.items())


# building blocks in sphere variables (t, v)
_T = ({(1, 0): 1}, 1)                     # t
_V = ({(0, 1): 1}, 1)                     # v
_ONE = ({(0, 0): 1}, 1)
_R = ({(0, 1): 1, (1, 0): -1}, 1)         # v - t
_TT = ({(0, 0): 1, (2, 0): -1}, 1)        # 1 - t^2


def _gegenbauer_polys(p, q, l_max):
    """Exact C_l^lam(t), lam = p/q, for l = 0..l_max as univariate pairs:

        l q C_l = 2 (q(l-1) + p) t C_{l-1} - (q(l-2) + 2p) C_{l-2}.
    """
    out = [({0: 1}, 1)]
    if l_max >= 1:
        out.append(_reduced({1: 2 * p}, q))
    for l in range(2, l_max + 1):
        (n1, d1), (n2, d2) = out[l - 1], out[l - 2]
        den = lcm(d1, d2)
        f1 = 2 * (q * (l - 1) + p) * (den // d1)
        f2 = (q * (l - 2) + 2 * p) * (den // d2)
        num = {i + 1: c * f1 for i, c in n1.items()}
        for i, c in n2.items():
            num[i] = num[i] - c * f2 if i in num else -c * f2
        out.append(_reduced(num, den * q * l))
    return out


# ---------------------------------------------------------------------------
# expression terms (module docstring: sphere and shifted variables)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """poly * core^{uhalf/2} (kind "rat") or poly * ln(arg of kind), over den^{tpow}.

    The public families hold poly as a dict {(i, j): Fraction}; the
    assembler holds it as an exact pair.
    """

    poly: dict | tuple
    kind: str = "rat"
    uhalf: int = 0
    tpow: int = 0


def _with_poly(term, poly):
    """term with poly in place of its polynomial (dataclasses.replace, faster)."""
    return Term(poly, term.kind, term.uhalf, term.tpow)


def _evaluate(terms, x, y, core, den, logarg):
    """Sum of terms at numeric (x, y); logarg[kind]() is the log argument of a kind."""
    total = 0.0
    for term in terms:
        val = bi_eval(term.poly, x, y)
        if term.kind != "rat":
            val *= log(logarg[term.kind]())
        elif term.uhalf:
            val *= core ** (term.uhalf / 2.0)
        if term.tpow:
            val /= den ** term.tpow
        total += val
    return total


def expr_eval(terms, t, v):
    """Floating-point value of an expression in sphere variables at (t, v), |t| < 1.

    |t| < 1 is the one condition: u = (v - t)^2 + 1 - t^2 > 0 follows, and
    both log arguments are positive, since sqrt(u) > |v - t| and
    sqrt(u) >= |1 - tv|.
    """
    if not abs(t) < 1.0:
        raise SphereDomainError(f"sphere-variable expressions need |t| < 1, got t = {t}")
    u = 1.0 - 2.0 * t * v + v * v
    logarg = {"A": lambda: v - t + sqrt(u), "B": lambda: 1.0 - t * v + sqrt(u),
              "V": lambda: v}
    return _evaluate(terms, t, v, u, 1.0 - t * t, logarg)


# ---------------------------------------------------------------------------
# recurrence tables
# ---------------------------------------------------------------------------

def _radial_split(lam):
    """radial_split_polynomials as pairs; m = 2 lam is odd, so every
    bracket coefficient is an integer."""
    lam = Fraction(lam)
    if lam.denominator != 2 or lam <= 0:
        raise SphereDomainError(f"lam must be a positive half-integer (odd/2), got {lam}")
    m = lam.numerator
    top = (m - 3) // 2
    qs = {}
    if top >= 0:
        qs[0] = ({0: 1}, m - 2)
    if top >= 1:
        qs[1] = _scale(_mul(({0: m - 3, 1: m - 2}, 1), qs[0]), Fraction(1, m - 4))
    for j in range(2, top + 1):
        bracket = ({0: m - 2 * j - 1, 1: m - 2 * j}, 1)
        term = _sum((_mul(bracket, qs[j - 1]), _scale(_times(qs[j - 2], 1), -(m - 2 * j + 1))))
        qs[j] = _scale(term, Fraction(1, m - 2 * j - 2))
    return qs


def radial_split_polynomials(lam):
    """Splitting polynomials {j: Q_j}, j = 0..lam-3/2, univariate in T = 1-t^2.

    Defined by   1 = 2(lam-1) Q_0,
                 0 = 2(lam-2) Q_1 - [(2lam-3) + 2(lam-1) T] Q_0,
                 0 = 2(lam-j-1) Q_j - [(2lam-2j-1) + 2(lam-j) T] Q_{j-1}
                     + (2lam-2j+1) T Q_{j-2},      j = 2..lam-3/2.

    lam = 1/2 has an empty table (all index ranges are empty).
    """
    return {j: _fractions(q) for j, q in _radial_split(lam).items()}


def zonal_kernel_radial_antiderivative(lam):
    """Antiderivative of (1-r^2)/(r u^{lam+1}) - 1/r for half-integer lam.

    In sphere variables (t, v = r):

        1/(lam u^lam) + (1/2) sum_j 1/((lam-j) u^{lam-j})
        + sum_j t Q_{j-1}(1-t^2) (v-t) / ((1-t^2)^j u^{lam-j})
        - ln(1 - t v + sqrt(u)),        j = 1..lam-1/2.
    """
    lam = Fraction(lam)
    qs = _radial_split(lam)
    # Q_{j-1}(T) at T = 1-t^2, the substitution of _shifted_to_sphere
    tts = _powers(_TT, max((i for q, _den in qs.values() for i in q), default=0))
    terms = [Term(_monomial((0, 0), 1 / lam), uhalf=-int(2 * lam))]
    for j in range(1, int(lam + Fraction(1, 2))):
        terms.append(Term(_monomial((0, 0), Fraction(1, 2) / (lam - j)),
                          uhalf=-int(2 * (lam - j))))
        qpoly_t = _substitute(_to_bi(qs[j - 1]), tts, _powers(_R, 0))
        terms.append(Term(_mul(_mul(_T, qpoly_t), _R), uhalf=-int(2 * (lam - j)), tpow=j))
    terms.append(Term(_scale(_ONE, -1), "B"))
    return _fraction_terms(terms)


def shifted_leading_coefficient(kappa, J):
    """a^{kappa,J+1/2} = (-1)^{kappa-J} (2kappa-1)!! / (2^{kappa-J} (kappa-J)! (2J-1)!!)."""
    # m!! = prod(range(m, 0, -2)), so (-1)!! = 1
    num = Fraction((-1) ** (kappa - J) * prod(range(2 * kappa - 1, 0, -2)))
    den = Fraction(2 ** (kappa - J) * factorial(kappa - J) * prod(range(2 * J - 1, 0, -2)))
    return num / den


def shifted_polynomial_coefficients(kappa, J):
    """{"lead": a, "poly": [a_0, ..., a_{kappa-1}]}: the shifted_leading_coefficient
    a and the a_iota^{kappa,J+1/2} (an empty list for kappa = 0).

    a_0 = -a,  a_1 = -(3J-2) a / 3,
    a_iota = (2(J-iota) a_{iota-1} - a binom(J, iota)) / (2 iota + 1),
    with binom(J, iota) = 0 for iota > J.
    """
    a = shifted_leading_coefficient(kappa, J)
    out = []
    if kappa >= 1:
        out.append(-a)
    if kappa >= 2:
        out.append(-(3 * J - 2) * a / 3)
    for iota in range(2, kappa):
        out.append((2 * (J - iota) * out[iota - 1] - a * comb(J, iota))
                   / (2 * iota + 1))
    return {"lead": a, "poly": out}


def _shifted_power_terms(k, J):
    """shifted_power_antiderivative with pairs; the coefficients are set up
    as Fractions and each is one monomial's pair."""
    if k < 0 or J < 0:
        raise SphereDomainError(f"need k, J >= 0, got k={k}, J={J}")
    terms = []
    if k % 2 == 1:
        kappa = (k - 1) // 2
        for iota in range(kappa + 1):
            c = comb(kappa, iota) * Fraction((-1) ** (kappa - iota + 1), 2 * (J - iota) - 1)
            terms.append(Term(_monomial((kappa - iota, 0), c), uhalf=-(2 * (J - iota) - 1)))
        return terms
    kappa = k // 2
    if kappa < J:
        for iota in range(J - kappa):
            c = comb(J - kappa - 1, iota) * Fraction((-1) ** (J - kappa - iota - 1),
                                                     2 * (J - iota) - 1)
            terms.append(Term(_monomial((0, 2 * (J - iota) - 1), c),
                              uhalf=-(2 * (J - iota) - 1), tpow=J - kappa))
        return terms
    table = shifted_polynomial_coefficients(kappa, J)
    a = table["lead"]
    for iota, ai in enumerate(table["poly"]):
        terms.append(Term(_monomial((kappa - iota - 1, 2 * iota + 1), ai), uhalf=-(2 * J - 1)))
    terms.append(Term(_monomial((kappa - J, 0), a), "A"))
    return terms


def shifted_power_antiderivative(k, J):
    """int V^k / (T + V^2)^{J+1/2} dV as Terms in the shifted variables (T, V).

    With core = T + V^2:

    odd k = 2kappa+1:
        sum_iota binom(kappa,iota) (-1)^{kappa-iota+1}/(2(J-iota)-1)
                 T^{kappa-iota} core^{-(J-iota-1/2)}
    even k = 2kappa, kappa < J:
        T^{kappa-J} sum_iota binom(J-kappa-1,iota) (-1)^{J-kappa-iota-1}
                 /(2(J-iota)-1) V^{2(J-iota)-1} core^{-(J-iota-1/2)}
    even k = 2kappa, kappa >= J:
        V core^{-(J-1/2)} sum_iota a_iota T^{kappa-iota-1} V^{2 iota}
        + a T^{kappa-J} ln(V + sqrt(core)).
    """
    return _fraction_terms(_shifted_power_terms(k, J))


def eval_shifted(terms, T, V):
    """Floating-point value of an expression in shifted variables at (T, V), T != 0."""
    if T == 0:
        raise SphereDomainError("the shifted antiderivative requires T != 0")
    core = T + V * V
    return _evaluate(terms, T, V, core, T, {"A": lambda: V + sqrt(core)})


def _shifted_to_sphere(terms):
    """Terms in (T, V) carried into sphere variables by T = 1-t^2, V = v-t.

    Only the polynomials change: the core becomes u, V + sqrt(core) becomes
    v - t + sqrt(u) (kind "A") and T the denominator 1-t^2.  The power
    tables of 1-t^2 and v-t are built once, to the largest exponents met.
    """
    xs = _powers(_TT, max((i for term in terms for i, _j in term.poly[0]), default=0))
    ys = _powers(_R, max((j for term in terms for _i, j in term.poly[0]), default=0))
    return [_with_poly(term, _substitute(term.poly, xs, ys)) for term in terms]


def _kernel_power_terms(L, J):
    """kernel_power_antiderivative with pairs."""
    if L < 0 or J < 0:
        raise SphereDomainError(f"need L, J >= 0, got L={L}, J={J}")
    # binom(L,k) scales the one-monomial shifted polynomials; t^{L-k}
    # shifts the powers of t after the substitution
    shifted = [(L - k, _with_poly(term, _scale(term.poly, comb(L, k))))
               for k in range(L + 1) for term in _shifted_power_terms(k, J)]
    sphere = _shifted_to_sphere([term for _shift, term in shifted])
    return [_with_poly(term, _times(term.poly, (shift, 0)))
            for (shift, _shifted), term in zip(shifted, sphere)]


def kernel_power_antiderivative(L, J):
    """int v^L / u^{J+1/2} dv via the binomial shift onto the shifted family.

    v^L = ((v-t) + t)^L = sum_k binom(L,k) t^{L-k} (v-t)^k, so the result
    is sum_k binom(L,k) t^{L-k} shifted_power_antiderivative(k, J) mapped
    into sphere variables, all k in one _shifted_to_sphere pass.
    """
    return _fraction_terms(_kernel_power_terms(L, J))


def _log_coefficients(k):
    """log_coefficient_polynomials as pairs."""
    if k < 1:
        raise SphereDomainError(f"need k >= 1, got {k}")
    pi = {k - 1: ({0: 1}, k * (k + 1))}
    for j in range(k - 2, -1, -1):
        pi[j] = _sum((_scale(_times(pi[j + 1], 1), Fraction(2 * j + 3, j + 1)),
                      _scale(pi.get(j + 2, _ZERO), Fraction(-(j + 2), j + 1))))
    return pi


def log_coefficient_polynomials(k):
    """{j: pi_j^k}, j = 0..k-1, univariate in t; out-of-range indices are zero.

    pi_{k-1} = 1/(k(k+1)) and, downward for j = k-2..0,

        pi_j = [(2j+3) t pi_{j+1} - (j+2) pi_{j+2}] / (j+1),

    with pi_k = 0.  This is the unique family making
    p' u + p (v-t) + q = v^k/(k+1) hold for p = sum_j pi_j v^j; the
    specialisations pi_{k-2} = (2k-1) t pi_{k-1}/(k-1) and
    pi_0 = 3 t pi_1 - 2 pi_2 follow.
    """
    return {j: _fractions(p) for j, p in _log_coefficients(k).items()}


def kernel_log_antiderivative(k):
    """int v^k ln(1 - t v + sqrt(u)) dv as sphere terms.

    k >= 1 follows the recurrence display; k = 0 is the degenerate closed
    form v ln(1 - t v + sqrt(u)) - v + ln(v - t + sqrt(u)).
    """
    if k < 0:
        raise SphereDomainError(f"need k >= 0, got {k}")
    if k == 0:
        return _fraction_terms([Term(_V, "B"), Term(_scale(_V, -1)), Term(_ONE, "A")])
    pi = _log_coefficients(k)
    p_k = _sum([_times(_to_bi(pi[j]), (0, j)) for j in range(k)])
    q_k = _sum((_times(pi[0], 1), _scale(pi.get(1, _ZERO), -1)))
    return _fraction_terms([Term(p_k, uhalf=1),
                            Term(_to_bi(q_k), "A"),
                            Term(_monomial((0, k + 1), Fraction(1, k + 1)), "B"),
                            Term(_monomial((0, k + 1), Fraction(-1, (k + 1) ** 2)))])


# ---------------------------------------------------------------------------
# the closed-form type (tabulated and derived forms alike)
# ---------------------------------------------------------------------------
# Atoms, as functions of t = cos(theta):
#   "1"  1;   "lg"  ln((1-t)/2);   "pi-th"  pi - theta;   "pi*sqrt2"  pi sqrt(2).

ATOMS = ("1", "lg", "pi-th", "pi*sqrt2")
_ATOM_TEXT = {"lg": "log((1-t)/2)", "pi-th": "(pi-acos(t))", "pi*sqrt2": "pi*sqrt(2)"}
_ATOM_LATEX = {"lg": r"\ln\frac{1-t}{2}", "pi-th": r"(\pi-\theta)", "pi*sqrt2": r"\pi\sqrt{2}"}


@dataclass(frozen=True)
class ClosedForm:
    """G(t) = sum_k p_k(t) atom_k / ((1-t)^{a_k/2} (1+t)^{b_k/2}), held exactly.

    terms is a tuple of (atom, a, b, coefficients): atom one of ATOMS, a and
    b integer exponents in half units, and p_k given by its Fraction
    coefficients in ascending powers of t.  The coefficients may be passed
    as a sequence or a dict {power: rational}, or as the exact pair the
    assembler works in.  Construction makes the terms canonical -- like
    terms merged over a common denominator, common (1-t) and (1+t) factors
    cancelled, zero terms dropped, sorted -- on integer numerators, so ==
    holds exactly when two forms are the same function; building the 66
    registry rows takes ~2.5 ms (shared 2-vCPU host).  n, L, a and table only
    label the form (table: the registry table, None for a derived form) and
    take no part in comparisons.
    """

    terms: tuple
    n: int | None = field(default=None, compare=False)
    L: Fraction | None = field(default=None, compare=False)
    table: int | None = field(default=None, compare=False)
    a: Fraction | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self.terms))
        if self.L is not None:
            L = Fraction(self.L)
            object.__setattr__(self, "L", L)
            object.__setattr__(self, "a", L * (self.n + L - 1))
        plan = []
        for atom, a, b, coeffs in self.terms:
            scale = pi * sqrt(2.0) if atom == "pi*sqrt2" else 1.0
            plan.append((tuple(float(c) * scale for c in reversed(coeffs)), atom, a, b))
        object.__setattr__(self, "_plan", tuple(plan))
        object.__setattr__(self, "_antipode_pole", any(b for *_, b, _c in self.terms))

    def eval(self, t):
        """G at t: a float for a scalar t, an array of the same shape for an array.

        t follows the rule every evaluator of G shares
        (geometry._check_t_for_eval): roundoff excursions past +-1 are
        clamped, and t >= 1 - 1e-12, |t| > 1 + 1e-12 and NaN, anywhere in
        an array, raise SphereDomainError.  At t = -1 a form with a (1+t)
        denominator (the odd-n rows), whose terms are 0/0 there, raises
        NoClosedFormError.
        """
        t = _check_t_for_eval(t)
        scalar = isinstance(t, float)
        if self._antipode_pole and (t == -1.0 if scalar else np.any(t == -1.0)):
            label = f" for n={self.n}, a={float(self.a)}" if self.a is not None else ""
            raise NoClosedFormError(
                f"the closed form{label} has a (1+t) denominator and no value at t = -1; "
                "use the series or integral backend")
        total = 0.0 * t
        for coeffs, atom, a, b in self._plan:
            val = coeffs[0]
            for c in coeffs[1:]:
                val = val * t + c
            if atom == "lg":
                val = val * np.log((1.0 - t) / 2.0)
            elif atom == "pi-th":
                val = val * np.arccos(-t)      # pi - arccos(t), accurate near t = -1
            if a == b:
                if a:
                    val = val / _half_power((1.0 - t) * (1.0 + t), a)
            else:
                val = val / (_half_power(1.0 - t, a) * _half_power(1.0 + t, b))
            total = total + val
        return float(total) if scalar else total

    def text(self):
        """The form as a Python expression in t (names from math)."""
        return self._format(latex=False)

    def latex(self):
        return self._format(latex=True)

    def _format(self, latex):
        parts = [_format_term(term, latex) for term in self.terms]
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _half_power(x, e):
    """x^{e/2} for an integer e >= 0, by multiplication and one sqrt."""
    out = np.sqrt(x) if e % 2 else 1.0
    for _ in range(e // 2):
        out = out * x
    return out


def _cancel_factor(poly, e, root):
    """Cancel whole factors (1 - t/root), root = +-1, from poly / (1 - t/root)^{e/2}.

    The quotient of a pair in lowest terms is in lowest terms: a prime
    dividing den and every quotient numerator would divide every numerator.
    """
    num, den = poly
    while e >= 2 and sum(c if root == 1 or i % 2 == 0 else -c for i, c in num.items()) == 0:
        # synthetic division by (t - root) = -root (1 - t/root)
        rem = 0
        quot = {}
        for i in range(max(num), 0, -1):
            rem = rem * root + num.get(i, 0)
            if rem:
                quot[i - 1] = -root * rem
        num = quot
        e -= 2
    return (num, den), e


def _binomial_power(sign, m):
    """(1 + sign t)^m as a pair."""
    return {i: comb(m, i) * sign ** i for i in range(m + 1)}, 1


def _canonical(terms):
    """Terms (atom, a, b, pair) merged per atom and parity of (a, b) over a
    common denominator, common (1-t) and (1+t) factors cancelled, zero terms
    dropped, sorted: the canonical terms of ClosedForm, as pairs."""
    groups = {}
    for atom, a, b, poly in terms:
        if atom not in ATOMS:
            raise ValueError(f"unknown closed-form atom {atom!r}")
        if poly[0]:
            groups.setdefault((atom, a % 2, b % 2), []).append((a, b, poly))
    out = []
    for (atom, a_par, b_par), members in groups.items():
        # common denominator of the group; negative exponents lift to >= 0
        A = max([a_par] + [m[0] for m in members])
        B = max([b_par] + [m[1] for m in members])
        num = _sum([poly if (a, b) == (A, B) else
                    _mul(poly, _mul(_binomial_power(-1, (A - a) // 2),
                                    _binomial_power(1, (B - b) // 2)))
                    for a, b, poly in members])
        if not num[0]:
            continue
        num, A = _cancel_factor(num, A, 1)
        num, B = _cancel_factor(num, B, -1)
        out.append((atom, A, B, num))
    return sorted(out, key=lambda term: (ATOMS.index(term[0]), term[1], term[2]))


def _exact(coeffs):
    """A term's coefficients as a pair: given as one, or as a dict
    {power: rational} or a sequence of rationals in ascending powers."""
    if isinstance(coeffs, tuple) and len(coeffs) == 2 and isinstance(coeffs[0], dict):
        return _reduced(*coeffs)
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    items = [(i, c if isinstance(c, Fraction) else Fraction(c)) for i, c in items]
    den = lcm(*(c.denominator for _i, c in items))
    return _reduced({i: c.numerator * (den // c.denominator) for i, c in items}, den)


def _canonical_terms(terms):
    """The canonical terms of a ClosedForm, coefficients as Fraction tuples."""
    canonical = _canonical([(atom, a, b, _exact(coeffs)) for atom, a, b, coeffs in terms])
    return tuple((atom, a, b, tuple(Fraction(num.get(i, 0), den) for i in range(max(num) + 1)))
                 for atom, a, b, (num, den) in canonical)


def _format_term(term, latex):
    """One term as text (a Python expression, names from math) or as LaTeX."""
    atom, a, b, coeffs = term
    den = lcm(*(c.denominator for c in coeffs))
    mul = "" if latex else "*"
    parts = []
    for i, c in enumerate(coeffs):
        c = int(c * den)
        if c:
            var = "" if i == 0 else "t" if i == 1 else f"t^{{{i}}}" if latex else f"t**{i}"
            parts.append(str(c) if not var else var if c == 1 else f"-{var}" if c == -1
                         else f"{c}{mul}{var}")
    num = " + ".join(parts).replace("+ -", "- ")
    dens = [str(den)] if den != 1 else []
    bases = [("(1-t^2)" if latex else "(1-t**2)", a)] if a == b else [("(1-t)", a), ("(1+t)", b)]
    dens += [_power(base, e, latex) for base, e in bases if e]
    if len(parts) > 1 and (atom != "1" or (dens and not latex)):
        num = rf"\left({num}\right)" if latex else f"({num})"
    if atom != "1":
        name = (_ATOM_LATEX if latex else _ATOM_TEXT)[atom]
        num = name if num == "1" else f"-{name}" if num == "-1" else f"{num}{mul}{name}"
    if not dens:
        return num
    if latex:
        return rf"\frac{{{num}}}{{{''.join(dens)}}}"
    return f"{num}/{dens[0]}" if len(dens) == 1 else f"{num}/({'*'.join(dens)})"


def _power(base, e, latex):
    """base^{e/2} for an integer e >= 1."""
    if e == 2:
        return base
    if latex:
        return f"{base}^{{{e // 2 if e % 2 == 0 else f'{e}/2'}}}"
    if e == 1:
        return f"sqrt{base}"
    return f"{base}**{e // 2}" if e % 2 == 0 else f"{base}**({e}/2)"


# ---------------------------------------------------------------------------
# endpoint collection
# ---------------------------------------------------------------------------
# The collector evaluates antiderivatives at v = 0, v = 1 and v -> infinity
# and adds each piece poly(t) / ((1-t)^{a/2} (1+t)^{b/2}) to the pieces
# kept under (a, b) in a bucket named after its factor:
#   "1"     rational;
#   "sqrt"  rational with an odd power of sqrt(1-t), the common sqrt(2) dropped;
#   "L1MT"  ln(1-t);   "L2"  ln 2;   "LS"  ln(1-t+sqrt(2(1-t)));
#   "lnw"   ln w and ("w", m) w^m, m >= 1, as w -> infinity.
# Reading a bucket sums its pieces under each (a, b).  The canonical merge
# of a bucket's terms puts them over a common denominator exactly, so a
# combination that must cancel is one whose merge leaves no terms.

class Collector:
    def __init__(self):
        self.buckets = {}

    def add(self, bucket, a, b, poly):
        if poly[0]:
            self.buckets.setdefault(bucket, {}).setdefault((a, b), []).append(poly)

    def terms(self, bucket, atom="1"):
        return [(atom, a, b, _sum(polys))
                for (a, b), polys in self.buckets.get(bucket, {}).items()]

    def merged(self, *buckets):
        """The buckets' terms together, canonical: empty when they cancel."""
        return _canonical([term for name in buckets for term in self.terms(name)])

    def add_definite(self, terms, lo, hi, scale):
        """Fold scale * (F(hi) - F(lo)), F the sum of terms, lo and hi in {0, 1, inf}.

        Terms alike but for their polynomials are summed first, so each
        distinct (kind, uhalf, tpow) is taken to each endpoint once.
        """
        like = {}
        for term in terms:
            like.setdefault((term.kind, term.uhalf, term.tpow), []).append(term.poly)
        terms = [Term(poly, *key) for key, polys in like.items() if (poly := _sum(polys))[0]]
        series = _expansions(terms) if inf in (lo, hi) else None
        for v0, s in ((hi, scale), (lo, -scale)):
            for term in terms:
                if v0 == inf:
                    self._add_at_infinity(term, s, series)
                else:
                    self._add_at(term, v0, s)

    def _add_at(self, term, v0, s):
        tp, h = 2 * term.tpow, term.uhalf
        if term.kind == "rat" and v0 == 1:
            # u -> 2(1-t): u^{h/2} = 2^{h//2} sqrt(2)^{h%2} (1-t)^{h/2}
            e = h // 2
            s = s * 2 ** e if e >= 0 else s / 2 ** -e
        poly = _scale(_at_v(term.poly, v0), s)
        if term.kind == "rat" and v0 == 0:
            # u -> 1
            self.add("1", tp, tp, poly)
        elif term.kind == "rat":
            self.add("sqrt" if h % 2 else "1", tp - h, tp, poly)
        elif term.kind == "A":
            # v - t + sqrt(u) -> 1 - t at v = 0, 1 - t + sqrt(2(1-t)) at v = 1
            self.add("L1MT" if v0 == 0 else "LS", tp, tp, poly)
        elif poly[0] and (term.kind != "V" or v0 == 0):
            raise SphereDomainError(f"log kind {term.kind} has no collected value at v = {v0}")
        # kind "V" at v = 1: ln 1 = 0

    def _add_at_infinity(self, term, s, series):
        tp, h = 2 * term.tpow, term.uhalf
        if term.kind == "rat":
            # poly(t,v) u^{h/2}, u^{h/2} = v^h sum_k C_k^{-h/2}(t) v^{-k}:
            # t^i v^j C_k lands at w^{j+h-k}
            geg, gden = series[h]
            num, den = term.poly
            acc = {}
            for (i, j), c in num.items():
                c *= s.numerator
                for k in range(j + h + 1):
                    slot = acc.setdefault(j + h - k, {})
                    for e, g in geg[k].items():
                        slot[i + e] = slot[i + e] + c * g if i + e in slot else c * g
            for m, slot in acc.items():
                self.add(("w", m) if m else "1", tp, tp,
                         _reduced(slot, den * s.denominator * gden))
            return
        if any(j != 0 for (_i, j) in term.poly[0]):
            raise SphereDomainError("asymptotics need v-free log coefficients")
        coef = _scale(_at_v(term.poly, 0), s)
        # A: ln(v - t + sqrt(u)) = ln v + ln 2 + O(1/v);  V: ln v
        if term.kind not in ("A", "V"):
            raise SphereDomainError(f"log kind {term.kind} has no v->inf limit here")
        self.add("lnw", tp, tp, coef)
        if term.kind == "A":
            self.add("L2", tp, tp, coef)


def _expansions(terms):
    """{h: (C, den)} for each uhalf h of the "rat" terms: u^{h/2} =
    v^h sum_k C_k^{-h/2}(t) v^{-k}, the C_k (k up to the largest j + h met)
    as numerator dicts over one common denominator."""
    tops = {}
    for term in terms:
        if term.kind == "rat":
            top = max((j for _i, j in term.poly[0]), default=0) + term.uhalf
            tops[term.uhalf] = max(tops.get(term.uhalf, 0), top)
    out = {}
    for h, top in tops.items():
        polys = _gegenbauer_polys(-h, 2, top)
        den = lcm(*(d for _num, d in polys))
        out[h] = [{e: c * (den // d) for e, c in num.items()} for num, d in polys], den
    return out


# ---------------------------------------------------------------------------
# the assembler
# ---------------------------------------------------------------------------

# Largest n + L derived: the cost grows with the kernel power antiderivatives
# of degree n + L.  At n + L = 40 a derivation took 0.06-0.2 s on a 2-vCPU
# host ((2, 38), (8, 32), (40, 0), (78, -38)); (2, 64) took 0.5 s.
_DERIVE_MAX_NL = 40


def _integer_value(x):
    """x as an int when it is a real number of integer value, else None."""
    if isinstance(x, numbers.Rational):
        return int(x) if x.denominator == 1 else None
    if isinstance(x, numbers.Real) and float(x).is_integer():
        return int(x)
    return None


def derive_green_closed_form(n, L):
    """Closed form of the Green function for even n, integer L, a = L(n+L-1).

    One route for every L (module docstring): G = -(D1 - D2)/(n+2L-1) plus
    the correction sum, with D2 from kernel_power antiderivatives on [0, 1]
    and D1 through r = 1/w on [1, infinity), its value at infinity the exact
    finite part.  Every cancellation the even-n form needs is asserted.
    n and L may be given as floats of integer value.

    Raises NoClosedFormError outside the supported range (odd n or
    non-integer L: those forms carry inverse-trig terms outside this
    algebra; a non-finite or non-real n or L), and before building anything
    for n + L above _DERIVE_MAX_NL.
    """
    n_int, L_int = _integer_value(n), _integer_value(L)
    if n_int is None or n_int % 2 != 0 or n_int < 2:
        raise NoClosedFormError(
            f"closed-form assembly covers even n >= 2 only, got n={n}")
    if L_int is None:
        raise NoClosedFormError(f"closed-form assembly needs a finite integer L, got {L}")
    n, L = n_int, L_int
    if 2 * L <= -(n - 1):
        raise NoClosedFormError(f"L={L} lies below the root range for n={n}")
    if n + L > _DERIVE_MAX_NL:
        raise NoClosedFormError(
            f"closed-form assembly is bounded to n + L <= {_DERIVE_MAX_NL}, got n={n}, L={L}")
    J = n // 2
    geg = _gegenbauer_polys(2 * J - 1, 2, max(L, 0))
    # c_l(t) = (lam+l)/lam C_l^lam(t), lam = J - 1/2, subtracted from S(r) for l <= L
    c = [_scale(geg[l], Fraction(2 * J - 1 + 2 * l, 2 * J - 1)) for l in range(L + 1)]
    scale = Fraction(-1, n + 2 * L - 1)
    collector = Collector()
    # D2 and D1 integrate the same kernel power difference, D1 negated
    diff = _kernel_power_terms(n + L - 2, J)
    diff += [_with_poly(term, _scale(term.poly, -1))
             for term in _kernel_power_terms(n + L, J)]

    # D2 = int_0^1 r^{n+L-2} S(r) dr; G gains -scale * D2
    d2 = list(diff)
    for l in range(L + 1):
        e = n + L - 1 + l
        d2.append(Term(_times(_to_bi(_scale(c[l], Fraction(-1, e))), (0, e))))
    collector.add_definite(d2, 0, 1, -scale)

    # D1 = int_0^1 r^{-L-1} S(r) dr; with r = 1/w,
    # D1 = -int_1^inf [(w^{n+L-2} - w^{n+L})/u(w)^{J+1/2} + sum_{l<=L} c_l w^{L-l-1}] dw;
    # G gains scale * D1
    d1 = list(diff)
    for l in range(L):
        d1.append(Term(_times(_to_bi(_scale(c[l], Fraction(1, L - l))), (0, L - l))))
    if L >= 0:
        d1.append(Term(_to_bi(c[L]), "V"))
    collector.add_definite(d1, 1, inf, -scale)

    # correction sum: sum_{l < L} c_l(t) / (a - l(n+l-1))
    a = L * (n + L - 1)
    for l in range(L):
        collector.add("1", 0, 0, _scale(c[l], Fraction(1, a - l * (n + l - 1))))

    return _finalise(collector, n, L)


def _finalise(collector, n, L):
    """Assert the exact cancellations; return the canonical ClosedForm.

    Divergent powers of w and ln w cancel at infinity; the surd log and the
    odd powers of sqrt(1-t) cancel; ln 2 cancels against ln(1-t), which
    leaves ln((1-t)/2) with the ln(1-t) coefficient.
    """
    powers = sorted(key for key in collector.buckets if isinstance(key, tuple))
    checks = [(f"divergent power w^{key[1]}", (key,)) for key in powers]
    checks += [("ln w coefficient", ("lnw",)), ("surd log", ("LS",)),
               ("ln 2 against ln(1-t)", ("L1MT", "L2")), ("sqrt atoms", ("sqrt",))]
    for what, buckets in checks:
        if collector.merged(*buckets):
            raise AssertionError(f"{what} did not cancel for n={n}, L={L}")
    form = ClosedForm(collector.terms("L1MT", "lg") + collector.terms("1"), n=n, L=L)
    if any(atom == "lg" and (a or b) for atom, a, b, _coeffs in form.terms):
        raise AssertionError(f"log coefficient is not polynomial for n={n}, L={L}")
    return form
