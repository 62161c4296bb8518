"""Exact-rational antiderivative engine for even-dimension Green functions.

The Green function of Delta* + a on S^n is an iterated radial integral of
the (subtracted) Poisson kernel.  For even n the kernel power (n+1)/2 is a
half-integer and all the radial antiderivatives stay inside a small closed
algebra: bivariate rational terms over powers of

    u(t, v) = 1 - 2 t v + v^2        (v is the radial variable),

half-integer powers of u (sqrt(u) factors), powers of 1 - t^2, and the
logarithms ln(v - t + sqrt(u)), ln(1 - t v + sqrt(u)), ln v.  This module
implements that algebra with exact Fraction coefficients, the recurrence
tables behind four antiderivative families, and the assembler that turns
the kernel_power family into the closed form of the Green function for
even n and integer L (a = L(n+L-1)).  Floating point enters only at
evaluation time.

Every antiderivative term is one Term(poly, kind, uhalf, tpow): a
bivariate polynomial with Fraction coefficients times either a power of a
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
tables of 1-t^2 and v-t, built once per pass in integer arithmetic,
instead of raising powers for every monomial.  Collector.add_definite
sums the polynomials of like terms (same kind, uhalf and tpow) before it
takes them to the endpoints.  All of it is exact, so the derived forms do
not change; nothing is memoised, so a repeated derivation costs the same.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, factorial, inf, lcm, log, pi, prod, sqrt

import numpy as np

from .errors import NoClosedFormError, SphereDomainError

F0 = Fraction(0)
F1 = Fraction(1)


# ---------------------------------------------------------------------------
# exact polynomials: univariate {i: Fraction}, bivariate {(i, j): Fraction}
# ---------------------------------------------------------------------------

def _clean(p):
    return {k: c for k, c in p.items() if c != 0}


def padd(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return _clean(out)


def pscale(a, s):
    s = Fraction(s)
    return _clean({k: c * s for k, c in a.items()})


def pmul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if isinstance(ka, tuple):
                k = (ka[0] + kb[0], ka[1] + kb[1])
            else:
                k = ka + kb
            out[k] = out[k] + ca * cb if k in out else ca * cb
    return _clean(out)


def ppow(a, m):
    if m < 0:
        raise ValueError("negative polynomial power")
    out = {(0, 0) if a and isinstance(next(iter(a)), tuple) else 0: F1}
    for _ in range(m):
        out = pmul(out, a)
    return out


def bi_eval(p, t, v):
    return sum(float(c) * t ** i * v ** j for (i, j), c in p.items())


def uni_to_bi(p):
    return {(i, 0): c for i, c in p.items()}


def bi_sub_v0(p, v0):
    """Bivariate -> univariate in t at v = v0, v0 = 0 or 1."""
    if v0 not in (0, 1):
        raise ValueError(f"bi_sub_v0 takes v0 = 0 or 1, got {v0}")
    out = {}
    for (i, j), c in p.items():
        if v0 or not j:
            out[i] = out[i] + c if i in out else c
    return _clean(out)


def _powers(p, m):
    """p^0, ..., p^m of a bivariate p, each by one product."""
    out = [{(0, 0): 1}]
    for _ in range(m):
        out.append(pmul(out[-1], p))
    return out


def _substitute(p, xs, ys):
    """Bivariate p with x and y put in for its variables, given their power
    tables xs[i] = x^i and ys[j] = y^j."""
    out = {}
    for (i, j), c in p.items():
        for (a, b), x in xs[i].items():
            for (e, f), y in ys[j].items():
                k = (a + e, b + f)
                out[k] = out[k] + c * (x * y) if k in out else c * (x * y)
    return _clean(out)


# building blocks in sphere variables (t, v)
BP_T = {(1, 0): F1}                       # t
BP_V = {(0, 1): F1}                       # v
BP_ONE = {(0, 0): F1}
# integer coefficients, so that their power tables stay integer arithmetic
BP_R = {(0, 1): 1, (1, 0): -1}            # v - t
BP_TT = {(0, 0): 1, (2, 0): -1}           # 1 - t^2
P_1MT = {0: F1, 1: -F1}                   # 1 - t   (univariate)
P_1PT = {0: F1, 1: F1}                    # 1 + t


def gegenbauer_poly(lam, l_max):
    """Exact C_l^lam(t) for l = 0..l_max as univariate polynomials, lam rational."""
    lam = Fraction(lam)
    out = [{0: F1}]
    if l_max >= 1:
        out.append(_clean({1: 2 * lam}))
    for l in range(2, l_max + 1):
        a = pscale(pmul({1: F1}, out[l - 1]), 2 * (l + lam - 1))
        b = pscale(out[l - 2], Fraction(l) + 2 * lam - 2)
        out.append(pscale(padd(a, pscale(b, -1)), Fraction(1, l)))
    return out


# ---------------------------------------------------------------------------
# expression terms (module docstring: sphere and shifted variables)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """poly * core^{uhalf/2} (kind "rat") or poly * ln(arg of kind), over den^{tpow}."""

    poly: dict
    kind: str = "rat"
    uhalf: int = 0
    tpow: int = 0


def expr_scale(terms, s):
    return [replace(term, poly=pscale(term.poly, s)) for term in terms]


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

def radial_split_polynomials(lam):
    """Splitting polynomials {j: Q_j}, j = 0..lam-3/2, univariate in T = 1-t^2.

    Defined by   1 = 2(lam-1) Q_0,
                 0 = 2(lam-2) Q_1 - [(2lam-3) + 2(lam-1) T] Q_0,
                 0 = 2(lam-j-1) Q_j - [(2lam-2j-1) + 2(lam-j) T] Q_{j-1}
                     + (2lam-2j+1) T Q_{j-2},      j = 2..lam-3/2.

    lam = 1/2 has an empty table (all index ranges are empty).
    """
    lam = Fraction(lam)
    if lam.denominator != 2 or lam <= 0:
        raise SphereDomainError(f"lam must be a positive half-integer (odd/2), got {lam}")
    top = int(lam - Fraction(3, 2))
    qs = {}
    if top >= 0:
        qs[0] = {0: 1 / (2 * (lam - 1))}
    if top >= 1:
        bracket = {0: 2 * lam - 3, 1: 2 * (lam - 1)}
        qs[1] = pscale(pmul(bracket, qs[0]), 1 / (2 * (lam - 2)))
    for j in range(2, top + 1):
        bracket = {0: 2 * lam - 2 * j - 1, 1: 2 * (lam - j)}
        term = pmul(bracket, qs[j - 1])
        term = padd(term, pscale(pmul({1: F1}, qs[j - 2]), -(2 * lam - 2 * j + 1)))
        qs[j] = pscale(term, 1 / (2 * (lam - j - 1)))
    return qs


def zonal_kernel_radial_antiderivative(lam):
    """Antiderivative of (1-r^2)/(r u^{lam+1}) - 1/r for half-integer lam.

    In sphere variables (t, v = r):

        1/(lam u^lam) + (1/2) sum_j 1/((lam-j) u^{lam-j})
        + sum_j t Q_{j-1}(1-t^2) (v-t) / ((1-t^2)^j u^{lam-j})
        - ln(1 - t v + sqrt(u)),        j = 1..lam-1/2.
    """
    lam = Fraction(lam)
    qs = radial_split_polynomials(lam)
    # Q_{j-1}(T) at T = 1-t^2, the substitution of _shifted_to_sphere
    tts = _powers(BP_TT, max((i for q in qs.values() for i in q), default=0))
    terms = [Term({(0, 0): 1 / lam}, uhalf=-int(2 * lam))]
    for j in range(1, int(lam + Fraction(1, 2))):
        terms.append(Term({(0, 0): Fraction(1, 2) / (lam - j)}, uhalf=-int(2 * (lam - j))))
        qpoly_t = _substitute(uni_to_bi(qs[j - 1]), tts, _powers(BP_R, 0))
        num = pmul(pmul(BP_T, qpoly_t), BP_R)
        terms.append(Term(num, uhalf=-int(2 * (lam - j)), tpow=j))
    terms.append(Term(pscale(BP_ONE, -1), "B"))
    return terms


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
    if k < 0 or J < 0:
        raise SphereDomainError(f"need k, J >= 0, got k={k}, J={J}")
    terms = []
    if k % 2 == 1:
        kappa = (k - 1) // 2
        for iota in range(kappa + 1):
            c = comb(kappa, iota) * Fraction((-1) ** (kappa - iota + 1), 2 * (J - iota) - 1)
            terms.append(Term({(kappa - iota, 0): c}, uhalf=-(2 * (J - iota) - 1)))
        return terms
    kappa = k // 2
    if kappa < J:
        for iota in range(J - kappa):
            c = comb(J - kappa - 1, iota) * Fraction((-1) ** (J - kappa - iota - 1),
                                                     2 * (J - iota) - 1)
            terms.append(Term({(0, 2 * (J - iota) - 1): c},
                              uhalf=-(2 * (J - iota) - 1), tpow=J - kappa))
        return terms
    table = shifted_polynomial_coefficients(kappa, J)
    a = table["lead"]
    for iota, ai in enumerate(table["poly"]):
        terms.append(Term({(kappa - iota - 1, 2 * iota + 1): ai}, uhalf=-(2 * J - 1)))
    terms.append(Term({(kappa - J, 0): a}, "A"))
    return terms


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
    xs = _powers(BP_TT, max((i for term in terms for i, _j in term.poly), default=0))
    ys = _powers(BP_R, max((j for term in terms for _i, j in term.poly), default=0))
    return [replace(term, poly=_substitute(term.poly, xs, ys)) for term in terms]


def kernel_power_antiderivative(L, J):
    """int v^L / u^{J+1/2} dv via the binomial shift onto the shifted family.

    v^L = ((v-t) + t)^L = sum_k binom(L,k) t^{L-k} (v-t)^k, so the result
    is sum_k binom(L,k) t^{L-k} shifted_power_antiderivative(k, J) mapped
    into sphere variables, all k in one _shifted_to_sphere pass.
    """
    if L < 0 or J < 0:
        raise SphereDomainError(f"need L, J >= 0, got L={L}, J={J}")
    # binom(L,k) scales the one-monomial shifted polynomials; t^{L-k}
    # shifts the powers of t after the substitution
    shifted = [(L - k, replace(term, poly=pscale(term.poly, comb(L, k))))
               for k in range(L + 1) for term in shifted_power_antiderivative(k, J)]
    sphere = _shifted_to_sphere([term for _shift, term in shifted])
    return [replace(term, poly={(i + shift, j): c for (i, j), c in term.poly.items()})
            for (shift, _shifted), term in zip(shifted, sphere)]


def log_coefficient_polynomials(k):
    """{j: pi_j^k}, j = 0..k-1, univariate in t; out-of-range indices are zero.

    pi_{k-1} = 1/(k(k+1)) and, downward for j = k-2..0,

        pi_j = [(2j+3) t pi_{j+1} - (j+2) pi_{j+2}] / (j+1),

    with pi_k = 0.  This is the unique family making
    p' u + p (v-t) + q = v^k/(k+1) hold for p = sum_j pi_j v^j; the
    specialisations pi_{k-2} = (2k-1) t pi_{k-1}/(k-1) and
    pi_0 = 3 t pi_1 - 2 pi_2 follow.
    """
    if k < 1:
        raise SphereDomainError(f"need k >= 1, got {k}")
    pi = {k - 1: {0: Fraction(1, k * (k + 1))}}
    for j in range(k - 2, -1, -1):
        term = pscale(pmul({1: F1}, pi[j + 1]), Fraction(2 * j + 3, j + 1))
        term = padd(term, pscale(pi.get(j + 2, {}), Fraction(-(j + 2), j + 1)))
        pi[j] = term
    return pi


def kernel_log_antiderivative(k):
    """int v^k ln(1 - t v + sqrt(u)) dv as sphere terms.

    k >= 1 follows the recurrence display; k = 0 is the degenerate closed
    form v ln(1 - t v + sqrt(u)) - v + ln(v - t + sqrt(u)).
    """
    if k < 0:
        raise SphereDomainError(f"need k >= 0, got {k}")
    if k == 0:
        return [Term(dict(BP_V), "B"), Term(pscale(BP_V, -1)), Term(dict(BP_ONE), "A")]
    pi = log_coefficient_polynomials(k)
    p_k = {}
    for j in range(k):
        p_k = padd(p_k, pmul({(0, j): F1}, uni_to_bi(pi.get(j, {}))))
    q_k = padd(pmul({1: F1}, pi.get(0, {})), pscale(pi.get(1, {}), -1))
    return [Term(p_k, uhalf=1),
            Term(uni_to_bi(q_k), "A"),
            Term({(0, k + 1): Fraction(1, k + 1)}, "B"),
            Term({(0, k + 1): Fraction(-1, (k + 1) ** 2)})]


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
    coefficients in ascending powers of t.  Construction makes the terms
    canonical -- like terms merged over a common denominator, common (1-t)
    and (1+t) factors cancelled, zero terms dropped, sorted -- so == holds
    exactly when two forms are the same function.  n, L, a and table only
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

        At t = -1 a form with a (1+t) denominator (the odd-n rows), whose
        terms are 0/0 there, raises NoClosedFormError.
        """
        scalar = isinstance(t, (float, int)) or np.ndim(t) == 0
        t = float(t) if scalar else np.asarray(t, dtype=float)
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


def _cancel_factor(num, e, root):
    """Cancel whole factors (1 - t/root), root = +-1, from num / (1 - t/root)^{e/2}."""
    while e >= 2 and _vanishes_at(num, root):
        # synthetic division by (t - root) = -root (1 - t/root)
        rem = F0
        quot = {}
        for i in range(max(num), 0, -1):
            rem = rem * root + num.get(i, F0)
            quot[i - 1] = -root * rem
        num = _clean(quot)
        e -= 2
    return num, e


def _vanishes_at(num, root):
    """num(root) == 0 for root = +-1, in integer arithmetic."""
    den = lcm(*(c.denominator for c in num.values()))
    return sum(c.numerator * (den // c.denominator) * root ** i for i, c in num.items()) == 0


def _canonical_terms(terms):
    groups = {}
    for atom, a, b, coeffs in terms:
        if atom not in ATOMS:
            raise ValueError(f"unknown closed-form atom {atom!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        poly = _clean({i: c if isinstance(c, Fraction) else Fraction(c) for i, c in items})
        if poly:
            groups.setdefault((atom, a % 2, b % 2), []).append((a, b, poly))
    out = []
    for (atom, a_par, b_par), members in groups.items():
        # common denominator of the group; negative exponents lift to >= 0
        A = max([a_par] + [m[0] for m in members])
        B = max([b_par] + [m[1] for m in members])
        num = {}
        for a, b, poly in members:
            if a != A or b != B:
                poly = pmul(poly, pmul(ppow(P_1MT, (A - a) // 2), ppow(P_1PT, (B - b) // 2)))
            num = padd(num, poly) if num else poly
        if not num:
            continue
        num, A = _cancel_factor(num, A, 1)
        num, B = _cancel_factor(num, B, -1)
        out.append((atom, A, B, tuple(num.get(i, F0) for i in range(max(num) + 1))))
    return tuple(sorted(out, key=lambda term: (ATOMS.index(term[0]), term[1], term[2])))


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
# and adds each piece poly(t) / ((1-t)^{a/2} (1+t)^{b/2}) to the polynomial
# kept under (a, b) in a bucket named after its factor:
#   "1"     rational;
#   "sqrt"  rational with an odd power of sqrt(1-t), the common sqrt(2) dropped;
#   "L1MT"  ln(1-t);   "L2"  ln 2;   "LS"  ln(1-t+sqrt(2(1-t)));
#   "lnw"   ln w and ("w", m) w^m, m >= 1, as w -> infinity.
# ClosedForm of a bucket's terms merges them over a common denominator
# exactly, so a combination that must cancel is one whose ClosedForm has no
# terms.

class Collector:
    def __init__(self):
        self.buckets = {}

    def add(self, bucket, a, b, poly):
        if poly:
            slot = self.buckets.setdefault(bucket, {})
            slot[a, b] = padd(slot.get((a, b), {}), poly)

    def terms(self, bucket, atom="1"):
        return [(atom, a, b, poly) for (a, b), poly in self.buckets.get(bucket, {}).items()]

    def merged(self, *buckets):
        """The buckets' terms together, as one canonical ClosedForm."""
        return ClosedForm([term for name in buckets for term in self.terms(name)])

    def add_definite(self, terms, lo, hi, scale):
        """Fold scale * (F(hi) - F(lo)), F the sum of terms, lo and hi in {0, 1, inf}.

        Terms alike but for their polynomials are summed first, so each
        distinct (kind, uhalf, tpow) is taken to each endpoint once.
        """
        like = {}
        for term in terms:
            poly = like.setdefault((term.kind, term.uhalf, term.tpow), {})
            for k, c in term.poly.items():
                poly[k] = poly[k] + c if k in poly else c
        like = {key: _clean(poly) for key, poly in like.items()}
        terms = [Term(poly, *key) for key, poly in like.items() if poly]
        for v0, s in ((hi, scale), (lo, -scale)):
            for term in terms:
                if v0 == inf:
                    self._add_at_infinity(term, s)
                else:
                    self._add_at(term, v0, s)

    def _add_at(self, term, v0, s):
        tp, h = 2 * term.tpow, term.uhalf
        if term.kind == "rat" and v0 == 1:
            # u -> 2(1-t): u^{h/2} = 2^{h//2} sqrt(2)^{h%2} (1-t)^{h/2}
            s = s * Fraction(2) ** (h // 2)
        poly = pscale(bi_sub_v0(term.poly, v0), s)
        if term.kind == "rat" and v0 == 0:
            # u -> 1
            self.add("1", tp, tp, poly)
        elif term.kind == "rat":
            self.add("sqrt" if h % 2 else "1", tp - h, tp, poly)
        elif term.kind == "A":
            # v - t + sqrt(u) -> 1 - t at v = 0, 1 - t + sqrt(2(1-t)) at v = 1
            self.add("L1MT" if v0 == 0 else "LS", tp, tp, poly)
        elif poly and (term.kind != "V" or v0 == 0):
            raise SphereDomainError(f"log kind {term.kind} has no collected value at v = {v0}")
        # kind "V" at v = 1: ln 1 = 0

    def _add_at_infinity(self, term, s):
        tp, h = 2 * term.tpow, term.uhalf
        if term.kind == "rat":
            # poly(t,v) u^{h/2}, u^{h/2} = v^h sum_k C_k^{-h/2}(t) v^{-k}
            top = max((j for (_i, j) in term.poly), default=0) + h
            series = gegenbauer_poly(Fraction(-h, 2), max(top, 0))
            for (i, j), c in term.poly.items():
                for k in range(j + h + 1):
                    m = j + h - k
                    self.add(("w", m) if m else "1", tp, tp,
                             pscale(pmul({i: F1}, series[k]), c * s))
            return
        if any(j != 0 for (_i, j) in term.poly):
            raise SphereDomainError("asymptotics need v-free log coefficients")
        coef = pscale(bi_sub_v0(term.poly, 0), s)
        # A: ln(v - t + sqrt(u)) = ln v + ln 2 + O(1/v);  V: ln v
        if term.kind not in ("A", "V"):
            raise SphereDomainError(f"log kind {term.kind} has no v->inf limit here")
        self.add("lnw", tp, tp, coef)
        if term.kind == "A":
            self.add("L2", tp, tp, coef)


# ---------------------------------------------------------------------------
# the assembler
# ---------------------------------------------------------------------------

# Largest n + L derived: the cost grows with the kernel power antiderivatives
# of degree n + L.  At n + L = 40 a derivation took 0.3-1.5 s on a 2-vCPU
# host ((2, 38), (8, 32), (40, 0), (78, -38)); (2, 64) took 5 s.
_DERIVE_MAX_NL = 40


def derive_green_closed_form(n, L):
    """Closed form of the Green function for even n, integer L, a = L(n+L-1).

    One route for every L (module docstring): G = -(D1 - D2)/(n+2L-1) plus
    the correction sum, with D2 from kernel_power antiderivatives on [0, 1]
    and D1 through r = 1/w on [1, infinity), its value at infinity the exact
    finite part.  Every cancellation the even-n form needs is asserted.

    Raises NoClosedFormError outside the supported range (odd n or
    non-integer L: those forms carry inverse-trig terms outside this
    algebra), and before building anything for n + L above _DERIVE_MAX_NL.
    """
    if n % 2 != 0 or n < 2:
        raise NoClosedFormError(
            f"closed-form assembly covers even n >= 2 only, got n={n}")
    if int(L) != L:
        raise NoClosedFormError(f"closed-form assembly needs integer L, got {L}")
    L = int(L)
    if 2 * L <= -(n - 1):
        raise NoClosedFormError(f"L={L} lies below the root range for n={n}")
    if n + L > _DERIVE_MAX_NL:
        raise NoClosedFormError(
            f"closed-form assembly is bounded to n + L <= {_DERIVE_MAX_NL}, got n={n}, L={L}")
    J = n // 2
    lam = Fraction(2 * J - 1, 2)
    geg = gegenbauer_poly(lam, max(L, 0))
    # c_l(t) = (lam+l)/lam C_l(t), subtracted from S(r) for l <= L
    c = [pscale(geg[l], (lam + l) / lam) for l in range(L + 1)]
    scale = Fraction(-1, n + 2 * L - 1)
    collector = Collector()
    # D2 and D1 integrate the same kernel power difference, D1 negated
    diff = kernel_power_antiderivative(n + L - 2, J)
    diff += expr_scale(kernel_power_antiderivative(n + L, J), -1)

    # D2 = int_0^1 r^{n+L-2} S(r) dr; G gains -scale * D2
    d2 = list(diff)
    for l in range(L + 1):
        e = n + L - 1 + l
        d2.append(Term(pmul(uni_to_bi(pscale(c[l], Fraction(-1, e))), {(0, e): F1})))
    collector.add_definite(d2, 0, 1, -scale)

    # D1 = int_0^1 r^{-L-1} S(r) dr; with r = 1/w,
    # D1 = -int_1^inf [(w^{n+L-2} - w^{n+L})/u(w)^{J+1/2} + sum_{l<=L} c_l w^{L-l-1}] dw;
    # G gains scale * D1
    d1 = list(diff)
    for l in range(L):
        d1.append(Term(pmul(uni_to_bi(pscale(c[l], Fraction(1, L - l))), {(0, L - l): F1})))
    if L >= 0:
        d1.append(Term(uni_to_bi(c[L]), "V"))
    collector.add_definite(d1, 1, inf, -scale)

    # correction sum: sum_{l < L} c_l(t) / (a - l(n+l-1))
    a = Fraction(L * (n + L - 1))
    for l in range(L):
        collector.add("1", 0, 0, pscale(c[l], 1 / (a - l * (n + l - 1))))

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
        if collector.merged(*buckets).terms:
            raise AssertionError(f"{what} did not cancel for n={n}, L={L}")
    form = ClosedForm(collector.terms("L1MT", "lg") + collector.terms("1"), n=n, L=L)
    if any(atom == "lg" and (a or b) for atom, a, b, _coeffs in form.terms):
        raise AssertionError(f"log coefficient is not polynomial for n={n}, L={L}")
    return form
