"""Sphere bookkeeping and Gegenbauer (ultraspherical) polynomial evaluation.

Everything in this library lives on the unit n-sphere S^n in R^{n+1},
n >= 2, with total surface measure

    Sigma_n = 2 pi^{(n+1)/2} / Gamma((n+1)/2).

Zonal functions on S^n expand in Gegenbauer polynomials C_l^lambda with
lambda = (n-1)/2, evaluated here by the standard forward three-term
recurrence

    C_0 = 1,   C_1 = 2 lambda t,
    l C_l = 2 (l + lambda - 1) t C_{l-1} - (l + 2 lambda - 2) C_{l-2},

which is stable on [-1, 1] for the degree ranges used here (l up to ~1e4,
double precision).  On [-1, 1] the polynomials obey the uniform bound
|C_l^lambda(t)| <= (n + l - 2)^{n-2}.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gamma, isfinite, pi, sqrt
from numbers import Integral

import numpy as np

from .errors import SphereDomainError

# Tolerated roundoff excursion of t outside [-1, 1] (arccos/cos round trips).
_T_SLACK = 1e-12

# a sits on the root L of a = L(n+L-1) within this relative gap (helmholtz_root).
RESONANCE_RTOL = 1e-9


def helmholtz_root(n, a):
    """(L, root) of a = L(n+L-1) on S^n; a non-finite a raises SphereDomainError.

    L is the principal (larger) root, None when both are complex.  root is
    the half-integer nearest L (-lambda for complex roots) as a Fraction
    when a lies within RESONANCE_RTOL (1 + |a|) of root(n+root-1), else
    None: it keys the registry, and an integer root >= 0 is resonant.

    A root is reported only where that window is narrower than half the
    a-gap to the nearer neighbouring half-integer root, (n+2 root-1)/2 - 1/4
    (1/4 at the double root), so that it tells the roots apart.  From
    L ~ 5e8 on it cannot, and root is None.  No Green backend reaches such
    degrees (the series cut stops at 2e6, the integral's depth at 1022),
    and a solve refuses a spectrum degree whose eigenvalue a equals.
    """
    a = float(a)
    if not isfinite(a):
        raise SphereDomainError(f"Helmholtz parameter a must be finite, got a = {a}")
    disc = (n - 1.0) ** 2 + 4.0 * a
    L = (sqrt(disc) - (n - 1.0)) / 2.0 if disc >= 0.0 else None
    near = round(2.0 * L) / 2.0 if L is not None else -(n - 1) / 2.0
    window = RESONANCE_RTOL * (1.0 + abs(a))
    half_gap = max(2.0 * (n + 2.0 * near - 1.0) - 1.0, 1.0) / 8.0
    if window < half_gap and abs(a - near * (n + near - 1.0)) <= window:
        return L, Fraction(near)
    return L, None


@dataclass(frozen=True)
class SphereContext:
    """S^n for an integral n >= 2 (an int, a NumPy int or a float such as 3.0,
    stored as an int), with the constants n fixes, which cannot be passed.

    lam     -- Gegenbauer order lambda = (n-1)/2
    sigma_n -- surface measure of S^n
    """

    n: int
    lam: float = field(init=False)
    sigma_n: float = field(init=False)

    def __post_init__(self):
        n = self.n
        if not (isinstance(n, Integral)
                or isinstance(n, (float, np.floating)) and float(n).is_integer()) or n < 2:
            raise SphereDomainError(f"sphere dimension must be an integer >= 2, got {n!r}")
        n = int(n)
        try:
            sigma_n = surface_measure(n)
        except OverflowError:       # Gamma((n+1)/2) beyond the doubles, n > 342
            raise SphereDomainError(f"sphere dimension {n} is too large") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", (n - 1) / 2.0)
        object.__setattr__(self, "sigma_n", sigma_n)


def surface_measure(n):
    """Total measure of S^n: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


make_context = SphereContext        # the context of S^n


def _clamp_t(t):
    """Clamp roundoff excursions of t to [-1, 1]; reject real excursions and NaN.

    A float or 0-d t gives a float, by conditional expressions (min/max made
    a scalar Green call ~15 % slower); an array gives an array of t's shape.
    """
    if isinstance(t, float) or np.ndim(t) == 0:
        t = float(t)
        if not abs(t) <= 1.0 + _T_SLACK:    # NaN fails it too
            raise SphereDomainError(f"argument t must lie in [-1, 1], got |t| = {abs(t)}")
        return -1.0 if t < -1.0 else 1.0 if t > 1.0 else t
    t = np.asarray(t, dtype=float)
    # written so that a NaN fails the test, as an excursion does
    if not np.all(np.abs(t) <= 1.0 + _T_SLACK):
        bad = float(np.max(np.abs(t)))
        raise SphereDomainError(f"argument t must lie in [-1, 1], got |t| = {bad}")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_batch(ctx, l_max, t):
    """All values [C_0^lambda(t), ..., C_{l_max}^lambda(t)] for scalar t."""
    return gegenbauer_matrix(ctx, l_max, float(t))[:, 0]


def gegenbauer(ctx, l, t):
    """C_l^lambda(t) for a single degree (delegates to the batch recurrence)."""
    if l < 0:
        raise SphereDomainError(f"degree l must be >= 0, got {l}")
    return float(gegenbauer_batch(ctx, l, t)[l])


def gegenbauer_rows(ctx, l_max, t):
    """Yield C_0^lambda(t), ..., C_{l_max}^lambda(t), each an array over t.

    The one recurrence pass: gegenbauer_matrix stacks its rows, and a
    caller that needs one degree at a time (analysis) streams them.
    """
    if l_max < 0:
        raise SphereDomainError(f"degree l must be >= 0, got {l_max}")
    t = np.atleast_1d(_clamp_t(t))
    lam = ctx.lam
    prev = np.ones_like(t)
    yield prev
    if l_max >= 1:
        cur = 2.0 * lam * t
        yield cur
        for l in range(2, l_max + 1):
            prev, cur = cur, (2.0 * (l + lam - 1.0) * t * cur - (l + 2.0 * lam - 2.0) * prev) / l
            yield cur


def gegenbauer_matrix(ctx, l_max, t):
    """Matrix C[l, j] = C_l^lambda(t_j) for a vector of arguments.

    gegenbauer_batch is its column for a scalar t, and synthesis and
    series summation use it directly.
    """
    rows = gegenbauer_rows(ctx, l_max, t)
    first = next(rows)
    out = np.empty((l_max + 1, first.size))
    out[0] = first
    for l, row in enumerate(rows, 1):
        out[l] = row
    return out


def gegenbauer_bound(ctx, l):
    """Uniform bound (n + l - 2)^{n-2} for |C_l^lambda| on [-1, 1]."""
    return float(ctx.n + l - 2) ** (ctx.n - 2)


def gegenbauer_at_one(ctx, l_max):
    """C_l^lambda(1) = binom(l + 2 lambda - 1, l) for l = 0..l_max.

    Computed by the stable product form
    C_l(1) = C_{l-1}(1) * (l + 2 lambda - 1) / l.
    """
    two_lam = 2.0 * ctx.lam
    out = np.empty(l_max + 1)
    out[0] = 1.0
    for l in range(1, l_max + 1):
        out[l] = out[l - 1] * (l + two_lam - 1.0) / l
    return out


def eigenvalue(ctx, l):
    """Laplace-Beltrami eigenvalue -l(n+l-1) on degree-l spherical harmonics."""
    l = np.asarray(l)
    return -l * (ctx.n + l - 1.0)
