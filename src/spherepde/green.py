"""Green functions of Delta* + a on S^n: series, radial integral, closed form.

The zonal Green function solving Delta* u + a u = f via u = f * G has the
Gegenbauer coefficients

    G-hat(l) = 1/(a - l(n+l-1)) * (lambda+l)/lambda ,

with the resonant degree excluded when a = L(n+L-1) for an integer L >= 0
(in particular l = 0 is excluded for the Poisson case a = 0, where
G-hat(l) = -1/(l(n+l-1)) (lambda+l)/lambda).

Three interchangeable evaluation backends:

series    -- the coefficient series, adaptive for every n: Abel
             summation through the Poisson-kernel-weighted series at
             five radii r = 1 - eps, with Richardson extrapolation
             r -> 1 (plain partial sums converge too slowly or not at
             all).  The five Abel sums, over the same 1e4 to 6e4
             degrees, come from one blocked Gegenbauer recurrence
             (geometry.gegenbauer_sums) with their sums of absolute
             terms, which give the tail estimate its roundoff floor.
integral  -- one fixed quadrature of the radial integral representation.
             Swapping the order of the double integral

    G(t) = -int_0^1 R^{-(n+2L)} int_0^R r^{n+L-2} S(r) dr dR + correction

             leaves the single integral

    G(t) = -int_0^1 S(r) w(r) dr + sum_{l<=M} G-hat(l) C_l(t),
    w(r) = (r^{-L-1} - r^{n+L-2}) / (n+2L-1),
    S(r) = Sigma_n p_r(t) - sum_{l<=M} r^l (lambda+l)/lambda C_l(t),

             where a = L(n+L-1), M = floor(L) (L itself in the resonant
             integer case, whose excluded degree has G-hat = 0), and both
             sums are empty when M < 0 (always so for a < 0).  At the
             double root n + 2L - 1 = 0, a = -(n-1)^2/4, the weight is
             its limit -r^{(n-3)/2} ln r.  Below it the roots are
             complex, L = -lambda + i beta with beta = sqrt(-(n-1)^2 - 4a)/2,
             M = -1, and the same formula gives the real weight
             -r^{(n-3)/2} sin(beta ln r)/beta, whose beta -> 0 limit is
             the double-root weight.  S is its tail series near r = 0,
             integrated exactly, and the closed-form Poisson kernel minus
             the partial sum above (green_eval_integral).  It serves every
             a, to an error target relative to 1 + |G|.
closed    -- the tabulated closed forms (green_tables registry, exact
             closedform.ClosedForm rows).

GreenFunction(param, backend) is the one switch among them: 'auto' takes
the registry row when (n, a) is tabulated, else the integral.  The series
is not on that route; it is the independent reference that green table,
verify and the tests compare the other two against.  Called with a float
t GreenFunction returns a float; with an array, an array of the same
shape.  green_series_batch (values and tail estimates) and
green_eval_integral are the backends' own entries.

All Green functions are singular on the diagonal t = 1 (logarithmically
for n = 2).  Every evaluator of G -- ClosedForm.eval, green_series_batch
and green_eval_integral -- checks t by the one rule
geometry._check_t_for_eval: roundoff past +-1 clamped, NaN, |t| > 1 and
the band t >= 1 - 1e-12 refused.  The series also
rejects 1 - t < 6e-5 n, which its radii do not resolve, and every
n >= 18: there its innermost-radius Abel sum adds terms of size
~l^{n-2} r^l that cancel, and the extrapolated value goes wrong at every
t (relative error up to 2.4e-3 at n = 18, 4.6e4 at n = 24) while its
tail estimate falls short of the error.  The integral backend covers
those n.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, log, sqrt

import numpy as np

from .errors import ConvergenceError, NoClosedFormError, SphereDomainError
from .geometry import (
    SphereContext,
    _blocks,
    _check_t_for_eval,
    _whole_number,
    eigenvalue,
    gegenbauer_bound,
    gegenbauer_sums,
    helmholtz_root,
)
from . import green_tables

# A coefficient whose eigenvalue gap is below this relative level (but
# not at the excluded degree) is flagged as ill-conditioned.
CONDITION_WARN_RTOL = 1e-6


@dataclass(frozen=True)
class HelmholtzParameter:
    """Helmholtz parameter a with its roots, which it computes (geometry.helmholtz_root).

    L is the principal root of a = L(n+L-1), None when both roots are
    complex (green_eval_integral takes the complex root itself); floor(L)
    is the integral's subtraction depth, never below the other root's.
    root is the half-integer a sits on, or None: it picks the registry row,
    and an integer root >= 0 is the resonant degree L_res (0 for a = 0).
    """

    ctx: SphereContext
    a: float
    L: float | None = field(init=False)
    root: Fraction | None = field(init=False)

    def __post_init__(self):
        L, root = helmholtz_root(self.ctx.n, self.a)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "root", root)

    @property
    def resonant(self):
        return self.root is not None and self.root.denominator == 1 and self.root >= 0

    @property
    def L_res(self):
        return int(self.root) if self.resonant else None

    @property
    def excluded(self):
        """The degree the Green coefficients drop: L_res, or -1 (none) off resonance."""
        return self.L_res if self.resonant else -1


helmholtz_parameter = HelmholtzParameter     # the record for Delta* + a on ctx's sphere


def parameter_from_root(ctx, L):
    """Parameter with a = L(n+L-1); L and its reflection -n-L+1 give the same record."""
    L = float(L)
    return helmholtz_parameter(ctx, L * (ctx.n + L - 1.0))


def eigen_gap(param, l):
    """a - l(n+l-1), the per-degree denominator of the Green coefficients."""
    return param.a + eigenvalue(param.ctx, l)


def green_coefficient(param, l):
    """G-hat(l) = (lambda+l)/lambda / (a - l(n+l-1)); 0 at the excluded degree."""
    l = _whole_number(l, 0, "degree l")
    lam = param.ctx.lam
    return 0.0 if l == param.excluded else float((lam + l) / lam / eigen_gap(param, l))


def green_coefficients(param, l_max):
    """Green coefficients for l = 0..l_max, the excluded degree zeroed."""
    l_max = _whole_number(l_max, 0, "degree l")
    ls = np.arange(l_max + 1)
    gap = eigen_gap(param, ls)
    ok = ls != param.excluded
    lam = param.ctx.lam
    out = np.zeros(l_max + 1)
    out[ok] = (lam + ls[ok]) / lam / gap[ok]
    return out


def condition_warnings(param, degrees):
    """(l, |a - l(n+l-1)|) for each of degrees (repeats allowed) whose gap is
    dangerously small, the excluded degree aside: once per degree, ascending."""
    degrees = np.asarray(degrees)
    gap = np.abs(eigen_gap(param, degrees))
    near = (gap <= CONDITION_WARN_RTOL * (1.0 + abs(param.a))) & (degrees != param.excluded)
    return sorted({int(l): float(g) for l, g in zip(degrees[near], gap[near])}.items())


# ---------------------------------------------------------------------------
# series backend
# ---------------------------------------------------------------------------

_ABEL_EPS = (0.05, 0.025, 0.0125, 0.00625, 0.003125)   # radii r = 1 - eps
_ABEL_RTOL = 1e-14          # geometric cut of the Abel sums
_ABEL_L_CUT_MAX = 2_000_000
# The extrapolation resolves the diagonal only down to 1 - t = n * this:
# its tail estimate falls below the error from ~3.3e-5 n (n = 2..16).
_ABEL_DIAG_GAP = 6e-5
_SERIES_N_MAX = 17          # above it the Abel sums cancel badly (module docstring)
# Tail floor in units of eps sum_k |rho_k| A_k (green_series_batch): against
# exact Abel sums the roundoff reached 2.1 units at 1 - t >= 0.01 (66 registry
# rows, n = 11..17 off it) and 20 at the band edge 1 - t = 6e-5 n, n = 17.
_SERIES_ROUNDOFF = 32
_EPS = np.finfo(float).eps


def _abel_values(param, ts):
    """Abel sums sum_l G-hat(l) r^l C_l(t) at r = 1 - _ABEL_EPS, batched over ts,
    and the sums of the absolute terms, which scale their roundoff.

    One cut, set by the largest radius, serves every radius:
    geometry.gegenbauer_sums takes the five rows of weights G-hat(l) r^l
    through one blocked recurrence, and no Gegenbauer matrix is built.
    The cut is the first degree from 64 on where a bound on the rest of
    the sum falls below _ABEL_RTOL, bracketed by steps of x1.6 and then
    bisected.  The cap only guards against a change to _ABEL_EPS: at
    r = 1 - 0.003125 the cut stays below 250 000 degrees up to n = 54, and
    green_series_batch stops at n = _SERIES_N_MAX before the cut search.
    """
    r = 1.0 - min(_ABEL_EPS)
    lam = param.ctx.lam

    def above(l):
        # the uniform Gegenbauer bound caps the degree-l term |G-hat(l) C_l(t)| by
        # (lambda+l)/(lambda |gap|) (n+l-2)^{n-2}, and r^l / (1 - r) sums the
        # geometric rest; the excluded degree (gap 0) never ends the sum
        gap = abs(float(eigen_gap(param, l)))
        return gap == 0.0 or ((lam + l) / (lam * gap) * gegenbauer_bound(param.ctx, l)
                              * r ** l / (1.0 - r) >= _ABEL_RTOL)

    lo, l_cut = 63, 64
    while above(l_cut):
        lo, l_cut = l_cut, int(l_cut * 1.6) + 8
        if l_cut > _ABEL_L_CUT_MAX:
            raise ConvergenceError(
                f"Abel sum at r = {r} needs more than {_ABEL_L_CUT_MAX} degrees")
    while l_cut - lo > 1:       # above(lo) holds and above(l_cut) does not
        mid = (lo + l_cut) // 2
        lo, l_cut = (mid, l_cut) if above(mid) else (lo, mid)
    coef = green_coefficients(param, l_cut)
    ls = np.arange(l_cut + 1)
    weights = np.stack([coef * (1.0 - eps) ** ls for eps in _ABEL_EPS])
    return gegenbauer_sums(param.ctx, weights, ts)


def _richardson_weights(eps):
    """rho with rho @ vals the value at eps = 0 of the polynomial through
    (eps_i, vals_i): the Lagrange weights prod_{j != i} eps_j / (eps_j - eps_i),
    within an ulp for _ABEL_EPS (a Vandermonde solve was ~1800 ulp off)."""
    e = np.asarray(eps, dtype=float)
    return np.array([np.prod(np.delete(e, i) / (np.delete(e, i) - e[i])) for i in range(e.size)])


def green_series_batch(param, ts):
    """Adaptive series values of G at an array of points (one shared pass).

    Abel summation through the Poisson-kernel-weighted series at the
    radii 1 - _ABEL_EPS, with Richardson extrapolation r -> 1, for every
    n <= _SERIES_N_MAX.  Returns (values, tail_estimates).  A tail is the
    change from dropping the innermost radius from the extrapolation, or,
    if larger, the innermost eps times the change from dropping the next
    one too (the first change passes through zero where the extrapolation
    error does not, e.g. at n = 3, a = 24, t = 0.75: 5e-11 against an
    error of 1.8e-10); plus a roundoff floor
    _SERIES_ROUNDOFF eps sum_k |rho_k| A_k, with rho the extrapolation's
    weights and A_k the Abel sum at radius k taken over absolute terms:
    near t = -1 those terms cancel to a value up to ~1e8 times smaller at
    n = 10.
    Larger n and points with 1 - t < n * _ABEL_DIAG_GAP raise
    ConvergenceError: there the sums cancel or the radii no longer resolve
    the singularity, and the tail understates the error.
    """
    ts = np.atleast_1d(_check_t_for_eval(ts))
    if param.ctx.n > _SERIES_N_MAX:
        raise ConvergenceError(
            f"the series backend is accurate up to n = {_SERIES_N_MAX}, got n = "
            f"{param.ctx.n}; use the integral backend")
    gap = param.ctx.n * _ABEL_DIAG_GAP
    if np.any(ts > 1.0 - gap):
        raise ConvergenceError(
            f"the series backend needs 1 - t >= {gap:.1e} at n = {param.ctx.n}, "
            f"got t = {float(ts.max())}; use the integral backend")
    vals, sizes = _abel_values(param, ts)
    m = len(_ABEL_EPS)
    rho = [_richardson_weights(_ABEL_EPS[:k]) for k in (m, m - 1, m - 2)]
    full, short, shorter = (r @ vals[:r.size] for r in rho)
    change = np.maximum(np.abs(full - short), min(_ABEL_EPS) * np.abs(short - shorter))
    return full, change + _SERIES_ROUNDOFF * _EPS * (np.abs(rho[0]) @ sizes)


# ---------------------------------------------------------------------------
# integral backend
# ---------------------------------------------------------------------------

_QUAD_RTOL = 1e-8       # error target, relative to 1 + |G|
_TAIL_DEGREES = 64      # tail terms past M on [0, r_s], where they fall ~2x per degree or faster
_HALVINGS = 40          # panels halving toward r = 1, where r = t peaks near the diagonal
_RULE = np.polynomial.legendre.leggauss(24)        # value, per panel
_CHECK_RULE = np.polynomial.legendre.leggauss(12)  # error estimate, per panel
# The weight r^{-L-1} reaches 2^{L+1} at the panels' start r_s <= 1/2, beyond the
# doubles once L > 1023: a deeper M = floor(L) is refused before any allocation
# (no point converges from M ~ 400 on).
_DEPTH_MAX = 1022


def _expm1_over(k, x):
    """(e^{kx} - 1)/k, with its limit x at k = 0."""
    return np.expm1(k * x) / k if k else x


def _panel_rule(r_s, rule):
    """Composite Gauss-Legendre nodes and weights on [r_s, 1], with panel
    edges at most ln 2 apart in ln(r/(1-r)): panels double from r_s, are at
    most 0.17 wide mid-way and halve toward r = 1 until 1 - r = 2^-_HALVINGS.
    """
    lo, hi = log(r_s / (1.0 - r_s)), _HALVINGS * log(2.0)
    x = np.linspace(lo, hi, ceil((hi - lo) / log(2.0)) + 1)
    edges = np.append(1.0 / (1.0 + np.exp(-x)), 1.0)
    mid = (edges[1:] + edges[:-1])[:, None] / 2.0
    half = (edges[1:] - edges[:-1])[:, None] / 2.0
    nodes, weights = rule
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def green_eval_integral(param, t):
    """The order-swapped integral representation at a float t or an array of t.

    G(t) = -int_0^1 S(r) w(r) dr + correction (module docstring), for
    every a.  Below r_s = min(1/2, (M+2)/(M+2+4 lambda)) the tail terms
    c_l r^l, l > M, already fall, and each integrates exactly; above it
    the subtracted closed kernel has not yet cancelled away, and goes
    through _panel_rule in one (nodes x points) evaluation.  For complex
    roots the weight and the tail moments are the real parts of the
    same expressions at complex L.

    ConvergenceError for a depth M above _DEPTH_MAX, and unless the tail
    converges and |G| is finite with |Q24 - Q12| plus a roundoff floor
    (from |w|, which changes sign for complex roots) within
    _QUAD_RTOL (1 + |G|); it is raised, for example, where the weight
    oscillates too fast for the panels (n = 11, a = -10000) or the kernel
    is too steep (n = 8, a = 2000.7).
    The target is relative to 1 + |G|, not |G|: for a far below
    -(n-1)^2/4, G decays exponentially away from the diagonal (|G| ~ 2e-20
    at n = 8, a = -400, t = -0.9), and the value there is accurate in
    absolute terms only.  A float t gives a float, an array an array of
    its shape.
    """
    t = _check_t_for_eval(t)
    ts = np.ravel(t)
    ctx, L = param.ctx, param.L
    lam = ctx.lam
    if L is None:     # complex roots -lambda +- i beta, beta = sqrt(-(n-1)^2 - 4a)/2
        L = complex(-lam, sqrt(-(ctx.n - 1.0) ** 2 - 4.0 * param.a) / 2.0)
        M = -1
    else:       # floor(L) may fall just short of a resonant degree
        M = max(floor(L), param.excluded)
    if M > _DEPTH_MAX:
        raise ConvergenceError(
            f"integral backend: L = {param.L:.6g} puts the subtraction depth above "
            f"{_DEPTH_MAX}, where the weight r^(-L-1) leaves the doubles")
    k = ctx.n + 2.0 * L - 1.0     # w(r) = -r^{-L-1} (r^k - 1)/k
    ls = np.arange(M + _TAIL_DEGREES + 1)
    (_, C), = _blocks(lam, M + _TAIL_DEGREES, ts, M + _TAIL_DEGREES + 1)
    c = ((lam + ls) / lam)[:, None] * C

    # [0, r_s]: int_0^{r_s} r^l w(r) dr in closed form, p = l - L, Re p > 0
    r_s = min(0.5, (M + 2.0) / (M + 2.0 + 4.0 * lam))
    p = ls[M + 1:] - L
    moments = np.real(r_s ** p / (p * (p + k)) * (1.0 - p * _expm1_over(k, log(r_s))))
    terms = moments[:, None] * c[M + 1:]
    size = np.abs(terms).sum(axis=0)
    if np.any(np.abs(terms[-2:]).max(axis=0) > _EPS * size):
        raise ConvergenceError(
            f"integral backend: the tail series on [0, {r_s:.3g}] does not converge "
            f"in {_TAIL_DEGREES} degrees")

    # [r_s, 1]: the subtracted closed kernel at the nodes of both rules at once
    r, w = _panel_rule(r_s, _RULE)
    r_check, w_check = _panel_rule(r_s, _CHECK_RULE)
    r = np.concatenate([r, r_check])[:, None]
    weight = np.real(-r ** (-L - 1.0) * _expm1_over(k, np.log(r)))
    with np.errstate(over="ignore", invalid="ignore"):    # a |G| beyond a double fails below
        u = (r - ts) ** 2 + (1.0 - ts) * (1.0 + ts)     # 1 - 2rt + r^2
        near = u < 0.5      # ln u from u near the diagonal, else from u - 1 = r(r - 2t)
        log_u = np.where(near, np.log(u), np.log1p(r * (r - 2.0 * ts)))
        kernel = (1.0 - r * r) * np.exp(-(ctx.n + 1) / 2.0 * log_u)
        f = (kernel - r ** ls[:M + 1] @ c[:M + 1]) * weight
        # roundoff floor: every term before it cancels; ln u is off by eps (|ln u| + near)
        scale = ((1.0 + (ctx.n + 1) / 2.0 * (np.abs(log_u) + near)) * kernel
                 + r ** ls[:M + 1] @ np.abs(c[:M + 1])) * np.abs(weight)
        value = w @ f[:w.size]
        err = np.abs(value - w_check @ f[w.size:]) + 8.0 * _EPS * (w @ scale[:w.size] + size)
        correction = green_coefficients(param, M) @ C[:M + 1] if M >= 0 else 0.0
        total = correction - terms.sum(axis=0) - value
    bad = ~np.isfinite(total) | ~(err <= _QUAD_RTOL * (1.0 + np.abs(total)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"integral backend did not reach {_QUAD_RTOL:.0e} (1 + |G|) at t = {ts[i]} "
            f"(error estimate {err[i]:.2e}, |G| = {abs(total[i]):.3g})",
            achieved=float(err[i]))
    return float(total[0]) if isinstance(t, float) else total.reshape(np.shape(t))


# ---------------------------------------------------------------------------
# facade: the one backend switch
# ---------------------------------------------------------------------------

_BACKENDS = ("auto", "closed", "series", "integral")


@dataclass
class GreenFunction:
    """G for one parameter through one backend, at a scalar t or an array of t.

    backend: 'closed' (the registry row), 'series', 'integral', or 'auto'
    (the registry row when (n, a) is tabulated, else the integral, which
    serves every a and raises ConvergenceError where it misses its
    target; 'auto' never falls back to the series, which stays the
    cross-check).  The row and the backend are resolved once, at
    construction, which raises SphereDomainError for any other name; this
    is the only place that maps a backend name to an evaluation.

    A float or 0-d t gives a float.  An array gives an array of its shape:
    one row.eval for 'closed', one green_series_batch for 'series', one
    green_eval_integral for 'integral'.  Each checks t once, by
    geometry._check_t_for_eval, and the facade not at all, so a registry
    row gives the same value or refusal called directly or here.  Callers
    that need the series tail estimate call green_series_batch directly.
    A row with a (1+t) denominator (the odd-n rows) raises
    NoClosedFormError at t = -1 (ClosedForm.eval), where its terms are 0/0.
    """

    param: HelmholtzParameter
    backend: str = "auto"

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise SphereDomainError(f"unknown Green backend {self.backend!r}")
        self._row = green_tables.lookup_by_root(self.param.ctx.n, self.param.root)
        self._kind = self.backend
        if self.backend == "auto":
            self._kind = "closed" if self._row is not None else "integral"

    def resolved_backend(self):
        """The backend name, with the registry table for a resolved 'auto'."""
        if self.backend == "auto" and self._kind == "closed":
            return f"closed_form(table{self._row.table})"
        return self._kind

    def __call__(self, t):
        kind = self._kind
        if kind == "closed":
            if self._row is None:
                raise NoClosedFormError(
                    f"no closed form tabulated for n={self.param.ctx.n}, a={self.param.a}; "
                    "use the integral backend")
            return self._row.eval(t)
        if kind == "series":
            vals = green_series_batch(self.param, np.ravel(t))[0]
            return float(vals[0]) if np.ndim(t) == 0 else vals.reshape(np.shape(t))
        return green_eval_integral(self.param, t)
