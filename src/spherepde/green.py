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
             all).
integral  -- one adaptive quadrature of the radial integral
             representation.  Swapping the order of the double integral

    G(t) = -int_0^1 R^{-(n+2L)} int_0^R r^{n+L-2} S(r) dr dR + correction

             leaves the single integral

    G(t) = -int_0^1 S(r) w(r) dr
           + sum_{l<=M'} 1/(a-l(n+l-1)) (lambda+l)/lambda C_l(t),
    w(r) = (r^{-L-1} - r^{n+L-2}) / (n+2L-1),
    S(r) = Sigma_n p_r(t) - sum_{l<=M} r^l (lambda+l)/lambda C_l(t),

             where a = L(n+L-1), M = floor(L) for noninteger L (M' = M),
             M = L with M' = L-1 in the resonant integer case, and both
             sums are empty when M < 0 (always so for a < 0).  At the
             double root n + 2L - 1 = 0, a = -(n-1)^2/4, the weight is
             its limit -r^{(n-3)/2} ln r.  The subtracted integrand is
             evaluated from the closed-form Poisson kernel, switching to
             its geometric tail series for small r where the closed-form
             difference would cancel catastrophically.
closed    -- the tabulated closed forms (green_tables registry, exact
             closedform.ClosedForm rows).

All Green functions are singular on the diagonal t = 1 (logarithmically
for n = 2); every backend rejects evaluation there.  The series also
rejects 1 - t < 6e-5 n, which its radii do not resolve, and every
n >= 18: there its innermost-radius Abel sum adds terms of size
~l^{n-2} r^l that cancel, and the extrapolated value goes wrong at every
t (relative error up to 2.4e-3 at n = 18, 4.6e4 at n = 24) while its
tail estimate falls short of the error.  The integral backend covers
those n.
"""

import warnings
from dataclasses import dataclass
from math import floor, log, sqrt

import numpy as np
from scipy import integrate

from .errors import (
    ConvergenceError,
    NoClosedFormError,
    ResonanceError,
    SphereDomainError,
)
from .geometry import (
    _T_SLACK,
    SphereContext,
    gegenbauer_bound,
    gegenbauer_matrix,
)
from . import green_tables

# Resonance is declared within this relative gap; a coefficient whose gap
# is below the warning level (but not resonant) is flagged as
# ill-conditioned.
RESONANCE_RTOL = 1e-9
CONDITION_WARN_RTOL = 1e-6

_DIAG_TOL = 1e-12   # t >= 1 - _DIAG_TOL counts as the diagonal


@dataclass(frozen=True)
class HelmholtzParameter:
    """Helmholtz parameter a with its root L of a = L(n+L-1).

    L is the principal (larger) root; for a < -(n-1)^2/4 both roots are
    complex, L is None and only the series backend applies.  L0 is the
    subtraction depth max(floor(L), floor(-n-L+1)) of the integral
    representation.  resonant marks a = l(n+l-1) for an integer l >= 0
    (recorded as L_res); the Poisson case a = 0 is resonant at 0.
    """

    ctx: SphereContext
    a: float
    L: float | None
    L0: int | None
    resonant: bool
    L_res: int | None


def helmholtz_parameter(ctx, a):
    """Build the parameter record for Delta* + a on the given sphere."""
    a = float(a)
    n = ctx.n
    disc = (n - 1.0) ** 2 + 4.0 * a
    if disc >= 0.0:
        L = (-(n - 1.0) + sqrt(disc)) / 2.0
        L0 = int(max(floor(L), floor(-n - L + 1)))
    else:
        L = None
        L0 = None
    resonant = False
    L_res = None
    if L is not None and L >= -0.5:
        cand = int(round(L))
        if cand >= 0 and abs(a - cand * (n + cand - 1)) <= RESONANCE_RTOL * (1.0 + abs(a)):
            resonant = True
            L_res = cand
    return HelmholtzParameter(ctx=ctx, a=a, L=L, L0=L0, resonant=resonant, L_res=L_res)


def parameter_from_root(ctx, L):
    """Parameter with a = L(n+L-1); L and its reflection -n-L+1 give the same record."""
    L = float(L)
    a = L * (ctx.n + L - 1.0)
    return helmholtz_parameter(ctx, a)


def eigen_gap(param, l):
    """a - l(n+l-1), the per-degree denominator of the Green coefficients."""
    l = np.asarray(l, dtype=float)
    return param.a - l * (param.ctx.n + l - 1.0)


def green_coefficient(param, l):
    """G-hat(l) = (lambda+l)/lambda / (a - l(n+l-1)); 0 at the excluded degree."""
    if l < 0:
        raise SphereDomainError(f"degree l must be >= 0, got {l}")
    if param.resonant and l == param.L_res:
        return 0.0
    gap = float(eigen_gap(param, l))
    if abs(gap) <= RESONANCE_RTOL * (1.0 + abs(param.a)):
        raise ResonanceError(
            f"a = {param.a} is resonant at degree {l}; the Green coefficient has a pole",
            degree=l)
    lam = param.ctx.lam
    return (lam + l) / lam / gap


def green_coefficients(param, l_max):
    """Vector of Green coefficients for l = 0..l_max (excluded degree zeroed)."""
    ls = np.arange(l_max + 1)
    gap = eigen_gap(param, ls)
    lam = param.ctx.lam
    small = np.abs(gap) <= RESONANCE_RTOL * (1.0 + abs(param.a))
    if np.any(small):
        bad = ls[small]
        if not (param.resonant and bad.size == 1 and bad[0] == param.L_res):
            raise ResonanceError(
                f"a = {param.a} is resonant at degree {int(bad[0])}", degree=int(bad[0]))
    out = np.zeros(l_max + 1)
    ok = ~small
    out[ok] = (lam + ls[ok]) / lam / gap[ok]
    return out


def condition_warnings(param, l_max):
    """Degrees whose eigenvalue gap is dangerously small (but not resonant)."""
    ls = np.arange(l_max + 1)
    gap = np.abs(eigen_gap(param, ls))
    near = (gap <= CONDITION_WARN_RTOL * (1.0 + abs(param.a)))
    if param.resonant:
        near &= ls != param.L_res
    return [(int(l), float(g)) for l, g in zip(ls[near], gap[near])]


def _check_t_for_eval(t):
    """Scalar t clamped to [-1, 1] as _clamp_t does; rejects the diagonal."""
    t = float(t)
    if abs(t) > 1.0 + _T_SLACK:
        raise SphereDomainError(f"argument t must lie in [-1, 1], got |t| = {abs(t)}")
    t = min(max(t, -1.0), 1.0)
    if t >= 1.0 - _DIAG_TOL:
        raise SphereDomainError(
            "Green functions are singular on the diagonal t = 1; "
            f"got t = {t}")
    return t


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


def crude_tail_term(param, l):
    """Bound on the degree-l term |G-hat(l) C_l(t)| of the series.

    (lambda+l)/(lambda |a - l(n+l-1)|) * (n+l-2)^{n-2}, from the uniform
    Gegenbauer bound.  Summed over l the bounds diverge for every n >= 2;
    _abel_values damps them by r^l / (1 - r) to place its cut.
    """
    lam = param.ctx.lam
    gap = abs(float(eigen_gap(param, l)))
    return (lam + l) / (lam * gap) * gegenbauer_bound(param.ctx, l)


def _abel_values(param, ts):
    """Abel sums sum_l G-hat(l) r^l C_l(t) at r = 1 - _ABEL_EPS, batched over ts.

    One cut, set by the largest radius, and one Gegenbauer matrix serve
    every radius; only the powers r^l change between them.  The cut cap
    only guards against a change to _ABEL_EPS: at r = 1 - 0.003125 the
    cut stays below 250 000 degrees up to n = 54, and green_series_batch
    stops at n = _SERIES_N_MAX before the cut search.
    """
    r = 1.0 - min(_ABEL_EPS)
    # geometric cut: (lambda+l)/lambda (n+l-2)^{n-2} r^l / gap below _ABEL_RTOL
    l_cut = 64
    while crude_tail_term(param, l_cut) * r ** l_cut / (1.0 - r) >= _ABEL_RTOL:
        l_cut = int(l_cut * 1.6) + 8
        if l_cut > _ABEL_L_CUT_MAX:
            raise ConvergenceError(
                f"Abel sum at r = {r} needs more than {_ABEL_L_CUT_MAX} degrees")
    coef = green_coefficients(param, l_cut)
    C = gegenbauer_matrix(param.ctx, l_cut, ts)
    ls = np.arange(l_cut + 1)
    return np.stack([(coef * (1.0 - eps) ** ls) @ C for eps in _ABEL_EPS])


def _richardson_batch(eps, vals):
    """Extrapolate vals[i, :] at eps[i] -> eps = 0 (power series in eps)."""
    V = np.vander(np.asarray(eps), len(eps), increasing=True)
    return np.linalg.solve(V, np.asarray(vals))[0]


def green_series_batch(param, ts):
    """Adaptive series values of G at an array of points (one shared pass).

    Abel summation through the Poisson-kernel-weighted series at the
    radii 1 - _ABEL_EPS, with Richardson extrapolation r -> 1, for every
    n <= _SERIES_N_MAX.  Returns (values, tail_estimates); a tail is the
    change from dropping the innermost radius from the extrapolation.
    Larger n and points with 1 - t < n * _ABEL_DIAG_GAP raise
    ConvergenceError: there the sums cancel or the radii no longer resolve
    the singularity, and the tail understates the error.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    for t in ts:
        _check_t_for_eval(float(t))
    if param.ctx.n > _SERIES_N_MAX:
        raise ConvergenceError(
            f"the series backend is accurate up to n = {_SERIES_N_MAX}, got n = "
            f"{param.ctx.n}; use the integral backend")
    gap = param.ctx.n * _ABEL_DIAG_GAP
    if np.any(ts > 1.0 - gap):
        raise ConvergenceError(
            f"the series backend needs 1 - t >= {gap:.1e} at n = {param.ctx.n}, "
            f"got t = {float(ts.max())}; use the integral backend")
    vals = _abel_values(param, ts)
    full = _richardson_batch(_ABEL_EPS, vals)
    short = _richardson_batch(_ABEL_EPS[:-1], vals[:-1])
    return full, np.abs(full - short)


def green_eval_series(param, t, with_tail=False):
    """Series evaluation of G(t) at one point, via green_series_batch.

    with_tail also returns its tail estimate.
    """
    t = _check_t_for_eval(t)
    vals, tails = green_series_batch(param, np.array([t]))
    return (float(vals[0]), float(tails[0])) if with_tail else float(vals[0])


# ---------------------------------------------------------------------------
# integral backend
# ---------------------------------------------------------------------------

_R_SWITCH = 0.25     # below this radius the subtracted kernel uses its tail series
_TAIL_TERMS = 96     # geometric tail length at r <= _R_SWITCH (error < 1e-30 for n <= 10)
_QUAD_RTOL = 1e-8    # quadrature error target, relative to 1 + |G|


class _SubtractedKernel:
    """S(r) = Sigma_n p_r(t) - sum_{l<=M} r^l (lambda+l)/lambda C_l(t), vectorised in r.

    C holds C_l(t) for l <= max(M, _TAIL_TERMS), one recurrence that also
    serves the correction sum of green_eval_integral.
    """

    def __init__(self, param, t, subtract_top):
        ctx = param.ctx
        self.n = ctx.n
        self.t = t
        self.M = subtract_top
        lam = ctx.lam
        l_hi = max(self.M, _TAIL_TERMS)
        ls = np.arange(l_hi + 1)
        self.C = gegenbauer_matrix(ctx, l_hi, t)[:, 0]
        self.cl = (lam + ls) / lam * self.C

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        lo = r < _R_SWITCH
        if np.any(lo):
            # tail series sum_{l>M} c_l r^l: geometric, no cancellation
            ls = np.arange(self.M + 1, len(self.cl))
            out[lo] = (r[lo, None] ** ls) @ self.cl[self.M + 1:]
        hi = ~lo
        if np.any(hi):
            rr = r[hi]
            u = 1.0 - 2.0 * rr * self.t + rr * rr
            k = (1.0 - rr * rr) / u ** ((self.n + 1) / 2.0)
            if self.M >= 0:
                ls = np.arange(self.M + 1)
                k = k - (rr[:, None] ** ls) @ self.cl[:self.M + 1]
            out[hi] = k
        return out


def green_eval_integral(param, t):
    """One adaptive quadrature of the order-swapped integral representation.

    G(t) = -int_0^1 S(r) w(r) dr + correction (module docstring), by
    adaptive Gauss-Kronrod in r; the error estimate must stay within
    _QUAD_RTOL (1 + |G|).  Requires a real root L, i.e.
    a >= -(n-1)^2/4.
    """
    if param.L is None:
        raise SphereDomainError(
            f"a = {param.a} < -(n-1)^2/4: the integral representation needs a real "
            "root L; use the series backend")
    t = _check_t_for_eval(t)
    n, L = param.ctx.n, param.L
    if param.resonant:
        sub_top, corr_top = param.L_res, param.L_res - 1
    else:
        sub_top = corr_top = param.L0 if param.L0 >= 0 else -1
    S = _SubtractedKernel(param, t, sub_top)

    k = n + 2.0 * L - 1.0
    if k == 0.0:
        # double root a = -(n-1)^2/4: the k -> 0 limit of the weight
        def integrand(r):
            return -S(r) * r ** ((n - 3) / 2.0) * log(r)
    else:
        def integrand(r):
            return S(r) * (r ** (-L - 1.0) - r ** (n + L - 2.0)) / k

    with warnings.catch_warnings():
        # the explicit error check below governs; quad's certification
        # warning near roundoff level is redundant with it
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # quad's relative target is relative to the integral, which the
        # correction sum can cancel to a much smaller G (integral 12.9,
        # G = 0.64 at n = 3, a = 3.3, t = 0.993), so it aims well below
        val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=_QUAD_RTOL / 4.0,
                                  epsrel=_QUAD_RTOL * 1e-3, limit=400)
    total = -val
    if corr_top >= 0:
        total += float(green_coefficients(param, corr_top) @ S.C[:corr_top + 1])
    if err > _QUAD_RTOL * (1.0 + abs(total)):
        raise ConvergenceError(
            f"integral backend did not reach {_QUAD_RTOL:.0e} (1 + |G|) at t = {t} "
            f"(error estimate {err:.2e}, |G| = {abs(total):.3g})",
            achieved=err)
    return total


# ---------------------------------------------------------------------------
# closed-form backend and facade
# ---------------------------------------------------------------------------

def closed_form_row(param):
    """The registry row for (n, a), or None."""
    return green_tables.lookup(param.ctx.n, param.a)


def _closed_eval(row, param, t):
    if row is None:
        raise NoClosedFormError(
            f"no closed form tabulated for n={param.ctx.n}, a={param.a}; "
            "use the series or integral backend")
    return row.eval(_check_t_for_eval(t))


def green_eval_closed(param, t):
    """Tabulated closed form; raises NoClosedFormError for uncovered (n, a)."""
    return _closed_eval(closed_form_row(param), param, t)


@dataclass
class GreenFunction:
    """Evaluator facade over one parameter with a chosen backend.

    backend: 'closed', 'series', 'integral', or 'auto' (closed when
    tabulated, else adaptive series).  The registry row and the backend
    are resolved once, at construction.
    """

    param: HelmholtzParameter
    backend: str = "auto"

    def __post_init__(self):
        self._row = None
        self._kind = self.backend
        if self.backend in ("auto", "closed"):
            self._row = closed_form_row(self.param)
            if self.backend == "auto":
                self._kind = "closed" if self._row is not None else "series"

    def coefficient(self, l):
        return green_coefficient(self.param, l)

    def coefficients(self, l_max):
        return green_coefficients(self.param, l_max)

    def resolved_backend(self):
        if self.backend != "auto":
            return self.backend
        row = self._row
        return f"closed_form(table{row.table})" if row is not None else "series"

    def __call__(self, t):
        kind = self._kind
        if kind == "closed":
            return _closed_eval(self._row, self.param, t)
        if kind == "series":
            return green_eval_series(self.param, t)
        if kind == "integral":
            return green_eval_integral(self.param, t)
        raise SphereDomainError(f"unknown Green backend {kind!r}")
