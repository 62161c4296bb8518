"""Green functions of Delta* + a on S^n: series, double-integral, closed form.

The zonal Green function solving Delta* u + a u = f via u = f * G has the
Gegenbauer coefficients

    G-hat(l) = 1/(a - l(n+l-1)) * (lambda+l)/lambda ,

with the resonant degree excluded when a = L(n+L-1) for an integer L >= 0
(in particular l = 0 is excluded for the Poisson case a = 0, where
G-hat(l) = -1/(l(n+l-1)) (lambda+l)/lambda).

Three interchangeable evaluation backends:

series    -- partial sums of the coefficient series; with an explicit
             L_max a plain partial sum, otherwise adaptive (direct
             doubling for n = 2, Abel summation through the
             Poisson-kernel-weighted series with Richardson
             extrapolation r -> 1 for n >= 3, where partial sums
             converge too slowly or not at all).
integral  -- nested adaptive quadrature of the double-integral
             representation

    G(t) = -int_0^1 R^{-(n+2L)} int_0^R r^{n+L-2}
               (Sigma_n p_r(t) - sum_{l<=M} r^l (lambda+l)/lambda C_l(t)) dr dR
           + sum_{l<=M'} 1/(a-l(n+l-1)) (lambda+l)/lambda C_l(t),

             where a = L(n+L-1), M = floor(L) for noninteger L (M' = M),
             M = L with M' = L-1 in the resonant integer case, and both
             sums are empty when M < 0 (always so for a < 0).  The
             subtracted integrand is evaluated from the closed-form
             Poisson kernel, switching to its geometric tail series for
             small r where the closed-form difference would cancel
             catastrophically.
closed    -- the tabulated closed forms (green_tables registry, exact
             closedform.ClosedForm rows).

All Green functions are singular on the diagonal t = 1 (logarithmically
for n = 2); evaluation there is rejected except for the n = 2 series,
which only warns.
"""

import warnings
from dataclasses import dataclass
from math import floor, sqrt

import numpy as np
from scipy import integrate
from scipy.special import roots_jacobi

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


def _check_t_for_eval(param, t, allow_diag_n2=False):
    """Scalar t clamped to [-1, 1] as _clamp_t does; rejects the diagonal."""
    t = float(t)
    if abs(t) > 1.0 + _T_SLACK:
        raise SphereDomainError(f"argument t must lie in [-1, 1], got |t| = {abs(t)}")
    t = min(max(t, -1.0), 1.0)
    if t >= 1.0 - _DIAG_TOL:
        if allow_diag_n2 and param.ctx.n == 2:
            warnings.warn(
                "Green functions are log-singular at t = 1 for n = 2; the "
                "partial sum at the diagonal diverges slowly", stacklevel=3)
            return t
        raise SphereDomainError(
            "Green functions are singular on the diagonal t = 1; "
            f"got t = {t}")
    return t


# ---------------------------------------------------------------------------
# series backend
# ---------------------------------------------------------------------------

def _partial_sum(param, t, l_max):
    coef = green_coefficients(param, l_max)
    C = gegenbauer_matrix(param.ctx, l_max, t)[:, 0]
    return float(coef @ C)


def crude_tail_term(param, l):
    """First-omitted-term bound from the uniform Gegenbauer bound.

    (lambda+l)/(lambda |a - l(n+l-1)|) * (n+l-2)^{n-2}.  The full tail sum
    of these bounds diverges for every n >= 2, so only the leading term is
    reported; the adaptive driver relies on empirical stabilisation (n=2)
    or Abel summation (n>=3) instead.
    """
    lam = param.ctx.lam
    gap = abs(float(eigen_gap(param, l)))
    return (lam + l) / (lam * gap) * gegenbauer_bound(param.ctx, l)


def _abel_values(param, ts, eps_list, rtol=1e-14):
    """Abel sums sum_l G-hat(l) r^l C_l(t) at r = 1 - eps, batched over ts."""
    ctx = param.ctx
    out = np.empty((len(eps_list), ts.size))
    for i, eps in enumerate(eps_list):
        r = 1.0 - eps
        # geometric cut: (lambda+l)/lambda (n+l-2)^{n-2} r^l / gap below rtol
        l_cut = 64
        while True:
            lead = crude_tail_term(param, l_cut) * r ** l_cut / (1.0 - r)
            if lead < rtol or l_cut > 2_000_000:
                break
            l_cut = int(l_cut * 1.6) + 8
        coef = green_coefficients(param, l_cut)
        C = gegenbauer_matrix(ctx, l_cut, ts)
        rl = r ** np.arange(l_cut + 1)
        out[i] = (coef * rl) @ C
    return out


def _richardson_batch(eps, vals):
    """Extrapolate vals[i, :] at eps[i] -> eps = 0 (power series in eps)."""
    V = np.vander(np.asarray(eps), len(eps), increasing=True)
    return np.linalg.solve(V, np.asarray(vals))[0]


def green_series_batch(param, ts):
    """Adaptive series values of G at an array of points (one shared pass).

    n = 2 sums directly with doubling until stabilised; n >= 3 uses Abel
    summation through the Poisson-kernel-weighted series with Richardson
    extrapolation r -> 1 (the fallback where partial sums converge too
    slowly or not at all).  Returns (values, tail_estimates).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    for t in ts:
        _check_t_for_eval(param, float(t), allow_diag_n2=True)
    ctx = param.ctx
    if ctx.n == 2:
        l_max = 4000
        coef = green_coefficients(param, l_max)
        prev = coef @ gegenbauer_matrix(ctx, l_max, ts)
        for _ in range(8):
            l_max *= 2
            coef = green_coefficients(param, l_max)
            cur = coef @ gegenbauer_matrix(ctx, l_max, ts)
            delta = np.max(np.abs(cur - prev) / (1.0 + np.abs(cur)))
            if delta <= 1e-7:
                break
            prev = cur
        else:
            raise ConvergenceError("n=2 series did not stabilise", achieved=delta)
        return cur, np.abs(cur - prev)
    eps = (0.05, 0.025, 0.0125, 0.00625, 0.003125)
    vals = _abel_values(param, ts, eps)
    full = _richardson_batch(eps, vals)
    short = _richardson_batch(eps[:-1], vals[:-1])
    return full, np.abs(full - short)


def green_eval_series(param, t, l_max=None, with_tail=False):
    """Series evaluation of G(t).

    With an explicit l_max: the plain partial sum through degree l_max;
    the reported tail estimate combines the crude first-omitted-term
    bound with the empirical change over the last doubling.

    With l_max None: adaptive, via green_series_batch.
    """
    t = _check_t_for_eval(param, t, allow_diag_n2=True)
    if l_max is not None:
        if l_max < 1:
            raise SphereDomainError(f"series needs l_max >= 1, got {l_max}")
        val = _partial_sum(param, t, l_max)
        if not with_tail:
            return val
        half = _partial_sum(param, t, l_max // 2)
        tail = abs(val - half) + crude_tail_term(param, l_max + 1)
        return val, tail
    vals, tails = green_series_batch(param, np.array([t]))
    return (float(vals[0]), float(tails[0])) if with_tail else float(vals[0])


# ---------------------------------------------------------------------------
# integral backend
# ---------------------------------------------------------------------------

_R_SWITCH = 0.25     # below this radius the subtracted kernel uses its tail series
_TAIL_TERMS = 96     # geometric tail length at r <= _R_SWITCH (error < 1e-30 for n <= 10)


class _SubtractedKernel:
    """S(r) = Sigma_n p_r(t) - sum_{l<=M} r^l (lambda+l)/lambda C_l(t), vectorised in r."""

    def __init__(self, param, t, subtract_top):
        ctx = param.ctx
        self.n = ctx.n
        self.t = t
        self.M = subtract_top
        lam = ctx.lam
        l_hi = max(self.M, _TAIL_TERMS)
        ls = np.arange(l_hi + 1)
        C = gegenbauer_matrix(ctx, l_hi, t)[:, 0]
        self.cl = (lam + ls) / lam * C

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


def green_eval_integral(param, t, abs_tol=1e-8):
    """Nested adaptive quadrature of the double-integral representation.

    Outer integral over R by adaptive Gauss-Kronrod; inner integral over
    r = R s by a fixed Gauss-Jacobi rule in s absorbing the r^{n+L-2}
    weight (validated by order doubling).  Requires a real root L, i.e.
    a >= -(n-1)^2/4.
    """
    if param.L is None:
        raise SphereDomainError(
            f"a = {param.a} < -(n-1)^2/4: the integral representation needs a real "
            "root L; use the series backend")
    t = _check_t_for_eval(param, t)
    ctx = param.ctx
    n, lam, L = ctx.n, ctx.lam, param.L
    if param.resonant:
        sub_top, corr_top = param.L_res, param.L_res - 1
    else:
        sub_top = corr_top = param.L0 if param.L0 >= 0 else -1
    S = _SubtractedKernel(param, t, sub_top)

    beta = n + L - 2.0
    if beta <= -1.0:  # cannot happen for L > -(n-1)/2, kept as a guard
        raise SphereDomainError(f"inner exponent n+L-2 = {beta} is not integrable")
    xj, wj = roots_jacobi(64, 0.0, beta)
    s_nodes = (xj + 1.0) / 2.0
    s_weights = wj * 2.0 ** (-beta - 1.0)
    xj2, wj2 = roots_jacobi(96, 0.0, beta)
    s_nodes2 = (xj2 + 1.0) / 2.0
    s_weights2 = wj2 * 2.0 ** (-beta - 1.0)

    check = {"worst": 0.0}

    def outer(R):
        if R <= 0.0:
            return 0.0
        inner = s_weights @ S(R * s_nodes)
        inner2 = s_weights2 @ S(R * s_nodes2)
        check["worst"] = max(check["worst"], abs(inner - inner2))
        # R^{n+L-1} from the substitution, R^{-(n+2L)} from the outer weight
        return R ** (-L - 1.0) * inner2

    with warnings.catch_warnings():
        # the explicit error check below governs; quad's certification
        # warning near roundoff level is redundant with it
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(outer, 0.0, 1.0, epsabs=abs_tol / 4.0,
                                  epsrel=1e-11, limit=400)
    if err > abs_tol or check["worst"] > abs_tol / 4.0:
        raise ConvergenceError(
            f"double-integral backend did not reach {abs_tol:.1e} at t = {t} "
            f"(outer error {err:.2e}, inner mismatch {check['worst']:.2e})",
            achieved=max(err, check["worst"]))
    total = -val
    for l in range(0, corr_top + 1):
        total += green_coefficient(param, l) * gegenbauer_matrix(ctx, l, t)[l, 0]
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
    return row.eval(_check_t_for_eval(param, t))


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
    series_l_max: int | None = None
    integral_abs_tol: float = 1e-8

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
            return green_eval_series(self.param, t, self.series_l_max)
        if kind == "integral":
            return green_eval_integral(self.param, t, self.integral_abs_tol)
        raise SphereDomainError(f"unknown Green backend {kind!r}")
