"""Continuous zonal wavelet analysis on S^n.

A wavelet family assigns to each scale rho > 0 a zonal spectrum
Psi_rho-hat(l).  A pair of families (Psi, Omega) is admissible when

    int_0^inf conj(Psi_rho-hat(l)) Omega_rho-hat(l) drho/rho
        = ((lambda+l)/lambda)^2   for l >= 1,   and 0 for l = 0.

The transform of a zero-mean zonal f is W(rho, .) = f * conj(Psi_rho); it
is inverted by integrating W(rho, .) * Omega_rho against drho/rho.  Both
directions act diagonally per degree, so everything here is coefficient
arithmetic plus a quadrature over log(rho): a family's hat broadcasts over
arrays of scales and degrees, each transform evaluates it once as a
(scales x degrees) table and sums the scales with one product by the
quadrature weights.

The scale integral is discretised by a trapezoid rule on a log-uniform
grid.  For the Poisson pair the admissibility integrand over its target
is, in s = 2 rho l, the same function s^(2d) exp(-s) / Gamma(2d) at every
degree, so poisson_scale_grid bounds both of its errors by construction:
the truncation at [rho_min, rho_max] from the two roots of that level,
and the trapezoid aliasing from |Gamma(2d + 2 pi i/h)| / Gamma(2d).  Any
other family takes an explicit make_scale_grid.

The workhorse family are the Poisson wavelets of order d >= 1,

    g_rho^d-hat(l) = 2^d/sqrt(Gamma(2d)) (rho l)^d exp(-rho l) (lambda+l)/lambda,

which are their own reconstruction family.
"""

from dataclasses import dataclass
from math import ceil, exp, frexp, gamma, ldexp, lgamma, log, log1p, pi, sqrt

import numpy as np

from .errors import QuadratureError, SphereDomainError
from .geometry import SphereContext
from .spectra import ZonalSpectrum, norm_l2

# Endpoint integrand level (relative to the admissibility target) above
# which a scale grid is considered too narrow; poisson_scale_grid also
# holds its aliasing bound to half of it.
_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class WaveletFamily:
    """Scale-indexed zonal family given by its Gegenbauer coefficients.

    hat(rho, l) takes scales rho and integer degrees l as scalars or arrays
    that broadcast together, and returns the coefficients in the broadcast
    shape: hat(nodes[:, None], ls) is the (scales x degrees) table.
    Degree 0 gives 0 for every family defined here.
    """

    ctx: SphereContext
    hat: callable
    tag: str = ""


@dataclass(frozen=True)
class ScaleGrid:
    """Log-uniform trapezoid discretisation of int drho/rho on [rho_min, rho_max]."""

    rho_min: float
    rho_max: float
    count: int
    nodes: np.ndarray
    weights: np.ndarray


def make_scale_grid(rho_min, rho_max, count):
    """Log-uniform trapezoid grid; weights integrate drho/rho exactly for constants."""
    if not (0.0 < rho_min < rho_max):
        raise QuadratureError(f"need 0 < rho_min < rho_max, got [{rho_min}, {rho_max}]")
    if count < 2:
        raise QuadratureError(f"need at least 2 scale nodes, got {count}")
    x = np.linspace(log(rho_min), log(rho_max), count)
    h = x[1] - x[0]
    w = np.full(count, h)
    w[0] = w[-1] = h / 2.0
    return ScaleGrid(rho_min, rho_max, count, np.exp(x), w)


# the largest Poisson wavelet order whose norm 2^d / sqrt(Gamma(2d)) is a
# finite double: Gamma(2d) overflows from d = 86 on
POISSON_MAX_ORDER = 85


def _poisson_order(d):
    """d as an int, or SphereDomainError unless 1 <= d <= POISSON_MAX_ORDER."""
    if d < 1 or int(d) != d:
        raise SphereDomainError(f"Poisson wavelet order must be an integer >= 1, got {d}")
    d = int(d)
    if d > POISSON_MAX_ORDER:
        raise SphereDomainError(
            f"Poisson wavelet order must be <= {POISSON_MAX_ORDER}, got {d}: the norm "
            "2^d/sqrt(Gamma(2d)) is not a finite double beyond it")
    return d


def _check_l_max(l_max):
    """SphereDomainError unless l_max >= 0 (degrees run 0..l_max)."""
    if l_max < 0:
        raise SphereDomainError(f"l_max must be >= 0, got {l_max}")


def poisson_wavelet(ctx, d):
    """Poisson wavelet family of order 1 <= d <= POISSON_MAX_ORDER (self-reconstructing)."""
    d = _poisson_order(d)
    lam = ctx.lam
    norm = 2.0 ** d / sqrt(gamma(2 * d))
    # norm l^d = (2^k l)^d (norm 2^-kd) with 2^k <= norm^(1/d): the power
    # stays finite wherever the product does (l^d alone overflows at
    # d = 85, l = 5000), and scaling by powers of two rounds nothing, so
    # the factor is bit for bit norm l^d wherever that is finite
    k = frexp(norm ** (1.0 / d))[1] - 1
    two_k, scaled_norm = 2.0 ** k, ldexp(norm, -k * d)

    def hat(rho, l):
        # one table buffer: exp(-rho l) in place, times a per-degree
        # norm l^d (lam+l)/lam and a per-scale rho^d, never (rho l)^d per
        # cell; the degree factor comes first, so that where exp(-rho l)
        # is small rho^d < 1 does not push the product into subnormals
        rho = np.asarray(rho, dtype=float)
        l = np.asarray(l, dtype=float)
        table = np.asarray(np.multiply(-rho, l))
        np.exp(table, out=table)
        table *= scaled_norm * (two_k * l) ** d * (lam + l) / lam
        table *= rho ** d
        return table if table.ndim else float(table)

    return WaveletFamily(ctx=ctx, hat=hat, tag=f"poisson(d={d})")


def _crossing(f, inside, step, level):
    """Where f, above level at inside and falling outward, meets level.

    Steps outward by step until f <= level, then bisects; returns the
    outer end of the last bracket, where f <= level.
    """
    outside = inside + step
    while f(outside) > level:
        inside, outside = outside, outside + step
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        if f(mid) > level:
            inside = mid
        else:
            outside = mid
    return outside


def _log_abs_gamma(m, y):
    """ln |Gamma(m + iy)| for an integer m >= 1 and y > 0, exactly:
    |Gamma(m + iy)|^2 = (pi y / sinh(pi y)) prod_{k=1}^{m-1} (k^2 + y^2)."""
    z = pi * y
    log_sinh = z + log1p(-exp(-2.0 * z)) - log(2.0)
    return 0.5 * (log(z) - log_sinh + sum(log(k * k + y * y) for k in range(1, m)))


def poisson_scale_grid(d, l_max):
    """The make_scale_grid grid on which the order-d Poisson pair is
    admissible to _TAIL_TOL for every degree 1..l_max (l_max = 0 takes
    the l = 1 grid).

    In s = 2 rho l the admissibility integrand over its target is
    p(s) = s^(2d) exp(-s) / Gamma(2d) at every degree:
    - rho_min = s_lo / (2 l_max) and rho_max = s_hi / 2, with s_lo < 2d <
      s_hi the roots of p = _TAIL_TOL, keep the endpoint levels that
      check_admissibility tests below _TAIL_TOL at every degree;
    - in x = ln rho each degree's integrand is a shift of one function
      whose Fourier transform is Gamma(2d - i w) / Gamma(2d), so the
      trapezoid step h aliases by about 2 |Gamma(2d + 2 pi i/h)| / Gamma(2d)
      (Trefethen & Weideman, SIAM Review 56 (2014)); h keeps that at
      _TAIL_TOL / 2.
    """
    _check_l_max(l_max)
    m = 2 * _poisson_order(d)
    log_gamma_m = lgamma(m)

    def log_p(u):                       # ln p(e^u)
        return m * u - exp(u) - log_gamma_m

    def log_alias(v):                   # ln of the aliasing bound at 2 pi/h = e^v
        return log(2.0) + _log_abs_gamma(m, exp(v)) - log_gamma_m

    s_lo = exp(_crossing(log_p, log(m), -1.0, log(_TAIL_TOL)))
    s_hi = exp(_crossing(log_p, log(m), 1.0, log(_TAIL_TOL)))
    h = 2.0 * pi / exp(_crossing(log_alias, 0.0, 1.0, log(_TAIL_TOL / 2.0)))
    # widened by a hair, so that the endpoint levels pass the strict check
    rho_min = 0.999 * s_lo / (2.0 * max(l_max, 1))
    rho_max = 1.001 * s_hi / 2.0
    return make_scale_grid(rho_min, rho_max, ceil(log(rho_max / rho_min) / h) + 1)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    """Per-degree scale integrals against the admissibility targets."""

    l: np.ndarray
    integral: np.ndarray       # numeric int conj(Psi-hat) Omega-hat drho/rho
    target: np.ndarray         # ((lambda+l)/lambda)^2, 0 at l=0
    deviation: np.ndarray      # integral - target

    def max_rel_deviation(self):
        scale = np.where(self.target == 0.0, 1.0, np.abs(self.target))
        return float(np.max(np.abs(self.deviation) / scale))


def check_admissibility(psi, omega, l_max, grid):
    """Numeric admissibility integrals for l = 0..l_max on the scale grid.

    Raises QuadratureError (with the endpoint integrand levels) for the
    lowest degree l >= 1 whose integrand the grid is too narrow to hold.
    """
    if psi.ctx != omega.ctx:
        raise SphereDomainError("wavelet families live on different spheres")
    _check_l_max(l_max)
    lam = psi.ctx.lam
    ls = np.arange(l_max + 1)
    target = ((lam + ls) / lam) ** 2
    target[0] = 0.0
    rho = grid.nodes[:, None]
    vals = np.conj(psi.hat(rho, ls)) * omega.hat(rho, ls)
    lo, hi = np.abs(vals[0]), np.abs(vals[-1])
    limit = _TAIL_TOL * np.maximum(target, 1.0)
    wide = (lo > limit) | (hi > limit)
    wide[0] = False
    if np.any(wide):
        l = int(np.argmax(wide))
        raise QuadratureError(
            f"scale grid too narrow for degree {l}: endpoint integrand "
            f"levels {lo[l]:.3e} (rho_min) / {hi[l]:.3e} (rho_max) exceed "
            f"{_TAIL_TOL:.0e} of the target {target[l]:.3e}; widen "
            f"[{grid.rho_min}, {grid.rho_max}]")
    integral = grid.weights @ vals
    if np.all(integral.imag == 0.0):
        integral = integral.real
    return AdmissibilityReport(l=ls, integral=integral, target=target,
                               deviation=integral - target)


def reconstruction_wavelet(psi, l_max, grid):
    """Reconstruction family Omega with Omega-hat = Psi-hat / alpha_l(Psi).

    alpha_l = (lambda/(lambda+l))^2 int |Psi-hat(l)|^2 drho/rho must be
    nonzero for 1 <= l <= l_max; Omega-hat is 0 at l = 0 and undefined
    above l_max; alpha_l is integrated on the scale grid.
    """
    _check_l_max(l_max)
    lam = psi.ctx.lam
    ls = np.arange(l_max + 1)
    vals = np.abs(psi.hat(grid.nodes[:, None], ls)) ** 2
    alpha = (lam / (lam + ls)) ** 2 * (grid.weights @ vals)
    vanishing = np.abs(alpha) <= 1e-12
    vanishing[0] = False
    if np.any(vanishing):
        l = int(np.argmax(vanishing))
        raise SphereDomainError(
            f"family is not admissible: alpha_{l} = {alpha[l]:.3e} vanishes")
    inv_alpha = np.zeros(l_max + 1)
    inv_alpha[1:] = 1.0 / alpha[1:]

    def hat(rho, l):
        if np.any(np.asarray(l) > l_max):
            raise SphereDomainError(
                f"reconstruction wavelet built only up to degree {l_max}, "
                f"asked for {np.max(l)}")
        return psi.hat(rho, l) * inv_alpha[l]

    return WaveletFamily(ctx=psi.ctx, hat=hat, tag=f"reconstruction({psi.tag})")


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

@dataclass
class WaveletTransform:
    """Transform stored spectrally: coeffs[j, l] is degree l at scale nodes[j]."""

    ctx: SphereContext
    grid: ScaleGrid
    coeffs: np.ndarray

    @property
    def l_max(self):
        return self.coeffs.shape[1] - 1


def wavelet_transform(psi, f, grid):
    """W(rho, .) = f * conj(Psi_rho) at every scale node of the grid.

    Invertibility requires f to have zero mean; the transform itself
    accepts any zonal spectrum.
    """
    if psi.ctx != f.ctx:
        raise SphereDomainError("wavelet family and signal live on different spheres")
    lam = f.ctx.lam
    ls = np.arange(f.l_max + 1)
    factor = lam / (lam + ls) * f.coeffs
    table = psi.hat(grid.nodes[:, None], ls)
    coeffs = factor * (np.conj(table) if np.iscomplexobj(table) else table)
    if np.iscomplexobj(coeffs) and np.all(coeffs.imag == 0.0):
        coeffs = coeffs.real
    return WaveletTransform(ctx=f.ctx, grid=grid, coeffs=coeffs)


def inverse_transform(omega, transform, grid):
    """Sum over scales of W(rho, .) * Omega_rho, weighted by the drho/rho rule.

    The degree-0 coefficient is forced to zero (the inversion formula holds
    for zero-mean signals).
    """
    if grid is not transform.grid and (
            grid.count != transform.grid.count
            or grid.rho_min != transform.grid.rho_min
            or grid.rho_max != transform.grid.rho_max):
        raise QuadratureError("inverse_transform must use the grid of the forward transform")
    ctx = transform.ctx
    lam = ctx.lam
    ls = np.arange(transform.l_max + 1)
    om = omega.hat(grid.nodes[:, None], ls)
    out = lam / (lam + ls) * (grid.weights @ (transform.coeffs * om))
    out[0] = 0.0
    if np.iscomplexobj(out) and np.all(out.imag == 0.0):
        out = out.real
    return ZonalSpectrum(ctx, out)


def roundtrip_error(psi, omega, f, grid):
    """Relative L^2 coefficient error of inverse(forward(f)) against f."""
    rec = inverse_transform(omega, wavelet_transform(psi, f, grid), grid)
    diff = ZonalSpectrum(f.ctx, rec.padded(f.l_max) - f.coeffs)
    nf = norm_l2(f)
    return norm_l2(diff) / nf if nf > 0 else 0.0
