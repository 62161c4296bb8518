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
grid.  Integrands of the Poisson type (rho l)^d exp(-rho l) decay
exponentially at both ends in log(rho), so truncation at [rho_min,
rho_max] leaves computable tails and the trapezoid rule converges
spectrally between them; the inversion error is measured, not assumed
(see the round-trip report in the tests/demos).

The workhorse family are the Poisson wavelets of order d >= 1,

    g_rho^d-hat(l) = 2^d/sqrt(Gamma(2d)) (rho l)^d exp(-rho l) (lambda+l)/lambda,

which are their own reconstruction family.
"""

from dataclasses import dataclass
from math import gamma, log, sqrt

import numpy as np

from .errors import QuadratureError, SphereDomainError
from .geometry import SphereContext
from .spectra import ZonalSpectrum

# Endpoint integrand level (relative to the admissibility target) above
# which a scale grid is considered too narrow.
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

    def refined(self, widen=1.0, factor=2):
        """A finer (and optionally wider) grid, for convergence studies."""
        return make_scale_grid(self.rho_min / widen, self.rho_max * widen,
                               self.count * factor)


def make_scale_grid(rho_min=1e-4, rho_max=50.0, count=400):
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


def poisson_wavelet(ctx, d):
    """Poisson wavelet family of order d >= 1 (self-reconstructing)."""
    if d < 1 or int(d) != d:
        raise SphereDomainError(f"Poisson wavelet order must be an integer >= 1, got {d}")
    d = int(d)
    lam = ctx.lam
    norm = 2.0 ** d / sqrt(gamma(2 * d))

    def hat(rho, l):
        x = np.multiply(rho, l, dtype=float)
        return norm * x ** d * np.exp(-x) * (lam + l) / lam

    return WaveletFamily(ctx=ctx, hat=hat, tag=f"poisson(d={d})")


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

    def max_abs_deviation(self):
        return float(np.max(np.abs(self.deviation)))

    def max_rel_deviation(self):
        scale = np.where(self.target == 0.0, 1.0, np.abs(self.target))
        return float(np.max(np.abs(self.deviation) / scale))


def check_admissibility(psi, omega, l_max, grid=None):
    """Numeric admissibility integrals for l = 0..l_max.

    Raises QuadratureError (with the endpoint integrand levels) for the
    lowest degree l >= 1 whose integrand the grid is too narrow to hold.
    """
    if psi.ctx != omega.ctx:
        raise SphereDomainError("wavelet families live on different spheres")
    if grid is None:
        grid = make_scale_grid(1e-8, 60.0, 800)
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


def reconstruction_wavelet(psi, l_max, grid=None):
    """Reconstruction family Omega with Omega-hat = Psi-hat / alpha_l(Psi).

    alpha_l = (lambda/(lambda+l))^2 int |Psi-hat(l)|^2 drho/rho must be
    nonzero for 1 <= l <= l_max; Omega-hat is 0 at l = 0 and undefined
    above l_max.
    """
    if grid is None:
        grid = make_scale_grid(1e-8, 60.0, 800)
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

    def spectrum_at(self, j):
        """The zonal spectrum of W(rho_j, .)."""
        return ZonalSpectrum(self.ctx, self.coeffs[j])


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
    coeffs = factor * np.conj(psi.hat(grid.nodes[:, None], ls))
    if np.all(coeffs.imag == 0.0):
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
    if np.all(out.imag == 0.0):
        out = out.real
    return ZonalSpectrum(ctx, out)


def roundtrip_error(psi, omega, f, grid):
    """Relative L^2 coefficient error of inverse(forward(f)) against f."""
    from .spectra import norm_l2
    rec = inverse_transform(omega, wavelet_transform(psi, f, grid), grid)
    diff = ZonalSpectrum(f.ctx, rec.padded(f.l_max) - f.coeffs)
    nf = norm_l2(f)
    return norm_l2(diff) / nf if nf > 0 else 0.0
