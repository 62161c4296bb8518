"""Continuous zonal wavelet analysis on S^n.

A wavelet family assigns to each scale rho > 0 a zonal spectrum
Psi_rho-hat(l).  A pair of families (Psi, Omega) is admissible when

    int_0^inf conj(Psi_rho-hat(l)) Omega_rho-hat(l) drho/rho
        = ((lambda+l)/lambda)^2   for l >= 1,   and 0 for l = 0.

The transform of a zero-mean zonal f is W(rho, .) = f * conj(Psi_rho); it
is inverted by integrating W(rho, .) * Omega_rho against drho/rho.  Both
directions act diagonally per degree, so everything here is coefficient
arithmetic plus a quadrature over log(rho): a family's hat broadcasts over
arrays of scales and degrees, and everything here evaluates it on blocks
of consecutive scales by every degree, about geometry.BLOCK_SIZE cells
each.  The forward transform writes each block, times the signal, into
its preallocated output; the inverse, the admissibility integrals and the
reconstruction family's norms sum each block over its scales with the
quadrature weights in one fused product, so no other (scales x degrees)
array is built.  Nothing here writes into what a hat returns.

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

from dataclasses import dataclass, field
from math import ceil, exp, frexp, gamma, inf, ldexp, lgamma, log, log1p, pi, sqrt

import numpy as np

from .errors import QuadratureError, SphereDomainError
from .geometry import BLOCK_SIZE, SphereContext, _whole_number
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
    shape: hat(nodes[:, None], ls) is the (scales x degrees) table.  The
    transforms call it on blocks of the grid's scales, and never write
    into what it returns.  Degree 0 gives 0 for every family defined here.
    """

    ctx: SphereContext
    hat: callable
    tag: str = ""


@dataclass(frozen=True)
class ScaleGrid:
    """Log-uniform trapezoid discretisation of int drho/rho on [rho_min, rho_max];
    nodes and weights (exact for constants) follow from the three numbers.

    QuadratureError unless 0 < rho_min < rho_max < inf and count is a whole
    number (stored as an int) from 2 to below geometry._SIZE_MAX.
    """

    rho_min: float
    rho_max: float
    count: int
    nodes: np.ndarray = field(init=False, compare=False)
    weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.rho_min < self.rho_max < inf):
            raise QuadratureError(
                f"need 0 < rho_min < rho_max < inf, got [{self.rho_min}, {self.rho_max}]")
        try:
            count = _whole_number(self.count, 2, "scale node count")
        except SphereDomainError as exc:
            raise QuadratureError(str(exc)) from None
        object.__setattr__(self, "count", count)
        x = np.linspace(log(self.rho_min), log(self.rho_max), self.count)
        h = x[1] - x[0]
        w = np.full(self.count, h)
        w[0] = w[-1] = h / 2.0
        object.__setattr__(self, "nodes", np.exp(x))
        object.__setattr__(self, "weights", w)


make_scale_grid = ScaleGrid         # the grid of count nodes on [rho_min, rho_max]


def _scale_blocks(grid, l_max):
    """Slices of the grid's scales, in order, whose rows over degrees
    0..l_max hold about BLOCK_SIZE cells (one scale at least).  A caller
    drops each block's tables before it asks a hat for the next."""
    step = max(1, BLOCK_SIZE // (l_max + 1))
    return [slice(j, j + step) for j in range(0, grid.count, step)]


def _conj_hat(family, rho, l):
    """conj(family.hat(rho, l)): the hat's own array when it is real."""
    table = family.hat(rho, l)
    return np.conj(table) if np.iscomplexobj(table) else table


# the largest Poisson wavelet order whose norm 2^d / sqrt(Gamma(2d)) is a
# finite double: Gamma(2d) overflows from d = 86 on
POISSON_MAX_ORDER = 85


def _poisson_order(d):
    """d as an int, or SphereDomainError unless 1 <= d <= POISSON_MAX_ORDER."""
    d = _whole_number(d, 1, "Poisson wavelet order")
    if d > POISSON_MAX_ORDER:
        raise SphereDomainError(
            f"Poisson wavelet order must be <= {POISSON_MAX_ORDER}, got {d}: the norm "
            "2^d/sqrt(Gamma(2d)) is not a finite double beyond it")
    return d


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
    l_max = _whole_number(l_max, 0, "l_max")
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
    l_max = _whole_number(l_max, 0, "l_max")
    lam = psi.ctx.lam
    ls = np.arange(l_max + 1)
    target = ((lam + ls) / lam) ** 2
    target[0] = 0.0
    integral = 0.0
    for rows in _scale_blocks(grid, l_max):
        rho = grid.nodes[rows, None]
        table, other = _conj_hat(psi, rho, ls), omega.hat(rho, ls)
        integral = integral + np.einsum("j,jl,jl->l", grid.weights[rows], table, other)
        if rows.start == 0:
            lo = np.abs(table[0] * other[0])
        hi = np.abs(table[-1] * other[-1])      # the last block's is kept
        del table, other
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
    l_max = _whole_number(l_max, 0, "l_max")
    lam = psi.ctx.lam
    ls = np.arange(l_max + 1)
    total = 0.0
    for rows in _scale_blocks(grid, l_max):
        table = psi.hat(grid.nodes[rows, None], ls)
        if np.iscomplexobj(table):
            table = np.abs(table)
        total = total + np.einsum("j,jl,jl->l", grid.weights[rows], table, table)
        del table
    alpha = (lam / (lam + ls)) ** 2 * total
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
    for rows in _scale_blocks(grid, f.l_max):
        table = _conj_hat(psi, grid.nodes[rows, None], ls)
        if rows.start == 0:
            coeffs = np.empty((grid.count, ls.size), dtype=np.result_type(factor, table))
        np.multiply(factor, table, out=coeffs[rows])
        del table
    if np.iscomplexobj(coeffs) and np.all(coeffs.imag == 0.0):
        coeffs = coeffs.real
    return WaveletTransform(ctx=f.ctx, grid=grid, coeffs=coeffs)


def inverse_transform(omega, transform, grid):
    """Sum over scales of W(rho, .) * Omega_rho, weighted by the drho/rho rule.

    The degree-0 coefficient is forced to zero (the inversion formula holds
    for zero-mean signals).
    """
    if grid != transform.grid:
        raise QuadratureError("inverse_transform must use the grid of the forward transform")
    ctx = transform.ctx
    lam = ctx.lam
    ls = np.arange(transform.l_max + 1)
    total = 0.0
    for rows in _scale_blocks(grid, transform.l_max):
        om = omega.hat(grid.nodes[rows, None], ls)
        total = total + np.einsum("j,jl,jl->l", grid.weights[rows], transform.coeffs[rows], om)
        del om
    out = lam / (lam + ls) * total
    out[0] = 0.0
    if np.iscomplexobj(out) and np.all(out.imag == 0.0):
        out = out.real
    return ZonalSpectrum(ctx, out)


def roundtrip_error(psi, omega, f, grid):
    """Relative L^2 coefficient error of inverse(forward(f)) against f."""
    return _relative_error(f, inverse_transform(omega, wavelet_transform(psi, f, grid), grid))


def _relative_error(f, rec):
    """Relative L^2 coefficient error of the reconstruction rec against f."""
    diff = ZonalSpectrum(f.ctx, rec.padded(f.l_max) - f.coeffs)
    nf = norm_l2(f)
    return norm_l2(diff) / nf if nf > 0 else 0.0
