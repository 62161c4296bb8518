"""Zonal and general spectra on S^n, analysis/synthesis, convolution.

A zonal function f(t), t = cos(theta), is held as its Gegenbauer
coefficients f_hat(l), l = 0..L_max:

    f(t) = sum_l f_hat(l) C_l^lambda(t).

A general (non-zonal) function is held purely spectrally as a sparse map
(degree l, opaque order token k) -> complex coefficient; the library never
interprets the order tokens.

This module alone knows how the two kinds lay out their coefficients:
unpack reads spectra as one degree array plus one value array each, and
rebuild turns values back into a spectrum of the same kind.  Every
per-degree operator is one array expression over that view.  Convolution
with a zonal kernel g acts diagonally per degree,

    (f * g)-hat(l) = lambda/(lambda + l) * f_hat(l) * g_hat(l),

and the Laplace-Beltrami operator multiplies the degree-l coefficient by
-l(n+l-1).

Analysis integrals use Gauss quadrature for the weight (1-t^2)^{lambda-1/2}
(the zonal reduction of the surface measure), built with NumPy alone.  The
weight is even, so only the positive nodes are sought.  Liouville-Green
phase asymptotics matched to Bessel zeros place them within ~0.1/(m+lambda)
in phase (never more than ~1e-3), Newton passes on the orthonormal recurrence polish them (two at
the sizes analysis uses), and the Christoffel-Darboux identity gives the
weights from the last pass.  Analysis divides by the exact norms of the
C_l, which the rule integrates exactly at the exactness analyze demands.

The scalar product convention carries the 1/Sigma_n normalisation of the
surface measure:

    <f, g> = (Sigma_{n-1}/Sigma_n) * int_{-1}^{1} conj(f) g (1-t^2)^{lambda-1/2} dt,

under which <C_l, C_l> = lambda/(lambda+l) * C_l(1).
"""

import cmath
from dataclasses import dataclass, field
from itertools import compress
from math import gamma, inf, isfinite, sqrt, pi
from numbers import Integral, Number, Real

import numpy as np

from .errors import QuadratureError, SphereDomainError, SpectrumParseError
from .geometry import (
    SphereContext,
    _clamp_t,
    eigenvalue,
    gegenbauer_at_one,
    gegenbauer_rows,
    make_context,
    surface_measure,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule on (-1, 1) for the weight (1-t^2)^{mu-1/2}.

    Integrates t^m (1-t^2)^{mu-1/2} exactly for all m <= exactness.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    mu: float


_BESSEL_ZEROS = 10      # j_{nu,k} from the eigenproblem for k up to this; McMahon beyond
_NEWTON_TOL = 1e-8      # a pass whose steps move no node by more than this in phase is the last
_NEWTON_PASSES = 8      # three suffice for every mu <= 170.5 and m <= 12021 tried


def _bessel_phase_shifts(nu, count):
    """Psi(j_{nu,k}) - (k - 1/4) pi for k = 1..count, with Psi the Bessel phase.

    Psi(z) = sqrt(z^2 - a^2) - a arccos(a/z), a = |nu|, is the
    Liouville-Green phase of z^{1/2} J_nu(z) past its turning point, so
    at the k-th zero j_{nu,k} it is (k - 1/4) pi plus a shift below 0.05
    (plus nu pi for nu < 0).  The first _BESSEL_ZEROS zeros are exact:
    J_nu(j) = 0 makes (J_{nu+i}(j) / sqrt(nu+i))_{i>=1} an eigenvector,
    with eigenvalue 1/j, of the symmetric tridiagonal matrix with zero
    diagonal and off-diagonal 1/(2 sqrt((nu+i)(nu+i+1))) (Ikebe 1975), and
    1/j^2 are the eigenvalues of the even block of its square.  Beyond
    them McMahon's expansion of j_{nu,k} in 1/beta, beta = (k + nu/2 - 1/4) pi,
    carried through Psi gives the shift (nu - a) pi/2 + 1/(8 beta)
    + (128 a^2 - 31)/(384 beta^3).
    """
    a = abs(nu)
    k = np.arange(1, count + 1)
    beta = (k + 0.5 * nu - 0.25) * pi
    shift = (nu - a) * pi / 2 + 1.0 / (8.0 * beta) + (128.0 * a * a - 31.0) / (384.0 * beta ** 3)
    lead = min(count, _BESSEL_ZEROS)
    # J_{nu+i}(j) decays once nu + i passes j: 2 size rows reach well past j_{nu,lead}
    size = 2 * lead + 10 + int(4.0 * max(nu, 0.0) ** (1.0 / 3.0))
    i = np.arange(1, 2 * size, dtype=float)
    e = 0.5 / np.sqrt((nu + i) * (nu + i + 1.0))
    off = e[0:-1:2] * e[1::2]
    block = (np.diag(e[0::2] ** 2 + np.concatenate(([0.0], e[1::2] ** 2)))
             + np.diag(off, 1) + np.diag(off, -1))
    j = np.linalg.eigvalsh(block)[::-1][:lead] ** -0.5
    shift[:lead] = np.sqrt(j * j - a * a) - a * np.arccos(a / j) - (k[:lead] - 0.25) * pi
    return shift


def _starting_nodes(mu, m):
    """The floor(m/2) positive zeros of C_m^mu, ascending, to within ~0.1/(m + mu) in phase.

    Past the tenth zero the McMahon shift leaves up to 1e-3 at mu ~ 170.

    u(theta) = sin^mu(theta) C_m^mu(cos theta) solves u'' + (rho^2 -
    (a^2 - 1/4)/sin^2 theta) u = 0, rho = m + mu, a = |mu - 1/2|.  With
    Langer's a^2 in place of a^2 - 1/4, the phase from the turning point
    sin theta = a/rho is elementary: with cos theta = (A/rho) cos phi,
    A^2 = rho^2 - a^2,

        Phi = rho phi - a arctan2(rho sin phi, a cos phi),

    and matching it to the Bessel phase of z^{1/2} J_{mu-1/2}(z), the
    comparison function at theta = 0 (Olver, Asymptotics and Special
    Functions, ch. 11-12), puts the k-th zero from theta = 0 at
    Phi = Psi(j_{mu-1/2,k}).  Phi is convex and increasing in phi on
    [0, pi/2] and the first guess lies right of the root, so Newton
    converges monotonically.
    """
    a = abs(mu - 0.5)
    rho = m + mu
    a2 = rho * rho - a * a
    half = m // 2
    target = (np.arange(1, half + 1) - 0.25) * pi + _bessel_phase_shifts(mu - 0.5, half)
    phi = (target + a * pi / 2) / rho
    while True:
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        miss = rho * phi - a * np.arctan2(rho * sin_phi, a * cos_phi) - target
        # the residual's roundoff is ~1e-16 (1 + target): this stops above it
        if not np.any(np.abs(miss) > 1e-12 * (1.0 + target)):
            break
        phi -= (miss * (a * a * cos_phi * cos_phi + rho * rho * sin_phi * sin_phi)
                / (rho * a2 * sin_phi * sin_phi))
    return sqrt(a2) / rho * np.cos(phi[::-1])


def gauss_gegenbauer_rule(mu, m):
    """m-point Gauss rule for weight (1-t^2)^{mu-1/2} on [-1, 1], mu >= 0.

    The weight is even, so the positive nodes and, for odd m, the node 0
    make the rule.  They start from the phase asymptotics of
    _starting_nodes, within ~0.1/(m + mu) of the zeros in phase (1e-3 at
    most), and
    Newton passes polish them on the orthonormal recurrence
    x p_k = b_{k+1} p_{k+1} + b_k p_{k-1}, run as
    P_{k+1} = 2x P_k - 4 b_k^2 P_{k-1} with P_k = p_k prod_{i<=k} 2 b_i
    (three in-place array operations per degree), with

        (1-x^2) p_j'(x) = A_j p_{j-1}(x) - j x p_j(x),   A_j = 2 (j+mu) b_j.

    A pass whose steps all stay below 1e-8 in phase, (m + mu) |dx| /
    sqrt(1-x^2), is the last: two passes for m >= 100 and mu <= 19.5,
    three for fewer nodes or larger mu.  Its step leaves the nodes at
    roundoff; p_{m-1} follows the step to first order, and the
    Christoffel-Darboux identity gives the weights
    w = (1-x^2) / (b_m A_m p_{m-1}(x)^2).  The recurrence starts at
    p_0 (1-x^2)^{(mu-1/2)/4}, which keeps it within the doubles where
    p_{m-1}^2 is not (mu near 170 at m in the thousands); a weight below
    the doubles is 0.  Nodes and weights are mirrored to the negative
    half, so the rule is exactly symmetric.  mu = 0 is the Chebyshev case
    of the same coefficients (b_1^2 = 1/(2(1+mu)) is written with its mu
    cancelled).  p_m has exactly floor(m/2) positive zeros, so converged,
    strictly increasing nodes in (0, 1) are all of them; anything else
    raises QuadratureError, as do an m that is not a whole number and a
    mu whose Gamma(mu + 1) is beyond the doubles (mu > 170.6).
    """
    if not isinstance(m, Integral) or m < 1:
        raise QuadratureError(f"need a whole number of nodes, at least one, got {m!r}")
    if not 0.0 <= mu < inf:
        raise QuadratureError(f"weight exponent mu must be finite and >= 0, got {mu}")
    # zeroth moment: int (1-t^2)^{mu-1/2} dt = sqrt(pi) Gamma(mu+1/2)/Gamma(mu+1)
    try:
        mu0 = sqrt(pi) * gamma(mu + 0.5) / gamma(mu + 1.0)
    except OverflowError:
        raise QuadratureError(f"weight exponent mu = {mu}: Gamma(mu + 1) is beyond the "
                              "doubles (spheres need mu <= 170.5)") from None
    # b_k^2 = k (k + 2 mu - 1) / (4 (k + mu) (k + mu - 1)), written as 1/4
    # less a term of its own: the product form rounds k + mu and its kin
    # alike for every k, a bias that cost the weights 2.7e-12 at mu = 0.3,
    # m = 301 (1.5e-13 this way)
    k = np.arange(2, m + 1, dtype=float)
    beta = np.concatenate(([0.0, 0.5 / (1.0 + mu)],
                           0.25 - 0.25 * mu * (mu - 1.0) / ((k + mu) * (k + mu - 1.0))))
    four_beta = (4.0 * beta[:m]).tolist()
    b_m = sqrt(beta[m])
    a_m = 2.0 * (m + mu) * b_m
    scale = np.prod(2.0 * np.sqrt(beta[1:m]))       # P_{m-1} / p_{m-1}
    x = np.concatenate((np.zeros(m % 2), _starting_nodes(mu, m)))
    s = (1.0 - x) * (1.0 + x)
    damp = s ** (0.25 * (mu - 0.5))
    tmp = np.empty_like(x)
    multiply, subtract = np.multiply, np.subtract     # looked up once, not m times a pass
    for _ in range(_NEWTON_PASSES):
        x2 = 2.0 * x
        p_prev, p = np.zeros_like(x), damp / sqrt(mu0)
        for q in four_beta:
            p_prev *= q
            subtract(multiply(x2, p, out=tmp), p_prev, out=p_prev)
            p_prev, p = p, p_prev
        p_prev, p = p_prev / scale, p / (scale * 2.0 * b_m)
        step = p * s / (a_m * p_prev - m * x * p)
        if np.all((m + mu) * np.abs(step) <= _NEWTON_TOL * np.sqrt(s)):
            break
        x -= step
        s = (1.0 - x) * (1.0 + x)
    else:
        raise QuadratureError(
            f"Newton did not converge on the zeros of C_{m}^{mu} in {_NEWTON_PASSES} passes")
    # (1-x^2) p_{m-1}' with b_{m-1} p_{m-2} = x p_{m-1} - b_m p_m
    p_prev -= step * ((m - 1 + 2.0 * mu) * x * p_prev - 2.0 * (m - 1 + mu) * b_m * p) / s
    # 1 - x^2 at the polished node x - step before it is rounded: near
    # x = 1 rounding it first would cost the weight up to ulp(1)/(1-x)
    w = (1.0 - x + step) * (1.0 + x - step) / (b_m * a_m) * (damp / p_prev) ** 2
    x -= step
    pos_x, pos_w = x[m % 2:], w[m % 2:]
    if not (np.all(np.diff(pos_x) > 0.0) and np.all((pos_x > 0.0) & (pos_x < 1.0))):
        raise QuadratureError(f"Newton passes merged or lost zeros of C_{m}^{mu}")
    nodes = np.concatenate((-pos_x[::-1], x[:m % 2], pos_x))
    weights = np.concatenate((pos_w[::-1], w[:m % 2], pos_w))
    return QuadratureRule(nodes=nodes, weights=weights, exactness=2 * m - 1, mu=mu)


def default_rule(ctx, l_max):
    """Rule adequate for analysis up to degree l_max (exactness 2 l_max + 9)."""
    return gauss_gegenbauer_rule(ctx.lam, l_max + 5)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass
class ZonalSpectrum:
    """Gegenbauer coefficients of a zonal function on S^n."""

    ctx: SphereContext
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs))
        if self.coeffs.ndim != 1 or self.coeffs.dtype.kind not in "iufc":
            raise SphereDomainError("zonal coefficients must be a 1-D array of numbers, got "
                                    f"shape {self.coeffs.shape}, dtype {self.coeffs.dtype}")
        if self.coeffs.size == 0:
            raise SphereDomainError("a zonal spectrum needs at least the degree-0 coefficient")
        if not np.all(np.isfinite(self.coeffs)):
            raise SphereDomainError("spectrum coefficients must be finite")

    @property
    def l_max(self):
        return len(self.coeffs) - 1

    def copy(self):
        return ZonalSpectrum(self.ctx, self.coeffs.copy())

    def padded(self, l_max):
        """Coefficient vector extended (or truncated) to length l_max+1."""
        out = np.zeros(l_max + 1, dtype=self.coeffs.dtype)
        k = min(l_max, self.l_max) + 1
        out[:k] = self.coeffs[:k]
        return out


@dataclass
class GeneralSpectrum:
    """Sparse spectral representation of a general function on S^n.

    entries maps (degree l, order token k) to a complex coefficient; the
    token is opaque (any hashable), only the degree is interpreted.
    """

    ctx: SphereContext
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for (l, _k), v in self.entries.items():
            # the type tests spare the common int l and float or complex v the ABC
            # checks; a NaN or infinite l fails isfinite before l % 1, which
            # warns for NumPy floats
            if not (type(l) is int or isinstance(l, Real) and isfinite(l) and l % 1 == 0) or l < 0:
                raise SphereDomainError(f"degrees must be non-negative integers, got {l!r}")
            if not (type(v) in (complex, float) or isinstance(v, Number)) or not cmath.isfinite(v):
                raise SphereDomainError(f"spectrum coefficients must be finite numbers, got {v!r}")
        # a degree such as 2.0 or np.int64(2) is stored as the int the file format writes
        if any(type(l) is not int for l, _k in self.entries):
            self.entries = {(int(l), k): v for (l, k), v in self.entries.items()}

    def copy(self):
        return GeneralSpectrum(self.ctx, dict(self.entries))


def unpack(*specs):
    """Degrees, then one value array per spectrum, over the union of their keys.

    Zonal keys are the degrees up to the largest l_max; general keys are the
    (l, k) pairs in entry order, first spectrum first.  A spectrum reads 0
    at a key it lacks.
    """
    if isinstance(specs[0], ZonalSpectrum):
        top = max(s.l_max for s in specs)
        return (np.arange(top + 1), *(s.padded(top) for s in specs))
    keys = dict.fromkeys(key for s in specs for key in s.entries)
    return (np.array([l for l, _k in keys], dtype=int),
            *(np.array([s.entries.get(key, 0.0) for key in keys]) for s in specs))


def rebuild(f, values, keep=None):
    """The spectrum of f's kind holding values at the keys of unpack(f).

    With keep, a boolean mask over those keys, values belong to the marked
    keys only; for a zonal f the mask must mark a leading run of degrees.
    Zonal values whose imaginary parts are all exactly 0 are stored real.
    """
    if isinstance(f, ZonalSpectrum):
        if np.all(values.imag == 0.0):
            values = values.real
        return ZonalSpectrum(f.ctx, values)
    keys = f.entries if keep is None else compress(f.entries, keep)
    return GeneralSpectrum(f.ctx, dict(zip(keys, values.tolist())))


def _check_same_context(a, b):
    if a.ctx != b.ctx:
        raise SphereDomainError(
            f"context mismatch: n={a.ctx.n} vs n={b.ctx.n}")


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

def analyze(ctx, samples, l_max, rule=None):
    """Gegenbauer coefficients of a zonal function from its point values.

    samples  -- callable on the array of nodes, called once (a scalar is a constant)
    rule     -- QuadratureRule with exactness >= 2*l_max + 2; built on
                demand when omitted.

    Uses Gegenbauer orthogonality under the rule's weight: the numerator
    of degree l is the rule applied to C_l times the samples, streamed
    one degree at a time from the recurrence, and the denominator is the
    exact norm int C_l^2 (1-t^2)^{lambda-1/2} dt, which that exactness
    makes the rule reproduce.
    """
    if rule is None:
        rule = default_rule(ctx, l_max)
    if rule.mu != ctx.lam:
        raise QuadratureError(
            f"rule weight exponent {rule.mu} does not match lambda={ctx.lam}")
    if rule.exactness < 2 * l_max + 2:
        raise QuadratureError(
            f"quadrature exactness {rule.exactness} insufficient for l_max={l_max} "
            f"(need >= {2 * l_max + 2}); raise the node count to avoid aliasing")
    vals = np.broadcast_to(samples(rule.nodes), rule.nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise SphereDomainError("samples must be finite on the quadrature nodes")
    wv = rule.weights * vals
    num = np.array([row @ wv for row in gegenbauer_rows(ctx, l_max, rule.nodes)])
    return ZonalSpectrum(ctx, num / (degree_norms(ctx, l_max) / zonal_weight_constant(ctx)))


def synthesize(spec, t):
    """The partial sum sum_l coeffs[l] C_l^lambda(t), streamed degree by degree."""
    t_arr = np.atleast_1d(_clamp_t(t))
    out = np.zeros(t_arr.shape, dtype=np.result_type(spec.coeffs, float))
    for c, row in zip(spec.coeffs, gegenbauer_rows(spec.ctx, spec.l_max, t_arr)):
        out += c * row
    if np.isscalar(t) or np.ndim(t) == 0:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def convolve(f, g):
    """Spherical convolution f * g with zonal g; same kind as f.

    One rule for both kinds: each entry of f at degree l is scaled by
    lambda/(lambda+l) g_hat(l), and entries above g's L_max are dropped
    (g_hat is represented only up to there).  For a zonal f that truncates
    the result to the shorter of the two spectra.
    """
    if not isinstance(g, ZonalSpectrum):
        raise SphereDomainError("convolution kernel must be zonal")
    _check_same_context(f, g)
    lam = f.ctx.lam
    degrees, values = unpack(f)
    keep = degrees <= g.l_max
    l = degrees[keep]
    return rebuild(f, lam / (lam + l) * values[keep] * g.coeffs[l], keep)


def laplace_beltrami(f):
    """Apply the Laplace-Beltrami operator: degree-l coefficient * -l(n+l-1)."""
    degrees, values = unpack(f)
    return rebuild(f, eigenvalue(f.ctx, degrees) * values)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def degree_norms(ctx, l_max):
    """<C_l, C_l> under the 1/Sigma_n-normalised product: lambda/(lambda+l) C_l(1)."""
    l = np.arange(l_max + 1)
    return ctx.lam / (ctx.lam + l) * gegenbauer_at_one(ctx, l_max)


def inner(f, g):
    """Scalar product <f, g> of zonal spectra (antilinear in f)."""
    _check_same_context(f, g)
    l_max = min(f.l_max, g.l_max)
    h = degree_norms(f.ctx, l_max)
    return np.sum(np.conj(f.coeffs[:l_max + 1]) * g.coeffs[:l_max + 1] * h)

def norm_l2(f):
    """L^2 norm of a spectrum under the 1/Sigma_n-normalised measure."""
    if isinstance(f, ZonalSpectrum):
        return sqrt(abs(inner(f, f)))
    # general: per-harmonic norms are unknowable without A_l^k; use the
    # coefficient 2-norm, which is what the solver tolerances are against.
    return float(np.linalg.norm(unpack(f)[1]))


def zonal_weight_constant(ctx):
    """Sigma_{n-1}/Sigma_n: the zonal reduction constant of the surface integral."""
    return surface_measure(ctx.n - 1) / ctx.sigma_n


# ---------------------------------------------------------------------------
# Poisson kernel
# ---------------------------------------------------------------------------

def poisson_kernel(ctx, r, t):
    """Closed form (1/Sigma_n)(1-r^2)/(1-2rt+r^2)^{(n+1)/2}, 0 <= r < 1."""
    if not 0.0 <= r < 1.0:
        raise SphereDomainError(f"Poisson kernel needs 0 <= r < 1, got r={r}")
    t = _clamp_t(t)
    u = 1.0 - 2.0 * r * t + r * r
    out = (1.0 - r * r) / u ** ((ctx.n + 1) / 2.0) / ctx.sigma_n
    return float(out) if np.ndim(out) == 0 else out


def poisson_kernel_spectrum(ctx, r, l_max):
    """Spectrum of the Poisson kernel: p_r-hat(l) = r^l (lambda+l)/lambda / Sigma_n."""
    if not 0.0 <= r < 1.0:
        raise SphereDomainError(f"Poisson kernel needs 0 <= r < 1, got r={r}")
    l = np.arange(l_max + 1)
    lam = ctx.lam
    return ZonalSpectrum(ctx, r ** l * (lam + l) / lam / ctx.sigma_n)


# ---------------------------------------------------------------------------
# spectrum file format
# ---------------------------------------------------------------------------
# zonal:   header "# zonal n=<n> Lmax=<L>", lines "l <TAB> re [<TAB> im]"
# general: header "# general n=<n>",        lines "l <TAB> k <TAB> re <TAB> im"
# Additional leading "#" comment lines are permitted and ignored.

# Degrees stay below the count of complex doubles one array can hold: a
# larger Lmax or degree is a malformed file, where a smaller one that
# memory cannot hold fails with MemoryError.
_SIZE_MAX = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def format_spectrum(spec, extra_comments=(), fmt="%.17g"):
    """Serialise a spectrum to the text format; returns a string.

    The default format round-trips doubles exactly; the CLI passes
    "%.12g" per its 12-significant-digit output contract.  Text that would
    not parse back to the same spectrum raises SphereDomainError: an
    extra comment holding a line break, a general order token whose str()
    holds a tab or a line break, and two tokens at one degree whose str()
    coincide.
    """
    def num(x):
        return fmt % (float(x) + 0.0,)   # normalises -0.0

    lines = [f"# {c}" for c in extra_comments]
    if len("\n".join(lines).splitlines()) != len(lines):
        bad = next(c for c in lines if len(c.splitlines()) != 1)
        raise SphereDomainError(f"a comment holds a line break: {bad!r}")
    if isinstance(spec, ZonalSpectrum):
        lines.insert(0, f"# zonal n={spec.ctx.n} Lmax={spec.l_max}")
        complex_valued = np.iscomplexobj(spec.coeffs)
        for l, v in enumerate(spec.coeffs):
            if complex_valued:
                lines.append(f"{l}\t{num(v.real)}\t{num(v.imag)}")
            else:
                lines.append(f"{l}\t{num(v)}")
    else:
        lines.insert(0, f"# general n={spec.ctx.n}")
        printed = {}
        for (l, k), v in spec.entries.items():
            key = (l, str(k))
            if key in printed:
                raise SphereDomainError(f"two order tokens at degree {l} print as {key[1]!r}")
            printed[key] = v
        rows = []
        for (l, k), v in sorted(printed.items(), key=lambda kv: kv[0]):
            v = complex(v)
            rows.append(f"{l}\t{k}\t{num(v.real)}\t{num(v.imag)}")
        body = "\n".join(rows)
        if body.count("\t") != 3 * len(rows) or len(body.splitlines()) != len(rows):
            bad = next(r for r in rows if r.count("\t") != 3 or len(r.splitlines()) != 1)
            raise SphereDomainError(f"an order token holds a tab or a line break: {bad!r}")
        lines += rows
    return "\n".join(lines) + "\n"


def save_spectrum(spec, path, extra_comments=(), fmt="%.17g"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_spectrum(spec, extra_comments, fmt))


def parse_spectrum(text):
    """Parse the text format; returns ZonalSpectrum or GeneralSpectrum.

    A malformed header or row, a non-finite value, a negative degree or
    one no array could hold (_SIZE_MAX), a zonal degree above Lmax and a
    repeated degree (zonal) or (degree, token) pair (general) raise
    SpectrumParseError naming the line.
    """
    kind = None
    n = ctx = None
    l_max = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].split()
            if body and body[0] in ("zonal", "general") and kind is None:
                kind = body[0]
                try:
                    for tok in body[1:]:
                        if tok.startswith("n="):
                            n = int(tok[2:])
                        elif tok.startswith("Lmax="):
                            l_max = int(tok[5:])
                    if l_max is not None and not 0 <= l_max < _SIZE_MAX:
                        raise ValueError
                    ctx = None if n is None else make_context(n)
                except ValueError:      # make_context's SphereDomainError included
                    raise _line_error(lineno, line, "malformed header") from None
            continue
        rows.append((lineno, line))
    if ctx is None:
        raise SpectrumParseError(
            "missing '# zonal n=... Lmax=...' or '# general n=...' header")
    zonal = kind == "zonal"
    capped = zonal and l_max is not None
    values = {}
    for lineno, line in rows:
        r = line.split("\t")
        try:
            if zonal and 2 <= len(r) <= 3:
                key = l = int(r[0])
                v = complex(float(r[1]), float(r[2]) if len(r) == 3 else 0.0)
            elif not zonal and len(r) == 4:
                l = int(r[0])
                key = (l, r[1])
                v = complex(float(r[2]), float(r[3]))
            else:
                raise ValueError
        except ValueError:
            shape = "l <TAB> re [<TAB> im]" if zonal else "l <TAB> k <TAB> re <TAB> im"
            raise _line_error(lineno, line, f"expected '{shape}'") from None
        if not cmath.isfinite(v):
            raise _line_error(lineno, line, "non-finite value")
        if l < 0:
            raise _line_error(lineno, line, f"negative degree {l}")
        if l >= _SIZE_MAX:
            raise _line_error(lineno, line, f"degree {l} not below {_SIZE_MAX}")
        if capped and l > l_max:
            raise _line_error(lineno, line, f"degree {l} above Lmax={l_max}")
        if key in values:
            raise _line_error(lineno, line, f"repeated {key!r}")
        values[key] = v
    if not zonal:
        return GeneralSpectrum(ctx, values)
    if l_max is None:
        l_max = max(values, default=0)
    coeffs = np.zeros(l_max + 1, dtype=complex)
    coeffs[list(values)] = list(values.values())
    if np.all(coeffs.imag == 0.0):
        coeffs = coeffs.real
    return ZonalSpectrum(ctx, coeffs)


def _line_error(lineno, line, what):
    return SpectrumParseError(f"spectrum line {lineno}: {what}: {line!r}")


def load_spectrum(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spectrum(fh.read())
