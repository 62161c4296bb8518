"""Zonal and general spectra on S^n, analysis/synthesis, convolution.

A zonal function f(t), t = cos(theta), is held as its Gegenbauer
coefficients f_hat(l), l = 0..L_max:

    f(t) = sum_l f_hat(l) C_l^lambda(t).

A general (non-zonal) function is held purely spectrally as a sparse map
(degree l, opaque order token k) -> complex coefficient; the library never
interprets the order tokens.

Convolution with a zonal kernel g acts diagonally per degree,

    (f * g)-hat(l) = lambda/(lambda + l) * f_hat(l) * g_hat(l),

and the Laplace-Beltrami operator multiplies the degree-l coefficient by
-l(n+l-1).

Analysis integrals use Gauss quadrature for the weight (1-t^2)^{lambda-1/2}
(the zonal reduction of the surface measure), with nodes and weights from
the Golub-Welsch eigenvalue method on the Jacobi recurrence matrix.

The scalar product convention carries the 1/Sigma_n normalisation of the
surface measure:

    <f, g> = (Sigma_{n-1}/Sigma_n) * int_{-1}^{1} conj(f) g (1-t^2)^{lambda-1/2} dt,

under which <C_l, C_l> = lambda/(lambda+l) * C_l(1).
"""

import cmath
from dataclasses import dataclass, field
from math import gamma, sqrt, pi

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import QuadratureError, SphereDomainError, SpectrumParseError
from .geometry import (
    SphereContext,
    _clamp_t,
    eigenvalue,
    gegenbauer_at_one,
    gegenbauer_matrix,
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


def gauss_gegenbauer_rule(mu, m):
    """m-point Gauss rule for weight (1-t^2)^{mu-1/2} on [-1, 1], mu >= 0.

    Golub-Welsch: nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the weight's recurrence; weights come from the
    Christoffel identity w_i = 1/sum_k p_k(x_i)^2 over the orthonormal
    polynomials (equivalent to the squared first eigenvector components,
    but needs no eigenvectors, so large rules stay cheap).  mu = 0 is the
    Chebyshev case, handled by its known recurrence coefficients.
    """
    if m < 1:
        raise QuadratureError(f"need at least one node, got {m}")
    if mu < 0:
        raise QuadratureError(f"weight exponent mu must be >= 0, got {mu}")
    if mu == 0.0:
        mu0 = pi
        beta = np.full(max(m - 1, 1), 0.25)
        beta[0] = 0.5
        beta = beta[:m - 1]
    else:
        # zeroth moment: int (1-t^2)^{mu-1/2} dt = sqrt(pi) Gamma(mu+1/2)/Gamma(mu+1)
        mu0 = sqrt(pi) * gamma(mu + 0.5) / gamma(mu + 1.0)
        k = np.arange(1, m, dtype=float)
        beta = k * (k + 2.0 * mu - 1.0) / (4.0 * (k + mu) * (k + mu - 1.0))
    b = np.sqrt(beta)
    nodes = eigh_tridiagonal(np.zeros(m), b, eigvals_only=True)
    # orthonormal recurrence: p_0 = 1/sqrt(mu0), b_{k+1} p_{k+1} = x p_k - b_k p_{k-1}
    total = np.full(m, 1.0 / mu0)
    p_prev = np.zeros(m)
    p_cur = np.full(m, 1.0 / sqrt(mu0))
    for k in range(m - 1):
        p_next = (nodes * p_cur - (b[k - 1] * p_prev if k > 0 else 0.0)) / b[k]
        total += p_next ** 2
        p_prev, p_cur = p_cur, p_next
    weights = 1.0 / total
    return QuadratureRule(nodes=nodes, weights=weights, exactness=2 * m - 1, mu=mu)


def default_rule(ctx, l_max, margin=8):
    """Rule adequate for analysis up to degree l_max (exactness 2 l_max + margin)."""
    m = l_max + 1 + (margin + 1) // 2
    return gauss_gegenbauer_rule(ctx.lam, m)


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
            if l < 0 or int(l) != l:
                raise SphereDomainError(f"degrees must be non-negative integers, got {l}")
            if not cmath.isfinite(v):
                raise SphereDomainError("spectrum coefficients must be finite")

    def degrees(self):
        return sorted({l for (l, _k) in self.entries})

    def copy(self):
        return GeneralSpectrum(self.ctx, dict(self.entries))


def _check_same_context(a, b):
    if a.ctx != b.ctx:
        raise SphereDomainError(
            f"context mismatch: n={a.ctx.n} vs n={b.ctx.n}")


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

def analyze(ctx, samples, l_max, rule=None):
    """Gegenbauer coefficients of a zonal function from its point values.

    samples  -- callable t -> value (may be vectorised over numpy arrays)
    rule     -- QuadratureRule with exactness >= 2*l_max + 2; built on
                demand when omitted.

    Uses Gegenbauer orthogonality under the rule's weight; the norms
    <C_l, C_l> come from the same rule, so analyze/synthesize are mutually
    consistent by construction.
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
    vals = samples(rule.nodes)
    vals = np.asarray(vals)
    if vals.shape != rule.nodes.shape:  # non-vectorised callable
        vals = np.array([samples(float(t)) for t in rule.nodes])
    if not np.all(np.isfinite(vals)):
        raise SphereDomainError("samples must be finite on the quadrature nodes")
    C = gegenbauer_matrix(ctx, l_max, rule.nodes)
    wv = rule.weights * vals
    num = C @ wv
    den = (C * C) @ rule.weights
    return ZonalSpectrum(ctx, num / den)


def synthesize(spec, t):
    """Evaluate the partial sum sum_l coeffs[l] C_l^lambda(t); t scalar or array."""
    t_arr = np.atleast_1d(_clamp_t(t))
    C = gegenbauer_matrix(spec.ctx, spec.l_max, t_arr)
    out = spec.coeffs @ C
    if np.isscalar(t) or np.ndim(t) == 0:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def convolve(f, g):
    """Spherical convolution f * g with zonal g; same kind as f.

    Zonal f:   result-hat(l) = lambda/(lambda+l) f_hat(l) g_hat(l),
               truncated to the shorter of the two spectra.
    General f: each (l, k) entry scaled by lambda/(lambda+l) g_hat(l);
               degrees beyond g's support are dropped (g_hat treated as
               represented only up to its L_max).
    """
    if not isinstance(g, ZonalSpectrum):
        raise SphereDomainError("convolution kernel must be zonal")
    _check_same_context(f, g)
    lam = f.ctx.lam
    if isinstance(f, ZonalSpectrum):
        l_max = min(f.l_max, g.l_max)
        l = np.arange(l_max + 1)
        factor = lam / (lam + l)
        return ZonalSpectrum(f.ctx, factor * f.coeffs[:l_max + 1] * g.coeffs[:l_max + 1])
    entries = {}
    for (l, k), v in f.entries.items():
        if l <= g.l_max:
            entries[(l, k)] = lam / (lam + l) * v * g.coeffs[l]
    return GeneralSpectrum(f.ctx, entries)


def laplace_beltrami(f):
    """Apply the Laplace-Beltrami operator: degree-l coefficient * -l(n+l-1)."""
    if isinstance(f, ZonalSpectrum):
        l = np.arange(f.l_max + 1)
        return ZonalSpectrum(f.ctx, eigenvalue(f.ctx, l) * f.coeffs)
    entries = {(l, k): eigenvalue(f.ctx, l) * v for (l, k), v in f.entries.items()}
    return GeneralSpectrum(f.ctx, entries)


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
    return sqrt(sum(abs(v) ** 2 for v in f.entries.values()))


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

def format_spectrum(spec, extra_comments=(), fmt="%.17g"):
    """Serialise a spectrum to the text format; returns a string.

    The default format round-trips doubles exactly; the CLI passes
    "%.12g" per its 12-significant-digit output contract.  A general order
    token whose str() holds a tab or a line break would not parse back and
    raises SphereDomainError.
    """
    def num(x):
        return fmt % (float(x) + 0.0,)   # normalises -0.0

    lines = [f"# {c}" for c in extra_comments]
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
        rows = []
        for (l, k), v in sorted(spec.entries.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
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

    A malformed header or row, a negative degree, a zonal degree above
    Lmax and a repeated degree (zonal) or (degree, token) pair (general)
    raise SpectrumParseError naming the line.
    """
    kind = None
    n = None
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
                    if (n is not None and n < 2) or (l_max is not None and l_max < 0):
                        raise ValueError
                except ValueError:
                    raise _line_error(lineno, line, "malformed header") from None
            continue
        rows.append((lineno, line))
    if kind is None or n is None:
        raise SpectrumParseError(
            "missing '# zonal n=... Lmax=...' or '# general n=...' header")
    ctx = make_context(n)
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
        if l < 0:
            raise _line_error(lineno, line, f"negative degree {l}")
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
