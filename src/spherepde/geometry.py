"""Sphere bookkeeping and Gegenbauer (ultraspherical) polynomial evaluation.

Everything in this library lives on the unit n-sphere S^n in R^{n+1},
n >= 2, with total surface measure

    Sigma_n = 2 pi^{(n+1)/2} / Gamma((n+1)/2).

Zonal functions on S^n expand in Gegenbauer polynomials C_l^lambda with
lambda = (n-1)/2, evaluated here by the standard forward three-term
recurrence

    C_0 = 1,   C_1 = 2 lambda t,
    l C_l = 2 (l + lambda - 1) t C_{l-1} - (l + 2 lambda - 2) C_{l-2},

which is stable on [-1, 1] for the degree ranges run here (the series
backend sums ~9e3 degrees at n = 2 to ~6e4 at n = 17, in double
precision).  On [-1, 1] the
polynomials obey the uniform bound |C_l^lambda(t)| <= (n + l - 2)^{n-2}.

The recurrence comes in two shapes.  gegenbauer_blocks steps it one degree
at a time, each step one vectorised pass over the points, and hands the
degrees out in blocks of rows of one reused buffer of BLOCK_SIZE doubles:
analysis and synthesis take one matrix product per block, and the
integral backend takes its whole (degrees x points) matrix as one block.
gegenbauer_sums, which needs only weighted
sums over many degrees (the series backend's Abel sums), splits the
degrees into ~sqrt(N) blocks that step side by side from
well-conditioned basis states, chains the blocks' true starting states
and reruns them: ~3 sqrt(N) steps instead of N, with errors of the
forward recurrence's size (Gautschi, SIAM Review 9, 1967, on the
stability of three-term recurrences), though not its error pattern:
where weighted sums cancel (near t = -1) the forward recurrence's
errors cancel with them and the blocks' do not.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gamma, isfinite, isqrt, pi, sqrt
from numbers import Integral

import numpy as np

from .errors import SphereDomainError

# Tolerated roundoff excursion of t outside [-1, 1] (arccos/cos round trips).
_T_SLACK = 1e-12

_DIAG_TOL = 1e-12   # t >= 1 - _DIAG_TOL counts as the diagonal

# a sits on the root L of a = L(n+L-1) within this relative gap (helmholtz_root).
RESONANCE_RTOL = 1e-9

# Sizes stay below the count of complex doubles one array can hold: a
# larger degree, order or node count is refused as a domain error, where
# a smaller one that memory cannot hold fails with MemoryError.
_SIZE_MAX = np.iinfo(np.intp).max // np.dtype(complex).itemsize

# Doubles in one block of a blocked evaluation (1 MiB): the Gegenbauer rows
# of gegenbauer_blocks, and the scales x degrees hat tables of the wavelets.
BLOCK_SIZE = 1 << 17


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


def _whole_number(value, floor, name):
    """value as an int when it is a whole number from floor to below
    _SIZE_MAX: an int, a NumPy int or an integer-valued float.  Anything
    else (a bool, NaN, inf, a string, None, 2.5, 10**20) raises
    SphereDomainError naming the argument.

    The one rule for sphere dimensions, degrees, orders and scale node counts.
    """
    # the type test spares the common int the ABC check
    if not (type(value) is int
            or isinstance(value, Integral) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise SphereDomainError(f"{name} must be an integer >= {floor}, got {value!r}")
    if value < floor:
        raise SphereDomainError(f"{name} must be >= {floor}, got {value}")
    if value >= _SIZE_MAX:
        raise SphereDomainError(f"{name} is too large: must be below {_SIZE_MAX}, got {value}")
    return int(value)


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
        n = _whole_number(self.n, 2, "sphere dimension")
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


def _check_t_for_eval(t):
    """_clamp_t(t) (a float for a float or 0-d t), refusing the diagonal t = 1."""
    t = _clamp_t(t)
    top = t if isinstance(t, float) else float(t.max(initial=-1.0))
    if top >= 1.0 - _DIAG_TOL:
        raise SphereDomainError(
            "Green functions are singular on the diagonal t = 1; "
            f"got t = {top}")
    return t


def gegenbauer_blocks(ctx, l_max, t):
    """Yield (l0, C) for l0 = 0, k, 2k, ...: C[i, j] = C_{l0+i}^lambda(t_j)
    over the flattened t, for degrees up to l_max.

    Every C is a view of one buffer of k = max(1, BLOCK_SIZE // points)
    rows, which the next block overwrites: a caller takes what it needs
    from a block before it asks for the next.
    """
    l_max = _whole_number(l_max, 0, "degree l")
    t = np.ravel(_clamp_t(t))
    return _blocks(ctx.lam, l_max, t, max(1, BLOCK_SIZE // max(t.size, 1)))


def _blocks(lam, l_max, t, rows):
    """gegenbauer_blocks over a flat t already clamped, in blocks of rows
    degrees; each row is the array _step returns, copied into the buffer,
    so the values are those of one forward pass bit for bit."""
    buf = np.empty((min(rows, l_max + 1), t.size))
    prev, cur = np.zeros_like(t), np.ones_like(t)       # C_{-1} and C_0
    for l in range(l_max + 1):
        if l:
            prev, cur = cur, _step(l, lam, t, prev, cur)
        i = l % rows
        buf[i] = cur
        if i == rows - 1 or l == l_max:
            yield l - i, buf[:i + 1]


def _step(l, lam, t, prev, cur):
    """C_l from C_{l-2} = prev and C_{l-1} = cur, for a degree l or a column of
    degrees (one per block of gegenbauer_sums); at l = 1, prev = C_{-1} = 0."""
    return (2.0 * (l + lam - 1.0) * t * cur - (l + 2.0 * lam - 2.0) * prev) / l


def gegenbauer_sums(ctx, weights, t):
    """(weights @ C, |weights| @ |C|) for C[l, j] = C_l^lambda(t_j), l < N,
    without building C; weights holds N >= 1 degrees in its last axis.

    The degrees split into B = ceil(N/K) blocks of K = ceil(sqrt(N)) that
    step side by side as one (B x points) array.  Pass 1 runs every block
    K steps from the basis states (C_{l-1}, C_l) = (1, t) and (0, sigma),
    sigma = max(sqrt(1 - t^2), 1/K): with t = cos theta they start as
    cos and sin of l theta, which the recurrence keeps apart, and the floor
    1/K keeps them apart at t = +-1.  A B-step chain writes each block's
    true starting state in its basis, from (C_{-1}, C_0) = (0, 1) on, and
    carries it through the block's pass-1 end states to the next block.
    Pass 2 reruns the blocks from their true states and accumulates both
    sums: 2K + B ~ 3 sqrt(N) vectorised steps.  The second sum scales the
    roundoff of the first: within 64 eps of it at |t| <= 0.95 and 2N eps
    at t = +-1, where the forward recurrence does no better
    (tests/test_geometry.py).
    """
    w = np.asarray(weights, dtype=float)
    N = w.shape[-1]
    if N < 1:
        raise SphereDomainError("gegenbauer_sums needs weights for at least degree 0")
    t = np.atleast_1d(_clamp_t(t))
    lam = ctx.lam
    K = isqrt(N - 1) + 1
    B = -(-N // K)
    blocks = np.zeros(w.shape[:-1] + (B * K,))
    blocks[..., :N] = w
    blocks = blocks.reshape(w.shape[:-1] + (B, K))
    first = np.arange(0.0, B * K, K)[:, None]       # each block's first degree

    sigma = np.maximum(np.sqrt((1.0 - t) * (1.0 + t)), 1.0 / K)
    shape = (B, t.size)
    prev = np.stack([np.ones(shape), np.zeros(shape)])
    cur = np.stack([np.broadcast_to(t, shape), np.broadcast_to(sigma, shape)])
    for j in range(1, K + 1):
        prev, cur = cur, _step(first + j, lam, t, prev, cur)

    starts = np.empty((2,) + shape)
    p, c = np.zeros(t.size), np.ones(t.size)
    for b in range(B):
        starts[:, b] = p, c
        x, y = p, (c - t * p) / sigma
        p, c = x * prev[0, b] + y * prev[1, b], x * cur[0, b] + y * cur[1, b]

    prev, cur = starts
    size = np.abs(blocks)
    total = blocks[..., 0] @ cur
    absolute = size[..., 0] @ np.abs(cur)
    for j in range(1, K):
        prev, cur = cur, _step(first + j, lam, t, prev, cur)
        total += blocks[..., j] @ cur
        absolute += size[..., j] @ np.abs(cur)
    return total, absolute


def gegenbauer_bound(ctx, l):
    """Uniform bound (n + l - 2)^{n-2} for |C_l^lambda| on [-1, 1]."""
    return float(ctx.n + l - 2) ** (ctx.n - 2)


def gegenbauer_at_one(ctx, l_max):
    """C_l^lambda(1) = binom(l + 2 lambda - 1, l) for l = 0..l_max.

    Computed by the stable product form
    C_l(1) = C_{l-1}(1) * (l + 2 lambda - 1) / l.
    """
    l_max = _whole_number(l_max, 0, "degree l")
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
