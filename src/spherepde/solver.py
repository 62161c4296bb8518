"""Spectral solvers for Delta* u + a u = f and Delta* u = f on S^n.

The solution is the convolution u = f * G with the Green function, which
acts diagonally per degree, so the solve is the coefficient division

    u-hat(l) = f-hat(l) / (a - l(n+l-1)),

identically per (l, k) entry for general spectra.  One solve path serves
every a: it unpacks f into one (degrees, values) array pair
(spectra.unpack), divides, and rebuilds a spectrum of f's kind.

A resonant parameter a = L(n+L-1), integer L >= 0, is solvable only when
f has no degree-L content; the returned solution is the unique one with
no degree-L content either.  The Poisson case a = 0 is the resonant case
at degree 0: it needs a zero-mean right-hand side and returns a zero-mean
solution.  solve_helmholtz takes the non-resonant a and a = 0,
solve_resonant the resonant a; both run the same path.

Residuals are checked spectrally through the eigenvalue identity: the
degree-l residual of a candidate u is (a - l(n+l-1)) u-hat(l) - f-hat(l).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ResonanceError, SolvabilityError, SphereDomainError
from .green import HelmholtzParameter, condition_warnings, eigen_gap
from .spectra import rebuild, unpack

DEFAULT_RESONANT_TOL = 1e-8


@dataclass
class SolveRequest:
    param: HelmholtzParameter
    f: object                     # a zonal or a general spectrum
    resonant_tol: float = DEFAULT_RESONANT_TOL

    def __post_init__(self):
        if not 0.0 <= self.resonant_tol < np.inf:      # NaN fails it too
            raise SphereDomainError(
                f"resonant tolerance must be finite and >= 0, got {self.resonant_tol}")


@dataclass
class SolveReport:
    u: object
    residual_norm: float
    condition_warnings: list = field(default_factory=list)


def _solve(req):
    """The one solve path behind solve_helmholtz and solve_resonant.

    Unpacks f once.  For a resonant a (a = 0 included) the degree-L_res
    content of f must vanish to within resonant_tol * ||f||; that degree of
    u is then 0.  The eigenvalue gap is computed once, over f's own
    degrees: u and the residual read it, and the condition warnings cover
    those degrees only.
    """
    param, f = req.param, req.f
    if param.ctx != f.ctx:
        raise SphereDomainError("parameter and right-hand side live on different spheres")
    degrees, values = unpack(f)
    at_res = degrees == param.excluded
    if param.resonant:
        mass = float(np.linalg.norm(values[at_res]))
        norm = float(np.linalg.norm(values))
        if mass > req.resonant_tol * max(norm, 1e-300):
            what = ("Poisson equation needs a zero-mean right-hand side" if param.L_res == 0
                    else "resonant problem unsolvable")
            raise SolvabilityError(
                f"{what}: degree-{param.L_res} content of f has mass {mass:.3e} > "
                f"{req.resonant_tol:.1e} * ||f|| = {req.resonant_tol * norm:.3e}",
                offending_mass=mass)
    gap = eigen_gap(param, degrees)
    # past the roots helmholtz_root resolves (L ~ 5e8) a may still equal a degree's
    # eigenvalue exactly, and a general spectrum can reach that degree
    poles = degrees[(gap == 0.0) & ~at_res]
    if poles.size:
        raise ResonanceError(f"a = {param.a} is the eigenvalue of degree {poles[0]}, too high "
                             "for its resonance to be resolved", degree=int(poles[0]))
    u = np.zeros(values.shape, dtype=np.result_type(values, float))
    np.divide(values, gap, out=u, where=~at_res)
    residual = (gap * u - values)[~at_res]
    return SolveReport(
        u=rebuild(f, u),
        residual_norm=float(np.linalg.norm(residual)),
        condition_warnings=condition_warnings(param, degrees),
    )


def solve_helmholtz(req):
    """Solve Delta* u + a u = f for non-resonant a (a = 0 allowed, zero-mean f).

    Raises ResonanceError for a resonant at a degree L >= 1 (use
    solve_resonant) and SolvabilityError when the a = 0 mean constraint
    is violated.
    """
    param = req.param
    if param.resonant and param.L_res >= 1:
        raise ResonanceError(
            f"a = {param.a} is resonant at degree {param.L_res}; "
            "use solve_resonant", degree=param.L_res)
    return _solve(req)


def solve_resonant(req):
    """Solve the resonant problem a = L(n+L-1), requiring no degree-L content in f.

    Returns the unique solution with zero degree-L content.
    """
    if not req.param.resonant:
        raise ResonanceError(f"a = {req.param.a} is not resonant; use solve_helmholtz")
    return _solve(req)


@dataclass
class ResidualReport:
    degrees: np.ndarray
    residual: np.ndarray          # (a - l(n+l-1)) u-hat - f-hat per degree/entry
    norm: float
    resonant_mass: float | None   # degree-L_res content of f, when resonant


def verify_solution(param, u, f):
    """Per-degree spectral residual of Delta* u + a u - f.

    At the resonant degree the residual is not defined by the division;
    the report carries the f-mass there instead.
    """
    if u.ctx != f.ctx:
        raise SphereDomainError("solution and right-hand side live on different spheres")
    if type(u) is not type(f):
        raise SphereDomainError("solution and right-hand side are different kinds of spectra")
    degrees, uv, fv = unpack(u, f)
    at_res = degrees == param.excluded
    residual = (eigen_gap(param, degrees) * uv - fv)[~at_res]
    mass = float(np.linalg.norm(fv[at_res])) if param.resonant else None
    return ResidualReport(degrees=degrees[~at_res], residual=residual,
                          norm=float(np.linalg.norm(residual)), resonant_mass=mass)
