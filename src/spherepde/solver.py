"""Spectral solvers for Delta* u + a u = f and Delta* u = f on S^n.

Convolution with the Green function acts diagonally per degree, so the
solve is the coefficient division

    u-hat(l) = f-hat(l) / (a - l(n+l-1)),

identically per (l, k) entry for general spectra: both kinds are unpacked
into one (degrees, values) array pair, divided by the eigenvalue gaps of
their degrees, and rebuilt.  The mean component:
u-hat(0) = f-hat(0)/a for a != 0; the Poisson case a = 0 requires a
zero-mean right-hand side and returns a zero-mean solution.

Resonant parameters a = L(n+L-1), integer L >= 1, are solvable only when
f has no degree-L content; the returned solution is the unique one with
no degree-L content either.  (a = 0 is the same situation at L = 0.)

Residuals are checked spectrally through the eigenvalue identity: the
degree-l residual of a candidate u is (a - l(n+l-1)) u-hat(l) - f-hat(l).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ResonanceError, SolvabilityError, SphereDomainError
from .green import (
    HelmholtzParameter,
    condition_warnings,
    eigen_gap,
    green_coefficient,
)
from .spectra import GeneralSpectrum, ZonalSpectrum

DEFAULT_RESONANT_TOL = 1e-8


@dataclass
class SolveRequest:
    param: HelmholtzParameter
    f: object                     # ZonalSpectrum or GeneralSpectrum
    backend: str = "auto"         # Green backend a pointwise caller would use
    resonant_tol: float = DEFAULT_RESONANT_TOL


@dataclass
class SolveReport:
    u: object
    residual_norm: float
    condition_warnings: list = field(default_factory=list)
    green_backend: str = ""


def _unpack(*specs):
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


def _rebuild(f, values):
    """The spectrum of f's kind and keys holding values, ordered as _unpack(f)."""
    if isinstance(f, ZonalSpectrum):
        if np.all(values.imag == 0.0):
            values = values.real
        return ZonalSpectrum(f.ctx, values)
    return GeneralSpectrum(f.ctx, dict(zip(f.entries, values.tolist())))


def _degree_mass(f, l):
    """Coefficient 2-norm of the degree-l content of f."""
    degrees, values = _unpack(f)
    return float(np.linalg.norm(values[degrees == l]))


def _coefficient_norm(f):
    return float(np.linalg.norm(_unpack(f)[1]))


def _divide(param, f, skip_degree=-1):
    """u with u-hat = f-hat / (a - l(n+l-1)) per entry, 0 at skip_degree."""
    degrees, values = _unpack(f)
    u = np.zeros(values.shape, dtype=np.result_type(values, float))
    np.divide(values, eigen_gap(param, degrees), out=u, where=degrees != skip_degree)
    return _rebuild(f, u)


def solve_helmholtz(req):
    """Solve Delta* u + a u = f for non-resonant a (a = 0 allowed, zero-mean f).

    Raises ResonanceError for resonant a (use solve_resonant) and
    SolvabilityError when the a = 0 mean constraint is violated.
    """
    param = req.param
    f = req.f
    if param.ctx != f.ctx:
        raise SphereDomainError("parameter and right-hand side live on different spheres")
    nf = _coefficient_norm(f)
    if param.resonant:
        if param.L_res == 0:
            mean = _degree_mass(f, 0)
            if mean > req.resonant_tol * max(nf, 1e-300):
                raise SolvabilityError(
                    f"Poisson equation needs a zero-mean right-hand side; "
                    f"|f-hat(0)| = {mean:.3e}", offending_mass=mean)
            return _finish(req, _divide(param, f, skip_degree=0))
        raise ResonanceError(
            f"a = {param.a} is resonant at degree {param.L_res}; "
            "use solve_resonant", degree=param.L_res)
    return _finish(req, _divide(param, f))


def solve_resonant(req, L_res=None):
    """Solve the resonant problem a = L(n+L-1), requiring no degree-L content in f.

    Returns the unique solution with zero degree-L content.
    """
    param = req.param
    f = req.f
    if not param.resonant:
        raise ResonanceError(f"a = {param.a} is not resonant; use solve_helmholtz")
    if L_res is None:
        L_res = param.L_res
    if L_res != param.L_res:
        raise ResonanceError(
            f"a = {param.a} is resonant at degree {param.L_res}, not {L_res}",
            degree=param.L_res)
    nf = _coefficient_norm(f)
    mass = _degree_mass(f, L_res)
    if mass > req.resonant_tol * max(nf, 1e-300):
        raise SolvabilityError(
            f"resonant problem unsolvable: degree-{L_res} content of f has mass "
            f"{mass:.3e} > {req.resonant_tol:.1e} * ||f|| = {req.resonant_tol * nf:.3e}",
            offending_mass=mass)
    return _finish(req, _divide(param, f, skip_degree=L_res))


def _finish(req, u):
    res = verify_solution(req.param, u, req.f)
    l_top = int(np.max(_unpack(u)[0], initial=0))
    return SolveReport(
        u=u,
        residual_norm=res.norm,
        condition_warnings=condition_warnings(req.param, l_top),
        green_backend=_backend_tag(req),
    )


def _backend_tag(req):
    from .green import GreenFunction
    return GreenFunction(req.param, backend=req.backend).resolved_backend() \
        if req.backend == "auto" else req.backend


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
    degrees, uv, fv = _unpack(u, f)
    residual = eigen_gap(param, degrees) * uv - fv
    if param.resonant:
        keep = degrees != param.L_res
        degrees, residual = degrees[keep], residual[keep]
    mass = _degree_mass(f, param.L_res) if param.resonant else None
    return ResidualReport(degrees=degrees, residual=residual,
                          norm=float(np.linalg.norm(residual)), resonant_mass=mass)


def greens_solution_coefficient(param, l, f_coeff):
    """One-degree solve via the Green coefficient: lambda/(lambda+l) f-hat G-hat."""
    lam = param.ctx.lam
    return lam / (lam + l) * f_coeff * green_coefficient(param, l)
