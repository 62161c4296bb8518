"""Spectral Poisson/Helmholtz solvers and zonal wavelet analysis on S^n."""

from .errors import (
    ConvergenceError,
    NoClosedFormError,
    QuadratureError,
    ResonanceError,
    SolvabilityError,
    SpectrumParseError,
    SphereDomainError,
)
from .geometry import SphereContext, make_context
from .spectra import (
    GeneralSpectrum,
    QuadratureRule,
    ZonalSpectrum,
    analyze,
    convolve,
    default_rule,
    gauss_gegenbauer_rule,
    inner,
    laplace_beltrami,
    load_spectrum,
    norm_l2,
    poisson_kernel,
    poisson_kernel_spectrum,
    save_spectrum,
    synthesize,
)
from .wavelets import (
    ScaleGrid,
    WaveletFamily,
    check_admissibility,
    inverse_transform,
    make_scale_grid,
    poisson_scale_grid,
    poisson_wavelet,
    reconstruction_wavelet,
    roundtrip_error,
    wavelet_transform,
)
from .green import (
    GreenFunction,
    HelmholtzParameter,
    green_coefficient,
    green_coefficients,
    green_eval_integral,
    helmholtz_parameter,
    parameter_from_root,
)
from .solver import (
    SolveReport,
    SolveRequest,
    solve_helmholtz,
    solve_resonant,
    verify_solution,
)

__version__ = "0.1.0"
