"""Solving Delta* u + a u = f spectrally, including the resonant case.

The solve is a per-degree division u-hat(l) = f-hat(l)/(a - l(n+l-1)); this
script builds a random band-limited right-hand side, solves for several
parameters, and verifies the solutions through the eigenvalue identity.
The resonant case a = L(n+L-1) demonstrates the solvability constraint
(no degree-L content in f) and the zero-content normalisation of u.
"""

import numpy as np

from spherepde import (
    SolvabilityError,
    SolveRequest,
    ZonalSpectrum,
    helmholtz_parameter,
    make_context,
    solve_helmholtz,
    solve_resonant,
    synthesize,
    verify_solution,
)

rng = np.random.default_rng(7)

n = 4
ctx = make_context(n)
coeffs = rng.standard_normal(17) / (1.0 + np.arange(17.0))
coeffs[0] = 0.0
f = ZonalSpectrum(ctx, coeffs)

print(f"right-hand side on S^{n}: 16 random modes, zero mean")
print(f"f(t = 0.5) = {synthesize(f, 0.5):.8f}")

for a in (0.0, -2.0, 7.5):
    param = helmholtz_parameter(ctx, a)
    rep = solve_helmholtz(SolveRequest(param=param, f=f))
    res = verify_solution(param, rep.u, f)
    print(f"\na = {a}:")
    print(f"  u(t = 0.5)    = {synthesize(rep.u, 0.5): .10f}")
    print(f"  residual norm = {res.norm:.3e}")

# resonant parameter: a = L(n+L-1) with L = 2 -> a = 10 on S^4
a = 10.0
param = helmholtz_parameter(ctx, a)
print(f"\na = {a} is resonant at degree {param.L_res}")
try:
    solve_resonant(SolveRequest(param=param, f=f))
except SolvabilityError as exc:
    print(f"  with degree-2 content present: {exc}")

proj = f.coeffs.copy()
proj[param.L_res] = 0.0
rep = solve_resonant(SolveRequest(param=param, f=ZonalSpectrum(ctx, proj)))
res = verify_solution(param, rep.u, ZonalSpectrum(ctx, proj))
print("  after projecting the resonant mode out:")
print(f"  u-hat({param.L_res}) = {rep.u.coeffs[param.L_res]} (normalisation)")
print(f"  residual norm on the other degrees = {res.norm:.3e}")
