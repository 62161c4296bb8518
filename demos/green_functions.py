"""Green functions of Delta* + a on S^n: three backends side by side.

The solver's kernel has per-degree coefficients 1/(a - l(n+l-1)) (lam+l)/lam,
and this script evaluates it three independent ways:

  * the tabulated closed forms,
  * adaptive summation of the coefficient series (Abel summation with
    Richardson extrapolation, for every n),
  * one quadrature of the radial integral representation built from the
    Poisson kernel.

It then re-derives the even-dimension closed forms from scratch with the
exact-rational antiderivative engine and prints them.
"""

import numpy as np

from spherepde import GreenFunction, helmholtz_parameter, make_context
from spherepde.closedform import derive_green_closed_form
from spherepde import green_tables

CASES = [
    (2, 0.0, "Poisson equation on S^2"),
    (3, 3.0, "resonant Helmholtz, a = L(n+L-1) with L = 1"),
    (3, 1.25, "half-integer root L = 1/2"),
    (5, -3.0, "negative a (decaying waves)"),
    (8, 44.0, "resonant, high dimension"),
]

print("=" * 72)
print("backend comparison at a few sample points")
print("=" * 72)
for n, a, label in CASES:
    ctx = make_context(n)
    param = helmholtz_parameter(ctx, a)
    row = green_tables.lookup(n, a)
    print(f"\nn = {n}, a = {a}  ({label})")
    print(f"  tabulated form: {row.text()}")
    print(f"  {'t':>6} {'closed':>16} {'series':>16} {'integral':>16}")
    ts = np.array([-0.8, -0.2, 0.4, 0.9])
    columns = [GreenFunction(param, b)(ts) for b in ("closed", "series", "integral")]
    for t, c, s, q in zip(ts, *columns):
        print(f"  {t:6.2f} {c:16.10f} {s:16.10f} {q:16.10f}")

print()
print("=" * 72)
print("closed forms re-derived by the exact-rational engine (even n)")
print("=" * 72)
for n, L in [(2, 0), (4, 0), (2, 1), (6, 2), (8, -3), (10, 0)]:
    form = derive_green_closed_form(n, L)
    a = L * (n + L - 1)
    print(f"\nn = {n}, L = {L} (a = {a}):")
    print(f"  {form.text()}")

# the engine also reaches parameter pairs outside the tabulated rows
form = derive_green_closed_form(10, 2)
param = helmholtz_parameter(make_context(10), 2 * (10 + 2 - 1))
print("\nn = 10, L = 2 (a = 22) is not tabulated; derived:")
print(f"  {form.text()}")
print(f"  check vs series at t = 0.3: engine {form.eval(0.3):.12f}, "
      f"series {GreenFunction(param, 'series')(0.3):.12f}")
