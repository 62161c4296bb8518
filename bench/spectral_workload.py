"""The spectral_pipeline workload: solve jobs through the spectrum file format.

One operation is one solve job: format_spectrum -> parse_spectrum ->
solve_helmholtz / solve_resonant -> format_spectrum.  Zonal jobs then build
the Gauss-Gegenbauer rule, synthesize u on its nodes, analyze it back, and
run a Poisson-wavelet transform and its inverse on a scale grid wide
enough for Lmax.  General jobs (sparse (l, k) maps) take the dict paths of
the solver and the file format instead of the array paths.
"""

from math import log

import numpy as np

from spherepde import (
    GeneralSpectrum,
    SolveRequest,
    ZonalSpectrum,
    analyze,
    default_rule,
    helmholtz_parameter,
    inverse_transform,
    make_context,
    make_scale_grid,
    poisson_wavelet,
    solve_helmholtz,
    solve_resonant,
    synthesize,
    wavelet_transform,
)
from spherepde.spectra import format_spectrum, parse_spectrum

from harness import Tracer

CASES = ("nonresonant", "poisson", "resonant")
RESIDUAL_TOL = 1e-12    # max |(a - l(n+l-1)) u_l - f_l| relative to max |f_l|
ANALYSIS_TOL = 1e-9     # max |analyze(synthesize(u)) - u| relative to max |u|
WAVELET_TOL = 1e-6      # ||inverse(forward(u)) - u||_2 relative, degree 0 excluded
CHECKS = {"zonal": 5, "general": 3}


def _eigen_gap(a, n, l):
    return a - l * (n + l - 1.0)


def _scale_grid(l_max):
    """Log-uniform grid with rho_min * l_max = 1e-3 and 30 nodes per e-fold."""
    rho_min, rho_max = 1e-3 / l_max, 50.0
    return make_scale_grid(rho_min, rho_max, int(30 * log(rho_max / rho_min)))


class SpectralPipeline:
    """Zonal jobs over a fixed ladder of Lmax plus a share of general jobs."""

    def __init__(self, seed, scale):
        rng = np.random.default_rng(seed)
        if scale == "tiny":
            zonal_lmax, general, entries = (32, 64), 1, 200
        else:
            # Lmax 256..2048 in eight rungs, two jobs per rung; the top rung
            # is exactly 2048 so that peak memory does not depend on the seed.
            zonal_lmax = [256 * k + int(rng.integers(0, 32)) for k in range(1, 8) for _ in (0, 1)]
            zonal_lmax += [2048, 2048]
            general, entries = 4, 3000
        kinds = ["zonal"] * len(zonal_lmax) + ["general"] * general
        cases = [CASES[i % 3] for i in range(len(kinds))]
        cases = [cases[i] for i in rng.permutation(len(cases))]
        jobs = []
        for kind, case, l_max in zip(kinds, cases, list(zonal_lmax) + [None] * general):
            n = int(rng.integers(2, 9))
            if l_max is None:
                l_max = int(rng.choice(zonal_lmax))
            jobs.append(self._job(rng, kind, case, n, l_max, entries))
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]

    @staticmethod
    def _job(rng, kind, case, n, l_max, entries):
        ctx = make_context(n)
        if case == "poisson":
            a, skip = 0.0, 0
        elif case == "resonant":
            skip = int(rng.integers(1, 7))
            a = float(skip * (n + skip - 1))
        else:
            skip = None
            while True:
                a = float(rng.uniform(-30.0, 60.0))
                if np.min(np.abs(_eigen_gap(a, n, np.arange(20)))) >= 0.5:
                    break
        if kind == "zonal":
            coeffs = rng.standard_normal(l_max + 1) / (1.0 + np.arange(l_max + 1))
            if skip is not None:
                coeffs[skip] = 0.0
            f = ZonalSpectrum(ctx, coeffs)
            scale = float(np.max(np.abs(coeffs)))
        else:
            items = {}
            while len(items) < entries:
                l = int(rng.integers(0, l_max + 1))
                if l == skip:
                    continue
                key = (l, f"m{int(rng.integers(0, 2 * l + 1))}")
                items[key] = complex(*rng.standard_normal(2)) / (1.0 + l)
            f = GeneralSpectrum(ctx, items)
            scale = max(abs(v) for v in items.values())
        return {"kind": kind, "case": case, "n": n, "l_max": l_max, "a": a, "skip": skip,
                "f": f, "f_scale": scale, "d": int(rng.integers(1, 4))}

    def label(self, job):
        return f"{job['kind']} {job['case']} n={job['n']} Lmax={job['l_max']}"

    def warm_up(self):
        rng = np.random.default_rng(0)
        for kind in ("zonal", "general"):
            self.run(self._job(rng, kind, "nonresonant", 3, 32, 50), Tracer(False))

    def run(self, job, tr):
        try:
            return self._run(job, tr)
        except Exception as exc:  # counted by check as failed results
            return {"error": exc}

    def _run(self, job, tr):
        f = job["f"]
        ctx = f.ctx
        l_max = job["l_max"]
        with tr.span("spectra.format") as sp:
            text = format_spectrum(f)
            sp["bytes"] = len(text)
        with tr.span("spectra.parse", bytes=len(text)):
            f_in = parse_spectrum(text)
        coeffs = len(f.coeffs) if job["kind"] == "zonal" else len(f.entries)
        with tr.span("solver.solve", solves=1, coeffs=coeffs) as sp:
            req = SolveRequest(param=helmholtz_parameter(ctx, job["a"]), f=f_in)
            rep = solve_resonant(req) if job["case"] == "resonant" else solve_helmholtz(req)
            sp["residual"] = rep.residual_norm / job["f_scale"]
        with tr.span("spectra.format") as sp:
            text = format_spectrum(rep.u)
            sp["bytes"] = len(text)
        out = {"f_in": f_in, "u": rep.u, "text": text}
        if job["kind"] == "general":
            return out
        with tr.span("spectra.rule") as sp:
            rule = default_rule(ctx, l_max)
            sp["nodes"] = rule.nodes.size
        cells = (l_max + 1) * rule.nodes.size
        with tr.span("spectra.synthesize", cells=cells):
            values = synthesize(rep.u, rule.nodes)
        with tr.span("spectra.analyze", cells=cells):
            out["back"] = analyze(ctx, lambda t: values, l_max, rule).coeffs
        psi = poisson_wavelet(ctx, job["d"])
        grid = _scale_grid(l_max)
        cells = grid.count * (l_max + 1)
        with tr.span("wavelets.forward", cells=cells):
            transform = wavelet_transform(psi, rep.u, grid)
        with tr.span("wavelets.inverse", cells=cells):
            out["rec"] = inverse_transform(psi, transform, grid).coeffs
        return out

    def check(self, job, out, tally):
        if "error" in out:
            tally.error(out["error"], CHECKS[job["kind"]])
            return
        f, u = job["f"], out["u"]
        tally.check(_same(out["f_in"], f))
        tally.check(_same(parse_spectrum(out["text"]), u))
        tally.check(_residual_ok(job, u))
        if job["kind"] == "general":
            return
        tally.check(np.max(np.abs(out["back"] - u.coeffs)) <= ANALYSIS_TOL * np.max(np.abs(u.coeffs)))
        target = u.coeffs.copy()
        target[0] = 0.0
        err = np.linalg.norm(out["rec"] - target)
        tally.check(err <= WAVELET_TOL * np.linalg.norm(target))


def _same(a, b):
    """Exact equality of two spectra of the same kind."""
    if type(a) is not type(b) or a.ctx != b.ctx:
        return False
    if isinstance(a, ZonalSpectrum):
        return a.coeffs.shape == b.coeffs.shape and bool(np.all(a.coeffs == b.coeffs))
    return a.entries == b.entries


def _residual_ok(job, u):
    """Spectral residual of Delta* u + a u = f, recomputed from the inputs."""
    f, n, a, skip = job["f"], job["n"], job["a"], job["skip"]
    if isinstance(f, ZonalSpectrum):
        if u.coeffs.shape != f.coeffs.shape:
            return False
        l = np.arange(f.l_max + 1)
        r = _eigen_gap(a, n, l) * u.coeffs - f.coeffs
        if skip is not None:
            if u.coeffs[skip] != 0.0:
                return False
            r[skip] = 0.0
        return bool(np.max(np.abs(r)) <= RESIDUAL_TOL * job["f_scale"])
    if set(u.entries) != set(f.entries):
        return False
    worst = max(abs(_eigen_gap(a, n, l) * u.entries[(l, k)] - v) for (l, k), v in f.entries.items())
    return worst <= RESIDUAL_TOL * job["f_scale"]
