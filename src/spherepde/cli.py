"""Batch command-line interface.

Subcommands
-----------
solve          solve Delta* u + a u = f from a spectrum file
green          evaluate/tabulate Green functions (eval/table) or emit the
               assembled closed form (derive)
wavelet        forward transform / round trip / admissibility report
verify         run the cross-backend verification suites

Exit codes: 0 success, 1 usage or parse error, 2 resonance guard,
3 solvability or domain error, 4 numeric non-convergence.

Config files are flat ``key = value`` text (same keys as the long
options, with ``-`` replaced by ``_``); explicit command-line flags
override file values, and a malformed line is a usage error.  All
output files are written atomically and begin with comment headers
recording the parameters, tolerances, and version; numbers are printed
with 12 significant digits, so identical configurations give
byte-identical outputs.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (
    ConvergenceError,
    NoClosedFormError,
    QuadratureError,
    ResonanceError,
    SolvabilityError,
    SpectrumParseError,
    SphereDomainError,
)
from .closedform import derive_green_closed_form
from .geometry import make_context
from .green import (
    closed_form_row,
    green_eval_closed,
    green_eval_integral,
    green_series_batch,
    helmholtz_parameter,
    parameter_from_root,
)
from .spectra import ZonalSpectrum, format_spectrum, load_spectrum, norm_l2
from .solver import SolveRequest, solve_helmholtz, solve_resonant
from .wavelets import (
    check_admissibility,
    make_scale_grid,
    poisson_wavelet,
    roundtrip_error,
    wavelet_transform,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESONANCE = 2
EXIT_SOLVABILITY = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for the resonance guard, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x):
    return f"{x:.12g}"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".spherepde-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path, parser):
    """{key: (line number, value text)} of a flat 'key = value' file."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                parser.error(f"config {path} line {lineno} is not 'key = value': "
                             f"{raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = (lineno, val.strip())
    return out


def _merge_config(args, parser):
    """Fill unset args from --config file values (flags win).

    Values convert by their option's type; a line that does not parse is a
    usage error naming it.
    """
    if not getattr(args, "config", None):
        return args
    command = parser._subparsers._group_actions[0].choices[args.command]
    actions = {a.dest: a for a in command._actions}
    for key, (lineno, sval) in _load_config(args.config, parser).items():
        if key not in actions or not hasattr(args, key):
            continue
        action = actions[key]
        if getattr(args, key) != action.default:
            continue        # explicitly set on the command line
        if isinstance(action.default, bool):
            val = sval.lower() in ("1", "true", "yes", "on")
        elif action.type is None:
            val = sval
        else:
            try:
                val = action.type(sval)
            except ValueError:
                parser.error(f"config {args.config} line {lineno}: {key} = {sval!r} "
                             f"is not a valid {action.type.__name__}")
        setattr(args, key, val)
    return args


def _param_from_args(ctx, args):
    if getattr(args, "L", None) is not None:
        return parameter_from_root(ctx, float(args.L))
    if args.a is None:
        raise SphereDomainError("one of --a or --L is required")
    return helmholtz_parameter(ctx, float(args.a))


def _header_lines(kv):
    lines = [f"spherepde v{__version__}"]
    lines += [f"{k}: {v}" for k, v in kv.items()]
    return lines


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args):
    ctx = make_context(args.n)
    param = _param_from_args(ctx, args)
    f = load_spectrum(getattr(args, "in"))
    if f.ctx.n != ctx.n:
        raise SphereDomainError(
            f"input spectrum is for n={f.ctx.n}, requested n={ctx.n}")
    req = SolveRequest(param=param, f=f, backend=args.backend,
                       resonant_tol=args.tol)
    if param.resonant and param.L_res >= 1:
        if not args.resonant:
            print(f"error: a = {param.a} is resonant at degree {param.L_res} "
                  f"(a = L(n+L-1) with L = {param.L_res}); the problem is solvable "
                  "only if f has no degree-"
                  f"{param.L_res} content, and the solution is then unique up to "
                  "that degree. Re-run with --resonant to solve with the "
                  "zero-content normalisation.", file=sys.stderr)
            return EXIT_RESONANCE
        report = solve_resonant(req)
    else:
        report = solve_helmholtz(req)
    header = _header_lines({
        "n": ctx.n, "a": _fmt(param.a),
        "L": "none" if param.L is None else _fmt(param.L),
        "green backend": report.green_backend,
        "resonant tolerance": _fmt(args.tol),
        "residual": _fmt(report.residual_norm),
    })
    _atomic_write(args.out,
                  format_spectrum(report.u, extra_comments=header, fmt="%.12g"))
    print(f"wrote {args.out}")
    print(f"green backend: {report.green_backend}")
    print(f"spectral residual: {_fmt(report.residual_norm)}")
    for l, gap in report.condition_warnings:
        print(f"warning: degree {l} is ill-conditioned, |a - l(n+l-1)| = {_fmt(gap)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------

def _green_samples(args):
    if args.t is not None:
        return np.array([float(args.t)])
    k = args.grid
    return np.linspace(-1.0, 1.0, k + 2)[1:-1]


def cmd_green(args):
    ctx = make_context(args.n)
    param = _param_from_args(ctx, args)
    mode = args.mode
    if mode is None:
        mode = "eval" if args.t is not None else "table"

    if mode == "derive":
        try:
            L = param.L
            if L is None:
                raise NoClosedFormError(f"a = {param.a} has no real root L")
            if abs(L - round(L)) <= 1e-9:
                L = int(round(L))
            form = derive_green_closed_form(ctx.n, L)
            head = f"# assembled closed form, n={ctx.n}, L={L}, a={_fmt(param.a)}"
        except NoClosedFormError as exc:
            form = closed_form_row(param)
            if form is None:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_SOLVABILITY
            head = f"# assembly unavailable ({exc}); tabulated form:"
        text = f"{head}\ntext:  {form.text()}\nlatex: {form.latex()}\n"
        if args.out:
            _atomic_write(args.out, text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return EXIT_OK

    backends = (["closed", "series", "integral"] if args.backend == "all"
                else [args.backend])
    row = closed_form_row(param)
    notes = {}
    if "closed" in backends and row is None:
        backends[backends.index("closed")] = "series"
        notes["fallback"] = "no closed form for (n, a); 'closed' column uses series"
        backends = list(dict.fromkeys(backends))
    ts = _green_samples(args)
    cols = {}
    tail = None
    for b in backends:
        if b == "series":
            arr, tails = green_series_batch(param, ts)
            vals = list(arr)
            tail = float(np.max(tails))
        elif b == "closed":
            # a --t point gets the domain and diagonal check of
            # green_eval_closed; the grid lies inside (-1, 1) and goes to the
            # row as one array
            if args.t is not None:
                vals = [green_eval_closed(param, args.t)]
            else:
                vals = list(row.eval(ts))
        else:
            vals = [green_eval_integral(param, t) for t in ts]
        cols[b] = vals
    kv = {"n": ctx.n, "a": _fmt(param.a),
          "L": "none" if param.L is None else _fmt(param.L),
          "backends": "+".join(backends),
          "tolerances": "series Abel cut 1e-14 with Richardson tail estimate, "
                        "1-t >= 6e-5 n; integral 1e-8 (1+|G|)"}
    if tail is not None:
        kv["series tail estimate"] = _fmt(tail)
    kv.update(notes)
    lines = [f"# {s}" for s in _header_lines(kv)]
    lines.append(",".join(["t", "theta"] + list(cols)))
    for i, t in enumerate(ts):
        row = [_fmt(t), _fmt(float(np.arccos(np.clip(t, -1, 1))))]
        row += [_fmt(cols[b][i]) for b in cols]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wavelet
# ---------------------------------------------------------------------------

def cmd_wavelet(args):
    ctx = make_context(args.n)
    psi = poisson_wavelet(ctx, args.d)
    mode = args.mode

    if mode == "admissibility":
        grid = make_scale_grid(1e-8, 60.0, 800)
        rep = check_admissibility(psi, psi, args.lmax, grid)
        kv = {"n": ctx.n, "wavelet": psi.tag, "l max": args.lmax,
              "grid": f"[{grid.rho_min},{grid.rho_max}] x {grid.count}",
              "tail tolerance": "1e-12",
              "max relative deviation": _fmt(rep.max_rel_deviation())}
        lines = [f"# {s}" for s in _header_lines(kv)]
        lines.append("l,integral,target,deviation")
        for i in range(len(rep.l)):
            lines.append(",".join([str(int(rep.l[i])), _fmt(float(np.real(rep.integral[i]))),
                                   _fmt(rep.target[i]), _fmt(float(np.real(rep.deviation[i])))]))
        text = "\n".join(lines) + "\n"
        if args.out:
            _atomic_write(args.out, text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        print(f"max relative deviation: {_fmt(rep.max_rel_deviation())}")
        return EXIT_OK

    f = load_spectrum(getattr(args, "in"))
    if not isinstance(f, ZonalSpectrum):
        raise SphereDomainError("wavelet transforms need a zonal input spectrum")
    if f.ctx.n != ctx.n:
        raise SphereDomainError(f"input spectrum is for n={f.ctx.n}, requested n={ctx.n}")
    grid = make_scale_grid(args.rho_min, args.rho_max, args.scales)

    if mode == "roundtrip" and abs(f.coeffs[0]) > 1e-12 * max(norm_l2(f), 1e-300):
        print(f"error: round-trip inversion requires a zero-mean input; "
              f"f-hat(0) = {_fmt(abs(f.coeffs[0]))}", file=sys.stderr)
        return EXIT_SOLVABILITY

    W = wavelet_transform(psi, f, grid)
    kv = {"n": ctx.n, "wavelet": psi.tag, "Lmax": f.l_max,
          "grid": f"[{grid.rho_min},{grid.rho_max}] x {grid.count}",
          "mean tolerance": "1e-12"}
    err = None
    if mode == "roundtrip":
        err = roundtrip_error(psi, psi, f, grid)
        kv["roundtrip relative error"] = _fmt(err)
    lines = [f"# {s}" for s in _header_lines(kv)]
    lines.append("rho,l,re,im")
    for j, rho in enumerate(grid.nodes):
        for l in range(W.l_max + 1):
            c = complex(W.coeffs[j, l])
            lines.append(",".join([_fmt(rho), str(l), _fmt(c.real), _fmt(c.imag)]))
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if err is not None:
        print(f"roundtrip relative error: {_fmt(err)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    from . import green_tables
    from .spectra import (inner, laplace_beltrami, poisson_kernel,
                          poisson_kernel_spectrum, synthesize)
    rng = np.random.default_rng(20240811)
    checks = []

    def record(name, ok, detail):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    def check(name, worst, tol):
        record(name, worst <= tol, f"max deviation {worst:.3e} (tolerance {tol:.0e})")

    rows = green_tables.rows_for()
    if args.fast:
        rows = [r for r in rows if r.n <= 5][::2]
    ts = np.linspace(-0.95, 0.95, 7 if args.fast else 20)
    worst_s = worst_i = 0.0
    for row in rows:
        ctx = make_context(row.n)
        param = helmholtz_parameter(ctx, float(row.a))
        series, _tails = green_series_batch(param, ts)
        for t, s in zip(ts, series):
            c = row.eval(t)
            gi = green_eval_integral(param, t)
            worst_s = max(worst_s, abs(s - c) / (1 + abs(c)))
            worst_i = max(worst_i, abs(gi - c) / (1 + abs(c)))
    check("closed vs series (all table rows)", worst_s, 1e-4)
    check("closed vs integral (all table rows)", worst_i, 1e-6)

    worst = 0.0
    for n in range(2, 9):
        ctx = make_context(n)
        for r in (0.3, 0.5, 0.7, 0.9):
            # truncation from the geometric tail bound (lam+l)/lam (n+l-2)^{n-2} r^l
            lam = ctx.lam
            l_cut = 8
            while ((lam + l_cut) / lam * float(n + l_cut - 2) ** (n - 2)
                   * r ** l_cut / (1.0 - (1.0 + r) / 2.0) > 1e-12):
                l_cut = int(l_cut * 1.5) + 4
            spec = poisson_kernel_spectrum(ctx, r, l_cut)
            ts = np.linspace(-1, 1, 11)
            series = synthesize(spec, ts)
            closed = poisson_kernel(ctx, r, ts)
            worst = max(worst, float(np.max(np.abs(series - closed)
                                            / (1.0 + np.abs(closed)))))
    check("Poisson kernel series vs closed form", worst, 1e-10)

    worst = 0.0
    for n in (2, 5, 8):
        ctx = make_context(n)
        for d in (1, 2, 3):
            w = poisson_wavelet(ctx, d)
            rep = check_admissibility(w, w, 16 if args.fast else 32)
            worst = max(worst, rep.max_rel_deviation())
    check("Poisson wavelet admissibility", worst, 1e-6)

    worst = 0.0
    for n in (2, 4):
        ctx = make_context(n)
        coeffs = rng.standard_normal(17)
        coeffs[0] = 0.0
        f = ZonalSpectrum(ctx, coeffs)
        w = poisson_wavelet(ctx, 1)
        worst = max(worst, roundtrip_error(w, w, f, make_scale_grid()))
    check("wavelet round trip", worst, 1e-3)

    worst = 0.0
    for n in (2, 3, 5):
        ctx = make_context(n)
        f = ZonalSpectrum(ctx, rng.standard_normal(9))
        g = ZonalSpectrum(ctx, rng.standard_normal(9))
        lhs = inner(laplace_beltrami(f), g)
        rhs = inner(f, laplace_beltrami(g))
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    check("Laplace-Beltrami self-adjointness", worst, 1e-12)

    rows = [r for r in green_tables.rows_for() if r.n % 2 == 0 and r.L.denominator == 1]
    same = sum(derive_green_closed_form(r.n, r.L) == r for r in rows)
    record("closed-form assembly vs registry", same == len(rows),
           f"{same} of {len(rows)} even-n integer-L rows equal exactly")

    if all(checks):
        print("all checks passed")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="spherepde",
                description="Spectral Poisson/Helmholtz solvers and zonal "
                            "wavelet analysis on the n-sphere")
    p.add_argument("--version", action="version", version=f"spherepde {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, required=True, help="sphere dimension (>= 2)")
        sp.add_argument("--a", type=float, default=None, help="Helmholtz parameter a")
        sp.add_argument("--L", type=float, default=None,
                        help="alternative to --a: the root L with a = L(n+L-1)")
        sp.add_argument("--config", default=None, help="flat key = value config file")

    ps = sub.add_parser("solve", help="solve Delta* u + a u = f")
    common(ps)
    ps.add_argument("--in", required=True, help="input spectrum file (f)")
    ps.add_argument("--out", required=True, help="output spectrum file (u)")
    ps.add_argument("--backend", default="auto",
                    choices=["auto", "closed", "series", "integral"],
                    help="Green backend recorded in the report")
    ps.add_argument("--resonant", action="store_true",
                    help="allow resonant a (solve with zero resonant content)")
    ps.add_argument("--tol", type=float, default=1e-8,
                    help="resonant solvability tolerance (relative)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("green", help="evaluate/tabulate/derive Green functions")
    pg.add_argument("mode", nargs="?", choices=["eval", "table", "derive"],
                    help="defaults to eval with --t, table with --grid")
    common(pg)
    pg.add_argument("--t", type=float, default=None, help="single evaluation point")
    pg.add_argument("--grid", type=int, default=19,
                    help="number of uniform interior sample points")
    pg.add_argument("--backend", default="all",
                    choices=["all", "closed", "series", "integral"])
    pg.add_argument("--out", default=None, help="output CSV (stdout when omitted)")
    pg.set_defaults(func=cmd_green)

    pw = sub.add_parser("wavelet", help="wavelet transform utilities")
    pw.add_argument("mode", choices=["forward", "roundtrip", "admissibility"])
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--d", type=int, default=1, help="Poisson wavelet order")
    pw.add_argument("--config", default=None)
    pw.add_argument("--in", default=None, help="input zonal spectrum file")
    pw.add_argument("--out", default=None, help="output CSV (stdout when omitted)")
    pw.add_argument("--rho-min", dest="rho_min", type=float, default=1e-4)
    pw.add_argument("--rho-max", dest="rho_max", type=float, default=50.0)
    pw.add_argument("--scales", type=int, default=400)
    pw.add_argument("--lmax", type=int, default=32)
    pw.set_defaults(func=cmd_wavelet)

    pv = sub.add_parser("verify", help="run the cross-backend verification suites")
    pv.add_argument("--fast", action="store_true", help="reduced row/point coverage")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        return args.func(args)
    except ResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except (FileNotFoundError, SpectrumParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolvabilityError, SphereDomainError, NoClosedFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except (ConvergenceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
