"""Batch command-line interface.

Subcommands
-----------
solve          solve Delta* u + a u = f from a spectrum file
green          evaluate/tabulate Green functions (eval/table) or emit the
               assembled closed form (derive)
wavelet        forward transform / round trip / admissibility report
verify         run the cross-backend verification suites

Exit codes: 0 success, 1 usage or parse error (a size no array could
hold, or one that memory cannot), 2 resonance guard, 3 solvability or
domain error, 4 numeric non-convergence.

solve and green take exactly one of --a and --L; wavelet forward and
roundtrip need --in.  Config files are flat ``key = value`` text (same
keys as the long options, with ``-`` replaced by ``_``) whose values
become the command's defaults, so command-line flags override them; a
malformed line, and a required option that both lack, is a usage error.
All output files are written atomically and begin with comment headers
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
from . import green_tables
from .closedform import derive_green_closed_form
from .geometry import _SIZE_MAX, gegenbauer_bound, make_context
from .green import (
    _ABEL_DIAG_GAP,
    _ABEL_RTOL,
    _QUAD_RTOL,
    GreenFunction,
    green_series_batch,
    helmholtz_parameter,
    parameter_from_root,
)
from .spectra import (
    ZonalSpectrum,
    format_spectrum,
    inner,
    laplace_beltrami,
    load_spectrum,
    norm_l2,
    poisson_kernel,
    poisson_kernel_spectrum,
    synthesize,
)
from .solver import DEFAULT_RESONANT_TOL, SolveRequest, solve_helmholtz, solve_resonant
from .wavelets import (
    _TAIL_TOL,
    _relative_error,
    check_admissibility,
    inverse_transform,
    poisson_scale_grid,
    poisson_wavelet,
    roundtrip_error,
    wavelet_transform,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESONANCE = 2
EXIT_SOLVABILITY = 3
EXIT_NUMERIC = 4

# relative size of f-hat(0) that a wavelet round trip refuses as a mean
_MEAN_TOL = 1e-12


class _UsageError(Exception):
    """A command line that parses but lacks what its command needs."""


# the first type that matches an error sets the exit code: SpectrumParseError
# ahead of its base class SphereDomainError
_EXIT_CODES = {
    ResonanceError: EXIT_RESONANCE,
    _UsageError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    UnicodeDecodeError: EXIT_USAGE,
    MemoryError: EXIT_USAGE,
    SpectrumParseError: EXIT_USAGE,
    SolvabilityError: EXIT_SOLVABILITY,
    SphereDomainError: EXIT_SOLVABILITY,
    NoClosedFormError: EXIT_SOLVABILITY,
    ConvergenceError: EXIT_NUMERIC,
    QuadratureError: EXIT_NUMERIC,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for the resonance guard, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x):
    return f"{x:.12g}"


def _sci(x):
    """A tolerance in one-digit scientific notation: 6e-5, not 6e-05."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


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


def _emit(out, text):
    """Write text atomically to the file out, or to stdout when out is empty."""
    if out:
        _atomic_write(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _header_lines(kv):
    lines = [f"spherepde v{__version__}"]
    lines += [f"{k}: {v}" for k, v in kv.items()]
    return lines


def _emit_table(out, kv, columns, rows):
    """Write a CSV table through _emit: '#' header lines from kv, the column
    line, then one line per row of numbers."""
    lines = [f"# {s}" for s in _header_lines(kv)]
    lines.append(",".join(columns))
    lines += [",".join(map(_fmt, row)) for row in rows]
    _emit(out, "\n".join(lines) + "\n")


def bounded_int(text):
    """An int below geometry._SIZE_MAX, as an argparse type: a larger one
    could size no array, and is a usage error."""
    val = int(text)
    if val >= _SIZE_MAX:
        raise argparse.ArgumentTypeError(f"must be below {_SIZE_MAX}, got {val}")
    return val


def positive_int(text):
    """A bounded_int >= 1, as an argparse type: anything else is a usage error."""
    val = bounded_int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {val}")
    return val


def _config_defaults(path, command, parser):
    """{dest: value} of command's options from a flat 'key = value' file.

    Values convert by their option's type and must be among its choices; a
    line that does not, or that is not 'key = value', is a usage error
    naming it.  Keys that are not options of command are skipped, so one
    file serves every command.  main makes the result the command's
    defaults, so any flag on the command line wins.
    """
    lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                parser.error(f"config {path} line {lineno} is not 'key = value': "
                             f"{raw.strip()!r}")
            key, val = line.split("=", 1)
            lines[key.strip().replace("-", "_")] = (lineno, val.strip())
    actions = {a.dest: a for a in command._actions if a.default is not argparse.SUPPRESS}
    values = {}
    for key, (lineno, sval) in lines.items():
        action = actions.get(key)
        if action is None:
            continue
        if isinstance(action.default, bool):
            val = sval.lower() in ("1", "true", "yes", "on")
        elif action.type is None:
            val = sval
        else:
            try:
                val = action.type(sval)
            except (ValueError, argparse.ArgumentTypeError):
                parser.error(f"config {path} line {lineno}: {key} = {sval!r} "
                             f"is not a valid {action.type.__name__.replace('_', ' ')}")
        if action.choices is not None and val not in action.choices:
            parser.error(f"config {path} line {lineno}: {key} = {sval!r} "
                         f"is not one of {', '.join(action.choices)}")
        values[key] = val
    return values


def _param_from_args(ctx, args):
    if (args.a is None) == (args.L is None):
        raise _UsageError("give exactly one of --a or --L")
    if args.L is not None:
        return parameter_from_root(ctx, args.L)
    return helmholtz_parameter(ctx, args.a)


def _load_input(args, ctx):
    """The --in spectrum, checked to be on ctx's sphere."""
    path = getattr(args, "in")
    if path is None:        # solve's parser requires --in; wavelet's cannot
        raise _UsageError(f"{args.command} {args.mode} needs --in")
    f = load_spectrum(path)
    if f.ctx.n != ctx.n:
        raise SphereDomainError(f"input spectrum is for n={f.ctx.n}, requested n={ctx.n}")
    return f


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args):
    ctx = make_context(args.n)
    param = _param_from_args(ctx, args)
    f = _load_input(args, ctx)
    req = SolveRequest(param=param, f=f, resonant_tol=args.tol)
    if param.resonant and param.L_res >= 1:
        if not args.resonant:
            raise ResonanceError(
                f"a = {param.a} is resonant at degree {param.L_res} "
                f"(a = L(n+L-1) with L = {param.L_res}); the problem is solvable "
                f"only if f has no degree-{param.L_res} content, and the solution "
                "is then unique up to that degree. Re-run with --resonant to solve "
                "with the zero-content normalisation.")
        report = solve_resonant(req)
    else:
        report = solve_helmholtz(req)
    header = _header_lines({
        "n": ctx.n, "a": _fmt(param.a),
        "L": "none" if param.L is None else _fmt(param.L),
        "resonant tolerance": _fmt(args.tol),
        "residual": _fmt(report.residual_norm),
    })
    _emit(args.out, format_spectrum(report.u, extra_comments=header, fmt="%.12g"))
    print(f"spectral residual: {_fmt(report.residual_norm)}")
    for l, gap in report.condition_warnings:
        print(f"warning: degree {l} is ill-conditioned, |a - l(n+l-1)| = {_fmt(gap)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------

def cmd_green(args):
    ctx = make_context(args.n)
    param = _param_from_args(ctx, args)
    if args.mode == "derive":
        try:
            if param.root is None:
                raise NoClosedFormError(f"a = {param.a} has no integer or half-integer root")
            form = derive_green_closed_form(ctx.n, param.root)
            head = f"# assembled closed form, n={ctx.n}, L={param.root}, a={_fmt(param.a)}"
        except NoClosedFormError as exc:
            form = green_tables.lookup_by_root(ctx.n, param.root)
            if form is None:
                raise
            head = f"# assembly unavailable ({exc}); tabulated form:"
        _emit(args.out, f"{head}\ntext:  {form.text()}\nlatex: {form.latex()}\n")
        return EXIT_OK

    backends = (["closed", "series", "integral"] if args.backend == "all"
                else [args.backend])
    ts = np.array([args.t]) if args.t is not None else np.linspace(-1, 1, args.grid + 2)[1:-1]
    cols, notes, tail = {}, {}, None
    # the integral, which must answer, goes first: its refusal costs no other column
    for b in sorted(backends, key=lambda b: b != "integral"):
        try:
            if b == "series":     # called directly for its tail estimate
                cols[b], tails = green_series_batch(param, ts)
                tail = float(np.max(tails))
            else:
                cols[b] = GreenFunction(param, b)(ts)
        except (NoClosedFormError, ConvergenceError) as exc:
            if args.backend != "all" or b == "integral":
                raise
            # under 'all' only the integral, which serves every a, must answer
            notes[b] = f"column dropped: {exc}"
    cols = {b: cols[b] for b in backends if b in cols}
    kv = {"n": ctx.n, "a": _fmt(param.a),
          "L": "none" if param.L is None else _fmt(param.L),
          "backends": "+".join(cols),
          "tolerances": f"series Abel cut {_sci(_ABEL_RTOL)} with Richardson tail "
                        f"estimate, 1-t >= {_sci(_ABEL_DIAG_GAP)} n; "
                        f"integral {_sci(_QUAD_RTOL)} (1+|G|)"}
    if tail is not None:
        kv["series tail estimate"] = _fmt(tail)
    kv.update(notes)
    _emit_table(args.out, kv, ["t", "theta", *cols],
                ([t, np.arccos(np.clip(t, -1, 1)), *vals]
                 for t, *vals in zip(ts, *cols.values())))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wavelet
# ---------------------------------------------------------------------------

def cmd_wavelet(args):
    ctx = make_context(args.n)
    psi = poisson_wavelet(ctx, args.d)
    if args.mode == "admissibility":
        grid = poisson_scale_grid(args.d, args.lmax)
        rep = check_admissibility(psi, psi, args.lmax, grid)
        kv = {"n": ctx.n, "wavelet": psi.tag, "l max": args.lmax,
              "grid": f"[{grid.rho_min},{grid.rho_max}] x {grid.count}",
              "tail tolerance": _sci(_TAIL_TOL),
              "max relative deviation": _fmt(rep.max_rel_deviation())}
        _emit_table(args.out, kv, ["l", "integral", "target", "deviation"],
                    zip(rep.l, np.real(rep.integral), rep.target, np.real(rep.deviation)))
        print(f"max relative deviation: {_fmt(rep.max_rel_deviation())}")
        return EXIT_OK

    f = _load_input(args, ctx)
    if not isinstance(f, ZonalSpectrum):
        raise SphereDomainError("wavelet transforms need a zonal input spectrum")
    grid = poisson_scale_grid(args.d, f.l_max)

    if args.mode == "roundtrip" and abs(f.coeffs[0]) > _MEAN_TOL * max(norm_l2(f), 1e-300):
        raise SolvabilityError("round-trip inversion requires a zero-mean input; "
                               f"f-hat(0) = {_fmt(abs(f.coeffs[0]))}")

    W = wavelet_transform(psi, f, grid)
    kv = {"n": ctx.n, "wavelet": psi.tag, "Lmax": f.l_max,
          "grid": f"[{grid.rho_min},{grid.rho_max}] x {grid.count}",
          "mean tolerance": _sci(_MEAN_TOL)}
    err = None
    if args.mode == "roundtrip":
        err = _relative_error(f, inverse_transform(psi, W, grid))
        kv["roundtrip relative error"] = _fmt(err)
    _emit_table(args.out, kv, ["rho", "l", "re", "im"],
                ([rho, l, c.real, c.imag]
                 for rho, row in zip(grid.nodes, W.coeffs) for l, c in enumerate(row)))
    if err is not None:
        print(f"roundtrip relative error: {_fmt(err)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    rng = np.random.default_rng(20240811)
    checks = []

    def record(name, ok, detail):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    def check(name, worst, tol):
        record(name, worst <= tol, f"max deviation {worst:.3e} (tolerance {tol:.0e})")

    def deviation(values, ref):
        return float(np.max(np.abs(values - ref) / (1.0 + np.abs(ref))))

    rows = green_tables.rows_for()
    if args.fast:
        rows = [r for r in rows if r.n <= 5][::2]
    ts = np.linspace(-0.95, 0.95, 7 if args.fast else 20)
    worst_s = worst_i = 0.0
    for row in rows:
        param = helmholtz_parameter(make_context(row.n), float(row.a))
        c = row.eval(ts)
        worst_s = max(worst_s, deviation(GreenFunction(param, "series")(ts), c))
        worst_i = max(worst_i, deviation(GreenFunction(param, "integral")(ts), c))
    check("closed vs series (all table rows)", worst_s, 1e-4)
    check("closed vs integral (all table rows)", worst_i, 1e-6)

    worst = 0.0
    for n, a in ((2, -0.5), (3, -2.0), (5, -10.0), (8, -20.0)):    # a < -(n-1)^2/4
        param = helmholtz_parameter(make_context(n), a)
        worst = max(worst, deviation(GreenFunction(param, "integral")(ts),
                                     GreenFunction(param, "series")(ts)))
    check("integral vs series (complex roots)", worst, 1e-4)

    worst = 0.0
    for n in range(2, 9):
        ctx = make_context(n)
        for r in (0.3, 0.5, 0.7, 0.9):
            # truncation from the geometric tail bound (lam+l)/lam (n+l-2)^{n-2} r^l
            lam = ctx.lam
            l_cut = 8
            while ((lam + l_cut) / lam * gegenbauer_bound(ctx, l_cut)
                   * r ** l_cut / (1.0 - (1.0 + r) / 2.0) > 1e-12):
                l_cut = int(l_cut * 1.5) + 4
            spec = poisson_kernel_spectrum(ctx, r, l_cut)
            ts = np.linspace(-1, 1, 11)
            series = synthesize(spec, ts)
            closed = poisson_kernel(ctx, r, ts)
            worst = max(worst, deviation(series, closed))
    check("Poisson kernel series vs closed form", worst, 1e-10)

    worst = 0.0
    l_max = 16 if args.fast else 32
    for n in (2, 5, 8):
        ctx = make_context(n)
        for d in (1, 2, 3):
            w = poisson_wavelet(ctx, d)
            rep = check_admissibility(w, w, l_max, poisson_scale_grid(d, l_max))
            worst = max(worst, rep.max_rel_deviation())
    check("Poisson wavelet admissibility", worst, 1e-10)

    worst = 0.0
    for n in (2, 4):
        ctx = make_context(n)
        coeffs = rng.standard_normal(17)
        coeffs[0] = 0.0
        f = ZonalSpectrum(ctx, coeffs)
        w = poisson_wavelet(ctx, 1)
        worst = max(worst, roundtrip_error(w, w, f, poisson_scale_grid(1, f.l_max)))
    check("wavelet round trip", worst, 1e-10)

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

    def common(sp, helmholtz=True):
        sp.add_argument("--n", type=int, required=True, help="sphere dimension (>= 2)")
        if helmholtz:
            sp.add_argument("--a", type=float, default=None, help="Helmholtz parameter a")
            sp.add_argument("--L", type=float, default=None,
                            help="alternative to --a: the root L with a = L(n+L-1)")
        sp.add_argument("--config", default=None, help="flat key = value config file")

    ps = sub.add_parser("solve", help="solve Delta* u + a u = f")
    common(ps)
    ps.add_argument("--in", required=True, help="input spectrum file (f)")
    ps.add_argument("--out", required=True, help="output spectrum file (u)")
    ps.add_argument("--resonant", action="store_true",
                    help="allow resonant a (solve with zero resonant content)")
    ps.add_argument("--tol", type=float, default=DEFAULT_RESONANT_TOL,
                    help="resonant solvability tolerance (relative)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("green", help="evaluate/tabulate/derive Green functions")
    pg.add_argument("mode", nargs="?", choices=["eval", "table", "derive"],
                    help="defaults to eval with --t, table with --grid")
    common(pg)
    pg.add_argument("--t", type=float, default=None, help="single evaluation point")
    pg.add_argument("--grid", type=positive_int, default=19,
                    help="number of uniform interior sample points")
    pg.add_argument("--backend", default="all",
                    choices=["all", "closed", "series", "integral"])
    pg.add_argument("--out", default=None, help="output CSV (stdout when omitted)")
    pg.set_defaults(func=cmd_green)

    pw = sub.add_parser("wavelet", help="wavelet transform utilities")
    pw.add_argument("mode", choices=["forward", "roundtrip", "admissibility"])
    common(pw, helmholtz=False)
    pw.add_argument("--d", type=int, default=1, help="Poisson wavelet order")
    pw.add_argument("--in", default=None,
                    help="input zonal spectrum file (forward, roundtrip)")
    pw.add_argument("--out", default=None, help="output CSV (stdout when omitted)")
    pw.add_argument("--lmax", type=bounded_int, default=32)
    pw.set_defaults(func=cmd_wavelet)

    pv = sub.add_parser("verify", help="run the cross-backend verification suites")
    pv.add_argument("--fast", action="store_true", help="reduced row/point coverage")
    pv.set_defaults(func=cmd_verify)
    for sp in sub.choices.values():
        # --config may supply a required option: main checks it once the file is
        # applied, and the usage line keeps showing it as required
        sp.usage = sp.format_usage().removeprefix("usage: ").rstrip("\n")
        sp.deferred = [a for a in sp._actions if a.required and a.option_strings]
        for action in sp.deferred:
            action.required = False
    p.commands = sub.choices
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    try:
        if getattr(args, "config", None):
            command.set_defaults(**_config_defaults(args.config, command, parser))
            args = parser.parse_args(argv)
        missing = [a for a in command.deferred if getattr(args, a.dest) is None]
        if missing:
            command.error("the following arguments are required: "
                          + ", ".join("/".join(a.option_strings) for a in missing))
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
