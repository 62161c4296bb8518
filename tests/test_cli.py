"""Command-line interface: subcommands, exit codes, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherepde.cli import _config_defaults, build_parser, main
from spherepde import (
    ConvergenceError,
    GreenFunction,
    NoClosedFormError,
    QuadratureError,
    ResonanceError,
    SolvabilityError,
    SolveRequest,
    SphereDomainError,
    ZonalSpectrum,
    cli,
    closedform,
    helmholtz_parameter,
    make_context,
    parameter_from_root,
)
from spherepde.spectra import load_spectrum, save_spectrum


def _write_spec(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _refuse(*args):
    raise AssertionError(f"called with {args}")


@pytest.fixture
def f_poisson(tmp_path):
    p = tmp_path / "f.spec"
    _write_spec(p, ["# zonal n=2 Lmax=2", "0\t0", "1\t0", "2\t1"])
    return p


class TestSolve:
    def test_poisson_solve(self, tmp_path, f_poisson, capsys):
        out = tmp_path / "u.spec"
        code = main(["solve", "--n", "2", "--a", "0",
                     "--in", str(f_poisson), "--out", str(out)])
        assert code == 0
        u = load_spectrum(out)
        assert u.coeffs[2] == pytest.approx(-1.0 / 6.0, rel=1e-11)
        text = out.read_text()
        assert text.startswith("# zonal n=2")
        captured = capsys.readouterr()
        assert "residual" in captured.out

    def test_resonance_guard_exit2(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t0", "1\t1"])
        code = main(["solve", "--n", "2", "--a", "2",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 2
        assert "resonant" in capsys.readouterr().err

    def test_resonant_solve_with_flag(self, tmp_path):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=2", "0\t0", "1\t0", "2\t1"])
        out = tmp_path / "u.spec"
        code = main(["solve", "--n", "2", "--a", "2", "--resonant",
                     "--in", str(f), "--out", str(out)])
        assert code == 0
        u = load_spectrum(out)
        assert u.coeffs[2] == pytest.approx(-0.25)

    def test_ill_conditioned_degree_warned(self, tmp_path, f_poisson, capsys):
        # gap 1e-6 at degree 1: above the resonance window 1e-9 (1 + |a|),
        # within the conditioning one 1e-6 (1 + |a|)
        assert main(["solve", "--n", "2", "--a", "2.000001", "--in", str(f_poisson),
                     "--out", str(tmp_path / "u.spec")]) == 0
        (warning,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("warning:")]
        head, gap = warning.split(" = ")
        assert head == "warning: degree 1 is ill-conditioned, |a - l(n+l-1)|"
        assert float(gap) == pytest.approx(1e-6, rel=1e-9)

    def test_a_beyond_resolvable_roots_solves(self, tmp_path, capsys):
        # a = 1e300 used to sit on a 150-digit resonant degree (exit 2)
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=3", "0\t0", "1\t1", "2\t0.5", "3\t0.25"])
        out = tmp_path / "u.spec"
        assert main(["solve", "--n", "2", "--a", "1e300", "--in", str(f),
                     "--out", str(out)]) == 0
        u = load_spectrum(out).coeffs
        assert np.all(np.isfinite(u)) and u[3] == pytest.approx(2.5e-301, rel=1e-11, abs=0)

    def test_solvability_exit3(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t0", "1\t1"])
        code = main(["solve", "--n", "2", "--a", "2", "--resonant",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 3

    def test_input_on_another_sphere_exit3(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=3 Lmax=1", "0\t0", "1\t1"])
        out = tmp_path / "u.spec"
        assert main(["solve", "--n", "2", "--a", "0.5", "--in", str(f), "--out", str(out)]) == 3
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: input spectrum is for n=3, requested n=2\n"
        assert not out.exists()

    def test_zero_mean_guard_exit3(self, tmp_path):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t1", "1\t0"])
        code = main(["solve", "--n", "2", "--a", "0",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 3

    @pytest.mark.parametrize("argv", [["--a", "2", "--resonant", "--tol", "nan"],
                                      ["--a", "2", "--resonant", "--tol", "-1"],
                                      ["--a", "nan"], ["--L", "inf"]])
    def test_non_finite_parameter_or_tolerance_exit3(self, tmp_path, capsys, argv):
        # refused as the parameter or tolerance they are, before the input is solved
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t0", "1\t1"])
        out = tmp_path / "u.spec"
        assert main(["solve", "--n", "2", *argv, "--in", str(f), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_no_green_backend_option(self, tmp_path, f_poisson):
        # a solve divides spectra and evaluates no Green function
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "2", "--a", "0", "--backend", "closed",
                  "--in", str(f_poisson), "--out", str(tmp_path / "u.spec")])
        assert exc.value.code == 1

    def test_missing_input_exit1(self, tmp_path):
        code = main(["solve", "--n", "2", "--a", "0",
                     "--in", str(tmp_path / "nope.spec"),
                     "--out", str(tmp_path / "u.spec")])
        assert code == 1

    def test_usage_error_exit1(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "2"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("row", ["-1\t5", "7\t5", "1\tabc", "2\t0.5"])
    def test_bad_spectrum_line_exit1(self, tmp_path, capsys, row):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=3", "0\t0", "2\t1", row])
        code = main(["solve", "--n", "2", "--a", "0",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 1
        assert "line 4" in capsys.readouterr().err
        assert not (tmp_path / "u.spec").exists()

    @pytest.mark.parametrize("text", ["# zonal n=2 Lmax=2\n0\t0\n1\tnan\n",
                                      "# general n=2\n0\tk\t0\t0\n1\tk\tinf\t0\n"],
                             ids=["zonal", "general"])
    def test_non_finite_spectrum_value_exit1(self, tmp_path, capsys, text):
        f = tmp_path / "f.spec"
        f.write_text(text)
        code = main(["solve", "--n", "2", "--a", "0",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 1
        assert "line 3: non-finite value" in capsys.readouterr().err

    def test_general_spectrum_solve(self, tmp_path):
        f = tmp_path / "g.spec"
        _write_spec(f, ["# general n=3", "2\tk1\t1\t0", "0\tk0\t2\t0"])
        out = tmp_path / "u.spec"
        assert main(["solve", "--n", "3", "--a", "1",
                     "--in", str(f), "--out", str(out)]) == 0
        u = load_spectrum(out)
        assert u.entries[(2, "k1")] == pytest.approx(-1.0 / 7.0)


class TestGreen:
    def test_eval_all_backends(self, capsys):
        assert main(["green", "--n", "2", "--a", "0", "--t", "0"]) == 0
        out = capsys.readouterr().out
        header = [l for l in out.splitlines() if l.startswith("t,")][0]
        assert header == "t,theta,closed,series,integral"
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[2]) == pytest.approx(0.30685281944, abs=1e-9)
        assert float(row[3]) == pytest.approx(0.30685281944, abs=1e-5)
        assert float(row[4]) == pytest.approx(0.30685281944, abs=1e-6)

    def test_table_grid_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["green", "table", "--n", "2", "--a", "0", "--grid", "99",
                     "--backend", "closed", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        assert len(rows) == 99
        t, _th, closed = map(float, rows[49].split(","))
        assert closed == pytest.approx(1 + np.log((1 - t) / 2), rel=1e-10)

    def test_no_closed_form_fallback_note(self, capsys):
        # no registry row: under --backend all the closed column is dropped with
        # a note, not filled from another backend; asked for by name it refuses
        assert main(["green", "--n", "6", "--a", "100.5", "--t", "0",
                     "--backend", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "t,theta,series,integral" in lines
        assert any(l.startswith("# closed: column dropped: no closed form") for l in lines)
        assert main(["green", "--n", "6", "--a", "100.5", "--t", "0",
                     "--backend", "closed"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "no closed form" in err and "Traceback" not in err

    def test_series_tail_header(self, capsys):
        assert main(["green", "--n", "6", "--a", "100.5", "--t", "0",
                     "--backend", "series"]) == 0
        assert "tail estimate" in capsys.readouterr().out

    def test_integral_table_near_diagonal(self, capsys):
        # |G| ~ 2e4 near t = 1: the error target is relative to |G|
        assert main(["green", "table", "--n", "8", "--a", "0", "--grid", "199",
                     "--backend", "integral"]) == 0
        assert "integral 1e-8 (1+|G|)" in capsys.readouterr().out

    def test_series_above_n17_exits_numeric(self, capsys):
        assert main(["green", "eval", "--n", "60", "--a", "0", "--t", "0.3",
                     "--backend", "series"]) == 4
        err = capsys.readouterr().err
        assert "integral backend" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,columns", [
        (["--n", "20", "--a", "1.5", "--t", "0.3"], "t,theta,integral"),
        (["--n", "2", "--a", "0", "--t", "0.99995"], "t,theta,closed,integral")],
        ids=["n-above-17", "near-diagonal"])
    def test_default_drops_a_refused_series_column(self, capsys, argv, columns):
        # under --backend all the series is the cross-check: the other columns answer
        assert main(["green", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert columns in lines
        assert any(l.startswith("# series: column dropped: the series backend") for l in lines)
        row = [float(v) for v in lines[-1].split(",")]
        assert all(np.isfinite(row))
        if len(row) == 4:
            assert row[2] == pytest.approx(row[3], rel=1e-8)
        # asked for by name, the series still refuses
        assert main(["green", *argv, "--backend", "series"]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_integral_beyond_a_double_exits_numeric(self, capsys):
        # u^{-(n+1)/2} overflows at n = 342, t = 0.999: no -inf data row
        assert main(["green", "--n", "342", "--a", "0", "--t", "0.999",
                     "--backend", "integral"]) == 4
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error:") and "Traceback" not in cap.err

    @pytest.mark.parametrize("argv,code", [
        (["--a", "nan", "--t", "0"], 3), (["--a", "inf", "--t", "0"], 3),
        (["derive", "--L", "1e300"], 3), (["--a", "1e300", "--t", "0"], 4),
        (["--L", "3000.37", "--t", "0"], 4)])
    def test_non_finite_or_too_deep_parameter(self, capsys, argv, code):
        # exit 3 for an a that is not a finite double, 4 for an integral
        # subtraction depth beyond the doubles; never a traceback
        assert main(["green", "--n", "2", *argv]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    def test_integral_tail_series_refusal_exit4(self, capsys):
        assert main(["green", "--n", "120", "--a", "100000", "--t", "-0.999999",
                     "--backend", "integral"]) == 4
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == (
            "error: integral backend: the tail series on [0, 0.5] does not converge "
            "in 64 degrees\n")

    def test_closed_rejects_t_outside_domain(self, capsys):
        for t in ("1", "1.5"):
            assert main(["green", "--n", "2", "--a", "0", "--t", t, "--backend", "closed"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("backend", ["all", "closed", "series", "integral"])
    def test_nan_t_exit3(self, backend, capsys):
        # was nan,nan,nan with exit 0 (closed, series) and exit 4 (integral)
        assert main(["green", "--n", "2", "--a", "0", "--t", "nan", "--backend", backend]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "|t| = nan" in err and "Traceback" not in err

    def test_antipode_on_an_odd_n_closed_row_exits_3(self, capsys):
        # the n = 5 Poisson row has a (1+t) denominator, 0/0 at t = -1
        assert main(["green", "--n", "5", "--a", "0", "--t", "-1",
                     "--backend", "closed"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "t = -1" in err and "Traceback" not in err
        # under --backend all the closed column is dropped and the others answer
        assert main(["green", "--n", "5", "--a", "0", "--t", "-1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "t,theta,series,integral" in lines
        assert any(l.startswith("# closed: column dropped:") and "t = -1" in l for l in lines)
        assert float(lines[-1].split(",")[3]) == pytest.approx(25 / 48, rel=1e-7)
        assert main(["green", "--n", "5", "--a", "0", "--t", "-1", "--backend", "series"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[2]) == pytest.approx(25 / 48, rel=1e-7)

    def test_complex_roots_tabulate_through_the_integral(self, capsys):
        # a = -400 < -(n-1)^2/4 on S^8: no real root, no registry row
        assert main(["green", "--n", "8", "--a", "-400", "--grid", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "t,theta,series,integral" in lines and "# L: none" in lines
        integral = [float(l.split(",")[3]) for l in lines if l[0] in "-0123456789"]
        assert len(integral) == 5 and all(np.isfinite(integral))

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exit1(self, tmp_path, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            main(["green", "--n", "2", "--a", "0", "--grid", grid])
        assert exc.value.code == 1
        assert "--grid: must be >= 1" in capsys.readouterr().err
        conf = tmp_path / "job.cfg"
        conf.write_text(f"grid = {grid}\n")
        with pytest.raises(SystemExit) as exc:
            main(["green", "--n", "2", "--a", "0", "--config", str(conf)])
        assert exc.value.code == 1
        assert "line 1: grid" in capsys.readouterr().err

    def test_derive(self, capsys):
        assert main(["green", "derive", "--n", "2", "--L", "0"]) == 0
        out = capsys.readouterr().out
        assert "log((1-t)/2)" in out and "latex" in out

    def test_derive_without_a_resolvable_root_exits_3_at_once(self, monkeypatch, capsys):
        # a = 1e300 used to start a derivation at a 150-digit degree
        monkeypatch.setattr(cli, "derive_green_closed_form", _refuse)
        assert main(["green", "derive", "--n", "2", "--a", "1e300"]) == 3
        assert "no integer or half-integer root" in capsys.readouterr().err

    def test_derive_past_the_bound_exits_3(self, monkeypatch, capsys):
        # (2, 200) used to run past a 15 s timeout
        monkeypatch.setattr(closedform, "_kernel_power_terms", _refuse)
        assert main(["green", "derive", "--n", "2", "--L", "200"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "n + L <= 40" in err

    def test_all_computes_the_integral_first(self, monkeypatch, capsys):
        # an integral refusal costs no series column
        monkeypatch.setattr(cli, "green_series_batch", _refuse)
        assert main(["green", "--n", "8", "--L", "1100.5", "--grid", "19"]) == 4
        assert capsys.readouterr().out == ""

    def test_all_keeps_its_column_order(self, capsys):
        assert main(["green", "--n", "2", "--a", "0", "--grid", "19"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# backends: closed+series+integral" in lines
        assert "t,theta,closed,series,integral" in lines
        assert lines.index("# backends: closed+series+integral") < [
            i for i, l in enumerate(lines) if l.startswith("# series tail estimate")][0]
        table = [l.split(",") for l in lines if not l.startswith(("#", "t,"))]
        for i, backend in enumerate(("closed", "series", "integral"), 2):
            assert main(["green", "--n", "2", "--a", "0", "--grid", "19",
                         "--backend", backend]) == 0
            single = [l.split(",") for l in capsys.readouterr().out.splitlines()
                      if not l.startswith(("#", "t,"))]
            assert [row[2] for row in single] == [row[i] for row in table], backend

    def test_derive_needs_an_integer_real_root(self, capsys):
        # L = 1/2 on S^4 is neither derivable nor tabulated; a = -10 has no real root
        assert main(["green", "derive", "--n", "4", "--L", "0.5"]) == 3
        assert main(["green", "derive", "--n", "4", "--a", "-10"]) == 3
        assert capsys.readouterr().out == ""
        # on S^3 the half-integer root falls back to its registry row
        assert main(["green", "derive", "--n", "3", "--L", "0.5"]) == 0
        assert "tabulated form" in capsys.readouterr().out

    def test_negative_t0_value(self, capsys):
        # n=7, a=-9 at t=0: -(pi/2)/48 = -pi/96
        assert main(["green", "--n", "7", "--a", "-9", "--t", "0",
                     "--backend", "closed"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[2]) == pytest.approx(-np.pi / 96.0, rel=1e-10)

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["green", "--n", "4", "--a", "4", "--grid", "11", "--out", str(a)])
        main(["green", "--n", "4", "--a", "4", "--grid", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_fast_passes_its_eight_checks(self, capsys):
        assert main(["verify", "--fast"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(l.startswith("PASS  ") for l in lines) == 8
        assert lines[-1] == "all checks passed"


class TestWavelet:
    def test_roundtrip(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=2", "0\t0", "1\t0", "2\t1"])
        out = tmp_path / "w.csv"
        code = main(["wavelet", "roundtrip", "--n", "2", "--d", "1",
                     "--in", str(f), "--out", str(out)])
        assert code == 0
        msg = capsys.readouterr().out
        err = float(msg.split("roundtrip relative error:")[1].strip())
        assert err <= 1e-3
        header = out.read_text().splitlines()
        assert any(l == "rho,l,re,im" for l in header)

    def test_roundtrip_nonzero_mean_exit3(self, tmp_path):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t1", "1\t1"])
        code = main(["wavelet", "roundtrip", "--n", "2", "--in", str(f),
                     "--out", str(tmp_path / "w.csv")])
        assert code == 3

    def test_zero_signal(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t0", "1\t0"])
        code = main(["wavelet", "roundtrip", "--n", "2", "--in", str(f),
                     "--out", str(tmp_path / "w.csv")])
        assert code == 0
        assert float(capsys.readouterr().out
                     .split("roundtrip relative error:")[1].strip()) == 0.0

    def test_forward_dump(self, tmp_path):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=2", "0\t0", "1\t2", "2\t1"])
        out = tmp_path / "w.csv"
        code = main(["wavelet", "forward", "--n", "2", "--d", "1",
                     "--in", str(f), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        count = int([l for l in lines if l.startswith("# grid:")][0].rsplit(" x ", 1)[1])
        data = [l for l in lines if l and not l.startswith("#") and l != "rho,l,re,im"]
        assert len(data) == count * 3        # scales x degrees 0..2
        # first node, degree 1: (lam/(lam+1)) f1 conj(hat(rho,1))
        rho, l, re, im = data[1].split(",")
        rho = float(rho)
        assert int(l) == 1
        expected = (0.5 / 1.5) * 2.0 * (2.0 * rho * np.exp(-rho) * 3.0)
        assert float(re) == pytest.approx(expected, rel=1e-10)
        assert float(im) == 0.0

    def test_roundtrip_at_a_high_degree(self, tmp_path, capsys):
        # the scale grid follows Lmax: 1.2e-2 on the old fixed [1e-4, 50] x 400
        coeffs = np.random.default_rng(3).standard_normal(2049)
        coeffs[0] = 0.0
        f = tmp_path / "f.spec"
        save_spectrum(ZonalSpectrum(make_context(2), coeffs), f)
        code = main(["wavelet", "roundtrip", "--n", "2", "--d", "1",
                     "--in", str(f), "--out", str(tmp_path / "w.csv")])
        assert code == 0
        err = float(capsys.readouterr().out.split("roundtrip relative error:")[1].strip())
        assert err <= 1e-11

    @pytest.mark.parametrize("mode", ["forward", "roundtrip"])
    def test_missing_input_flag_exit1(self, capsys, mode):
        assert main(["wavelet", mode, "--n", "2"]) == 1
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == f"error: wavelet {mode} needs --in\n"

    @pytest.mark.parametrize("argv", [["--n", "2", "--d", "1", "--lmax", "64"],
                                      ["--n", "3", "--d", "30", "--lmax", "4"]])
    def test_admissibility_grid_follows_order_and_lmax(self, capsys, argv):
        assert main(["wavelet", "admissibility", *argv]) == 0
        out = capsys.readouterr().out
        assert "# tail tolerance: 1e-12" in out
        assert float(out.rsplit("max relative deviation:", 1)[1].strip()) <= 1e-11

    @pytest.mark.parametrize("flag", ["--rho-min", "--rho-max", "--scales"])
    def test_no_scale_grid_options(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["wavelet", "admissibility", "--n", "2", flag, "3"])
        assert exc.value.code == 1

    def test_admissibility_report(self, tmp_path, capsys):
        code = main(["wavelet", "admissibility", "--n", "2", "--d", "2",
                     "--lmax", "8"])
        assert code == 0
        out = capsys.readouterr().out
        dev = float(out.rsplit("max relative deviation:", 1)[1].strip())
        assert dev < 1e-6

    def test_forward_of_a_general_spectrum_exit3(self, tmp_path, capsys):
        f = tmp_path / "g.spec"
        _write_spec(f, ["# general n=2", "1\tk\t1\t0"])
        assert main(["wavelet", "forward", "--n", "2", "--in", str(f)]) == 3
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: wavelet transforms need a zonal input spectrum\n"

    def test_negative_lmax_exit3(self, capsys):
        assert main(["wavelet", "admissibility", "--n", "2", "--lmax", "-1"]) == 3
        cap = capsys.readouterr()
        assert cap.out == "" and "l_max must be >= 0" in cap.err and "Traceback" not in cap.err

    def test_order_beyond_a_finite_norm_exit3(self, capsys):
        # Gamma(2d) overflows a double from d = 86 on
        assert main(["wavelet", "admissibility", "--n", "3", "--d", "86", "--lmax", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "<= 85" in err and "Traceback" not in err

    def test_largest_order_reaches_the_scale_grid_check(self, capsys):
        # and passes it: the grid is built for the order
        assert main(["wavelet", "admissibility", "--n", "3", "--d", "85", "--lmax", "4"]) == 0
        cap = capsys.readouterr()
        assert cap.err == ""
        assert float(cap.out.rsplit("max relative deviation:", 1)[1].strip()) <= 1e-11


class TestRootFlag:
    def test_L_instead_of_a(self, capsys):
        # --L 1 on S^3 means a = 3; the tabulated resonant row applies
        assert main(["green", "--n", "3", "--L", "1", "--t", "0",
                     "--backend", "closed"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[2]) == pytest.approx(np.pi / 4.0)

    @pytest.mark.parametrize("argv,config", [(["--a", "0", "--L", "1"], ""), ([], ""),
                                             (["--L", "1"], "a = 0\n")],
                             ids=["both", "neither", "both-after-config"])
    def test_exactly_one_of_a_and_L_exit1(self, tmp_path, capsys, argv, config):
        conf = tmp_path / "job.cfg"
        conf.write_text(config)
        assert main(["green", "--n", "2", "--t", "0.2", "--config", str(conf), *argv]) == 1
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: give exactly one of --a or --L\n"


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "job.cfg"
        conf.write_text("n = 2\na = 0\ngrid = 5\nbackend = closed\n")
        code = main(["green", "table", "--n", "2", "--a", "0",
                     "--config", str(conf), "--grid", "7"])
        assert code == 0
        rows = [l for l in capsys.readouterr().out.splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        assert len(rows) == 7          # flag wins over the file's 5

    def test_flag_equal_to_its_default_wins(self, tmp_path, capsys):
        # --grid 19 and --backend all are the defaults, and still given
        conf = tmp_path / "job.cfg"
        conf.write_text("grid = 3\nbackend = integral\n")
        assert main(["green", "table", "--n", "3", "--a", "0", "--grid", "19",
                     "--backend", "all", "--config", str(conf)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "t,theta,closed,series,integral" in lines
        assert len([l for l in lines if l and not l.startswith(("#", "t,"))]) == 19
        # without the flags the file applies
        assert main(["green", "table", "--n", "3", "--a", "0", "--config", str(conf)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "t,theta,integral" in lines
        assert len([l for l in lines if l and not l.startswith(("#", "t,"))]) == 3

    @pytest.mark.parametrize("text,lineno", [("n = 2\na 0\n", 2),
                                             ("n = 2\n# comment\ngrid = abc\n", 3)],
                             ids=["no-equals", "not-an-int"])
    def test_malformed_config_line_exit1(self, tmp_path, capsys, text, lineno):
        conf = tmp_path / "job.cfg"
        conf.write_text(text)
        # the whole file is checked, also a line that a flag overrides
        for flags in ([], ["--grid", "7"]):
            with pytest.raises(SystemExit) as exc:
                main(["green", "table", "--n", "2", "--a", "0", "--config", str(conf), *flags])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert f"line {lineno}" in err and "Traceback" not in err

    def test_config_value_outside_the_choices_exit1(self, tmp_path, capsys):
        conf = tmp_path / "job.cfg"
        conf.write_text("n = 2\nbackend = bogus\n")
        with pytest.raises(SystemExit) as exc:
            main(["green", "table", "--n", "2", "--a", "0", "--config", str(conf)])
        assert exc.value.code == 1
        assert "line 2" in capsys.readouterr().err

    def test_config_applies_to_the_chosen_command(self, tmp_path, capsys):
        # resonant is a solve flag, green has none; the file still applies
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=2", "0\t0", "1\t0", "2\t1"])
        argv = ["solve", "--n", "2", "--a", "2", "--in", str(f),
                "--out", str(tmp_path / "u.spec")]
        assert main(argv) == 2
        conf = tmp_path / "job.cfg"
        conf.write_text("resonant = true\n")
        assert main([*argv, "--config", str(conf)]) == 0
        assert load_spectrum(tmp_path / "u.spec").coeffs[2] == pytest.approx(-0.25)


class TestConfigRequiredOptions:
    """--n, and solve's --in and --out, may come from the config file alone."""

    def test_config_only_solve_writes_the_flag_form_file(self, tmp_path, f_poisson, capsys):
        flags, conf_out = tmp_path / "flags.spec", tmp_path / "conf.spec"
        assert main(["solve", "--n", "2", "--a", "0.5", "--in", str(f_poisson),
                     "--out", str(flags)]) == 0
        conf = tmp_path / "job.cfg"
        conf.write_text(f"n = 2\na = 0.5\nin = {f_poisson}\nout = {conf_out}\n")
        assert main(["solve", "--config", str(conf)]) == 0
        assert conf_out.read_text() == flags.read_text()
        cap = capsys.readouterr()
        assert cap.err == "" and cap.out.count("spectral residual:") == 2

    def test_green_takes_n_from_the_file(self, tmp_path, capsys):
        conf = tmp_path / "job.cfg"
        conf.write_text("n = 3\na = 0\n")
        assert main(["green", "--config", str(conf), "--t", "0.3"]) == 0
        from_file = capsys.readouterr().out
        assert main(["green", "--n", "3", "--a", "0", "--t", "0.3"]) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("text,missing", [("a = 0.5\n", "--n, --in, --out"),
                                              ("n = 2\nin = f.spec\n", "--out")])
    def test_missing_from_flags_and_file_exit1(self, tmp_path, capsys, text, missing):
        conf = tmp_path / "job.cfg"
        conf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(conf)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        # the usage line still shows them as required
        assert err.startswith("usage: spherepde solve [-h] --n N ")
        assert err.endswith(f"spherepde solve: error: the following arguments are required: "
                            f"{missing}\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--a", "0.5"])
        assert exc.value.code == 1

    def test_flags_override_the_file(self, tmp_path, f_poisson, capsys):
        # the file names another sphere, a missing input and another output
        out = tmp_path / "u.spec"
        conf = tmp_path / "job.cfg"
        conf.write_text(f"n = 5\na = 0.5\nin = {tmp_path / 'absent.spec'}\n"
                        f"out = {tmp_path / 'other.spec'}\n")
        assert main(["solve", "--config", str(conf), "--n", "2", "--in", str(f_poisson),
                     "--out", str(out)]) == 0
        assert load_spectrum(out).ctx.n == 2 and not (tmp_path / "other.spec").exists()


class TestUnreadableFiles:
    """A file that cannot be read as UTF-8 text is a usage error, not a traceback."""

    def _solve(self, tmp_path, spec, *extra):
        return main(["solve", "--n", "2", "--a", "0", "--in", str(spec),
                     "--out", str(tmp_path / "u.spec"), *extra])

    def test_non_utf8_spectrum_exit1(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        f.write_bytes(b"# zonal n=2 Lmax=1\n0\t0\n1\t\xff\n")
        assert self._solve(tmp_path, f) == 1
        assert "error: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_non_utf8_config_exit1(self, tmp_path, f_poisson, capsys):
        conf = tmp_path / "job.cfg"
        conf.write_bytes(b"backend = \xe9\n")
        assert self._solve(tmp_path, f_poisson, "--config", str(conf)) == 1
        assert "error: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_directory_as_spectrum_exit1(self, tmp_path, capsys):
        assert self._solve(tmp_path, tmp_path) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_as_config_exit1(self, tmp_path, f_poisson, capsys):
        assert self._solve(tmp_path, f_poisson, "--config", str(tmp_path)) == 1
        assert "error:" in capsys.readouterr().err


_BIG = "100000000000000000000"      # 1e20: past any array size, and past intp


class TestSizes:
    """A size no array could hold is a usage error where it is parsed; one
    that memory cannot hold exits 1 too.  Nothing here allocates."""

    @pytest.mark.parametrize("argv", [
        ["green", "--n", "2", "--a", "0.5", "--grid", _BIG, "--backend", "closed"],
        ["green", "--n", "2", "--a", "0.5", "--grid", "2000000000000000000"],
        ["wavelet", "admissibility", "--n", "2", "--lmax", _BIG],
        ["wavelet", "admissibility", "--n", "2", "--lmax", "2000000000000000000"]])
    def test_size_past_any_array_exit1(self, capsys, argv):
        # 2e18 is below intp's maximum but above the count of doubles an
        # array can hold, where NumPy raises ValueError ("array is too big")
        # rather than MemoryError
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        cap = capsys.readouterr()
        assert cap.out == "" and "must be below 576460752303423487" in cap.err

    @pytest.mark.parametrize("lines,what", [
        ([f"# zonal n=2 Lmax={_BIG}", "0\t1"], "line 1: malformed header"),
        (["# zonal n=2", "0\t1", f"{_BIG}\t1"], f"line 3: degree {_BIG} not below"),
        (["# general n=2", f"{_BIG}\tk\t1\t0"], f"line 2: degree {_BIG} not below")],
        ids=["zonal header", "zonal degree", "general degree"])
    def test_spectrum_size_past_any_array_exit1(self, tmp_path, capsys, lines, what):
        f = tmp_path / "f.spec"
        _write_spec(f, lines)
        out = tmp_path / "u.spec"
        assert main(["solve", "--n", "2", "--a", "0.5", "--in", str(f), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert what in err and "Traceback" not in err
        assert not out.exists()

    def test_size_memory_cannot_hold_exit1(self, monkeypatch, capsys):
        # a stage stands in for an allocation that fails: a real one could be
        # granted by an overcommitting host, and the process killed later
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setattr(cli, "check_admissibility", no_memory)
        assert main(["wavelet", "admissibility", "--n", "2", "--lmax", "1000000000000000"]) == 1
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: Unable to allocate 7.11 PiB for an array\n"


# every float flag of green, green derive and solve; a negative value goes
# as --flag=value, since argparse reads a bare -inf as an option
_FLOATS = ["nan", "inf", "-inf", "0", "-0", "-1", "1e300", "-1e300", "5e-324"]
_FLOAT_FLAGS = {
    "green --a": ["green", "--n", "2", "--t", "0.3", "--a={}"],
    "green --L": ["green", "--n", "2", "--t", "0.3", "--L={}"],
    "green --t": ["green", "--n", "2", "--a", "0.5", "--t={}"],
    "derive --a": ["green", "derive", "--n", "2", "--a={}"],
    "derive --L": ["green", "derive", "--n", "2", "--L={}"],
    "solve --a": ["solve", "--n", "2", "--a={}"],
    "solve --L": ["solve", "--n", "2", "--L={}"],
    "solve --tol": ["solve", "--n", "2", "--a", "0.5", "--tol={}"],
    "resonant solve --tol": ["solve", "--n", "2", "--a", "2", "--resonant", "--tol={}"],
}
_LIBRARY_ERRORS = (ConvergenceError, NoClosedFormError, QuadratureError, ResonanceError,
                   SolvabilityError, SphereDomainError)


def _non_finite_numbers(text):
    """Tokens of text that read as floats and are not finite."""
    out = []
    for token in re.split(r"[\s,=:]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            out.append(token)
    return out


class TestFloatInputs:
    @pytest.mark.parametrize("value", _FLOATS)
    @pytest.mark.parametrize("flag", _FLOAT_FLAGS)
    def test_every_float_flag_keeps_the_exit_code_contract(self, tmp_path, f_poisson, capsys,
                                                           flag, value):
        argv = [arg.format(value) for arg in _FLOAT_FLAGS[flag]]
        out = tmp_path / "u.spec"
        if argv[0] == "solve":
            argv += ["--in", str(f_poisson), "--out", str(out)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        cap = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4) and "Traceback" not in cap.err
        if code == 0:
            written = cap.out + (out.read_text() if out.exists() else "")
            assert not _non_finite_numbers(written), written

    @pytest.mark.parametrize("value", [float(v) for v in _FLOATS])
    def test_every_float_library_input_refuses_or_is_finite(self, f_poisson, value):
        ctx = make_context(2)
        for build in (helmholtz_parameter, parameter_from_root):
            try:
                p = build(ctx, value)
            except _LIBRARY_ERRORS:
                continue
            assert math.isfinite(p.a) and (p.L is None or math.isfinite(p.L)), (build, p)
        p = helmholtz_parameter(ctx, 0.0)
        for backend in ("auto", "closed", "series", "integral"):
            try:
                g = GreenFunction(p, backend)(value)
            except _LIBRARY_ERRORS:
                continue
            assert math.isfinite(g), (backend, g)
        try:
            SolveRequest(p, load_spectrum(f_poisson), resonant_tol=value)
            accepted = True
        except _LIBRARY_ERRORS:
            accepted = False
        assert accepted == (0.0 <= value < math.inf)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, None, 1 + 0j],
                             ids=["nan", "inf", "-inf", "None", "complex"])
    def test_derivation_refuses_a_non_finite_or_non_real_L(self, L):
        with pytest.raises(NoClosedFormError, match="finite integer L"):
            closedform.derive_green_closed_form(2, L)

    @pytest.mark.parametrize("n,L", [(2.0, 1), (4.0, -1.0), (np.float64(6.0), 2)])
    def test_derivation_takes_an_integer_valued_float_n(self, n, L):
        form = closedform.derive_green_closed_form(n, L)
        assert form == closedform.derive_green_closed_form(int(n), int(L))
        assert (type(form.n), form.n, form.L) == (int, int(n), int(L))


# keys: the options of every subcommand, plus arbitrary text
_KEYS = st.one_of(st.sampled_from(["n", "a", "L", "t", "grid", "backend", "mode", "tol",
                                   "resonant", "in", "out", "config", "d", "lmax", "scales",
                                   "rho-min", "rho_max", "fast", "func", "help"]),
                  st.text(max_size=6))
_VALUES = st.one_of(st.sampled_from(["2", "-1", "0.5", "nan", "1e999", "closed", "table",
                                     "true", "no", ""]),
                    st.text(max_size=8))
_CONFIG_LINES = st.one_of(st.builds("{} = {}".format, _KEYS, _VALUES), st.text(max_size=10))
_COMMANDS = [["green", "--n", "2", "--a", "0"], ["green", "table", "--n", "3", "--t", "0.5"],
             ["solve", "--n", "2", "--in", "f", "--out", "u"], ["wavelet", "forward", "--n", "2"]]


class TestConfigFuzz:
    @given(st.sampled_from(_COMMANDS),
           st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
    @settings(max_examples=300, deadline=None)
    def test_merge_returns_or_exits_1(self, tmp_path_factory, argv, text):
        # only the merge runs: a fuzzed grid could ask for a table of any size
        conf = tmp_path_factory.mktemp("config") / "job.cfg"
        conf.write_text(text, encoding="utf-8")
        parser = build_parser()
        argv = [*argv, "--config", str(conf)]
        command = parser.commands[parser.parse_args(argv).command]
        try:
            command.set_defaults(**_config_defaults(str(conf), command, parser))
            parser.parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 1
