"""Command-line interface: subcommands, exit codes, determinism."""

import numpy as np
import pytest

from spherepde.cli import main
from spherepde.spectra import load_spectrum


def _write_spec(path, lines):
    path.write_text("\n".join(lines) + "\n")


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
        assert "# green backend: closed_form(table1)" in text
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

    def test_solvability_exit3(self, tmp_path, capsys):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t0", "1\t1"])
        code = main(["solve", "--n", "2", "--a", "2", "--resonant",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 3

    def test_zero_mean_guard_exit3(self, tmp_path):
        f = tmp_path / "f.spec"
        _write_spec(f, ["# zonal n=2 Lmax=1", "0\t1", "1\t0"])
        code = main(["solve", "--n", "2", "--a", "0",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 3

    def test_table4_backend_report(self, tmp_path, f_poisson, capsys):
        f = tmp_path / "f3.spec"
        _write_spec(f, ["# zonal n=3 Lmax=1", "0\t0", "1\t1"])
        code = main(["solve", "--n", "3", "--a", "-0.75",
                     "--in", str(f), "--out", str(tmp_path / "u.spec")])
        assert code == 0
        assert "closed_form(table4)" in capsys.readouterr().out

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
        assert main(["green", "--n", "6", "--a", "100.5", "--t", "0",
                     "--backend", "all"]) == 0
        out = capsys.readouterr().out
        assert "fallback" in out

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

    def test_closed_rejects_t_outside_domain(self, capsys):
        for t in ("1", "1.5"):
            assert main(["green", "--n", "2", "--a", "0", "--t", t, "--backend", "closed"]) == 3
        assert capsys.readouterr().out == ""

    def test_derive(self, capsys):
        assert main(["green", "derive", "--n", "2", "--L", "0"]) == 0
        out = capsys.readouterr().out
        assert "log((1-t)/2)" in out and "latex" in out

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
                     "--in", str(f), "--out", str(out),
                     "--rho-min", "0.5", "--rho-max", "2.0", "--scales", "3"])
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#") and l != "rho,l,re,im"]
        assert len(data) == 3 * 3            # 3 scales x degrees 0..2
        # first node rho = 0.5, degree 1: (lam/(lam+1)) f1 conj(hat(0.5,1))
        rho, l, re, im = data[1].split(",")
        assert float(rho) == pytest.approx(0.5)
        assert int(l) == 1
        expected = (0.5 / 1.5) * 2.0 * (2.0 * 0.5 * np.exp(-0.5) * 3.0)
        assert float(re) == pytest.approx(expected, rel=1e-10)
        assert float(im) == 0.0

    def test_admissibility_report(self, tmp_path, capsys):
        code = main(["wavelet", "admissibility", "--n", "2", "--d", "2",
                     "--lmax", "8"])
        assert code == 0
        out = capsys.readouterr().out
        dev = float(out.rsplit("max relative deviation:", 1)[1].strip())
        assert dev < 1e-6


class TestRootFlag:
    def test_L_instead_of_a(self, capsys):
        # --L 1 on S^3 means a = 3; the tabulated resonant row applies
        assert main(["green", "--n", "3", "--L", "1", "--t", "0",
                     "--backend", "closed"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[2]) == pytest.approx(np.pi / 4.0)


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

    @pytest.mark.parametrize("text,lineno", [("n = 2\na 0\n", 2),
                                             ("n = 2\n# comment\ngrid = abc\n", 3)],
                             ids=["no-equals", "not-an-int"])
    def test_malformed_config_line_exit1(self, tmp_path, capsys, text, lineno):
        conf = tmp_path / "job.cfg"
        conf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["green", "table", "--n", "2", "--a", "0", "--config", str(conf)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"line {lineno}" in err and "Traceback" not in err

    def test_config_applies_to_the_chosen_command(self, tmp_path, f_poisson, capsys):
        # solve's --backend default differs from green's; the file still applies
        conf = tmp_path / "job.cfg"
        conf.write_text("backend = series\n")
        assert main(["solve", "--n", "2", "--a", "0", "--in", str(f_poisson),
                     "--out", str(tmp_path / "u.spec"), "--config", str(conf)]) == 0
        assert "green backend: series" in capsys.readouterr().out
