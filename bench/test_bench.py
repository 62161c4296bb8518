"""The benchmark's own tests, on tiny inputs.

Run from the root of the checkout:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from green_workloads import GreenPointwise, GreenTable  # noqa: E402
from harness import Tally, Tracer  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spectral_workload import SpectralPipeline  # noqa: E402

WORKLOADS = ("green_table", "green_pointwise", "spectral_pipeline")

EXPECTED_END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
EXPECTED_PER_LAYER = {
    "green.series.batch_s": "s", "green.series.batch_points": "count",
    "green.series.n2_s": "s", "green.series.tail_honest_ratio": "1",
    "green.series.scalar_s": "s", "green.series.scalar_points": "count",
    "green.integral_s": "s", "green.integral_points": "count",
    "green.integral_failed": "count", "green.integral_near_diag_failed": "count",
    "green.closed_s": "s", "green.closed_points": "count",
    "green_tables.eval_s": "s", "green_tables.eval_points": "count",
    "closedform.derive_s": "s", "closedform.derive_calls": "count",
    "closedform.eval_s": "s", "closedform.eval_points": "count",
    "solver.solve_s": "s", "solver.solves": "count", "solver.coeffs": "count",
    "solver.max_residual": "1",
    "spectra.parse_s": "s", "spectra.format_s": "s", "spectra.io_bytes": "B",
    "spectra.rule_s": "s", "spectra.rule_nodes": "count",
    "spectra.synthesize_s": "s", "spectra.analyze_s": "s", "spectra.analysis_cells": "count",
    "wavelets.forward_s": "s", "wavelets.inverse_s": "s", "wavelets.cells": "count",
    "bench.fail_ratio": "1", "bench.trace_overhead_s": "s",
}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert dict(END_TO_END) == EXPECTED_END_TO_END
    assert dict(PER_LAYER) == EXPECTED_PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == EXPECTED_END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == EXPECTED_PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = run_bench(ROOT, "all", trace)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    expected = EXPECTED_PER_LAYER if trace else EXPECTED_END_TO_END
    for workload, result in zip(WORKLOADS, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert any(line.startswith(f"{workload} fail_ratio ") and " 1 (" in line for line in lines)
        for name, unit in expected.items():
            assert any(line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                       for line in lines)
    assert lines[-1].startswith("{")


def test_known_integral_failures_are_counted():
    wl = GreenTable(0, "tiny")          # includes n = 5 at t = 0.999
    tally = Tally()
    for row in wl.jobs:
        wl.check(row, wl.run(row, Tracer(False)), tally)
    assert tally.raised >= 1 and tally.errors["ConvergenceError"] == tally.raised
    assert tally.wrong == 0 and tally.correct


def test_corrupted_reference_counts_as_failed_not_raised():
    wl = GreenTable(0, "tiny")
    row = wl.jobs[0]
    out = wl.run(row, Tracer(False))
    out["ref"][0] += 1.0                # both the series and the integral value now miss
    tally = Tally()
    wl.check(row, out, tally)
    assert tally.wrong == 2 and tally.failed == tally.raised + 2
    assert not tally.correct

    wl = GreenPointwise(0, "tiny")
    tally = Tally()
    outs = [(job, wl.run(job, Tracer(False))) for job in wl.jobs]
    for job, out in outs:
        wl.check(job, out, tally)
    assert tally.failed == 0
    key = next(iter(wl._refs))
    wl._refs[key] += 1.0
    tally = Tally()
    for job, out in outs:
        wl.check(job, out, tally)
    assert tally.wrong == 1 and tally.failed == 1

    wl = SpectralPipeline(0, "tiny")
    job = next(j for j in wl.jobs if j["kind"] == "zonal")
    out = wl.run(job, Tracer(False))
    job["f"].coeffs[-1] += 1.0          # the right-hand side is the reference of the solve
    tally = Tally()
    wl.check(job, out, tally)
    assert tally.wrong == 2 and tally.attempted == 5


def test_library_errors_count_as_failed_other_errors_make_the_run_incorrect():
    from spherepde import ConvergenceError
    tally = Tally()
    tally.error(ConvergenceError("no"), 3)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 3, True)
    tally.error(ZeroDivisionError())
    assert (tally.attempted, tally.failed, tally.correct) == (4, 4, False)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "green_table", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
