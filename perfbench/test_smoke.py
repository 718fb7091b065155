"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload's pass at 16^2 cells, 4 samples and a 32^2 mesh, with
and without tracing; checks that deliberately wrong results are counted
as failed operations, that the span self-time arithmetic adds up and
that timed passes are scaled by the reference kernel.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import maphom.cli  # noqa: E402
import maphom.homogenize  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maphom.numerics import SolverError  # noqa: E402


def passes_of(name, seed, tmp_path, trace=False):
    workload = workloads.make(name, seed, workloads.SMOKE, tmp_path)
    return run.run_passes(workload, 0.0, trace, tracing.Tracer())


def failed_ops(passes):
    return [op for p in passes for op in p["ops"] if not op.ok]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_passes_its_checks(name, seed, tmp_path):
    passes = passes_of(name, seed, tmp_path, trace=True)
    assert [p["traced"] for p in passes] == [False, True]
    assert failed_ops(passes) == []
    layers = passes[1]["layers"]
    assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER_UNITS)
    assert layers["numerics.cg_calls"] > 0 and layers["numerics.cg_failed"] == 0
    assert layers["other_s"] >= -1e-9
    assert list(tmp_path.iterdir()) == []


def test_traced_counts_match_the_work(tmp_path):
    layers = passes_of("tensor_sweep", 0, tmp_path, trace=True)[1]["layers"]
    assert layers["cell.corrector_pairs"] == workloads.SMOKE.sweep_samples
    assert layers["numerics.cg_calls"] == 2 * layers["cell.corrector_pairs"]
    assert layers["homogenize.matrix_calls"] == layers["cell.corrector_pairs"]
    assert layers["finescale.solves"] == 0
    assert layers["cli.bytes_written"] > 0

    layers = passes_of("fine_scale", 0, tmp_path, trace=True)[1]["layers"]
    assert layers["finescale.solves"] == len(workloads.SMOKE.fine_h) + 1
    assert layers["finescale.top_iterations"] > 0
    assert 0 < layers["finescale.useful_iteration_share"] <= 1
    assert layers["finescale.energy_gap_max"] < 1e-6


def test_seeds_make_the_inputs():
    assert workloads.cell_point_indices(0) == [0, 10, 20, 30, 40]
    assert workloads.cell_point_indices(5) == workloads.cell_point_indices(5)
    assert workloads.cell_point_indices(5) != workloads.cell_point_indices(0)
    a = workloads.make("tensor_sweep", 3, workloads.FULL, Path("unused"))
    b = workloads.make("tensor_sweep", 3, workloads.FULL, Path("unused"))
    default = np.linspace(0.05, 2.0, 66)[1:-1]
    assert np.array_equal(a.x2, b.x2)
    assert 0 < np.max(np.abs(a.x2 - default)) <= 0.25 * 1.95 / 65
    assert "x2_samples" not in " ".join(
        workloads.make("tensor_sweep", 0, workloads.FULL, Path("unused")).args)


def test_reference_covers_every_drawable_point():
    with open(workloads.REFERENCE_PATH) as f:
        table = json.load(f)["resolutions"]
    pool = {repr(float(workloads.CELL_GRID[i])) for i in workloads.cell_point_pool()}
    for cells in (workloads.FULL.point_cells, workloads.SMOKE.point_cells):
        assert set(table[str(cells)]) == pool
    for seed in range(50):
        assert set(workloads.cell_point_indices(seed)) <= set(workloads.cell_point_pool())


def test_wrong_results_are_counted_as_failed(tmp_path, monkeypatch):
    real_matrix = maphom.homogenize.homogenized_matrix_at

    def skewed(*args, **kwargs):
        return real_matrix(*args, **kwargs) + np.array([[0.0, 1e-3], [0.0, 0.0]])

    monkeypatch.setattr(maphom.homogenize, "homogenized_matrix_at", skewed)
    points = len(workloads.cell_point_indices(0))
    assert len(failed_ops(passes_of("cell_point", 0, tmp_path))) == 2 * points
    # the same wrong matrices reach tensor.csv through the CLI
    assert len(failed_ops(passes_of("tensor_sweep", 0, tmp_path))) == 2


def test_exit_codes_and_solver_errors_are_counted(tmp_path, monkeypatch):
    workload = workloads.make("fine_scale", 0, workloads.SMOKE, tmp_path)
    workload.args = ["--override", "fem_tol=2", *workload.args]
    assert [op.note for op in workload.run_pass()] == ["exit code 2"]

    def diverge(*args, **kwargs):
        raise SolverError("no convergence", 10, 1.0)

    monkeypatch.setattr(workloads.maphom.cell, "solve_corrector", diverge)
    ops = workloads.make("cell_point", 0, workloads.SMOKE, tmp_path).run_pass()
    assert ops and all(not op.ok and op.note.startswith("SolverError") for op in ops)


def test_changed_output_between_passes_is_counted(tmp_path, monkeypatch):
    workload = workloads.make("tensor_sweep", 0, workloads.SMOKE, tmp_path)
    assert workload.run_pass()[0].ok
    real_write = maphom.cli.write_tensor_csv

    def write_rounded(field, stream):
        field.matrices = np.round(field.matrices, 6)
        real_write(field, stream)

    monkeypatch.setattr(maphom.cli, "write_tensor_csv", write_rounded)
    op = workload.run_pass()[0]
    assert not op.ok and "differs from the first pass" in op.note


def test_reference_scales_every_timed_pass(tmp_path):
    ref = reference.Reference(grid=16, steps=2)
    workload = workloads.make("cell_point", 0, workloads.SMOKE, tmp_path)
    passes = run.run_passes(workload, 0.0, False, tracing.Tracer(), ref)
    # one mark before the first pass, then one per operation
    marks = 1 + sum(len(p["ops"]) for p in passes)
    assert len(ref.samples) == marks * run.REFERENCE_SAMPLES
    assert all(p["cpu_s"] > 0 and p["scaled_cpu_s"] > 0 for p in passes)
    assert reference.scale([0.05, 0.4, 0.2]) == pytest.approx(reference.NOMINAL_S / 0.2)

    class HalfSpeed:
        def sample(self, count):
            return [2 * reference.NOMINAL_S] * count

    clock = reference.Clock(HalfSpeed(), 3)
    clock.mark()
    clock.restart()
    sum(range(10**5))
    clock.mark()
    assert clock.raw_s > 0 and clock.scaled_s == pytest.approx(clock.raw_s / 2)


def test_self_times_add_up_to_the_pass():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, None, 1, {}),
        S("homogenize.tensor_field", 1.0, 4.0, 0, 1, {}),
        S("numerics.cg", 2.0, 3.0, 1, 1,
          {"iterations": 5, "residual": 1e-11, "n": 4, "nnz": 10, "index_bytes": 4,
           "site": "cell"}),
        S("cli.write", 5.0, 6.0, 0, 1, {}),
        S("coefficients.evaluate", 11.0, 11.5, None, 2, {"points": 8}),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 0.5]
    m = tracing.layer_metrics(spans, 12.0)
    assert m["cli.self_s"] == 6.0
    assert m["homogenize.self_s"] == 2.0
    assert m["numerics.cg_s"] == 1.0
    assert m["numerics.cg_s_per_iteration"] == 0.2
    assert m["numerics.cg_bytes_per_iteration"] == tracing.cg_bytes_per_iteration(4, 10, 4)
    assert m["cli.write_s"] == 1.0
    assert m["coefficients.evaluate_points"] == 8
    assert m["other_s"] == pytest.approx(1.5)


def test_tracer_restores_the_package_and_reports_absent_sites():
    original = maphom.cell.cg_solve
    missing = tracing.Target("cell", "cell.gone", "maphom.cell", "no_such_function")
    tracer = tracing.Tracer(tracing.TARGETS + (missing,))
    tracer.install()
    try:
        assert maphom.cell.cg_solve is not original
    finally:
        tracer.uninstall()
    assert maphom.cell.cg_solve is original
    assert tracer.absent == ["maphom.cell.no_such_function"]
    assert tracer.absent_layers() == []
    only_missing = tracing.Tracer((missing,))
    only_missing.install()
    only_missing.uninstall()
    assert "cell" in only_missing.absent_layers()


def test_benchmark_json_names_what_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER_UNITS)
    units = {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}
    assert all(m["unit"] == units[m["name"]]
               for m in bench["end_to_end"] + bench["per_layer"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "cell_point", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
