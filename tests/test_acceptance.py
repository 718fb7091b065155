"""Numbered end-to-end gates for the whole toolkit.

Each gate is one test; running this file with -v prints one pass/fail
line per gate. The stated tolerances and runtime budgets are asserted,
not just sampled.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import numpy.testing as npt
import pytest

import maphom
from maphom.cell import solve_corrector, solve_rescaled_corrector, stretched
from maphom.finescale import DirichletProblem, l2_error
from maphom.homogenize import (
    classical_homogenized_matrix,
    default_x2_samples,
    homogenized_matrix_at,
    tensor_field,
)
from maphom.numerics import Rectangle, UniformCellGrid
from maphom.structure import (
    LinearScaleMap,
    QuadraticStretchMap,
    aud_verify,
    oscillatory_mean_integral,
)

OMEGA = Rectangle(0.05, 2.0, 0.05, 2.0)
WINDOW = Rectangle(0.5, 1.5, 0.5, 1.5)
SCALES = [1, 2, 4, 8]


def ones(pts):
    return np.ones(pts.shape[0])


@pytest.fixture(scope="module")
def stretched_field(sine_coeff):
    """The 64-sample sweep at 128^2 cells, with its wall time."""
    start = perf_counter()
    field = tensor_field(sine_coeff, default_x2_samples(OMEGA, 64), cell_resolution=128)
    return field, perf_counter() - start


def test_01_identity_field_is_exact(identity_coeff):
    start = perf_counter()
    field = tensor_field(identity_coeff, default_x2_samples(OMEGA, 64), cell_resolution=32)
    elapsed = perf_counter() - start
    gap = np.abs(field.matrices - np.eye(2)).max()
    sup = field.metadata["corrector_sup_norm"]
    print(f"identity field: max |B - I| = {gap:.3e}, "
          f"sup |z| = {sup:.3e}, {elapsed:.2f} s")
    assert gap <= 1e-10
    assert sup <= 1e-10
    assert elapsed < 1.0


def test_02_laminate_matches_the_mean_formulas(laminate_coeff):
    B = classical_homogenized_matrix(laminate_coeff, 128)
    print(f"laminate: b11 = {B[0, 0]:.8f} (target sqrt(3)), "
          f"b22 = {B[1, 1]:.8f} (target 2)")
    assert abs(B[0, 0] - math.sqrt(3)) <= 1e-3
    assert abs(B[1, 1] - 2.0) <= 1e-3


def test_03_stretched_field_structure_and_budget(sine_coeff, stretched_field):
    field, elapsed = stretched_field
    off_diag = max(np.abs(field.entry(0, 1)).max(),
                   np.abs(field.entry(1, 0)).max())

    # the curves depend on the second coordinate alone: recomputing a
    # sample's matrix from scratch reproduces it bitwise
    z2 = 2.0 * float(field.x2[40])
    again = [homogenized_matrix_at(
        sine_coeff, (1.0, z2),
        solve_corrector(sine_coeff, (1.0, z2), 128)) for _ in range(2)]
    npt.assert_array_equal(again[0], again[1])
    recompute_gap = np.abs(again[0] - field.matrices[40]).max()

    near_mid = int(np.abs(field.x2 - 0.5).argmin())
    mid_gap = abs(field.matrices[near_mid, 0, 0]
                  - field.matrices[near_mid, 1, 1])
    direct = classical_homogenized_matrix(sine_coeff, 128)
    direct_gap = abs(direct[0, 0] - direct[1, 1])
    iterations = sum(sum(row["iterations"]) for row in field.metadata["scalings"])
    truth = len(field.metadata["truth_scalings"])

    print(f"stretched field: off-diagonal {off_diag:.3e}, recompute gap "
          f"{recompute_gap:.3e}, midline gap {mid_gap:.3e} / {direct_gap:.3e}, "
          f"{iterations} CG iterations in {truth} truth scalings, {elapsed:.1f} s")
    assert off_diag <= 1e-3
    assert recompute_gap <= 1e-12
    assert mid_gap <= 1e-3
    assert direct_gap <= 1e-3
    assert len(field.metadata["scalings"]) == 64
    assert iterations <= 700
    assert truth <= 16
    assert elapsed <= 60.0


@pytest.mark.parametrize("x2", [0.5, 0.75, 1.0])
def test_04_both_corrector_routes_agree(sine_coeff, x2):
    zeta = (1.0, 2.0 * x2)
    unit = homogenized_matrix_at(
        sine_coeff, zeta, solve_corrector(sine_coeff, zeta, 128, tol=1e-10))
    rect = homogenized_matrix_at(
        stretched(sine_coeff, 2.0 * x2), (1.0, 1.0),
        solve_rescaled_corrector(sine_coeff, x2, tol=1e-10))
    gap = np.abs(unit - rect).max()
    print(f"route agreement at x2 = {x2}: max entry gap {gap:.3e}")
    assert gap <= 1e-3


def test_05_spectral_bounds_hold(stretched_field):
    field, _ = stretched_field
    eigs = np.linalg.eigvalsh(0.5 * (field.matrices + field.matrices.transpose(0, 2, 1)))
    lo, hi = eigs.min(), eigs.max()
    print(f"eigenvalue range: [{lo:.6f}, {hi:.6f}]")
    assert lo >= 0.1 - 1e-3
    assert hi <= 1.9 + 1e-3


def test_06_subcell_distribution_tightens():
    start = perf_counter()
    reports = aud_verify([4, 16, 64, 256], 4, OMEGA)
    elapsed = perf_counter() - start
    deviations = [rep.max_deviation for rep in reports]
    print("max deviations:",
          ", ".join(f"h={rep.h}: {rep.max_deviation:.6e}" for rep in reports),
          f"({elapsed:.2f} s)")
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 0.02
    for rep in reports:
        for j2 in (rep.j2_min, (rep.j2_min + rep.j2_max) // 2, rep.j2_max):
            assert rep.subcell_ratios(j2).sum() == pytest.approx(1.0,
                                                                 abs=1e-12)
    assert elapsed < 1.0


def sweep(coefficient, map_family, mesh, tensor):
    """One problem's solves on ``mesh`` at h = 1, 2, 4, 8: their L2 errors
    against the homogenized solve, and every solve, the reference first."""
    problem = DirichletProblem(mesh, ones)
    solves = [problem.homogenized(tensor, tol=1e-8)]
    solves += [problem.oscillatory(coefficient, map_family(h), tol=1e-8) for h in SCALES]
    return [l2_error(u, solves[0]) for u in solves[1:]], solves


def test_07_fine_scale_solutions_converge(sine_coeff, laminate_coeff):
    start = perf_counter()

    tensor = tensor_field(sine_coeff, default_x2_samples(WINDOW, 64), cell_resolution=128)
    mesh = UniformCellGrid(512, periodic=False, rectangle=WINDOW)
    errors, solves = sweep(sine_coeff, QuadraticStretchMap, mesh, tensor)
    iterations = [u.iterations for u in solves]
    print("stretched-map errors:",
          ", ".join(f"h={h}: {e:.6e}" for h, e in zip(SCALES, errors)),
          "iterations:", iterations)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] / errors[0] <= 0.5
    assert not any(u.warn_underresolved for u in solves)
    # the reference, then h = 1, 2, 4, 8: larger h may not cost more than
    # twice the h = 2 solve
    assert max(iterations[1:]) <= 2 * iterations[2]

    baseline = tensor_field(laminate_coeff, default_x2_samples(OMEGA, 64),
                            cell_resolution=128, classical=True)
    mesh_b = UniformCellGrid(256, periodic=False, rectangle=OMEGA)
    errors_b, _ = sweep(laminate_coeff, LinearScaleMap, mesh_b, baseline)
    slope = np.polyfit(np.log(SCALES), np.log(errors_b), 1)[0]
    elapsed = perf_counter() - start
    print("classical baseline errors:",
          ", ".join(f"h={h}: {e:.6e}" for h, e in zip(SCALES, errors_b)),
          f"slope {slope:.3f}, total {elapsed:.1f} s")
    assert slope <= -0.5
    assert elapsed <= 600.0


def test_08_oscillatory_integral_finds_the_mean():
    def v(x, y):
        return (0.7 + 0.5 * np.sin(2 * np.pi * y[:, 0])
                + 0.25 * np.cos(2 * np.pi * y[:, 1])
                + 0.2 * np.sin(2 * np.pi * y[:, 0])
                * np.sin(2 * np.pi * y[:, 1]))

    result = oscillatory_mean_integral(v, ones, QuadraticStretchMap(32),
                                       WINDOW, resolution=256)
    print(f"integral at h = 32: {result.value:.8f} (cell mean 0.7)")
    assert not result.under_resolved
    assert abs(result.value - 0.7) <= 1e-2


def test_09_repeated_cli_runs_are_identical(tmp_path):
    """The field sweep command is replayed; its data must not drift."""
    env = dict(os.environ, PYTHONPATH=str(Path(maphom.__file__).resolve().parents[1]))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "maphom.cli", "--out", str(out),
             "homogenize"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "tensor.csv").read_bytes())
        assert (out / "manifest.json").is_file()
    assert outputs[0] == outputs[1]
    print(f"replayed sweep: {len(outputs[0])} bytes, byte-identical")
