"""Effective matrices: closed-form oracles, symmetry and the field sweep."""

import io
import math

import numpy as np
import numpy.testing as npt
import pytest

from maphom import coefficients
from maphom.cell import solve_corrector, solve_rescaled_corrector
from maphom.homogenize import (
    HomogenizationJob,
    HomogenizedTensor,
    classical_homogenized_matrix,
    default_x2_samples,
    homogenized_matrix_at,
    isotropy_scan,
    rescaled_matrix,
    sym_eigenvalue_range,
    tensor_field,
    write_tensor_csv,
)
from maphom.numerics import Q1Assembly, Rectangle, UniformCellGrid

OMEGA = Rectangle(0.05, 2.0, 0.05, 2.0)


def small_job(coeff, **kw):
    kw.setdefault("omega", OMEGA)
    kw.setdefault("x2_samples", default_x2_samples(OMEGA, 16))
    kw.setdefault("cell_resolution", 64)
    return HomogenizationJob(coefficient=coeff, **kw)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def test_identity_matrix_is_exact(identity_coeff):
    B = classical_homogenized_matrix(identity_coeff, 32)
    npt.assert_allclose(B, np.eye(2), atol=1e-14)


def test_constant_coefficient_is_its_own_limit():
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    B = classical_homogenized_matrix(coefficients.constant(M), 32)
    npt.assert_allclose(B, M, atol=1e-12)


def test_laminate_harmonic_and_arithmetic_means(laminate_coeff):
    """Layers in series give the harmonic mean sqrt(3), layers in
    parallel the arithmetic mean 2."""
    B = classical_homogenized_matrix(laminate_coeff, 128)
    assert abs(B[0, 0] - math.sqrt(3)) <= 2e-4
    assert abs(B[1, 1] - 2.0) <= 1e-9
    assert abs(B[0, 1]) <= 1e-12
    assert abs(B[1, 0]) <= 1e-12


def test_effective_matrix_sits_between_the_means(sine_coeff):
    assembly = Q1Assembly(UniformCellGrid(64))
    p = assembly.points
    a = (1 + 0.9 * np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1])).reshape(64 * 64, -1)
    harmonic = 1.0 / assembly.integral(1.0 / a)
    arithmetic = assembly.integral(a)
    B = classical_homogenized_matrix(sine_coeff, 64)
    lo, hi = sym_eigenvalue_range(B)
    assert harmonic - 1e-10 <= lo
    assert hi <= arithmetic + 1e-10


def test_matrix_requires_a_matching_corrector(sine_coeff):
    corr = solve_corrector(sine_coeff, (1.0, 1.0), 16)
    with pytest.raises(ValueError):
        homogenized_matrix_at(sine_coeff, (1.0, 2.0), corr)


# ---------------------------------------------------------------------------
# scaling structure
# ---------------------------------------------------------------------------


def test_matrix_is_symmetric_for_symmetric_coefficients(sine_coeff):
    corr = solve_corrector(sine_coeff, (1.0, 1.7), 64)
    B = homogenized_matrix_at(sine_coeff, (1.0, 1.7), corr)
    assert abs(B[0, 1] - B[1, 0]) <= 1e-8


def test_uniform_rescaling_of_the_pair_cancels(sine_coeff):
    """zeta and t*zeta describe the same effective matrix."""
    b1 = homogenized_matrix_at(
        sine_coeff, (1.0, 1.5),
        solve_corrector(sine_coeff, (1.0, 1.5), 64))
    b2 = homogenized_matrix_at(
        sine_coeff, (2.0, 3.0),
        solve_corrector(sine_coeff, (2.0, 3.0), 64))
    npt.assert_allclose(b1, b2, atol=1e-11)


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_axis_swap_duality(sine_coeff, c):
    """For a swap-symmetric coefficient, stretching the second axis by c
    mirrors compressing it by 1/c with the diagonal entries exchanged."""
    upper = homogenized_matrix_at(
        sine_coeff, (1.0, c), solve_corrector(sine_coeff, (1.0, c), 64))
    lower = homogenized_matrix_at(
        sine_coeff, (1.0, 1.0 / c),
        solve_corrector(sine_coeff, (1.0, 1.0 / c), 64))
    assert abs(upper[0, 0] - lower[1, 1]) <= 1e-8
    assert abs(upper[1, 1] - lower[0, 0]) <= 1e-8


def test_mesh_refinement_is_cauchy(sine_coeff):
    """Entries settle at the expected second-order rate: successive
    differences shrink by at least a factor of three per doubling."""
    zeta = (1.0, 1.5)
    values = []
    for n in (32, 64, 128):
        corr = solve_corrector(sine_coeff, zeta, n, tol=1e-11)
        values.append(homogenized_matrix_at(sine_coeff, zeta, corr))
    for i, j in ((0, 0), (1, 1)):
        d1 = abs(values[1][i, j] - values[0][i, j])
        d2 = abs(values[2][i, j] - values[1][i, j])
        if d1 > 1e-8:  # off the floor where roundoff dominates
            assert d1 / d2 >= 3.0


def test_rescaled_route_agrees_at_the_square_cell(sine_coeff):
    cell = solve_rescaled_corrector(sine_coeff, (0.2, 0.5), tol=1e-10)
    B_rect = rescaled_matrix(cell)
    corr = solve_corrector(sine_coeff, (1.0, 1.0), 128, tol=1e-10)
    B_unit = homogenized_matrix_at(sine_coeff, (1.0, 1.0), corr)
    npt.assert_allclose(B_rect, B_unit, atol=1e-13)


# ---------------------------------------------------------------------------
# the field sweep
# ---------------------------------------------------------------------------


def test_field_depends_on_x2_only(sine_coeff):
    """Two macroscopic points with equal x2 share one bitwise matrix."""
    samples = np.array([0.4, 0.7, 0.4 + 4e-14])
    job = small_job(sine_coeff, x2_samples=samples, cell_resolution=32)
    field = tensor_field(job)
    npt.assert_array_equal(field.matrices[0], field.matrices[2])
    assert field.metadata["unique_scalings"] == 2


def test_classical_flag_reduces_every_sample_to_one_solve(laminate_coeff):
    job = small_job(laminate_coeff, x2_samples=np.array([0.3, 0.9, 1.5]),
                    classical=True, cell_resolution=64)
    field = tensor_field(job)
    assert field.metadata["unique_scalings"] == 1
    npt.assert_array_equal(field.matrices[0], field.matrices[1])
    npt.assert_array_equal(field.matrices[0], field.matrices[2])
    direct = classical_homogenized_matrix(laminate_coeff, 64)
    npt.assert_array_equal(field.matrices[0], direct)


def test_field_crosses_isotropy_midway(sine_coeff):
    job = small_job(sine_coeff)
    field = tensor_field(job)
    gap = field.entry(0, 0) - field.entry(1, 1)
    below = gap[field.x2 < 0.45]
    above = gap[field.x2 > 0.55]
    assert np.all(below < 0)
    assert np.all(above > 0)
    assert np.abs(field.entry(0, 1)).max() <= 1e-8
    assert np.abs(field.entry(1, 0)).max() <= 1e-8
    assert 0.0 < field.metadata["corrector_sup_norm"] < 1.0


def test_sweep_evaluates_the_coefficient_once(sine_coeff):
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return sine_coeff.evaluate(pts)

    coeff = coefficients.PeriodicCoefficient(counted, sine_coeff.bound,
                                             sine_coeff.coercivity)
    field = tensor_field(small_job(coeff, x2_samples=default_x2_samples(OMEGA, 5),
                                   cell_resolution=16))
    assert field.metadata["unique_scalings"] == 5
    assert calls == [16 * 16 * 4]


def test_repeated_sweeps_are_bytewise_identical(sine_coeff):
    job = small_job(sine_coeff, x2_samples=default_x2_samples(OMEGA, 6),
                    cell_resolution=32)
    first, second = tensor_field(job), tensor_field(job)
    assert first.matrices.tobytes() == second.matrices.tobytes()


def test_job_validation_names_the_offending_sample(sine_coeff):
    with pytest.raises(ValueError, match="2.5"):
        small_job(sine_coeff, x2_samples=np.array([0.5, 2.5]))
    with pytest.raises(ValueError):
        small_job(sine_coeff, x2_samples=np.array([]))


def test_default_samples_stay_strictly_inside():
    samples = default_x2_samples(OMEGA, 64)
    assert samples.size == 64
    assert samples.min() > OMEGA.a2
    assert samples.max() < OMEGA.b2
    # the default count lands a sample next to the midline
    assert np.abs(samples - 0.5).min() <= 1e-15


# ---------------------------------------------------------------------------
# scans and output
# ---------------------------------------------------------------------------


def _toy_field(x2, gaps):
    mats = np.array([np.diag([1.0 + g, 1.0]) for g in gaps])
    return HomogenizedTensor(np.asarray(x2, float), mats, {})


def test_isotropy_scan_finds_the_smallest_gap():
    result = isotropy_scan(_toy_field([0.3, 0.5, 0.7], [-0.1, 0.01, 0.2]))
    assert result.index == 1
    assert result.x2 == 0.5
    assert result.gap == pytest.approx(0.01)


def test_isotropy_scan_breaks_ties_toward_small_x2():
    result = isotropy_scan(_toy_field([0.7, 0.3, 0.5], [0.05, 0.05, 0.05]))
    assert result.x2 == 0.3


def test_isotropy_scan_needs_three_samples():
    with pytest.raises(ValueError):
        isotropy_scan(_toy_field([0.3, 0.5], [0.1, 0.2]))


def test_eigenvalue_range_closed_form():
    lo, hi = sym_eigenvalue_range(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert lo == pytest.approx((3 - math.sqrt(2)) / 2, rel=1e-12)
    assert hi == pytest.approx((3 + math.sqrt(2)) / 2, rel=1e-12)


def test_tensor_csv_is_deterministic(sine_coeff):
    field = tensor_field(small_job(sine_coeff, cell_resolution=32,
                                   x2_samples=np.array([0.25, 0.5, 0.75])))
    first, second = io.StringIO(), io.StringIO()
    write_tensor_csv(field, first)
    write_tensor_csv(field, second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().strip().split("\n")
    assert lines[0] == "x2,b11,b12,b21,b22"
    assert len(lines) == 4
    row = lines[2].split(",")
    assert float(row[0]) == 0.5
    assert abs(float(row[1]) - float(row[4])) <= 1e-3
