"""Effective matrices: closed-form oracles, symmetry and the field sweep."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ellipe

from maphom import coefficients
from maphom.cell import CellProblem, solve_corrector, solve_rescaled_corrector, stretched
from maphom.homogenize import (
    BOUND_TARGET,
    HomogenizedTensor,
    classical_homogenized_matrix,
    default_x2_samples,
    homogenized_matrix_at,
    isotropy_scan,
    tensor_field,
)
from maphom.numerics import Rectangle, SolverError, UniformCellGrid

OMEGA = Rectangle(0.05, 2.0, 0.05, 2.0)


def small_field(coeff, x2_samples=None, cell_resolution=64, **kw):
    if x2_samples is None:
        x2_samples = default_x2_samples(OMEGA, 16)
    return tensor_field(coeff, x2_samples, cell_resolution=cell_resolution, **kw)


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
    grid = UniformCellGrid(64)
    p = grid.points
    a = (1 + 0.9 * np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1])).reshape(64 * 64, -1)
    harmonic = 1.0 / grid.integral(1.0 / a)
    arithmetic = grid.integral(a)
    B = classical_homogenized_matrix(sine_coeff, 64)
    lo, hi = np.linalg.eigvalsh(0.5 * (B + B.T))
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
    cell = solve_rescaled_corrector(sine_coeff, 0.5, tol=1e-10)
    B_rect = homogenized_matrix_at(stretched(sine_coeff, 1.0), (1.0, 1.0), cell)
    corr = solve_corrector(sine_coeff, (1.0, 1.0), 128, tol=1e-10)
    B_unit = homogenized_matrix_at(sine_coeff, (1.0, 1.0), corr)
    npt.assert_allclose(B_rect, B_unit, atol=1e-13)


# ---------------------------------------------------------------------------
# the field sweep
# ---------------------------------------------------------------------------


def test_field_depends_on_x2_only(sine_coeff):
    """Two macroscopic points with equal x2 share one bitwise matrix. A
    point 4e-14 away is a scaling of its own, read off the basis with no
    iteration, and its matrix differs from the first's by less than
    1e-12."""
    samples = np.array([0.4, 0.7, 0.4, 0.4 + 4e-14])
    field = small_field(sine_coeff, samples, cell_resolution=32)
    npt.assert_array_equal(field.matrices[0], field.matrices[2])
    rows = field.metadata["scalings"]
    assert [row["zeta2"] for row in rows] == sorted(set((2.0 * samples).tolist()))
    assert rows[1]["iterations"] == [0, 0]
    assert np.abs(field.matrices[3] - field.matrices[0]).max() <= 1e-12


def test_classical_flag_reduces_every_sample_to_one_solve(laminate_coeff):
    field = small_field(laminate_coeff, np.array([0.3, 0.9, 1.5]), classical=True)
    assert len(field.metadata["scalings"]) == 1
    npt.assert_array_equal(field.matrices[0], field.matrices[1])
    npt.assert_array_equal(field.matrices[0], field.matrices[2])
    direct = classical_homogenized_matrix(laminate_coeff, 64)
    npt.assert_array_equal(field.matrices[0], direct)


def test_field_crosses_isotropy_midway(sine_coeff):
    field = small_field(sine_coeff)
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
    field = small_field(coeff, default_x2_samples(OMEGA, 5), cell_resolution=16)
    assert len(field.metadata["scalings"]) == 5
    assert calls == [16 * 16 * 4]


def test_warm_starts_skip_nearly_coincident_scalings(sine_coeff):
    """Scalings 2e-11 apart made the former Lagrange extrapolation through
    them blow up: x2 = 0.7 then took (15, 14) iterations and the sweep 55.
    Now every sample is a scaling of its own, at its exact 2 x2: the
    ends zeta2 = 1 and 1.8 and the midpoint 1.4 are solved, each warm
    from the projection onto the pairs before, and the two scalings
    next to 1 are read off the basis with no iteration: the sweep takes
    at most 36 iterations at 128^2 cells."""
    samples = np.array([0.5, 0.5 + 1e-11, 0.5 + 2e-11, 0.7, 0.9])
    field = small_field(sine_coeff, samples, cell_resolution=128)
    rows = field.metadata["scalings"]
    assert [row["zeta2"] for row in rows] == (2.0 * samples).tolist()
    assert field.metadata["truth_scalings"] == [1.0, 1.8, 1.4]
    assert sum(sum(row["iterations"]) for row in rows) <= 36
    assert sum(rows[3]["iterations"]) <= 12
    assert rows[1]["iterations"] == rows[2]["iterations"] == [0, 0]


WIDE = default_x2_samples(Rectangle(0.05, 2.0, 0.05, 100.0), 64)


def test_a_wide_sweep_starts_close(sine_coeff):
    """64 samples to x2 = 100 lie far apart in zeta2, where extrapolating
    through the last solved pairs took 8,635 iterations at 32^2 cells.
    The projection onto them, visited in dyadic order, takes under 250
    (277 when the far end was the second truth solve), and the matrices
    agree with cold solves to 1e-10."""
    field = small_field(sine_coeff, WIDE, cell_resolution=32)
    rows = field.metadata["scalings"]
    assert sum(sum(row["iterations"]) for row in rows) <= 250
    for k in (0, 31, 63):
        problem = CellProblem(sine_coeff, 32)
        cold = problem.effective_matrix(problem.solve((1.0, 2.0 * WIDE[k]), tol=1e-10))
        npt.assert_allclose(field.matrices[k], cold, rtol=0, atol=1e-10)


def test_a_wide_sweep_reaches_its_far_end_warm(sine_coeff):
    """On 128^2 cells the same sweep took 614 iterations when its far end
    zeta2 = 200 was the second truth solve, started from the first pair
    alone ((449, 26) there). The dyadic order reaches the far end last,
    from the pairs solved between, and the sweep takes at most 400."""
    field = small_field(sine_coeff, WIDE, cell_resolution=128)
    rows = field.metadata["scalings"]
    assert sum(sum(row["iterations"]) for row in rows) <= 400


def test_truth_solves_stop_on_their_certificate_above_the_euclidean_floor():
    """For 1/a, with a the sine product at 0.9, the Euclidean residual of
    a 16^2 cell at zeta2 = 188 has a floor near 1.5e-11: CG to 1e-12 runs
    out of its 2,560 iterations, as a sweep to 1e-12 did. The bound is
    met decades above the floor: a certified solve stops there at
    relative residuals above 1e-9, and a 16-sample sweep to x2 = 100
    certifies every sample in at most 200 iterations."""
    base = coefficients.sine_product(0.9)

    def inverse(pts):
        return np.linalg.inv(base(pts))

    samples = default_x2_samples(Rectangle(0.05, 2.0, 0.05, 100.0), 16)
    field = tensor_field(inverse, samples, cell_resolution=16)
    rows, target = field.metadata["scalings"], field.metadata["bound_target"]
    assert all(row["bound"] <= target for row in rows)
    assert sum(sum(row["iterations"]) for row in rows) <= 200
    problem = CellProblem(inverse, 16)
    far = (1.0, 2.0 * float(samples[-1]))
    certified = problem.solve(far, target=target)
    assert certified.bound <= target
    assert min(certified.residual) > 1e-9
    with pytest.raises(SolverError, match="did not converge in 2560 iterations"):
        problem.solve(far, tol=1e-12)


def test_an_overflowing_product_is_named():
    """At x2 = 1e153 the scaled stiffness reaches about 1e307 and K p
    overflows in the first iteration: the sweep names the overflow as a
    breakdown, where it read as an operator that is not positive
    definite. Its first corrector, which tends to 0 in the layered
    limit, is certified at its zero start."""
    with pytest.raises(SolverError, match=r"breakdown: a product overflowed \(p \. Ap"):
        tensor_field(coefficients.sine_product(), [1e153], cell_resolution=16)


def test_zero_correctors_never_join_the_basis(identity_coeff, laminate_coeff):
    """The identity's correctors are all 0: every solve is a zero start
    that takes no iteration, and keeping its pair adds no vector. The
    laminate's first corrector depends on y1 alone, the same at every
    scaling, and its load L_22 (1.7e-18 against 3.8e-4 for L_11) is
    rounding noise, set to zero, so its second corrector is 0. Once the
    first pair is kept the basis holds that one profile: a second solve
    started from its projection takes no iteration, its pair adds
    nothing, and a sweep solves only its first scaling and reads the 63
    others off the basis, with b22 the arithmetic mean."""
    problem = CellProblem(identity_coeff, 16)
    for z2 in (0.5, 1.0, 2.0, 4.0):
        field = problem.solve((1.0, z2), tol=1e-7)
        assert field.iterations == (0, 0)
        assert field.start_residual == (0.0, 0.0)
        problem.keep(field)
    assert problem.reduced((1.0, 8.0)) is None
    assert len(problem._vectors) == 0

    field = small_field(laminate_coeff, default_x2_samples(OMEGA, 64), cell_resolution=128)
    assert field.metadata["truth_scalings"] == [0.16]
    iterations = [row["iterations"] for row in field.metadata["scalings"]]
    assert sum(sum(its) for its in iterations) <= 142
    assert sum(its[1] for its in iterations) == 0
    npt.assert_allclose(field.entry(1, 1), 2.0, rtol=1e-14)
    problem = CellProblem(laminate_coeff, 16)
    for z2 in (0.5, 1.0, 2.0, 4.0, 8.0):
        field = problem.solve((1.0, z2), tol=1e-7, start=problem.reduced((1.0, z2)))
        assert z2 == 0.5 or field.iterations == (0, 0)
        problem.keep(field)
    assert problem._size == 1


@pytest.mark.parametrize("coeff, b2", [
    (coefficients.sine_product(0.9), 2.0), (coefficients.sine_product(0.99), 2.0),
    (coefficients.laminate(), 2.0), (coefficients.sine_product(0.9), 100.0),
], ids=["sine-0.9", "sine-0.99", "laminate", "x2-to-100"])
def test_every_sample_is_within_its_bound_of_a_cold_solve(coeff, b2):
    """The bound the sweep records for a sample holds: its matrix is
    within the bound (plus 1e-14 of rounding) of a cold 1e-11 solve at
    its exact scaling 2 x2, and the bound meets the target, 1e-13 times
    the largest <a_ii>."""
    samples = default_x2_samples(Rectangle(0.05, 2.0, 0.05, b2), 16)
    field = small_field(coeff, samples, cell_resolution=32)
    meta = field.metadata
    grid = UniformCellGrid(32)
    target = BOUND_TARGET * max(np.diag(CellProblem(coeff, grid).means))
    assert meta["bound_target"] == target
    assert len(meta["truth_scalings"]) < 16
    bounds = {row["zeta2"]: row["bound"] for row in meta["scalings"]}
    for x2, b in zip(samples, field.matrices):
        zeta2 = 2.0 * float(x2)
        problem = CellProblem(coeff, grid)
        cold = problem.effective_matrix(problem.solve((1.0, zeta2), tol=1e-11))
        bound = bounds[zeta2]
        assert bound <= target
        assert np.abs(b - cold).max() <= bound + 1e-14


def _quadrature_means(coeff, n):
    """The arithmetic and harmonic quadrature means <A> and <A^-1>^-1."""
    grid = UniformCellGrid(n)
    A = grid.coefficient(coeff)
    return grid.mean(A), np.linalg.inv(grid.mean(np.linalg.inv(A)))


@pytest.mark.parametrize("name", ["sine", "laminate"])
def test_every_matrix_lies_between_the_voigt_and_reuss_means(sine_coeff, laminate_coeff,
                                                             name):
    """For symmetric A the discrete B(zeta) lies between the harmonic and
    the arithmetic quadrature means in the Loewner order: z = 0 is
    admissible, and a Q1 gradient has zero mean under 2x2 Gauss. The
    laminate attains the upper bound in b22. Checked to 1e-12 on every
    sample of the default 32^2 sweep, an oracle that no solver enters."""
    coeff = sine_coeff if name == "sine" else laminate_coeff
    field = small_field(coeff, default_x2_samples(OMEGA, 64), cell_resolution=32)
    voigt, reuss = _quadrature_means(coeff, 32)
    B = 0.5 * (field.matrices + field.matrices.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(voigt - B).min() >= -1e-12
    assert np.linalg.eigvalsh(B - reuss).min() >= -1e-12


def test_sweeps_have_the_same_bits_under_one_and_two_blas_threads():
    """A 16-sample 32^2 sweep in two fresh processes, with OpenBLAS on one
    thread and on two, gives bit-identical matrices: every reduction of
    the sweep is numpy's own or the small projected solve."""
    script = ("import numpy as np\n"
              "from maphom import coefficients\n"
              "from maphom.homogenize import default_x2_samples, tensor_field\n"
              "from maphom.numerics import Rectangle\n"
              "x2 = default_x2_samples(Rectangle(0.05, 2.0, 0.05, 2.0), 16)\n"
              "field = tensor_field(coefficients.sine_product(), x2, cell_resolution=32)\n"
              "print(field.matrices.tobytes().hex())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    children = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        children.append(subprocess.Popen([sys.executable, "-c", script], env=env,
                                         stdout=subprocess.PIPE, text=True))
    outputs = [child.communicate(timeout=60)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(outputs[0]) == 2 * 16 * 4 * 8 + 1
    assert outputs[0] == outputs[1]


# the sine product at amplitude 0.9 and its reciprocal, a test-local
# coefficient with the reciprocal bounds
RECIPROCAL = coefficients.isotropic(
    lambda pts: 1.0 / (1.0 + 0.9 * np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])),
    bound=10.0, coercivity=1.0 / 1.9)


def test_keller_mendelson_duality_along_the_curve(sine_coeff):
    """In two dimensions b11[a] b22[1/a] = 1 and b22[a] b11[1/a] = 1 for a
    scalar periodic a, and the stretched cell is again one, so the
    duality holds at every zeta2. The Q1 defect is O(H^2): it falls by at
    least 3.5 from 32^2 to 64^2 cells at zeta2 = 0.1, 1 and 10 (by 4.0 in
    a probe), and is below 1e-3 at 64^2."""
    x2 = np.array([0.05, 0.5, 5.0])
    defects = []
    for n in (32, 64):
        b = small_field(sine_coeff, x2, cell_resolution=n).matrices
        dual = small_field(RECIPROCAL, x2, cell_resolution=n).matrices
        defects.append(np.abs(np.concatenate([b[:, 0, 0] * dual[:, 1, 1],
                                              b[:, 1, 1] * dual[:, 0, 0]]) - 1.0))
    assert np.all(defects[0] >= 3.5 * defects[1])
    assert defects[1].max() < 1e-3


def test_the_curve_mirrors_at_its_ends(sine_coeff):
    """The sine product is swap-symmetric, so B(1/zeta2) is B(zeta2) with
    the axes exchanged, here at zeta2 = 0.01 and 100 in one sweep."""
    b = small_field(sine_coeff, [0.005, 50.0]).matrices
    npt.assert_allclose(b[0], b[1][::-1, ::-1], rtol=0, atol=1e-8)


def test_the_curve_tends_to_the_layered_limits(sine_coeff):
    """As zeta2 grows the cell becomes a stack of layers across y2: b22
    tends to the mean over y1 of the harmonic mean over y2, which for the
    sine product at 0.9 is (2/pi) E(0.81) = 0.745925511, and b11 to the
    harmonic mean over y1 of the mean over y2, 1. As zeta2 falls the axes
    are exchanged. At zeta2 = 400 and 0.005 the other diagonal entry is
    within 1e-5 of 1, and the gap to the limit is positive and falls by
    at least 3.5 per doubling from 16^2 to 64^2 cells (by 4.0 in a
    probe)."""
    limit = 2.0 / math.pi * ellipe(0.81)
    gaps = []
    for n in (16, 32, 64):
        b = small_field(sine_coeff, [0.0025, 200.0], cell_resolution=n).matrices
        npt.assert_allclose([b[0, 1, 1], b[1, 0, 0]], 1.0, rtol=0, atol=1e-5)
        gaps.append(np.array([b[0, 0, 0], b[1, 1, 1]]) - limit)
    assert np.all(gaps[-1] > 0)
    assert np.all(gaps[0] >= 3.5 * gaps[1]) and np.all(gaps[1] >= 3.5 * gaps[2])


def test_repeated_sweeps_are_bytewise_identical(sine_coeff):
    samples = default_x2_samples(OMEGA, 6)
    first = small_field(sine_coeff, samples, cell_resolution=32)
    second = small_field(sine_coeff, samples, cell_resolution=32)
    assert first.matrices.tobytes() == second.matrices.tobytes()


def test_job_validation_names_the_offending_sample(sine_coeff):
    """tensor_field refuses an empty sample list, and names the first
    sample that is not finite and positive."""
    for samples, message in (([], "at least one x2 sample"),
                             ([0.5, float("nan")], "x2 sample nan "),
                             ([0.5, -1.0], r"x2 sample -1\.0 "),
                             ([0.5, float("inf")], "x2 sample inf ")):
        with pytest.raises(ValueError, match=message):
            tensor_field(sine_coeff, samples, cell_resolution=16)


@pytest.mark.parametrize("bad, error", [
    pytest.param(16.5, TypeError, id="16.5"), pytest.param(16.0, TypeError, id="16.0"),
    pytest.param(0, ValueError, id="0"), pytest.param(float("inf"), TypeError, id="inf"),
    pytest.param(float("nan"), TypeError, id="nan"),
])
def test_job_refuses_a_resolution_that_is_not_a_positive_integer(sine_coeff, bad, error):
    """tensor_field leaves the check to its grid: a float, even 16.0, is no
    element count, though the CLI reads cell_resolution=16.0 as 16."""
    with pytest.raises(error):
        tensor_field(sine_coeff, [0.5], cell_resolution=bad)


def test_job_takes_integral_resolutions_as_ints(sine_coeff):
    field = tensor_field(sine_coeff, [0.5], cell_resolution=np.int64(16))
    npt.assert_array_equal(field.matrices,
                           tensor_field(sine_coeff, [0.5], cell_resolution=16).matrices)


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


