"""Dirichlet solves on the physical domain and the error machinery."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.sparse.linalg import spsolve

from maphom import coefficients

from maphom.finescale import (
    DirichletProblem,
    SolutionField,
    flux_moment,
    l2_error,
    tensor_evaluator,
)
from maphom.homogenize import (
    HomogenizedTensor,
    default_x2_samples,
    tensor_field,
)
from maphom.numerics import (
    GAUSS_WEIGHTS,
    Rectangle,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    q1_tables,
    spectral_preconditioner,
)
from maphom.structure import LinearScaleMap, QuadraticStretchMap

OMEGA = Rectangle(0.5, 1.5, 0.5, 1.5)


def clamped(n1, n2, omega=OMEGA):
    """A Dirichlet mesh: the clamped n1 x n2 grid over ``omega``."""
    return UniformCellGrid(n1, periodic=False, ny=n2, rectangle=omega)


def ones(pts):
    return np.ones(pts.shape[0])


def constant_field(matrix):
    m = np.asarray(matrix, dtype=float)
    return HomogenizedTensor(np.array([0.6, 1.4]), np.stack([m, m]), {})


def interpolant(grid, fn):
    """A SolutionField holding the nodal interpolant of fn (no solve)."""
    values = fn(grid.node_coords())
    values = np.asarray(values, dtype=float)
    values[grid.boundary_mask()] = 0.0
    return SolutionField(values=values, grid=grid, label="interpolant",
                         warn_underresolved=False, iterations=0, residual=0.0,
                         energy=0.0, source_work=0.0)


# ---------------------------------------------------------------------------
# meshes and fields
# ---------------------------------------------------------------------------


def test_mesh_geometry_and_interior_count():
    grid = clamped(8, 4)
    assert grid.n_nodes == 9 * 5
    assert (~grid.boundary_mask()).sum() == 7 * 3
    assert grid == clamped(8, 4)
    assert grid != clamped(8, 8)


def test_mesh_must_sit_in_the_open_first_quadrant():
    """A Dirichlet problem needs a clamped grid with two elements per
    direction over a first-quadrant rectangle."""
    for grid in [clamped(8, 8, Rectangle(0.5, 1.5, -0.5, 0.5)), clamped(1, 8),
                 UniformCellGrid(8, rectangle=OMEGA)]:
        with pytest.raises(ValueError):
            DirichletProblem(grid, ones)


def test_solution_field_extracts_interior_values(identity_coeff):
    grid = clamped(16, 16)
    u = DirichletProblem(grid, ones).homogenized(constant_field(np.eye(2)))
    assert u.values[~grid.boundary_mask()].shape == (15 * 15,)
    boundary = u.values[grid.boundary_mask()]
    npt.assert_array_equal(boundary, np.zeros_like(boundary))
    assert u.values.min() >= 0.0
    assert u.iterations > 0


def test_energy_identity_holds_at_solver_accuracy():
    grid = clamped(64, 64)
    u = DirichletProblem(grid, ones).homogenized(constant_field(np.eye(2)), tol=1e-10)
    assert u.energy == pytest.approx(u.source_work, rel=1e-8)
    assert u.energy > 0


# ---------------------------------------------------------------------------
# the Dirichlet problem built once per grid
# ---------------------------------------------------------------------------


def skew_field(pts):
    """A smooth non-symmetric coefficient whose symmetric part stays positive."""
    out = np.empty((pts.shape[0], 2, 2))
    out[:, 0, 0] = 1.5 + 0.5 * np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 1])
    out[:, 0, 1] = 0.3 + 0.2 * pts[:, 1]
    out[:, 1, 0] = -0.1 + 0.3 * pts[:, 0]
    out[:, 1, 1] = 0.8 + 0.4 * np.cos(5 * pts[:, 0] * pts[:, 1])
    return out


def _restricted_coo(grid, coeff_eval, coo_stiffness):
    D = coeff_eval(grid.points)
    K = coo_stiffness(grid, D.reshape(grid.n_elements, -1, 2, 2))
    interior = np.flatnonzero(~grid.boundary_mask())
    return K[interior][:, interior].tocsr()


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3), (7, 4), (16, 24)])
def test_interior_matrix_matches_a_restricted_coo_assembly(coo_stiffness, n1, n2):
    """Element sizes differ (hx != hy) on every grid, and the coefficient
    is not symmetric."""
    grid = clamped(n1, n2, Rectangle(0.5, 1.5, 0.25, 2.0))
    K, (k1, k2), _ = DirichletProblem(grid, ones).stiffness(skew_field)
    expect = _restricted_coo(grid, skew_field, coo_stiffness)
    n_interior = (n1 - 1) * (n2 - 1)
    assert K.shape == expect.shape == (n_interior,) * 2
    assert K.nnz == 9 * n_interior
    assert abs(K - expect).max() <= 1e-12 * abs(expect).max()
    npt.assert_allclose(K.diagonal(), expect.diagonal(), rtol=1e-12)
    assert abs(K - K.T).max() > 1e-3 * abs(K).max() or n_interior == 1
    assert 1.0 < k1 < 2.0 and 0.4 < k2 < 1.2


def test_dirichlet_solve_matches_a_direct_solve_of_the_coo_system(coo_stiffness):
    """A full tensor varying in x2, on a grid with hx != hy."""
    grid = clamped(24, 40, Rectangle(0.5, 1.5, 0.25, 2.0))
    field = HomogenizedTensor(np.array([0.25, 1.0, 2.0]), np.array(
        [[[1.0, 0.3], [0.3, 0.5]], [[2.0, -0.4], [-0.4, 1.5]], [[0.7, 0.0], [0.0, 3.0]]]), {})

    def source(pts):
        return pts[:, 0] - pts[:, 1] ** 2

    problem = DirichletProblem(grid, source)
    u = problem.homogenized(field, tol=1e-12)
    phi, _ = q1_tables()
    s = source(grid.points).reshape(grid.n_elements, -1)
    fe = np.einsum("eq,qa,q->ea", s, phi, GAUSS_WEIGHTS) * grid.hx * grid.hy
    b = np.zeros(grid.n_nodes)
    np.add.at(b, grid.connectivity.ravel(), fe.ravel())
    b = b[~grid.boundary_mask()]
    npt.assert_allclose(problem.load, b, rtol=1e-14, atol=1e-16)
    K = _restricted_coo(grid, tensor_evaluator(field), coo_stiffness)
    expect = spsolve(K.tocsc(), b)
    npt.assert_allclose(u.values[~grid.boundary_mask()], expect, rtol=1e-9,
                        atol=1e-9 * np.abs(expect).max())
    assert u.assemble_s > 0 and u.solve_s > 0


def test_a_study_evaluates_the_source_once(identity_coeff):
    """One problem serves an h-sweep: the source is evaluated when the
    problem is built and by no solve."""
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return np.ones(pts.shape[0])

    grid = clamped(16, 16)
    problem = DirichletProblem(grid, counted)
    sols = [problem.homogenized(constant_field(np.eye(2)))]
    sols += [problem.oscillatory(identity_coeff, LinearScaleMap(h)) for h in (1, 2, 4)]
    assert calls == [grid.n_elements * len(GAUSS_WEIGHTS)]
    for u in sols:
        record = u.diagnostics()
        assert record["assemble_s"] > 0 and record["solve_s"] > 0


def test_non_finite_coefficients_are_refused():
    problem = DirichletProblem(clamped(8, 8), ones)
    field = constant_field(np.eye(2))
    field.matrices[0, 1, 1] = np.nan
    with pytest.raises(ValueError):
        problem.homogenized(field)


# ---------------------------------------------------------------------------
# oracles for the solves
# ---------------------------------------------------------------------------


def test_anisotropy_is_a_change_of_variables():
    """diag(1, 4) on a square equals the Laplacian on the squashed box.

    Nodes line up under (x1, x2) -> (x1, x2/2) and every scale factor in
    the two assembled systems is an exact power of two, so the discrete
    solutions agree bitwise.
    """
    stretched = DirichletProblem(clamped(64, 64), ones).homogenized(
        constant_field(np.diag([1.0, 4.0])), tol=1e-10)
    squashed = DirichletProblem(clamped(64, 64, Rectangle(0.5, 1.5, 0.25, 0.75)),
                                ones).homogenized(constant_field(np.eye(2)), tol=1e-10)
    npt.assert_array_equal(stretched.values, squashed.values)


def test_identity_oscillation_is_no_oscillation(identity_coeff):
    """A(alpha(x)) = I collapses both solve paths onto one system."""
    grid = clamped(64, 64)
    problem = DirichletProblem(grid, ones)
    plain = problem.homogenized(constant_field(np.eye(2)), tol=1e-10)
    oscillatory = problem.oscillatory(identity_coeff, LinearScaleMap(4), tol=1e-10)
    npt.assert_array_equal(plain.values, oscillatory.values)
    assert not oscillatory.warn_underresolved


@pytest.mark.parametrize("amplitude,ceiling", [(0.9, 20), (0.99, 25)])
def test_dirichlet_iterations_stay_flat_across_resolution(amplitude, ceiling):
    """Measured: 18 to 19 for amplitude 0.9 and 23 to 24 at 0.99 (17 and
    20 to 22 with float64 sine transforms)."""
    coeff = coefficients.sine_product(amplitude)
    counts = [DirichletProblem(clamped(n, n), ones)
              .oscillatory(coeff, QuadraticStretchMap(1)).iterations
              for n in (64, 128, 256)]
    print(f"amplitude {amplitude}, 64^2 to 256^2: iterations {counts}")
    assert max(counts) <= ceiling
    assert max(counts) - min(counts) <= 2


@pytest.mark.parametrize("amplitude", [0.9, 0.99])
def test_dirichlet_iterations_stay_bounded_as_the_scale_grows(amplitude):
    """Measured: 19, 25 and 37 iterations at h = 1, 2 and 8 for amplitude
    0.9 and 24, 48 and 62 at 0.99 (17, 24, 37 and 22, 43, 55 with float64
    sine transforms); with the nodal scale kept at every h, h = 8 took 112
    and 145."""
    problem = DirichletProblem(clamped(128, 128), ones)
    coeff = coefficients.sine_product(amplitude)
    counts = {h: problem.oscillatory(coeff, QuadraticStretchMap(h)).iterations
              for h in (1, 2, 8)}
    print(f"amplitude {amplitude}, 128^2: iterations {counts}")
    assert counts[8] <= 2 * counts[2]


SCALES = ("scaled", "half", "unscaled")


def three_scales(problem, K, means, build=spectral_preconditioner):
    """CG iterations of a problem's oscillatory system ``K`` under the
    full, the half and no nodal scale, in the order of ``SCALES``, with
    the preconditioners ``build`` makes."""
    k1, k2 = means
    root = np.sqrt(problem.grid.spectral_diagonal(k1, k2))
    return [cg_solve(SparseSystem(K), problem.load, build(problem.grid, k1, k2, diagonal),
                     tol=1e-8).iterations
            for diagonal in (K.diagonal(), np.sqrt(K.diagonal()) * root, None)]


def double_precision_preconditioner(grid, k1, k2, diagonal):
    """The Dirichlet apply ``r -> s K0^-1 s r`` with its two DST-I passes
    in float64."""
    shape = (grid.ny - 1, grid.nx - 1)
    inverse = 1.0 / (4.0 * grid.nx * grid.ny * grid.spectral_symbol(k1, k2))
    s = (1.0 if diagonal is None else
         np.sqrt(grid.spectral_diagonal(k1, k2) / diagonal).reshape(shape))
    return lambda r: (s * dstn(dstn(s * r.reshape(shape), type=1) * inverse, type=1)).ravel()


@pytest.mark.parametrize("amplitude", [0.9, 0.99])
def test_single_precision_transforms_add_few_iterations(amplitude):
    """On a 64^2 mesh, under the stretch at h = 1, 2, 4, 8 and each of the
    full, the half and no scale, the float32 sine transforms take at most
    1.3 times the CG iterations of the same apply in float64."""
    problem = DirichletProblem(clamped(64, 64), ones)
    coeff = coefficients.sine_product(amplitude)
    for h in (1, 2, 4, 8):
        K, means, _ = problem.stiffness(lambda pts: coeff(QuadraticStretchMap(h)(pts)))
        single = three_scales(problem, K, means)
        double = three_scales(problem, K, means, double_precision_preconditioner)
        print(f"amplitude {amplitude}, h = {h}: {single} against {double}")
        assert all(a <= 1.3 * b for a, b in zip(single, double)), (h, single, double)


def test_a_dirichlet_solve_does_not_depend_on_the_coefficient_magnitude():
    """c A takes the iterations of A and gives u / c, for c from 1e-200 to
    1e200: the float32 transforms see a residual and an inverse symbol
    normalized to a unit maximum, so neither overflows nor underflows."""
    problem = DirichletProblem(clamped(32, 32), ones)
    coeff, scale_map = coefficients.sine_product(0.99), QuadraticStretchMap(2)
    solves = {c: problem.oscillatory(lambda y, c=c: c * coeff(y), scale_map)
              for c in (1e-200, 1.0, 1e200)}
    reference = solves[1.0].values
    for c, u in solves.items():
        assert u.iterations == solves[1.0].iterations, (c, u.iterations)
        assert np.linalg.norm(c * u.values - reference) <= 1e-8 * np.linalg.norm(reference)


@pytest.mark.parametrize("scale_map", [QuadraticStretchMap, LinearScaleMap],
                         ids=["stretch", "linear"])
@pytest.mark.parametrize("coeff", [
    coefficients.sine_product(0.9), coefficients.sine_product(0.99),
    coefficients.sine_product(0.5), coefficients.laminate(2.0, 1.0),
    coefficients.laminate(1.01, 1.0)],
    ids=["sine-0.9", "sine-0.99", "sine-0.5", "laminate-2", "laminate-1.01"])
def test_the_preconditioner_rule_is_within_twice_the_better_scale(coeff, scale_map):
    """Each oscillatory solve takes the iterations of the scale the rule
    picked and at most twice those of the best of the full, the half and
    no scale, all three built here. Over h = 1..8 the three bands take
    no more iterations than the two-way rule they replace, the full
    scale iff P ln c <= 4 sqrt(c)."""
    problem = DirichletProblem(clamped(64, 64), ones)
    taken = two_way = 0
    for h in range(1, 9):
        u = problem.oscillatory(coeff, scale_map(h))
        K, (k1, k2), contrast = problem.stiffness(lambda pts: coeff(scale_map(h)(pts)))
        # the stretch maps (0.5, 1.5) to h (0.25, 2.25) in x2
        periods = 2 * h if scale_map is QuadraticStretchMap else h
        assert (u.periods, u.contrast) == (periods, contrast)
        columns = three_scales(problem, K, (k1, k2))
        assert u.iterations == columns[SCALES.index(u.preconditioner)]
        assert u.iterations <= 2 * min(columns), (h, u.preconditioner, columns)
        taken += u.iterations
        two_way += columns[0 if periods * np.log(contrast) <= 4 * np.sqrt(contrast) else 2]
    assert taken <= two_way


def test_the_rule_drops_the_full_scale_where_elements_per_period_are_few():
    """laminate(1.01, 1) under the linear map at h = 5 on a 64^2 mesh
    over (0.05, 2)^2: with the full scale it took 121 iterations against
    53 with none."""
    problem = DirichletProblem(clamped(64, 64, Rectangle(0.05, 2.0, 0.05, 2.0)), ones)
    coeff, scale_map = coefficients.laminate(1.01, 1.0), LinearScaleMap(5)
    u = problem.oscillatory(coeff, scale_map)
    K, means, _ = problem.stiffness(lambda pts: coeff(scale_map(pts)))
    columns = three_scales(problem, K, means)
    assert u.iterations <= 1.6 * min(columns), (u.preconditioner, columns)


def test_the_half_scale_refuses_a_negative_diagonal_like_the_full_one():
    """A coefficient whose checkerboard D12 outweighs D11 = D22 is not
    elliptic and its stiffness has negative diagonal entries. At h = 2 the
    rule keeps the full scale and at h = 3 it takes the half; both are
    refused with the same ValueError, with no RuntimeWarning."""

    def coeff(y):
        wave = np.sin(2 * np.pi * y[:, 0])
        out = np.zeros((len(y), 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = 1 + 0.9 * wave
        out[:, 0, 1] = out[:, 1, 0] = 40 * np.sign(wave * np.sin(2 * np.pi * y[:, 1]))
        return out

    problem = DirichletProblem(clamped(16, 16), ones)
    for h in (2, 3):
        assert problem.stiffness(lambda pts: coeff(LinearScaleMap(h)(pts)))[0].diagonal().min() < 0
        with pytest.raises(ValueError, match="positive coefficient means and diagonal"):
            problem.oscillatory(coeff, LinearScaleMap(h))


def test_resolution_warning_tracks_the_map(sine_coeff):
    problem = DirichletProblem(clamped(64, 64), ones)
    fine = problem.oscillatory(sine_coeff, QuadraticStretchMap(2))
    coarse = problem.oscillatory(sine_coeff, QuadraticStretchMap(16))
    assert not fine.warn_underresolved
    assert coarse.warn_underresolved


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------


def test_l2_error_against_an_independent_mass_matrix(rng):
    """||d||_L2^2 = d' M d with M the exact bilinear mass matrix, built
    here from 1D factors as a cross-check on the quadrature path."""
    n = 16
    grid = clamped(n, n)
    d = rng.standard_normal(grid.n_nodes)
    u = interpolant(grid, lambda c: d)
    zero = interpolant(grid, lambda c: np.zeros(len(c)))
    d_eff = u.values  # boundary entries were zeroed by the helper

    h = 1.0 / n
    main = np.full(n + 1, 4.0)
    main[0] = main[-1] = 2.0
    m1 = sp.diags([np.ones(n), main, np.ones(n)], [-1, 0, 1]) * (h / 6.0)
    mass = sp.kron(m1, m1).tocsr()
    expected = np.sqrt(d_eff @ (mass @ d_eff))
    assert l2_error(u, zero) == pytest.approx(expected, rel=1e-12)


def test_l2_error_of_a_smooth_interpolant_tends_to_the_continuum():
    grid = clamped(128, 128)
    u = interpolant(grid, lambda c: np.sin(np.pi * (c[:, 0] - 0.5))
                    * np.sin(np.pi * (c[:, 1] - 0.5)))
    zero = interpolant(grid, lambda c: np.zeros(len(c)))
    assert l2_error(u, zero) == pytest.approx(0.5, abs=1e-4)


def test_l2_error_requires_matching_meshes():
    u = interpolant(clamped(8, 8), lambda c: c[:, 0])
    v = interpolant(clamped(16, 16), lambda c: c[:, 0])
    with pytest.raises(ValueError):
        l2_error(u, v)


def test_flux_moment_obeys_the_divergence_identity():
    """int (grad u).phi = -int u div phi for a compactly supported phi."""
    grid = clamped(128, 128)
    u = interpolant(grid, lambda c: np.sin(np.pi * (c[:, 0] - 0.5))
                    * np.sin(np.pi * (c[:, 1] - 0.5)) * (1 + 0.5 * c[:, 0]))

    def identity_eval(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        return out

    def phi(pts):
        s1 = np.sin(np.pi * (pts[:, 0] - 0.5))
        s2 = np.sin(np.pi * (pts[:, 1] - 0.5))
        return np.stack([s1 ** 2 * s2 ** 2 * (1 + pts[:, 1]),
                         0.4 * s1 ** 2 * s2 ** 2 * pts[:, 0]], axis=1)

    def div_phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        s1 = np.pi * (x - 0.5)
        s2 = np.pi * (y - 0.5)
        d1 = 2 * np.pi * np.sin(s1) * np.cos(s1) * np.sin(s2) ** 2 * (1 + y)
        d2 = 0.4 * x * np.sin(s1) ** 2 * 2 * np.pi * np.sin(s2) * np.cos(s2)
        return d1 + d2

    lhs = flux_moment(identity_eval, u, phi)
    pts = grid.points
    u_q = grid.values(u.values).ravel()
    w = np.tile(GAUSS_WEIGHTS, grid.n_elements)
    rhs = -np.sum(u_q * div_phi(pts) * w) * grid.hx * grid.hy
    assert abs(lhs - rhs) <= 1e-8
    assert abs(lhs) > 0.01  # the identity is not tested at zero


# ---------------------------------------------------------------------------
# tensor interpolation
# ---------------------------------------------------------------------------


def test_tensor_evaluator_interpolates_and_clamps():
    x2 = np.array([1.0, 0.6, 1.4])  # deliberately unsorted
    mats = np.array([np.diag([2.0, 2.0]), np.diag([1.0, 1.0]),
                     np.diag([3.0, 3.0])])
    evaluate = tensor_evaluator(HomogenizedTensor(x2, mats, {}))
    probe = np.array([[0.0, 0.8], [0.0, 1.2], [0.0, 0.1], [0.0, 5.0]])
    out = evaluate(probe)
    assert out[0, 0, 0] == pytest.approx(1.5)
    assert out[1, 0, 0] == pytest.approx(2.5)
    assert out[2, 0, 0] == pytest.approx(1.0)  # clamped below
    assert out[3, 0, 0] == pytest.approx(3.0)  # clamped above
    npt.assert_allclose(out[:, 0, 1], 0.0)


# ---------------------------------------------------------------------------
# convergence machinery
# ---------------------------------------------------------------------------


def test_identity_study_reports_zero_error(identity_coeff):
    grid = clamped(32, 32)
    tensor = tensor_field(identity_coeff, default_x2_samples(OMEGA, 4), cell_resolution=16)
    problem = DirichletProblem(grid, ones)
    reference = problem.homogenized(tensor)
    for h in (1, 2):
        u_h = problem.oscillatory(identity_coeff, QuadraticStretchMap(h))
        assert l2_error(u_h, reference) <= 1e-12
        assert u_h.energy > 0


def test_study_flux_gap_narrows_with_scale(sine_coeff):
    """Weighted fluxes of the fine solves approach the effective flux."""
    tensor = tensor_field(sine_coeff, default_x2_samples(OMEGA, 16), cell_resolution=64)
    problem = DirichletProblem(clamped(256, 256), ones)
    reference = problem.homogenized(tensor, tol=1e-8)
    b_eval = tensor_evaluator(tensor)

    gen = np.random.default_rng(42)
    weights = [gen.uniform(-1, 1, 4) for _ in range(3)]

    def make_phi(c):
        def phi(pts):
            s1 = np.sin(np.pi * (pts[:, 0] - 0.5))
            s2 = np.sin(np.pi * (pts[:, 1] - 0.5))
            base = s1 ** 2 * s2 ** 2
            return np.stack([base * (c[0] + c[1] * pts[:, 0]),
                             base * (c[2] + c[3] * pts[:, 1])], axis=1)
        return phi

    targets = [flux_moment(b_eval, reference, make_phi(c)) for c in weights]
    gaps = {}
    for h in (2, 8):
        scale_map = QuadraticStretchMap(h)

        def composed(pts):
            return sine_coeff.evaluate(scale_map(pts))

        u_h = problem.oscillatory(sine_coeff, scale_map, tol=1e-8)
        gaps[h] = [abs(flux_moment(composed, u_h, make_phi(c)) - t)
                   for c, t in zip(weights, targets)]
    assert max(gaps[2]) <= 1e-3
    assert max(gaps[8]) <= 1e-4
    for g2, g8 in zip(gaps[2], gaps[8]):
        assert g8 < g2


@pytest.mark.parametrize("h", [2.5, float("inf"), 0])
def test_study_refuses_a_scale_that_is_not_a_positive_integer(h):
    """An h-sweep builds one scale map per h, and both maps refuse an h
    that is not a positive integer: a fractional h is not truncated to the
    next integer and an infinite one does not overflow."""
    for build in (LinearScaleMap, QuadraticStretchMap):
        with pytest.raises(ValueError, match="positive integer"):
            build(h)
