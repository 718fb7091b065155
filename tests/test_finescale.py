"""Dirichlet solves on the physical domain and the error machinery."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from maphom import coefficients

from maphom.finescale import (
    ConvergenceRow,
    DirichletProblem,
    DomainMesh,
    SolutionField,
    convergence_study,
    flux_moment,
    l2_error,
    solve_homogenized,
    solve_oscillatory,
    tensor_evaluator,
    write_convergence_csv,
)
from maphom.homogenize import (
    HomogenizationJob,
    HomogenizedTensor,
    default_x2_samples,
    tensor_field,
)
from maphom.numerics import DEFAULT_RULE, Q1Assembly, Rectangle, interpolate_nodal, q1_tables
from maphom.structure import LinearScaleMap, QuadraticStretchMap

OMEGA = Rectangle(0.5, 1.5, 0.5, 1.5)


def ones(pts):
    return np.ones(pts.shape[0])


def constant_field(matrix):
    m = np.asarray(matrix, dtype=float)
    return HomogenizedTensor(np.array([0.6, 1.4]), np.stack([m, m]), {})


def interpolant(mesh, fn):
    """A SolutionField holding the nodal interpolant of fn (no solve)."""
    values = fn(mesh.grid.node_coords())
    values = np.asarray(values, dtype=float)
    values[mesh.grid.boundary_mask()] = 0.0
    return SolutionField(values=values, mesh=mesh, label="interpolant",
                         warn_underresolved=False, iterations=0, residual=0.0,
                         energy=0.0, source_work=0.0)


# ---------------------------------------------------------------------------
# meshes and fields
# ---------------------------------------------------------------------------


def test_mesh_geometry_and_interior_count():
    mesh = DomainMesh(OMEGA, 8, 4)
    assert mesh.grid.n_nodes == 9 * 5
    assert mesh.n_interior == 7 * 3
    assert mesh.matches(DomainMesh(OMEGA, 8, 4))
    assert not mesh.matches(DomainMesh(OMEGA, 8, 8))


def test_mesh_must_sit_in_the_open_first_quadrant():
    with pytest.raises(ValueError):
        DomainMesh(Rectangle(0.5, 1.5, -0.5, 0.5), 8, 8)
    with pytest.raises(ValueError):
        DomainMesh(OMEGA, 1, 8)


def test_solution_field_extracts_interior_values(identity_coeff):
    mesh = DomainMesh(OMEGA, 16, 16)
    u = solve_homogenized(constant_field(np.eye(2)), ones, mesh)
    assert u.interior_values().shape == (15 * 15,)
    boundary = u.values[mesh.grid.boundary_mask()]
    npt.assert_array_equal(boundary, np.zeros_like(boundary))
    assert u.values.min() >= 0.0
    assert u.iterations > 0


def test_energy_identity_holds_at_solver_accuracy():
    mesh = DomainMesh(OMEGA, 64, 64)
    u = solve_homogenized(constant_field(np.eye(2)), ones, mesh, tol=1e-10)
    assert u.energy == pytest.approx(u.source_work, rel=1e-8)
    assert u.energy > 0


# ---------------------------------------------------------------------------
# the Dirichlet problem built once per mesh
# ---------------------------------------------------------------------------


def skew_field(pts):
    """A smooth non-symmetric coefficient whose symmetric part stays positive."""
    out = np.empty((pts.shape[0], 2, 2))
    out[:, 0, 0] = 1.5 + 0.5 * np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 1])
    out[:, 0, 1] = 0.3 + 0.2 * pts[:, 1]
    out[:, 1, 0] = -0.1 + 0.3 * pts[:, 0]
    out[:, 1, 1] = 0.8 + 0.4 * np.cos(5 * pts[:, 0] * pts[:, 1])
    return out


def _restricted_coo(mesh, coeff_eval, coo_stiffness):
    grid = mesh.grid
    D = coeff_eval(Q1Assembly(grid).points)
    K = coo_stiffness(grid, D.reshape(grid.n_elements, -1, 2, 2))
    interior = np.flatnonzero(mesh.interior_mask)
    return K[interior][:, interior].tocsr()


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3), (7, 4), (16, 24)])
def test_interior_matrix_matches_a_restricted_coo_assembly(coo_stiffness, n1, n2):
    """Element sizes differ (hx != hy) on every mesh, and the coefficient
    is not symmetric."""
    mesh = DomainMesh(Rectangle(0.5, 1.5, 0.25, 2.0), n1, n2)
    K, (k1, k2) = DirichletProblem(mesh, ones).stiffness(skew_field)
    expect = _restricted_coo(mesh, skew_field, coo_stiffness)
    assert K.shape == expect.shape == (mesh.n_interior,) * 2
    assert K.nnz == 9 * mesh.n_interior
    assert abs(K - expect).max() <= 1e-12 * abs(expect).max()
    npt.assert_allclose(K.diagonal(), expect.diagonal(), rtol=1e-12)
    assert abs(K - K.T).max() > 1e-3 * abs(K).max() or mesh.n_interior == 1
    assert 1.0 < k1 < 2.0 and 0.4 < k2 < 1.2


def test_dirichlet_solve_matches_a_direct_solve_of_the_coo_system(coo_stiffness):
    """A full tensor varying in x2, on a mesh with hx != hy."""
    mesh = DomainMesh(Rectangle(0.5, 1.5, 0.25, 2.0), 24, 40)
    field = HomogenizedTensor(np.array([0.25, 1.0, 2.0]), np.array(
        [[[1.0, 0.3], [0.3, 0.5]], [[2.0, -0.4], [-0.4, 1.5]], [[0.7, 0.0], [0.0, 3.0]]]), {})

    def source(pts):
        return pts[:, 0] - pts[:, 1] ** 2

    problem = DirichletProblem(mesh, source)
    u = problem.homogenized(field, tol=1e-12)
    grid = mesh.grid
    phi, _ = q1_tables(DEFAULT_RULE)
    s = source(Q1Assembly(grid).points).reshape(grid.n_elements, -1)
    fe = np.einsum("eq,qa,q->ea", s, phi, DEFAULT_RULE.weights) * grid.hx * grid.hy
    b = np.zeros(grid.n_nodes)
    np.add.at(b, grid.connectivity().ravel(), fe.ravel())
    b = b[mesh.interior_mask]
    npt.assert_allclose(problem.load, b, rtol=1e-14, atol=1e-16)
    K = _restricted_coo(mesh, tensor_evaluator(field), coo_stiffness)
    expect = spsolve(K.tocsc(), b)
    npt.assert_allclose(u.interior_values(), expect, rtol=1e-9,
                        atol=1e-9 * np.abs(expect).max())
    assert u.assemble_s > 0 and u.solve_s > 0


def test_a_study_evaluates_the_source_once(identity_coeff):
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return np.ones(pts.shape[0])

    mesh = DomainMesh(OMEGA, 16, 16)
    sols = []
    convergence_study(identity_coeff, LinearScaleMap, counted, mesh, [1, 2, 4],
                      constant_field(np.eye(2)), on_solve=sols.append)
    assert calls == [mesh.grid.n_elements * len(DEFAULT_RULE.weights)]
    assert len(sols) == 4
    for u in sols:
        record = u.diagnostics()
        assert record["assemble_s"] > 0 and record["solve_s"] > 0


def test_non_finite_coefficients_are_refused():
    problem = DirichletProblem(DomainMesh(OMEGA, 8, 8), ones)
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
    stretched = solve_homogenized(constant_field(np.diag([1.0, 4.0])), ones,
                                  DomainMesh(OMEGA, 64, 64), tol=1e-10)
    squashed = solve_homogenized(constant_field(np.eye(2)), ones,
                                 DomainMesh(Rectangle(0.5, 1.5, 0.25, 0.75),
                                            64, 64), tol=1e-10)
    npt.assert_array_equal(stretched.values, squashed.values)


def test_identity_oscillation_is_no_oscillation(identity_coeff):
    """A(alpha(x)) = I collapses both solve paths onto one system."""
    mesh = DomainMesh(OMEGA, 64, 64)
    plain = solve_homogenized(constant_field(np.eye(2)), ones, mesh, tol=1e-10)
    oscillatory = solve_oscillatory(identity_coeff, LinearScaleMap(4), ones,
                                    mesh, tol=1e-10)
    npt.assert_array_equal(plain.values, oscillatory.values)
    assert not oscillatory.warn_underresolved


@pytest.mark.parametrize("amplitude,ceiling", [(0.9, 20), (0.99, 25)])
def test_dirichlet_iterations_stay_flat_across_resolution(amplitude, ceiling):
    """Measured: 17 at every mesh for amplitude 0.9, 20 to 22 at 0.99."""
    coeff = coefficients.sine_product(amplitude)
    counts = [solve_oscillatory(coeff, QuadraticStretchMap(1), ones,
                                DomainMesh(OMEGA, n, n)).iterations
              for n in (64, 128, 256)]
    print(f"amplitude {amplitude}, 64^2 to 256^2: iterations {counts}")
    assert max(counts) <= ceiling
    assert max(counts) - min(counts) <= 2


def test_resolution_warning_tracks_the_map(sine_coeff):
    mesh = DomainMesh(OMEGA, 64, 64)
    fine = solve_oscillatory(sine_coeff, QuadraticStretchMap(2), ones, mesh)
    coarse = solve_oscillatory(sine_coeff, QuadraticStretchMap(16), ones, mesh)
    assert not fine.warn_underresolved
    assert coarse.warn_underresolved


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------


def test_l2_error_against_an_independent_mass_matrix(rng):
    """||d||_L2^2 = d' M d with M the exact bilinear mass matrix, built
    here from 1D factors as a cross-check on the quadrature path."""
    n = 16
    mesh = DomainMesh(OMEGA, n, n)
    d = rng.standard_normal(mesh.grid.n_nodes)
    u = interpolant(mesh, lambda c: d)
    zero = interpolant(mesh, lambda c: np.zeros(len(c)))
    d_eff = u.values  # boundary entries were zeroed by the helper

    h = 1.0 / n
    main = np.full(n + 1, 4.0)
    main[0] = main[-1] = 2.0
    m1 = sp.diags([np.ones(n), main, np.ones(n)], [-1, 0, 1]) * (h / 6.0)
    mass = sp.kron(m1, m1).tocsr()
    expected = np.sqrt(d_eff @ (mass @ d_eff))
    assert l2_error(u, zero) == pytest.approx(expected, rel=1e-12)


def test_l2_error_of_a_smooth_interpolant_tends_to_the_continuum():
    mesh = DomainMesh(OMEGA, 128, 128)
    u = interpolant(mesh, lambda c: np.sin(np.pi * (c[:, 0] - 0.5))
                    * np.sin(np.pi * (c[:, 1] - 0.5)))
    zero = interpolant(mesh, lambda c: np.zeros(len(c)))
    assert l2_error(u, zero) == pytest.approx(0.5, abs=1e-4)


def test_l2_error_requires_matching_meshes():
    u = interpolant(DomainMesh(OMEGA, 8, 8), lambda c: c[:, 0])
    v = interpolant(DomainMesh(OMEGA, 16, 16), lambda c: c[:, 0])
    with pytest.raises(ValueError):
        l2_error(u, v)


def test_flux_moment_obeys_the_divergence_identity():
    """int (grad u).phi = -int u div phi for a compactly supported phi."""
    mesh = DomainMesh(OMEGA, 128, 128)
    u = interpolant(mesh, lambda c: np.sin(np.pi * (c[:, 0] - 0.5))
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
    grid = mesh.grid
    pts = Q1Assembly(grid).points
    u_q = interpolate_nodal(grid, u.values, pts)
    w = np.tile(DEFAULT_RULE.weights, grid.n_elements)
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
    mesh = DomainMesh(OMEGA, 32, 32)
    job = HomogenizationJob(coefficient=identity_coeff, omega=OMEGA,
                            x2_samples=default_x2_samples(OMEGA, 4),
                            cell_resolution=16)
    tensor = tensor_field(job)
    rows = convergence_study(identity_coeff, QuadraticStretchMap, ones, mesh,
                             [1, 2], tensor)
    assert [row.h for row in rows] == [1, 2]
    for row in rows:
        assert row.l2_error <= 1e-12
        assert row.energy > 0


def test_study_flux_gap_narrows_with_scale(sine_coeff):
    """Weighted fluxes of the fine solves approach the effective flux."""
    samples = default_x2_samples(OMEGA, 16)
    job = HomogenizationJob(coefficient=sine_coeff, omega=OMEGA,
                            x2_samples=samples, cell_resolution=64)
    tensor = tensor_field(job)
    mesh = DomainMesh(OMEGA, 256, 256)
    reference = solve_homogenized(tensor, ones, mesh, tol=1e-8)
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

        u_h = solve_oscillatory(sine_coeff, scale_map, ones, mesh, tol=1e-8)
        gaps[h] = [abs(flux_moment(composed, u_h, make_phi(c)) - t)
                   for c, t in zip(weights, targets)]
    assert max(gaps[2]) <= 1e-3
    assert max(gaps[8]) <= 1e-4
    for g2, g8 in zip(gaps[2], gaps[8]):
        assert g8 < g2


def test_study_rejects_unsorted_scales(identity_coeff):
    mesh = DomainMesh(OMEGA, 16, 16)
    tensor = constant_field(np.eye(2))
    with pytest.raises(ValueError):
        convergence_study(identity_coeff, LinearScaleMap, ones, mesh, [4, 2],
                          tensor)


def test_study_callback_sees_each_row(laminate_coeff):
    mesh = DomainMesh(OMEGA, 32, 32)
    job = HomogenizationJob(coefficient=laminate_coeff, omega=OMEGA,
                            x2_samples=default_x2_samples(OMEGA, 4),
                            cell_resolution=16, classical=True)
    tensor = tensor_field(job)
    seen = []
    rows = convergence_study(laminate_coeff, LinearScaleMap, ones, mesh,
                             [1, 2], tensor, on_row=seen.append)
    assert seen == rows


def test_convergence_csv_layout():
    import io

    rows = [ConvergenceRow(h=1, l2_error=0.25, energy=1.5,
                           warn_underresolved=False),
            ConvergenceRow(h=2, l2_error=0.125, energy=1.25,
                           warn_underresolved=True)]
    buf = io.StringIO()
    write_convergence_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "h,l2_error,energy,warn_underresolved"
    assert lines[1] == "1,0.25,1.5,0"
    assert lines[2] == "2,0.125,1.25,1"
