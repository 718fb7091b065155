"""Coefficient structure checks, the coefficient contract and the
periodic corrector solves."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from maphom import coefficients, numerics
from maphom.cell import (
    CellProblem,
    CorrectorField,
    solve_corrector,
    solve_rescaled_corrector,
    write_corrector_csv,
)
from maphom.coefficients import PeriodicCoefficient
from maphom.finescale import (
    DirichletProblem,
    DomainMesh,
    SolutionField,
    flux_moment,
    l2_error,
)
from maphom.homogenize import homogenized_matrix_at, rescaled_matrix
from maphom.numerics import (
    DEFAULT_RULE,
    Rectangle,
    Q1Assembly,
    UniformCellGrid,
    q1_tables,
)


def skew_values(pts):
    """A non-symmetric coefficient whose symmetric part stays positive."""
    s1 = np.sin(2 * np.pi * pts[:, 0])
    s2 = np.sin(2 * np.pi * pts[:, 1])
    out = np.empty((pts.shape[0], 2, 2))
    out[:, 0, 0] = 1.5 + 0.5 * s1 * s2
    out[:, 0, 1] = 0.3 + 0.2 * s1
    out[:, 1, 0] = -0.1 + 0.3 * s2
    out[:, 1, 1] = 1.2 + 0.4 * np.cos(2 * np.pi * pts[:, 0])
    return out


def skew_coefficient() -> PeriodicCoefficient:
    return PeriodicCoefficient(skew_values, bound=3.0, coercivity=0.2,
                               symmetric=False, description="skew")


# ---------------------------------------------------------------------------
# coefficient structure
# ---------------------------------------------------------------------------


def test_builtin_coefficients_pass_their_own_audit(sine_coeff, laminate_coeff,
                                                   identity_coeff):
    for coeff in (sine_coeff, laminate_coeff, identity_coeff):
        coeff.check_structure()


def test_audit_catches_an_understated_bound(sine_coeff):
    lying = PeriodicCoefficient(sine_coeff.evaluate, bound=1.5, coercivity=0.1)
    with pytest.raises(ValueError):
        lying.check_structure()


def test_audit_catches_aperiodic_fields():
    drifting = PeriodicCoefficient(
        lambda pts: np.eye(2)[None] * (1.0 + pts[:, 0])[:, None, None],
        bound=5.0, coercivity=0.5)
    with pytest.raises(ValueError):
        drifting.check_structure()


def test_audit_catches_asymmetry():
    def skew(pts):
        out = np.tile(np.array([[1.0, 0.3], [0.0, 1.0]]), (pts.shape[0], 1, 1))
        return out

    with pytest.raises(ValueError):
        PeriodicCoefficient(skew, bound=2.0, coercivity=0.5).check_structure()


def test_constant_coefficient_bounds_are_its_eigenvalues():
    coeff = coefficients.constant([[2.0, 0.5], [0.5, 1.0]])
    assert coeff.bound == pytest.approx((3 + math.sqrt(2)) / 2, rel=1e-12)
    assert coeff.coercivity == pytest.approx((3 - math.sqrt(2)) / 2, rel=1e-12)
    with pytest.raises(ValueError):
        coefficients.constant([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError):
        coefficients.constant([[1.0, 0.5], [0.0, 1.0]])  # not symmetric


def test_sine_product_range(sine_coeff):
    grid = np.linspace(0, 1, 41)
    pts = np.column_stack([np.repeat(grid, 41), np.tile(grid, 41)])
    vals = sine_coeff.evaluate(pts)
    diag = vals[:, 0, 0]
    assert diag.min() >= 0.1 - 1e-12
    assert diag.max() <= 1.9 + 1e-12
    npt.assert_allclose(vals[:, 0, 1], 0.0)
    npt.assert_allclose(vals[:, 0, 0], vals[:, 1, 1])


# ---------------------------------------------------------------------------
# the coefficient contract: any callable from (m, 2) points to (m, 2, 2)
# finite values
# ---------------------------------------------------------------------------


def test_a_bare_callable_assembles_like_its_periodic_wrapper():
    wrapped = skew_coefficient()
    bare_system, bare_loads = CellProblem(skew_values, 16).system(ZETA)
    wrapped_system, wrapped_loads = CellProblem(wrapped, 16).system(ZETA)
    npt.assert_array_equal(bare_system.matrix.data, wrapped_system.matrix.data)
    npt.assert_array_equal(bare_system.matrix.indices, wrapped_system.matrix.indices)
    for f, g in zip(bare_loads, wrapped_loads):
        npt.assert_array_equal(f, g)
    problem = DirichletProblem(DomainMesh(Rectangle(0.5, 1.5, 0.25, 2.0), 7, 4),
                               lambda pts: np.ones(pts.shape[0]))
    (K_bare, means_bare), (K_wrapped, means_wrapped) = (
        problem.stiffness(skew_values), problem.stiffness(wrapped))
    npt.assert_array_equal(K_bare.data, K_wrapped.data)
    npt.assert_array_equal(K_bare.indices, K_wrapped.indices)
    assert means_bare == means_wrapped


def _non_finite(pts):
    out = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
    out[pts.shape[0] // 2, 0, 0] = np.nan
    return out


def _flat(pts):
    """Four values per point, which reshape to (m, 2, 2) but are not."""
    return np.tile([1.0, 0.0, 0.0, 1.0], (pts.shape[0], 1))


@pytest.fixture(scope="module")
def coefficient_uses(sine_coeff):
    """Every entry point that evaluates a coefficient, as a callable of
    the coefficient."""
    corrector = solve_corrector(sine_coeff, (1.0, 1.0), 8)
    cell = solve_rescaled_corrector(sine_coeff, (0.0, 1.0), resolution=(8, 4))
    mesh = DomainMesh(Rectangle(0.5, 1.5, 0.5, 1.5), 8, 8)
    problem = DirichletProblem(mesh, lambda pts: np.ones(pts.shape[0]))
    u = SolutionField(values=np.ones(mesh.grid.n_nodes), mesh=mesh, label="",
                      warn_underresolved=False, iterations=0, residual=0.0,
                      energy=0.0, source_work=0.0)
    return {
        "CellProblem": lambda c: CellProblem(c, 8),
        "DirichletProblem.stiffness": problem.stiffness,
        "homogenized_matrix_at": lambda c: homogenized_matrix_at(c, (1.0, 1.0), corrector),
        "rescaled_matrix": lambda c: rescaled_matrix(
            dataclasses.replace(cell, coefficient_eval=c)),
        "flux_moment": lambda c: flux_moment(c, u, lambda pts: np.ones((pts.shape[0], 2))),
    }


@pytest.mark.parametrize("use", ["CellProblem", "DirichletProblem.stiffness",
                                 "homogenized_matrix_at", "rescaled_matrix",
                                 "flux_moment"])
@pytest.mark.parametrize("bad", [_non_finite, _flat], ids=["non-finite", "m-by-4"])
def test_bad_coefficient_values_raise(coefficient_uses, use, bad):
    with pytest.raises(ValueError):
        coefficient_uses[use](bad)


def test_oracles_and_error_norms_build_no_matrix_layout(coefficient_uses, sine_coeff,
                                                       monkeypatch):
    """The quadratures that assemble no matrix never pay for the
    nine-point layout of their grid's assembly."""
    mesh = DomainMesh(Rectangle(0.5, 1.5, 0.5, 1.5), 8, 8)
    u = SolutionField(values=np.ones(mesh.grid.n_nodes), mesh=mesh, label="",
                      warn_underresolved=False, iterations=0, residual=0.0,
                      energy=0.0, source_work=0.0)

    def refuse(grid):
        raise AssertionError("the nine-point layout was built")

    monkeypatch.setattr(numerics, "nine_point_layout", refuse)
    for use in ("homogenized_matrix_at", "rescaled_matrix", "flux_moment"):
        assert np.all(np.isfinite(coefficient_uses[use](sine_coeff)))
    assert l2_error(u, u) == 0.0


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembled_system_shape_and_symmetry(sine_coeff):
    grid = UniformCellGrid(16)
    system, loads = CellProblem(sine_coeff, grid).system((1.0, 2.0))
    K = system.matrix
    assert K.shape == (256, 256)
    assert len(loads) == 2
    assert abs(K - K.T).max() <= 1e-13
    # constants span the kernel
    assert np.abs(K @ np.ones(256)).max() <= 1e-12
    for f in loads:
        assert abs(f.sum()) <= 1e-12


def test_assembly_requires_a_periodic_grid(sine_coeff):
    with pytest.raises(ValueError):
        CellProblem(sine_coeff, UniformCellGrid(8, periodic=False))
    with pytest.raises(ValueError):
        CellProblem(sine_coeff, UniformCellGrid(8)).system((1.0, -2.0))


def test_gradient_load_agrees_with_divergence_form(sine_coeff):
    """The same functional assembled from g and from div g must agree.

    For a = 1 + (9/10) sin(2 pi y1) sin(2 pi y2) the first-direction load
    density has the explicit divergence
    d/dy1 a = (9/5) pi cos(2 pi y1) sin(2 pi y2).
    """
    grid = UniformCellGrid(64)
    _, loads = CellProblem(sine_coeff, grid).system((1.0, 1.0))
    assembly = Q1Assembly(grid)
    pts = assembly.points
    div_g = (1.8 * np.pi * np.cos(2 * np.pi * pts[:, 0])
             * np.sin(2 * np.pi * pts[:, 1]))
    from_source = assembly.load(div_g.reshape(grid.n_elements, -1),
                                assembly.weights[:, None] * assembly.phi)
    assert np.abs(loads[0] - from_source).max() <= 1e-8


# ---------------------------------------------------------------------------
# the cell problem assembled once for every scaling
# ---------------------------------------------------------------------------

ZETA = (0.7, 2.6)


def _direct_system(coeff, zeta, grid, coo_stiffness):
    """Stiffness of diag(zeta) A diag(zeta) and the loads
    -int zeta_i a_ij d_i phi, assembled at ``zeta`` without the pieces."""
    A = coeff.evaluate(Q1Assembly(grid).points).reshape(grid.n_elements, -1, 2, 2)
    z = np.array(zeta)
    K = coo_stiffness(grid, A * z[:, None] * z[None, :])
    G = q1_tables(DEFAULT_RULE)[1] / np.array([grid.hx, grid.hy])
    w = DEFAULT_RULE.weights * grid.hx * grid.hy
    loads = []
    for j in range(2):
        fe = -np.einsum("eqi,i,qai,q->ea", A[:, :, :, j], z, G, w)
        f = np.zeros(grid.n_nodes)
        np.add.at(f, grid.connectivity().ravel(), fe.ravel())
        loads.append(f)
    return K, loads


@pytest.mark.parametrize("name", ["sine", "skew"])
def test_affine_system_matches_a_direct_assembly(sine_coeff, coo_stiffness, name):
    coeff = sine_coeff if name == "sine" else skew_coefficient()
    grid = UniformCellGrid(32)
    system, loads = CellProblem(coeff, grid).system(ZETA)
    K, direct_loads = _direct_system(coeff, ZETA, grid, coo_stiffness)
    gap = abs(system.matrix - K).max()
    assert gap <= 1e-12 * abs(K).max()
    for f, g in zip(loads, direct_loads):
        assert np.abs(f - g).max() <= 1e-12 * np.abs(g).max()


def test_zero_pieces_keep_the_pattern(sine_coeff):
    """K12 + K21 vanishes for a diagonal coefficient; the pattern stays
    the full nine-point one at every scaling."""
    problem = CellProblem(sine_coeff, 16)
    a, b = problem.system((1.0, 1.0))[0].matrix, problem.system(ZETA)[0].matrix
    assert a.nnz == b.nnz == 9 * 256
    npt.assert_array_equal(a.indices, b.indices)
    npt.assert_array_equal(a.indptr, b.indptr)


@pytest.mark.parametrize("name", ["sine", "skew"])
def test_dot_product_matrix_matches_the_quadrature(sine_coeff, rng, name):
    """b_ij = <a_ij> + sum_k zeta_k M_ik . z_j is the quadrature of the
    corrected flux for any nodal pair, solved or not."""
    coeff = sine_coeff if name == "sine" else skew_coefficient()
    problem = CellProblem(coeff, 32)
    fields = [CorrectorField(z1=rng.standard_normal(1024),
                             z2=rng.standard_normal(1024), zeta=ZETA,
                             grid=problem.grid, iterations=(0, 0),
                             residual=(0.0, 0.0))]
    if name == "sine":
        fields.append(problem.solve(ZETA))
    for field in fields:
        quadrature = homogenized_matrix_at(coeff, ZETA, field)
        dot = problem.effective_matrix(field)
        assert np.abs(dot - quadrature).max() <= 1e-12 * np.abs(quadrature).max()


def test_effective_matrix_needs_the_problem_grid(sine_coeff):
    field = solve_corrector(sine_coeff, ZETA, 16)
    with pytest.raises(ValueError):
        CellProblem(sine_coeff, 16).effective_matrix(field)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_identity_coefficient_needs_no_correction(identity_coeff):
    field = solve_corrector(identity_coeff, (1.0, 1.0), 16)
    npt.assert_array_equal(field.z1, np.zeros(256))
    npt.assert_array_equal(field.z2, np.zeros(256))
    assert field.iterations == (0, 0)


def test_constant_coefficient_needs_no_correction():
    coeff = coefficients.constant([[2.0, 0.5], [0.5, 1.0]])
    field = solve_corrector(coeff, (1.0, 1.5), 16)
    assert field.sup_norm() <= 1e-12


def test_corrector_components_are_zero_mean(sine_coeff):
    field = solve_corrector(sine_coeff, (1.0, 1.4), 32)
    assert abs(field.mean(1)) <= 1e-14
    assert abs(field.mean(2)) <= 1e-14
    assert 0.01 < field.sup_norm() < 1.0
    with pytest.raises(ValueError):
        field.component(3)


def test_residual_orthogonality_against_random_test_vectors(sine_coeff, rng):
    """Twenty random directions see no component of the defect."""
    grid = UniformCellGrid(32)
    system, loads = CellProblem(sine_coeff, grid).system((1.0, 1.0))
    field = solve_corrector(sine_coeff, (1.0, 1.0), grid, tol=1e-10)
    for j, z in ((0, field.z1), (1, field.z2)):
        defect = system.matrix @ z - loads[j]
        for _ in range(20):
            v = rng.standard_normal(grid.n_nodes)
            assert abs(v @ defect) <= 1e-8 * np.linalg.norm(v)


def test_swap_symmetric_coefficient_gives_swapped_correctors(sine_coeff):
    """a(y1, y2) = a(y2, y1) forces z2 to be z1 with the axes exchanged."""
    n = 32
    field = solve_corrector(sine_coeff, (1.0, 1.0), n, tol=1e-12)
    z1 = field.z1.reshape(n, n)
    z2 = field.z2.reshape(n, n)
    assert np.abs(z1 - z2.T).max() <= 1e-9


def test_laminate_corrector_is_one_dimensional(laminate_coeff):
    n = 64
    field = solve_corrector(laminate_coeff, (1.0, 1.0), n, tol=1e-12)
    assert np.abs(field.z2).max() <= 1e-13
    z1 = field.z1.reshape(n, n)
    assert np.abs(z1 - z1[0]).max() <= 1e-13


def test_laminate_profile_matches_the_quadrature_oracle(laminate_coeff):
    """z1' = c/a - 1 with c the harmonic mean sqrt(3), integrated per node."""
    n = 64
    field = solve_corrector(laminate_coeff, (1.0, 1.0), n, tol=1e-12)
    z1 = field.z1.reshape(n, n)[0]
    c = math.sqrt(3)
    profile = np.array([
        quad(lambda t: c / (2.0 + math.sin(2 * np.pi * t)) - 1.0, 0.0, y,
             limit=200)[0]
        for y in np.arange(n) / n
    ])
    profile -= profile.mean()
    assert np.abs(z1 - profile).max() <= 1e-4


def test_warm_start_from_the_solution_converges_instantly(sine_coeff):
    field = solve_corrector(sine_coeff, (1.0, 1.2), 32)
    again = solve_corrector(sine_coeff, (1.0, 1.2), 32,
                            x0_pair=(field.z1, field.z2))
    assert again.iterations == (0, 0)
    npt.assert_allclose(again.z1, field.z1, atol=1e-12)


def test_integer_shorthand_builds_the_grid(sine_coeff):
    field = solve_corrector(sine_coeff, (1.0, 1.0), 16)
    assert field.grid.n_per_side == 16
    assert field.grid.periodic


# ---------------------------------------------------------------------------
# the rescaled-rectangle route
# ---------------------------------------------------------------------------


def test_rescaled_cell_geometry_defaults(sine_coeff):
    cell = solve_rescaled_corrector(sine_coeff, (0.7, 1.0), tol=1e-8)
    assert cell.zeta2 == 2.0
    assert cell.lengths == (1.0, 0.5)
    assert cell.grid.n_elements == 128 * 64


def test_rescaled_cell_rejects_skewed_resolutions(sine_coeff):
    with pytest.raises(ValueError):
        solve_rescaled_corrector(sine_coeff, (0.0, 1.0), resolution=(128, 8))
    with pytest.raises(ValueError):
        solve_rescaled_corrector(sine_coeff, (0.0, -1.0))


def test_rescaled_route_reduces_to_the_unit_cell_at_the_isotropy_line(sine_coeff):
    """At x2 = 0.5 the rectangle is the unit cell and both routes coincide."""
    cell = solve_rescaled_corrector(sine_coeff, (0.3, 0.5), tol=1e-10)
    field = solve_corrector(sine_coeff, (1.0, 1.0), 128, tol=1e-10)
    assert np.abs(cell.z1 - field.z1).max() <= 1e-13
    assert np.abs(cell.z2 - field.z2).max() <= 1e-13


def test_pullback_matches_the_scaled_corrector(sine_coeff):
    cell = solve_rescaled_corrector(sine_coeff, (0.0, 1.0), tol=1e-10)
    unit = UniformCellGrid(128)
    z1_hat, z2_hat = cell.sample_on_unit_grid(unit)
    field = solve_corrector(sine_coeff, (1.0, 2.0), unit, tol=1e-10)
    assert np.abs(z1_hat - field.z1).max() <= 1e-3
    assert np.abs(z2_hat - field.z2).max() <= 1e-3


def test_corrector_csv_layout(sine_coeff):
    import io

    field = solve_corrector(sine_coeff, (1.0, 1.0), 8)
    buf = io.StringIO()
    write_corrector_csv(field, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "y1,y2,z1,z2"
    assert len(lines) == 1 + 64
    first = lines[1].split(",")
    assert len(first) == 4
    assert float(first[0]) == 0.0


# ---------------------------------------------------------------------------
# iteration counts of the spectrally preconditioned solves
# ---------------------------------------------------------------------------

# measured: 10 at amplitude 0.9, 15 at amplitude 0.99 with zeta2 = 4
CELL_ITERATION_CEILING = 16


def test_cell_iterations_stay_flat_across_resolution(sine_coeff):
    counts = [solve_corrector(sine_coeff, (1.0, 3.0), n).iterations
              for n in (64, 128, 256)]
    print(f"iterations at zeta = (1, 3), 64^2 to 256^2: {counts}")
    worst = [max(c) for c in counts]
    assert max(worst) <= CELL_ITERATION_CEILING
    assert max(worst) - min(worst) <= 2


@pytest.mark.parametrize("zeta2", [1.0, 4.0])
def test_cell_iterations_stay_low_at_contrast_199(zeta2):
    coeff = coefficients.sine_product(0.99)
    field = solve_corrector(coeff, (1.0, zeta2), 256)
    print(f"contrast 199, zeta2 = {zeta2}: iterations {field.iterations}")
    assert max(field.iterations) <= CELL_ITERATION_CEILING
    assert max(field.residual) <= 1e-10


def test_rescaled_rectangle_iterations_stay_low_at_contrast_199():
    """x2 = 2 gives a 128 x 32 rectangle of height 1/4 (zeta2 = 4)."""
    cell = solve_rescaled_corrector(coefficients.sine_product(0.99), (1.0, 2.0))
    assert cell.grid.ny == 32
    assert max(cell.iterations) <= CELL_ITERATION_CEILING
    assert max(cell.residual) <= 1e-10
