"""Quadrature, grids, the Q1 quadrature, the nine-point layout, the projected CG solver and
its spectral preconditioner."""

import dataclasses
import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from maphom.finescale import DirichletProblem
from maphom.numerics import (
    GAUSS_POINTS,
    GAUSS_WEIGHTS,
    Rectangle,
    SolverError,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    dual_norm,
    inner,
    spectral_preconditioner,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_gauss_weights_sum_to_one():
    """The fixed rule is leggauss(2) mapped to [0, 1], bit for bit."""
    assert GAUSS_WEIGHTS.sum() == pytest.approx(1.0, rel=1e-15)
    assert np.all(GAUSS_POINTS > 0) and np.all(GAUSS_POINTS < 1)
    t = 0.5 * (np.polynomial.legendre.leggauss(2)[0] + 1.0)
    npt.assert_array_equal(GAUSS_POINTS, [(t[0], t[0]), (t[1], t[0]),
                                          (t[0], t[1]), (t[1], t[1])])


def integrate(f, grid):
    """The quadrature of a callable field over the grid."""
    return float(grid.integral(f(grid.points).reshape(grid.n_elements, -1)))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_default_rule_integrates_bicubics_exactly(p, q):
    """Tensor Gauss with 2 points per axis is exact through degree 3."""
    grid = UniformCellGrid(1, periodic=False)
    value = integrate(lambda pts: pts[:, 0] ** p * pts[:, 1] ** q, grid)
    assert value == pytest.approx(1.0 / ((p + 1) * (q + 1)), rel=1e-14)


def test_sine_squared_mean_on_uniform_grid():
    # equispaced composite Gauss picks up no aliasing error for this mode
    grid = UniformCellGrid(64)
    value = integrate(lambda pts: np.sin(2 * np.pi * pts[:, 0]) ** 2, grid)
    assert abs(value - 0.5) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orthogonal_modes_integrate_to_zero(k):
    grid = UniformCellGrid(32)

    def mode(pts):
        return np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * k * pts[:, 1])

    assert abs(integrate(mode, grid)) <= 1e-12


def test_nodal_integration_of_bilinear_field():
    # x*y is bidegree (1,1), so its interpolant is itself and the
    # quadrature of the interpolant is the exact integral 1/4
    grid = UniformCellGrid(8, periodic=False)
    coords = grid.node_coords()
    value = grid.integral(grid.values(coords[:, 0] * coords[:, 1]))
    assert value == pytest.approx(0.25, abs=1e-15)


def test_gradients_of_bilinear_fields_are_exact_at_the_points():
    """On a grid with hx != hy and an offset origin, the interpolant of
    a + b x + c y + d x y is the field itself."""
    grid = UniformCellGrid(6, periodic=False, ny=5,
                           rectangle=Rectangle(0.25, 1.75, -0.5, 0.2))
    a, b, c, d = 0.3, -1.2, 2.5, 0.8
    x, y = grid.node_coords().T
    gradient = grid.gradient(a + b * x + c * y + d * x * y).reshape(-1, 2)
    px, py = grid.points.T
    npt.assert_allclose(gradient, np.column_stack([b + d * py, c + d * px]),
                        rtol=0, atol=1e-13)
    npt.assert_allclose(grid.values(a + b * x + c * y + d * x * y).ravel(),
                        a + b * px + c * py + d * px * py, rtol=0, atol=1e-13)


def test_integrands_of_the_wrong_shape_are_refused():
    """Nodal fields must hold one value per node."""
    grid = UniformCellGrid(4)
    for read in (grid.values, grid.gradient):
        with pytest.raises(ValueError):
            read(np.ones(grid.n_nodes + 1))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_counts_and_spacing():
    periodic = UniformCellGrid(128)
    assert periodic.n_nodes == 128 * 128
    assert periodic.n_elements == 128 * 128
    assert (periodic.hx, periodic.hy) == (0.0078125, 0.0078125)

    rectangular = UniformCellGrid(8, ny=4, rectangle=Rectangle(0.0, 1.0, 0.0, 0.5))
    assert rectangular.n_elements == 32
    assert (rectangular.hx, rectangular.hy) == (0.125, 0.125)

    closed = UniformCellGrid(8, periodic=False)
    assert closed.n_nodes == 81
    assert closed.boundary_mask().sum() == 32

    assert UniformCellGrid(np.int64(4), ny=np.int64(2)).n_elements == 8


def test_grids_compare_by_value():
    """Element counts, periodicity and rectangle make a grid; its cached
    quadrature does not."""
    omega = Rectangle(0.5, 1.5, 0.25, 2.0)
    grid = UniformCellGrid(8, periodic=False, ny=4, rectangle=omega)
    grid.points  # built on the first grid only
    assert grid == UniformCellGrid(8, periodic=False, ny=4,
                                   rectangle=Rectangle(0.5, 1.5, 0.25, 2.0))
    for other in [UniformCellGrid(8, periodic=False, rectangle=omega),
                  UniformCellGrid(8, ny=4, rectangle=omega),
                  UniformCellGrid(8, periodic=False, ny=4),
                  UniformCellGrid(4, periodic=False, ny=8, rectangle=omega)]:
        assert grid != other
    assert UniformCellGrid(4) == UniformCellGrid(4, rectangle=Rectangle(0.0, 1.0, 0.0, 1.0))
    assert UniformCellGrid(4) != "grid"


@pytest.mark.parametrize("rectangle", [Rectangle(1e-300, 1e-299, 1e-300, 1e-299),
                                       Rectangle(1e299, 1e300, 1e299, 1e300),
                                       Rectangle(1e-10, 2e-10, 0.5, 1e300)])
def test_grid_refuses_elements_outside_the_floating_point_range(rectangle):
    """Element areas that underflow to 0 or overflow to inf would make
    every quadrature weight 0 or inf, and an aspect ratio past 1e308
    would overflow the element tables."""
    with pytest.raises(ValueError, match="floating-point range"):
        UniformCellGrid(16, periodic=False, rectangle=rectangle)


@pytest.mark.parametrize("kwargs", [{"n_per_side": 2.5}, {"n_per_side": 2, "ny": 3.7},
                                    {"n_per_side": 4.0}])
def test_grid_refuses_fractional_element_counts(kwargs):
    with pytest.raises(TypeError):
        UniformCellGrid(**kwargs)


def test_periodic_connectivity_wraps():
    grid = UniformCellGrid(4)
    conn = grid.connectivity
    last = conn[-1]  # element at (3, 3)
    assert grid.node_index(0, 0) in last
    assert grid.node_index(3, 3) in last
    assert conn.shape == (16, 4)


def test_rectangle_validation_and_area():
    r = Rectangle(0.5, 1.5, 0.25, 0.75)
    assert r.width == 1.0 and r.height == 0.5
    assert r.area == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# sparse systems
# ---------------------------------------------------------------------------


def _layout_matrix(grid, Ke):
    return grid.matrix(grid.assemble(Ke.reshape(grid.n_elements, 16).T))


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (3, 2), (5, 4)])
def test_periodic_stencil_assembles_like_triplets(rng, coo_stiffness, nx, ny):
    """Summing element matrices into the nine-point layout gives the
    matrix of the summed triplets, also where neighbours coincide."""
    grid = UniformCellGrid(nx, ny=ny)
    Ke = rng.standard_normal((grid.n_elements, 4, 4))
    stencil = _layout_matrix(grid, Ke)
    triplets = coo_stiffness(grid, Ke=Ke)
    x = rng.standard_normal(grid.n_nodes)
    npt.assert_allclose(stencil @ x, triplets @ x, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(stencil.diagonal(), triplets.diagonal(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 2), (5, 4)])
def test_nine_point_layout_keeps_the_interior_of_dirichlet_grids(rng, coo_stiffness,
                                                                  nx, ny):
    """On a clamped grid the layout holds the interior block of the full
    matrix, nine entries per row, boundary neighbours as explicit zeros."""
    grid = UniformCellGrid(nx, periodic=False, ny=ny,
                           rectangle=Rectangle(0.0, 1.0, 0.0, 0.3))
    Ke = rng.standard_normal((grid.n_elements, 4, 4))
    stencil = _layout_matrix(grid, Ke)
    interior = np.flatnonzero(~grid.boundary_mask())
    expect = coo_stiffness(grid, Ke=Ke)[interior][:, interior]
    assert stencil.nnz == 9 * interior.size
    gap = abs(stencil - expect).max()
    assert gap <= 1e-12 * abs(expect).max()
    npt.assert_allclose(stencil.diagonal(), expect.diagonal(), rtol=1e-12)


def _skew_values(grid):
    """(n_elements, nq, 2, 2) coefficient values at the points whose
    off-diagonal entries differ."""
    x, y = grid.points.T
    D = np.empty((x.size, 2, 2))
    D[:, 0, 0] = 2.0 + np.sin(2 * np.pi * x)
    D[:, 0, 1] = 0.3 + 0.2 * np.cos(2 * np.pi * y)
    D[:, 1, 0] = -0.4 + 0.1 * x
    D[:, 1, 1] = 1.5 + 0.5 * y * y
    return D.reshape(grid.n_elements, -1, 2, 2)


GRIDS = [UniformCellGrid(5, ny=4, rectangle=Rectangle(0.25, 1.0, -0.5, 0.3)),
         UniformCellGrid(2, ny=1),
         UniformCellGrid(5, periodic=False, ny=4, rectangle=Rectangle(0.25, 1.0, -0.5, 0.3)),
         UniformCellGrid(2, periodic=False, ny=3)]
GRID_IDS = ["periodic-5x4", "periodic-2x1", "clamped-5x4", "clamped-2x3"]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_stiffness_of_a_non_symmetric_coefficient_matches_triplets(coo_stiffness, grid):
    """Each entry (i, k) of D lands in row a and column b of the element
    matrix: a transposed element matrix or a swapped entry pair moves
    the distinct D01 and D10 to the wrong side."""
    D = _skew_values(grid)
    unknowns = np.flatnonzero(~grid.boundary_mask())
    scale = abs(coo_stiffness(grid, D)).max()
    for entries in [np.ones((2, 2)), np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])]:
        K = grid.matrix(grid.stiffness_data(D, entries))
        reference = coo_stiffness(grid, D * entries)[unknowns][:, unknowns]
        assert abs(K - reference).max() <= 1e-13 * scale


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_a_mask_assembles_like_the_values_it_keeps(grid):
    """For each of the 16 masks, the stiffness of the entries it picks
    equals the stiffness of the values with the others set to zero, to
    1e-15 relative."""
    D = _skew_values(grid)
    for bits in np.ndindex(2, 2, 2, 2):
        mask = np.reshape(bits, (2, 2))
        expect = grid.stiffness_data(D * mask)
        gap = np.abs(grid.stiffness_data(D, mask) - expect).max()
        assert gap <= 1e-15 * np.abs(expect).max(), mask


@pytest.mark.parametrize("grid", GRIDS + [UniformCellGrid(1)], ids=GRID_IDS + ["periodic-1x1"])
def test_load_matches_a_scatter_over_the_connectivity(rng, grid):
    values = rng.standard_normal((grid.n_elements, len(GAUSS_WEIGHTS)))
    table = rng.standard_normal((len(GAUSS_WEIGHTS), 4))
    expect = np.zeros(grid.n_nodes)
    np.add.at(expect, grid.connectivity.ravel(), (values @ table).ravel())
    npt.assert_allclose(grid.load(values, table), expect, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "clamped"])
@pytest.mark.parametrize("nx, ny", [(1, 1), (2, 3), (5, 4)])
def test_values_and_gradients_read_the_corners_of_the_gather(rng, periodic, nx, ny):
    """The corners are read as the nodal array shifted by each corner, a
    periodic grid wrapping its last row and column; the values and
    gradients equal those of the gather over the connectivity bit for bit."""
    grid = UniformCellGrid(nx, periodic, ny=ny)
    nodal = rng.standard_normal(grid.n_nodes)
    corners = nodal[grid.connectivity]
    npt.assert_array_equal(grid.values(nodal), np.einsum("qa,ea->eq", grid.phi, corners))
    npt.assert_array_equal(grid.gradient(nodal), np.einsum("qad,ea->eqd", grid.gradients,
                                                           corners, optimize=True))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_points_are_the_lower_left_nodes_plus_the_gauss_offsets(grid):
    """Bit for bit the nodal coordinates of each element's first corner
    plus the scaled Gauss points."""
    offsets = GAUSS_POINTS * np.array([grid.hx, grid.hy])
    expect = grid.node_coords()[grid.connectivity[:, 0], None, :] + offsets[None, :, :]
    npt.assert_array_equal(grid.points, expect.reshape(-1, 2))


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------


def _periodic_laplacian_1d(n):
    ring = np.arange(n)
    rows = np.repeat(ring, 3)
    cols = np.column_stack([ring, (ring + 1) % n, (ring - 1) % n]).ravel()
    values = np.tile([2.0, -1.0, -1.0], n)
    matrix = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    return SparseSystem(matrix, singular=True)


def jacobi(system):
    """The diagonal (Jacobi) preconditioner of a system."""
    diagonal = system.matrix.diagonal()
    return lambda r: r / diagonal


def test_cg_matches_pseudoinverse_on_singular_ring(rng):
    system = _periodic_laplacian_1d(8)
    b = rng.standard_normal(8)
    b -= b.mean()
    result = cg_solve(system, b, jacobi(system), tol=1e-12)
    dense = system.matrix.toarray()
    x_ref = np.linalg.lstsq(dense, b, rcond=None)[0]
    x_ref -= x_ref.mean()
    npt.assert_allclose(result.x, x_ref, atol=1e-10)
    assert abs(result.x.mean()) <= 1e-14


def test_cg_projects_incompatible_rhs(rng):
    """A constant component in the data is removed, not amplified."""
    system = _periodic_laplacian_1d(16)
    b = rng.standard_normal(16) + 3.0
    result = cg_solve(system, b, jacobi(system), tol=1e-12)
    residual = system.matrix @ result.x - (b - b.mean())
    assert np.abs(residual).max() <= 1e-10


def test_cg_zero_rhs_short_circuits():
    system = _periodic_laplacian_1d(8)
    result = cg_solve(system, np.zeros(8), jacobi(system))
    assert result.iterations == 0
    npt.assert_array_equal(result.x, np.zeros(8))


def test_cg_residual_history_reaches_tolerance(rng):
    system = _periodic_laplacian_1d(32)
    b = rng.standard_normal(32)
    b -= b.mean()
    result = cg_solve(system, b, jacobi(system), tol=1e-10)
    assert result.iterations > 0
    assert 0 <= result.residual <= 1e-10
    assert np.linalg.norm(system.matrix @ result.x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0])
def test_cg_refuses_a_tolerance_outside_zero_one(tol):
    """A bad tolerance is a usage error, not a numerical breakdown."""
    system = _periodic_laplacian_1d(8)
    b = np.arange(8.0) - 3.5
    with pytest.raises(ValueError, match="tolerance"):
        cg_solve(system, b, jacobi(system), tol=tol)


def test_cg_raises_when_starved_of_iterations(rng):
    """A tolerance below rounding runs CG on a positive definite system
    to its cap, 10 * dimension."""
    system = SparseSystem(_periodic_laplacian_1d(64).matrix + sp.identity(64, format="csr"))
    b = rng.standard_normal(64)
    with pytest.raises(SolverError, match="did not converge in 640 iterations") as info:
        cg_solve(system, b, jacobi(system), tol=1e-300)
    assert info.value.iterations == 640
    assert info.value.residual > 0


def test_cg_raises_when_the_preconditioned_residual_is_orthogonal():
    """A stalled iteration ends in SolverError, not a division by zero."""
    system = SparseSystem(sp.diags([1.0, 3.0], format="csr"))
    calls = []

    def rotating(r):
        calls.append(1)
        return r.copy() if len(calls) == 1 else np.array([-r[1], r[0]])

    with pytest.raises(SolverError) as info:
        cg_solve(system, np.array([1.0, 1.0]), rotating, tol=1e-12)
    assert info.value.residual > 1e-12


def test_a_breakdown_names_the_smallest_residual_the_run_reached(rng):
    """Below its rounding floor, CG on the singular ring breaks down after
    the residual has jumped back up (to 7.2e-2 after 68 iterations); the
    message also names the smallest relative residual, reached at
    iteration 32, and the exception keeps the residual at the breakdown."""
    system = _periodic_laplacian_1d(64)
    with pytest.raises(SolverError, match="breakdown") as info:
        cg_solve(system, rng.standard_normal(64), jacobi(system), tol=1e-300)
    found = re.search(r"relative residual (\S+); smallest (\S+) at iteration (\d+)\)",
                      str(info.value))
    residual, smallest, at = float(found[1]), float(found[2]), int(found[3])
    assert residual == pytest.approx(info.value.residual, rel=1e-3)
    assert info.value.residual > 1e-3
    assert smallest <= 1e-14
    assert 0 < at < info.value.iterations


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("where", ["rhs", "preconditioner"])
def test_cg_stops_on_the_first_non_finite_residual(where, singular):
    """A NaN in the data or from the preconditioner ends the solve at
    once instead of after max_iter iterations."""
    system = _periodic_laplacian_1d(16)
    if not singular:
        system = SparseSystem(system.matrix + sp.identity(16, format="csr"))
    b = np.sin(np.arange(16.0))
    precondition = jacobi(system)
    if where == "rhs":
        b[3] = np.nan
    else:
        def precondition(r):
            return np.full_like(r, np.nan)
    with pytest.raises(SolverError, match="residual is not finite") as info:
        cg_solve(system, b, precondition, tol=1e-12)
    assert info.value.iterations <= 1
    # the message names the smallest residual before it: none for a NaN
    # right-hand side, the start's for a NaN direction
    found = re.search(r"relative residual nan; smallest (\S+) at iteration 0\)",
                      str(info.value))
    assert float(found[1]) == (math.inf if where == "rhs" else pytest.approx(1.0))


def test_a_system_is_its_matrix_and_a_flag():
    matrix = _periodic_laplacian_1d(8).matrix
    system = SparseSystem(matrix)
    assert system.matrix is matrix
    assert (system.dimension, system.singular) == (8, False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.singular = True


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 24), seed=st.integers(0, 2 ** 31))
def test_cg_solves_diagonal_systems_immediately(dim, seed):
    """Jacobi preconditioning makes a diagonal system a one-step solve."""
    gen = np.random.default_rng(seed)
    diag = np.exp(gen.uniform(-3, 3, dim))
    system = SparseSystem(sp.diags(diag, format="csr"))
    b = gen.standard_normal(dim)
    result = cg_solve(system, b, jacobi(system), tol=1e-12)
    assert result.iterations <= 2
    npt.assert_allclose(result.x, b / diag, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# the spectral preconditioner
# ---------------------------------------------------------------------------


def _constant_operator(grid, k1, k2, assemble):
    D = np.zeros((grid.n_elements, len(GAUSS_WEIGHTS), 2, 2))
    D[:, :, 0, 0] = k1
    D[:, :, 1, 1] = k2
    return assemble(grid, D)


def test_spectral_preconditioner_inverts_constant_periodic_operators(rng, coo_stiffness):
    """For diag(k1, k2) coefficients the preconditioner is the exact inverse."""
    grid = UniformCellGrid(16, ny=12, rectangle=Rectangle(0.0, 1.0, 0.0, 0.5))
    K = _constant_operator(grid, 3.0, 0.5, coo_stiffness)
    system = SparseSystem(K, singular=True)
    precondition = spectral_preconditioner(grid, 3.0, 0.5, K.diagonal())
    b = rng.standard_normal(grid.n_nodes)
    result = cg_solve(system, b, precondition, tol=1e-12)
    assert result.iterations <= 2
    npt.assert_allclose(K @ result.x, b - b.mean(), atol=1e-10)


def test_spectral_preconditioner_inverts_constant_dirichlet_operators(rng, coo_stiffness):
    grid = UniformCellGrid(12, periodic=False, ny=20,
                           rectangle=Rectangle(0.0, 1.0, 0.0, 0.6))
    interior = np.flatnonzero(~grid.boundary_mask())
    K = _constant_operator(grid, 0.25, 4.0, coo_stiffness)[interior][:, interior]
    precondition = spectral_preconditioner(grid, 0.25, 4.0, K.diagonal())
    b = rng.standard_normal(interior.size)
    result = cg_solve(SparseSystem(K), b, precondition, tol=1e-12)
    assert result.iterations <= 2
    npt.assert_allclose(K @ result.x, b, atol=1e-10)


def _dense_dirichlet_preconditioner(grid, k1, k2, diagonal):
    """s K0^-1 s with K0 = k1 S_x (x) M_y + k2 M_x (x) S_y built densely
    from the 1-D interior stiffness S and mass M, nodes row-major in (j, i);
    s = 1 when ``diagonal`` is None."""

    def tridiagonal(n, centre, side):
        return centre * np.eye(n) + side * (np.eye(n, k=1) + np.eye(n, k=-1))

    mx, my = grid.nx - 1, grid.ny - 1
    S = [tridiagonal(m, 2.0, -1.0) / h for m, h in ((mx, grid.hx), (my, grid.hy))]
    M = [tridiagonal(m, 4.0, 1.0) * h / 6.0 for m, h in ((mx, grid.hx), (my, grid.hy))]
    K0 = k1 * np.kron(M[1], S[0]) + k2 * np.kron(S[1], M[0])
    s = np.ones(mx * my) if diagonal is None else np.sqrt(np.diag(K0) / diagonal)
    return s[:, None] * np.linalg.inv(K0) * s[None, :]


def assert_single_precision(out, expect):
    """A Dirichlet apply runs its sine transforms in float32: it matches
    the float64 definition to 1e-5 normwise (about 2e-7 in practice)."""
    assert out.dtype == np.float64
    assert np.linalg.norm(out - expect) <= 1e-5 * np.linalg.norm(expect)


@pytest.mark.parametrize("nx,ny", [(9, 6), (5, 12), (2, 2), (2, 7), (7, 2), (10, 13)])
def test_dirichlet_preconditioner_matches_its_dense_definition(rng, nx, ny):
    """With the nodal scale and without, also with one interior row or
    column, one interior node, and odd interior lengths."""
    grid = UniformCellGrid(nx, periodic=False, ny=ny,
                           rectangle=Rectangle(0.0, 1.0, 0.0, 0.7))
    for diagonal in (rng.uniform(0.5, 2.0, (nx - 1) * (ny - 1)), None):
        precondition = spectral_preconditioner(grid, 0.3, 2.5, diagonal)
        dense = _dense_dirichlet_preconditioner(grid, 0.3, 2.5, diagonal)
        for r in rng.standard_normal((3, dense.shape[0])):
            assert_single_precision(precondition(r), dense @ r)


def test_an_absent_diagonal_applies_the_plain_inverse(rng, coo_stiffness):
    """``diagonal=None`` is the scale s = 1: the inverse of the constant
    operator itself, on Dirichlet and periodic grids, each apply in an
    array of its own."""
    grid = UniformCellGrid(9, periodic=False, ny=6, rectangle=Rectangle(0.0, 1.0, 0.0, 0.7))
    precondition = spectral_preconditioner(grid, 0.3, 2.5, None)
    r = rng.standard_normal(40)
    expect = _dense_dirichlet_preconditioner(grid, 0.3, 2.5, None) @ r
    out = precondition(r)
    assert_single_precision(out, expect)
    out[:] = np.nan
    assert_single_precision(precondition(r), expect)

    periodic = UniformCellGrid(16, ny=12, rectangle=Rectangle(0.0, 1.0, 0.0, 0.5))
    K = _constant_operator(periodic, 3.0, 0.5, coo_stiffness)
    b = rng.standard_normal(periodic.n_nodes)
    npt.assert_allclose(K @ spectral_preconditioner(periodic, 3.0, 0.5, None)(b),
                        b - b.mean(), atol=1e-10)


@pytest.mark.parametrize("scaled", [True, False], ids=["scaled", "plain"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "clamped"])
def test_an_apply_returns_a_float64_array_of_its_own(rng, periodic, scaled):
    """Whatever precision its transforms run in, an apply hands CG a new
    float64 array and leaves the residual as it was: a float32 direction
    would keep CG's search direction in float32, and a view would change
    under CG's updates. The Dirichlet apply normalizes the residual before
    its float32 cast, so a zero, a subnormal or a huge one passes without
    a RuntimeWarning and scales the result with it."""
    grid = UniformCellGrid(10, periodic=periodic, ny=7, rectangle=Rectangle(0.0, 1.0, 0.0, 0.7))
    n = grid.n_nodes if periodic else (grid.nx - 1) * (grid.ny - 1)
    precondition = spectral_preconditioner(grid, 0.3, 2.5,
                                           rng.uniform(0.5, 2.0, n) if scaled else None)
    r = rng.standard_normal(n)
    expect = precondition(r)
    for t in (1.0, 0.0, 2.0 ** -1030, 2.0 ** 1000):
        v = t * r
        out = precondition(v)
        assert out.dtype == np.float64 and out.shape == (n,)
        assert not np.shares_memory(out, v)
        npt.assert_array_equal(v, t * r)
        assert np.linalg.norm(out - t * expect) <= 1e-6 * t * np.linalg.norm(expect)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "clamped"])
def test_the_plain_preconditioner_is_the_scaled_one_at_the_constant_diagonal(rng, periodic):
    """``diagonal=None`` applies bit for bit like a build whose diagonal is
    that of K0 itself, 4/3 (k1 hy/hx + k2 hx/hy) at every unknown, where
    the nodal scale is exactly 1."""
    grid = UniformCellGrid(10, periodic=periodic, ny=7, rectangle=Rectangle(0.0, 1.0, 0.0, 0.7))
    k1, k2 = 0.3, 2.5
    n = grid.n_nodes if periodic else (grid.nx - 1) * (grid.ny - 1)
    diagonal = np.full(n, 4.0 / 3.0 * (k1 * grid.hy / grid.hx + k2 * grid.hx / grid.hy))
    plain = spectral_preconditioner(grid, k1, k2, None)
    scaled = spectral_preconditioner(grid, k1, k2, diagonal)
    for r in rng.standard_normal((3, n)):
        npt.assert_array_equal(plain(r), scaled(r))


@pytest.mark.parametrize("nx, ny", [(16, 12), (15, 9)])
def test_dual_norm_reads_the_plain_inverse_off_one_transform(rng, nx, ny):
    """r . K0^+ r by Parseval over the half spectrum, for even and odd
    nx, is the dot product of r with the plain preconditioner's apply,
    and the constant mode of r, the kernel of K0, adds nothing. The grid
    keeps the symbol factors it shares with the preconditioner."""
    grid = UniformCellGrid(nx, ny=ny, rectangle=Rectangle(0.0, 1.0, 0.0, 0.5))
    r = rng.standard_normal(grid.n_nodes)
    expect = inner(r, spectral_preconditioner(grid, 3.0, 0.5, None)(r))
    assert dual_norm(grid, 3.0, 0.5, r) == pytest.approx(expect, rel=1e-13)
    assert dual_norm(grid, 3.0, 0.5, r + 7.0) == pytest.approx(expect, rel=1e-13)
    assert grid.spectral_factors is grid.spectral_factors
    assert grid.spectral_symbol(3.0, 0.5).shape == (ny, nx // 2 + 1)
    with pytest.raises(ValueError, match="periodic"):
        dual_norm(UniformCellGrid(8, periodic=False), 1.0, 1.0, np.ones(49))


def test_dirichlet_preconditioner_applies_keep_no_state(rng):
    """Repeated and interleaved applies of preconditioners on two grids
    give what fresh preconditioners give."""
    grids = [UniformCellGrid(9, periodic=False, ny=6,
                             rectangle=Rectangle(0.0, 1.0, 0.0, 0.7)),
             UniformCellGrid(6, periodic=False, ny=9)]
    diagonals = [rng.uniform(0.5, 2.0, 40) for _ in grids]
    vectors = [rng.standard_normal(40) for _ in grids]
    fresh = [spectral_preconditioner(g, 1.5, 0.5, d)(v)
             for g, d, v in zip(grids, diagonals, vectors)]
    shared = [spectral_preconditioner(g, 1.5, 0.5, d) for g, d in zip(grids, diagonals)]
    for _ in range(2):
        for apply, v, expect in zip(shared, vectors, fresh):
            out = apply(v)
            npt.assert_array_equal(out, expect)
            out[:] = np.nan  # a caller may overwrite what it got back
    npt.assert_array_equal(shared[0](np.zeros(40)), np.zeros(40))


def test_a_dirichlet_preconditioner_applies_alike_from_two_threads(rng):
    """48 applies of one 255^2 preconditioner shared by two threads give
    the serial applies' results bit for bit: an apply keeps nothing
    between calls."""
    grid = UniformCellGrid(256, periodic=False)
    n = (grid.nx - 1) * (grid.ny - 1)
    precondition = spectral_preconditioner(grid, 1.5, 0.5, rng.uniform(0.5, 2.0, n))
    vectors = rng.standard_normal((48, n))
    serial = [precondition(v) for v in vectors]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(precondition, vectors))
    for out, expect in zip(threaded, serial):
        npt.assert_array_equal(out, expect)


def test_spectral_preconditioner_checks_its_inputs():
    grid = UniformCellGrid(8, periodic=False)
    with pytest.raises(ValueError):
        spectral_preconditioner(grid, 1.0, 1.0, np.ones(grid.n_nodes))
    with pytest.raises(ValueError):
        spectral_preconditioner(grid, 0.0, 1.0, np.ones(49))
    with pytest.raises(ValueError):
        spectral_preconditioner(grid, 1.0, 1.0, -np.ones(49))
    infinite_diagonal = np.ones(49)
    infinite_diagonal[5] = np.inf
    for k1, k2, diagonal, named in [(np.inf, 1.0, np.ones(49), "k1 = inf"),
                                    (1.0, -np.inf, np.ones(49), "k2 = -inf"),
                                    (1.0, np.nan, np.ones(49), "k2 = nan"),
                                    (1.0, 1.0, infinite_diagonal, "diagonal[5] = inf")]:
        with pytest.raises(SolverError, match="not finite") as info:
            spectral_preconditioner(grid, k1, k2, diagonal)
        assert named in str(info.value)
        assert info.value.iterations == 0 and np.isnan(info.value.residual)


# ---------------------------------------------------------------------------
# the source load
# ---------------------------------------------------------------------------


def test_source_load_rejects_non_finite_values():
    grid = UniformCellGrid(4, periodic=False, rectangle=Rectangle(0.5, 1.5, 0.5, 1.5))
    with pytest.raises(ValueError, match="non-finite"):
        DirichletProblem(grid, lambda pts: np.full(pts.shape[0], np.nan))
