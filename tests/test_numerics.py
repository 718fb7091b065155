"""Quadrature, grids, the Q1 quadrature, the nine-point layout, the projected CG solver and
its spectral preconditioner."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from maphom.finescale import DirichletProblem, DomainMesh
from maphom.numerics import (
    DEFAULT_RULE,
    Q1Assembly,
    QuadratureRule,
    Rectangle,
    SolverError,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    interpolate_nodal,
    nine_point_layout,
    spectral_preconditioner,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("npts", [1, 2, 3, 4])
def test_gauss_weights_sum_to_one(npts):
    rule = QuadratureRule.gauss(npts)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-15)
    assert rule.order == 2 * npts - 1
    assert np.all(rule.points >= 0) and np.all(rule.points <= 1)


def integrate(f, grid):
    """The quadrature of a callable field over the grid."""
    assembly = Q1Assembly(grid)
    return float(assembly.integral(f(assembly.points).reshape(grid.n_elements, -1)))


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
    assembly = Q1Assembly(grid)
    value = assembly.integral(assembly.values(coords[:, 0] * coords[:, 1]))
    assert value == pytest.approx(0.25, abs=1e-15)


def test_gradients_of_bilinear_fields_are_exact_at_the_points():
    """On a grid with hx != hy and an offset origin, the interpolant of
    a + b x + c y + d x y is the field itself."""
    grid = UniformCellGrid(6, periodic=False, ny=5, lengths=(1.5, 0.7),
                           origin=(0.25, -0.5))
    a, b, c, d = 0.3, -1.2, 2.5, 0.8
    x, y = grid.node_coords().T
    assembly = Q1Assembly(grid)
    gradient = assembly.gradient(a + b * x + c * y + d * x * y).reshape(-1, 2)
    px, py = assembly.points.T
    npt.assert_allclose(gradient, np.column_stack([b + d * py, c + d * px]),
                        rtol=0, atol=1e-13)
    npt.assert_allclose(assembly.values(a + b * x + c * y + d * x * y).ravel(),
                        a + b * px + c * py + d * px * py, rtol=0, atol=1e-13)


def test_integrands_of_the_wrong_shape_are_refused():
    """Nodal fields must hold one value per node."""
    grid = UniformCellGrid(4)
    assembly = Q1Assembly(grid)
    for read in (assembly.values, assembly.gradient):
        with pytest.raises(ValueError):
            read(np.ones(grid.n_nodes + 1))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_counts_and_spacing():
    periodic = UniformCellGrid(128)
    assert periodic.n_nodes == 128 * 128
    assert periodic.n_elements == 128 * 128
    assert periodic.spacing == (0.0078125, 0.0078125)

    closed = UniformCellGrid(8, periodic=False)
    assert closed.n_nodes == 81
    assert closed.boundary_mask().sum() == 32


def test_periodic_connectivity_wraps():
    grid = UniformCellGrid(4)
    conn = grid.connectivity()
    last = conn[-1]  # element at (3, 3)
    assert grid.node_index(0, 0) in last
    assert grid.node_index(3, 3) in last
    assert conn.shape == (16, 4)


def test_rectangular_grid_refuses_square_shorthand():
    grid = UniformCellGrid(8, ny=4, lengths=(1.0, 0.5))
    assert grid.n_elements == 32
    with pytest.raises(ValueError):
        grid.n_per_side


def test_rectangle_validation_and_area():
    r = Rectangle(0.5, 1.5, 0.25, 0.75)
    assert r.width == 1.0 and r.height == 0.5
    assert r.area == pytest.approx(0.5)
    assert r.contains(1.0, 0.5)
    assert not r.contains(2.0, 0.5)
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# sparse systems
# ---------------------------------------------------------------------------


def _layout_matrix(grid, Ke):
    columns, slots = nine_point_layout(grid)
    n = columns.size // 9
    data = np.bincount(slots, weights=Ke.ravel(), minlength=columns.size + 1)[:-1]
    return sp.csr_matrix((data, columns, np.arange(0, columns.size + 1, 9)), shape=(n, n))


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
    grid = UniformCellGrid(nx, periodic=False, ny=ny, lengths=(1.0, 0.3))
    Ke = rng.standard_normal((grid.n_elements, 4, 4))
    stencil = _layout_matrix(grid, Ke)
    interior = np.flatnonzero(~grid.boundary_mask())
    expect = coo_stiffness(grid, Ke=Ke)[interior][:, interior]
    assert stencil.nnz == 9 * interior.size
    gap = abs(stencil - expect).max()
    assert gap <= 1e-12 * abs(expect).max()
    npt.assert_allclose(stencil.diagonal(), expect.diagonal(), rtol=1e-12)


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


def test_cg_raises_when_starved_of_iterations(rng):
    system = _periodic_laplacian_1d(64)
    b = rng.standard_normal(64)
    b -= b.mean()
    with pytest.raises(SolverError) as info:
        cg_solve(system, b, jacobi(system), tol=1e-14, max_iter=2)
    assert info.value.iterations == 2
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
    D = np.zeros((grid.n_elements, len(DEFAULT_RULE.weights), 2, 2))
    D[:, :, 0, 0] = k1
    D[:, :, 1, 1] = k2
    return assemble(grid, D)


def test_spectral_preconditioner_inverts_constant_periodic_operators(rng, coo_stiffness):
    """For diag(k1, k2) coefficients the preconditioner is the exact inverse."""
    grid = UniformCellGrid(16, ny=12, lengths=(1.0, 0.5))
    K = _constant_operator(grid, 3.0, 0.5, coo_stiffness)
    system = SparseSystem(K, singular=True)
    precondition = spectral_preconditioner(grid, 3.0, 0.5, K.diagonal())
    b = rng.standard_normal(grid.n_nodes)
    result = cg_solve(system, b, precondition, tol=1e-12)
    assert result.iterations <= 2
    npt.assert_allclose(K @ result.x, b - b.mean(), atol=1e-10)


def test_spectral_preconditioner_inverts_constant_dirichlet_operators(rng, coo_stiffness):
    grid = UniformCellGrid(12, periodic=False, ny=20, lengths=(1.0, 0.6))
    interior = np.flatnonzero(~grid.boundary_mask())
    K = _constant_operator(grid, 0.25, 4.0, coo_stiffness)[interior][:, interior]
    precondition = spectral_preconditioner(grid, 0.25, 4.0, K.diagonal())
    b = rng.standard_normal(interior.size)
    result = cg_solve(SparseSystem(K), b, precondition, tol=1e-12)
    assert result.iterations <= 2
    npt.assert_allclose(K @ result.x, b, atol=1e-10)


def _dense_dirichlet_preconditioner(grid, k1, k2, diagonal):
    """s K0^-1 s with K0 = k1 S_x (x) M_y + k2 M_x (x) S_y built densely
    from the 1-D interior stiffness S and mass M, nodes row-major in (j, i)."""

    def tridiagonal(n, centre, side):
        return centre * np.eye(n) + side * (np.eye(n, k=1) + np.eye(n, k=-1))

    mx, my = grid.nx - 1, grid.ny - 1
    S = [tridiagonal(m, 2.0, -1.0) / h for m, h in ((mx, grid.hx), (my, grid.hy))]
    M = [tridiagonal(m, 4.0, 1.0) * h / 6.0 for m, h in ((mx, grid.hx), (my, grid.hy))]
    K0 = k1 * np.kron(M[1], S[0]) + k2 * np.kron(S[1], M[0])
    s = np.sqrt(np.diag(K0) / diagonal)
    return s[:, None] * np.linalg.inv(K0) * s[None, :]


@pytest.mark.parametrize("nx,ny", [(9, 6), (5, 12)])
def test_dirichlet_preconditioner_matches_its_dense_definition(rng, nx, ny):
    grid = UniformCellGrid(nx, periodic=False, ny=ny, lengths=(1.0, 0.7))
    diagonal = rng.uniform(0.5, 2.0, (nx - 1) * (ny - 1))
    precondition = spectral_preconditioner(grid, 0.3, 2.5, diagonal)
    dense = _dense_dirichlet_preconditioner(grid, 0.3, 2.5, diagonal)
    for r in rng.standard_normal((3, diagonal.size)):
        npt.assert_allclose(precondition(r), dense @ r, rtol=1e-12,
                            atol=1e-12 * np.abs(dense @ r).max())


def test_dirichlet_preconditioner_buffers_keep_no_state(rng):
    """Repeated and interleaved applies of preconditioners on two grids
    give what fresh preconditioners give."""
    grids = [UniformCellGrid(9, periodic=False, ny=6, lengths=(1.0, 0.7)),
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
# interpolation and the source load
# ---------------------------------------------------------------------------


def test_interpolation_reproduces_bilinear_fields(rng):
    grid = UniformCellGrid(8, periodic=False)
    coords = grid.node_coords()
    nodal = 2.0 + 0.5 * coords[:, 0] - coords[:, 1] + 3.0 * coords[:, 0] * coords[:, 1]
    pts = rng.uniform(0, 1, (50, 2))
    expect = 2.0 + 0.5 * pts[:, 0] - pts[:, 1] + 3.0 * pts[:, 0] * pts[:, 1]
    npt.assert_allclose(interpolate_nodal(grid, nodal, pts), expect, atol=1e-13)


def test_periodic_interpolation_wraps(rng):
    grid = UniformCellGrid(16)
    nodal = rng.standard_normal(grid.n_nodes)
    pts = rng.uniform(0, 1, (30, 2))
    base = interpolate_nodal(grid, nodal, pts)
    npt.assert_allclose(interpolate_nodal(grid, nodal, pts + [1.0, 0.0]), base,
                        atol=1e-12)
    npt.assert_allclose(interpolate_nodal(grid, nodal, pts + [1.0, 1.0]), base,
                        atol=1e-12)


def test_clamped_interpolation_outside_the_box(rng):
    grid = UniformCellGrid(8, periodic=False)
    nodal = rng.standard_normal(grid.n_nodes)
    outside = np.array([[-0.2, 0.4]])
    edge = np.array([[0.0, 0.4]])
    assert interpolate_nodal(grid, nodal, outside) == pytest.approx(
        interpolate_nodal(grid, nodal, edge))


def test_source_load_rejects_non_finite_values():
    mesh = DomainMesh(Rectangle(0.5, 1.5, 0.5, 1.5), 4, 4)
    with pytest.raises(ValueError, match="non-finite"):
        DirichletProblem(mesh, lambda pts: np.full(pts.shape[0], np.nan))
