"""Coefficient structure checks, the coefficient contract and the
periodic corrector solves."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from maphom import cell, coefficients, numerics
from maphom.cell import (
    CellProblem,
    CorrectorField,
    solve_corrector,
    solve_rescaled_corrector,
    stretched,
)
from maphom.coefficients import PeriodicCoefficient
from maphom.finescale import (
    DirichletProblem,
    SolutionField,
    flux_moment,
    l2_error,
)
from maphom.homogenize import (
    classical_homogenized_matrix,
    default_x2_samples,
    homogenized_matrix_at,
    tensor_field,
)
from maphom.numerics import (
    GAUSS_WEIGHTS,
    Rectangle,
    UniformCellGrid,
    q1_tables,
)
from maphom.structure import QuadraticStretchMap


def dirichlet_grid(n1, n2, omega=Rectangle(0.5, 1.5, 0.5, 1.5)) -> UniformCellGrid:
    """A clamped n1 x n2 grid over ``omega``."""
    return UniformCellGrid(n1, periodic=False, ny=n2, rectangle=omega)


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
    return PeriodicCoefficient(skew_values, bound=3.0, coercivity=0.2)


# ---------------------------------------------------------------------------
# coefficient structure
# ---------------------------------------------------------------------------


FACTORIES = {
    "sine-0": coefficients.sine_product(0.0),
    "sine-0.5": coefficients.sine_product(0.5),
    "sine-0.99": coefficients.sine_product(0.99),
    "laminate": coefficients.laminate(),
    "laminate-negative": coefficients.laminate(2.0, -0.5),
    "identity": coefficients.identity(),
    "constant": coefficients.constant([[2.0, 0.5], [0.5, 1.0]]),
    "isotropic": coefficients.isotropic(lambda pts: 2.0 + np.cos(2 * np.pi * pts[:, 0]),
                                        bound=3.0, coercivity=1.0),
}


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("coeff", FACTORIES.values(), ids=FACTORIES.keys())
def test_a_cell_problem_checks_the_declared_bounds(coeff, n):
    """Every factory's values at the quadrature points meet its own
    declaration; a bound or a coercivity tightened by 1% of the bound is
    caught as the problem is built."""
    CellProblem(coeff, n)
    r, s = coeff.bound, coeff.coercivity
    with pytest.raises(ValueError, match=f"declares bound {0.99 * r:.6g}, but"):
        CellProblem(PeriodicCoefficient(coeff, 0.99 * r, min(s, 0.99 * r)), n)
    tight = s + 0.01 * r
    with pytest.raises(ValueError, match=f"declares coercivity {tight:.6g}, but"):
        CellProblem(PeriodicCoefficient(coeff, max(r, tight), tight), n)


@pytest.mark.parametrize("coeff", FACTORIES.values(), ids=FACTORIES.keys())
def test_factories_are_unit_cell_periodic(coeff):
    t = np.linspace(0.0, 1.0, 33)
    pts = np.column_stack([np.tile(t, 33), np.repeat(t, 33)])
    A = coeff(pts)
    for shift in ((1.0, 0.0), (0.0, 1.0)):
        npt.assert_allclose(coeff(pts + np.array(shift)), A, rtol=0, atol=1e-12)


def test_a_cell_problem_refuses_an_understated_bound(sine_coeff):
    lying = PeriodicCoefficient(sine_coeff, bound=1.5, coercivity=0.1)
    with pytest.raises(ValueError, match=r"declares bound 1.5, but its values reach 1.8\d+ at y"):
        CellProblem(lying, 16)


def test_a_constant_above_its_declared_bound_is_refused():
    """Its values lie outside the declared [0.5, 1] everywhere."""
    lying = coefficients.isotropic(lambda p: 3 + 0 * p[:, 0], bound=1.0, coercivity=0.5)
    with pytest.raises(ValueError, match="declares bound 1, but its values reach 3 at y"):
        CellProblem(lying, 8)


def test_a_negative_diagonal_entry_is_refused():
    """Its modulus 5 breaks the bound too, but the coercivity is read first."""
    A = np.diag([-5.0, 1.0])
    negative = PeriodicCoefficient(lambda p: np.broadcast_to(A, (len(p), 2, 2)).copy(),
                                   bound=2.0, coercivity=0.5)
    with pytest.raises(ValueError, match="declares coercivity 0.5, but its values reach -5 "):
        CellProblem(negative, 8)


def test_the_check_reads_the_eigenvalues_of_a_full_matrix():
    """The least eigenvalue of [[2, .5], [.5, 1]] is about 0.79, below a
    declared 0.9, though both diagonal entries are at least 1."""
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="declares coercivity 0.9, but its values reach 0.79"):
        CellProblem(PeriodicCoefficient(coefficients.constant(M), 2.3, 0.9), 8)
    for scale in (1e6, 1e-6):
        CellProblem(coefficients.constant(scale * M), 8)


def test_the_check_holds_at_high_contrast():
    """At a contrast of 1e9 a full matrix passes its own declaration and a
    coercivity 1% too high is refused; at 1e10 a negative entry of -5e-6
    is refused, which an allowance of 1e-9 of the bound (1e-5) would pass."""
    c, s = math.cos(0.3), math.sin(0.3)
    Q = np.array([[c, -s], [s, c]])
    M = Q @ np.diag([1e9, 1.0]) @ Q.T
    M[1, 0] = M[0, 1]
    CellProblem(coefficients.constant(M), 8)
    with pytest.raises(ValueError, match="declares coercivity 1.01, but its values reach 1 "):
        CellProblem(PeriodicCoefficient(coefficients.constant(M), 1e9, 1.01), 8)
    A = np.diag([1e4, -5e-6])
    negative = PeriodicCoefficient(lambda p: np.broadcast_to(A, (len(p), 2, 2)).copy(),
                                   bound=1e4, coercivity=1e-6)
    with pytest.raises(ValueError, match="declares coercivity 1e-06, but its values reach -5e-06"):
        CellProblem(negative, 8)


def test_the_check_reads_a_non_symmetric_matrix():
    """skew_values reaches |A xi| = 2.14 |xi| (2.139 at the points of a 16^2
    cell) and its symmetric part falls to 0.72."""
    CellProblem(PeriodicCoefficient(skew_values, bound=3.0, coercivity=0.2), 16)
    with pytest.raises(ValueError, match="declares bound 2, but its values reach 2.1"):
        CellProblem(PeriodicCoefficient(skew_values, bound=2.0, coercivity=0.2), 16)
    with pytest.raises(ValueError, match="declares coercivity 0.75, but its values reach 0.72"):
        CellProblem(PeriodicCoefficient(skew_values, bound=3.0, coercivity=0.75), 16)


def test_a_laminate_takes_a_negative_amplitude():
    coeff = coefficients.laminate(2.0, -0.5)
    assert (coeff.bound, coeff.coercivity) == (2.5, 1.5)
    with pytest.raises(ValueError, match=r"base 0.5 must exceed \|amplitude\| 1.0"):
        coefficients.laminate(0.5, -1.0)


@pytest.mark.parametrize("bound,coercivity", [
    (math.nan, 0.5), (math.inf, 0.5), (5.0, math.nan), (math.inf, math.inf),
])
def test_declared_bounds_must_be_finite(bound, coercivity):
    """Every comparison with a NaN bound is false, so the check of ``5 I``
    would pass against it; an infinite bound declares nothing."""
    with pytest.raises(ValueError, match="finite"):
        PeriodicCoefficient(lambda pts: 5.0 * np.eye(2)[None].repeat(len(pts), 0),
                            bound=bound, coercivity=coercivity)


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
    problem = DirichletProblem(dirichlet_grid(7, 4, Rectangle(0.5, 1.5, 0.25, 2.0)),
                               lambda pts: np.ones(pts.shape[0]))
    (K_bare, *rest_bare), (K_wrapped, *rest_wrapped) = (
        problem.stiffness(skew_values), problem.stiffness(wrapped))
    npt.assert_array_equal(K_bare.data, K_wrapped.data)
    npt.assert_array_equal(K_bare.indices, K_wrapped.indices)
    assert rest_bare == rest_wrapped


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
    grid = dirichlet_grid(8, 8)
    problem = DirichletProblem(grid, lambda pts: np.ones(pts.shape[0]))
    u = SolutionField(values=np.ones(grid.n_nodes), grid=grid, label="",
                      warn_underresolved=False, iterations=0, residual=0.0,
                      energy=0.0, source_work=0.0)
    return {
        "CellProblem": lambda c: CellProblem(c, 8),
        "DirichletProblem.stiffness": problem.stiffness,
        "homogenized_matrix_at": lambda c: homogenized_matrix_at(c, (1.0, 1.0), corrector),
        "flux_moment": lambda c: flux_moment(c, u, lambda pts: np.ones((pts.shape[0], 2))),
    }


@pytest.mark.parametrize("use", ["CellProblem", "DirichletProblem.stiffness",
                                 "homogenized_matrix_at", "flux_moment"])
@pytest.mark.parametrize("bad", [_non_finite, _flat], ids=["non-finite", "m-by-4"])
def test_bad_coefficient_values_raise(coefficient_uses, use, bad):
    with pytest.raises(ValueError):
        coefficient_uses[use](bad)


def test_oracles_and_error_norms_build_no_matrix_layout(coefficient_uses, sine_coeff,
                                                       monkeypatch):
    """The quadratures that assemble no matrix never pay for the
    nine-point layout of their grid."""
    grid = dirichlet_grid(8, 8)
    u = SolutionField(values=np.ones(grid.n_nodes), grid=grid, label="",
                      warn_underresolved=False, iterations=0, residual=0.0,
                      energy=0.0, source_work=0.0)

    def refuse(grid):
        raise AssertionError("the nine-point layout was built")

    monkeypatch.setattr(numerics, "nine_point_layout", refuse)
    for use in ("homogenized_matrix_at", "flux_moment"):
        assert np.all(np.isfinite(coefficient_uses[use](sine_coeff)))
    assert l2_error(u, u) == 0.0


def test_oracles_and_error_norms_reuse_their_grids_quadrature(sine_coeff, monkeypatch):
    """homogenized_matrix_at on a CellProblem's field, and l2_error and
    flux_moment on Dirichlet solutions, read the quadrature their grid
    built for the solves: they build no grid, points or shape tables."""
    problem = CellProblem(sine_coeff, 8)
    field = problem.solve(ZETA)
    dirichlet = DirichletProblem(dirichlet_grid(8, 8), lambda pts: np.ones(pts.shape[0]))
    u, v = (dirichlet.oscillatory(sine_coeff, QuadraticStretchMap(h)) for h in (1, 2))
    cached = [(grid, grid.points) for grid in (problem.grid, dirichlet.grid)]

    def refuse(*args, **kwargs):
        raise AssertionError("a grid or its quadrature was built again")

    for owner, name in [(UniformCellGrid, "__init__"), (UniformCellGrid, "node_coords"),
                        (numerics, "q1_tables")]:
        monkeypatch.setattr(owner, name, refuse)
    npt.assert_allclose(homogenized_matrix_at(sine_coeff, ZETA, field),
                        problem.effective_matrix(field), rtol=0, atol=1e-9)
    assert l2_error(u, v) > 0.0
    assert np.isfinite(flux_moment(sine_coeff, u, lambda pts: np.ones((pts.shape[0], 2))))
    assert u.grid is v.grid is dirichlet.grid and field.grid is problem.grid
    for grid, points in cached:
        assert grid.points is points


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
    pts = grid.points
    div_g = (1.8 * np.pi * np.cos(2 * np.pi * pts[:, 0])
             * np.sin(2 * np.pi * pts[:, 1]))
    from_source = grid.load(div_g.reshape(grid.n_elements, -1),
                            grid.weights[:, None] * grid.phi)
    assert np.abs(loads[0] - from_source).max() <= 1e-8


# ---------------------------------------------------------------------------
# the cell problem assembled once for every scaling
# ---------------------------------------------------------------------------

ZETA = (0.7, 2.6)


def _direct_system(coeff, zeta, grid, coo_stiffness):
    """Stiffness of diag(zeta) A diag(zeta) and the loads
    -int zeta_i a_ij d_i phi, assembled at ``zeta`` without the pieces."""
    A = coeff.evaluate(grid.points).reshape(grid.n_elements, -1, 2, 2)
    z = np.array(zeta)
    K = coo_stiffness(grid, A * z[:, None] * z[None, :])
    G = q1_tables()[1] / np.array([grid.hx, grid.hy])
    w = GAUSS_WEIGHTS * grid.hx * grid.hy
    loads = []
    for j in range(2):
        fe = -np.einsum("eqi,i,qai,q->ea", A[:, :, :, j], z, G, w)
        f = np.zeros(grid.n_nodes)
        np.add.at(f, grid.connectivity.ravel(), fe.ravel())
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


def tilted_values(pts):
    """A symmetric coefficient with off-diagonal entries, whose loads
    L_ik and L_ki differ."""
    out = skew_values(pts)
    out[:, 1, 0] = out[:, 0, 1]
    return out


@pytest.mark.parametrize("coeff", [tilted_values, skew_values], ids=["tilted", "skew"])
def test_fluxes_match_a_direct_assembly(coeff):
    """The flux vectors M_ik = int a_ik d_k phi / |Y|: read off the
    loads, -L_ki / |Y|, when A is symmetric, assembled on their own
    otherwise."""
    grid = UniformCellGrid(24, ny=12, rectangle=Rectangle(0.0, 1.0, 0.0, 0.5))
    problem = CellProblem(coeff, grid)
    assert problem.symmetric == (coeff is tilted_values)
    A = coeff(grid.points).reshape(grid.n_elements, -1, 2, 2)
    G = q1_tables()[1] / np.array([grid.hx, grid.hy])
    w = GAUSS_WEIGHTS * grid.hx * grid.hy
    expect = np.zeros((2, 2, grid.n_nodes))
    for i in range(2):
        for k in range(2):
            fe = np.einsum("eq,qa,q->ea", A[:, :, i, k], G[:, :, k], w) / grid.area
            np.add.at(expect[i, k], grid.connectivity.ravel(), fe.ravel())
    gap = np.abs(np.array(problem._fluxes) - expect).max()
    assert gap <= 1e-14 * np.abs(expect).max()


def _counting(monkeypatch, owner, names) -> dict:
    """Calls of the methods ``names`` of ``owner``, counted as they come."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _method=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("coeff, pieces, loads", [
    (coefficients.sine_product(), 2, 2), (tilted_values, 3, 4), (skew_values, 3, 8)],
    ids=["isotropic", "tilted", "skew"])
def test_a_problem_assembles_only_the_entries_its_coefficient_has(monkeypatch, coeff,
                                                                  pieces, loads):
    """An isotropic A assembles K11 and K22 and the loads L_11 and L_22:
    its K12 + K21, L_12 and L_21 are never assembled, and its fluxes are
    read off the loads. A full symmetric A assembles all three pieces and
    four loads, a full non-symmetric one its four fluxes besides."""
    counts = _counting(monkeypatch, UniformCellGrid, ["stiffness_data", "load"])
    CellProblem(coeff, 16)
    assert counts == {"stiffness_data": pieces, "load": loads}


def test_a_cold_cell_point_evaluates_its_coefficient_twice(sine_coeff):
    """Once for its cell problem and once for the quadrature oracle."""
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return sine_coeff(pts)

    homogenized_matrix_at(counted, ZETA, solve_corrector(counted, ZETA, 16))
    assert calls == [16 * 16 * 4] * 2


@pytest.mark.parametrize("symmetric", [True, False], ids=["a12-and-a21", "a12-alone"])
def test_an_entry_nonzero_at_one_point_is_assembled(coo_stiffness, symmetric):
    """An off-diagonal entry that is zero at all quadrature points but
    one is present: its K12 + K21 piece, the four loads and the four
    fluxes match a direct assembly by scatter."""
    grid = UniformCellGrid(6, ny=4, rectangle=Rectangle(0.0, 1.0, 0.0, 0.5))

    def values(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.5 + 0.5 * np.sin(2 * np.pi * pts[:, 0])
        out[:, 1, 1] = 1.2 + 0.4 * np.cos(2 * np.pi * pts[:, 1])
        out[37, 0, 1] = 0.3
        if symmetric:
            out[37, 1, 0] = 0.3
        return out

    problem = CellProblem(values, grid)
    assert problem.symmetric == symmetric
    A = values(grid.points).reshape(grid.n_elements, -1, 2, 2)
    expect = coo_stiffness(grid, A * np.array([[0, 1], [1, 0]]))
    piece = grid.matrix(problem._stiffness[(0, 1)])
    assert abs(piece - expect).max() <= 1e-14 * abs(expect).max()
    G = q1_tables()[1] / np.array([grid.hx, grid.hy])
    w = GAUSS_WEIGHTS * grid.hx * grid.hy
    loads, fluxes = np.zeros((2, 2, grid.n_nodes)), np.zeros((2, 2, grid.n_nodes))
    for i, k in np.ndindex(2, 2):
        np.add.at(loads[i, k], grid.connectivity.ravel(),
                  -np.einsum("eq,qa,q->ea", A[:, :, i, k], G[:, :, i], w).ravel())
        np.add.at(fluxes[i, k], grid.connectivity.ravel(),
                  np.einsum("eq,qa,q->ea", A[:, :, i, k], G[:, :, k], w).ravel() / grid.area)
    assert np.any(loads[0, 1]) and np.any(loads[1, 0]) == symmetric
    assert np.abs(problem._loads - loads).max() <= 1e-14 * np.abs(loads).max()
    assert np.abs(np.array(problem._fluxes) - fluxes).max() <= 1e-14 * np.abs(fluxes).max()


def test_zero_pieces_keep_the_pattern(sine_coeff):
    """K12 + K21 vanishes for a diagonal coefficient; the pattern stays
    the full nine-point one at every scaling."""
    problem = CellProblem(sine_coeff, 16)
    a, b = problem.system((1.0, 1.0))[0].matrix, problem.system(ZETA)[0].matrix
    assert a.nnz == b.nnz == 9 * 256
    npt.assert_array_equal(a.indices, b.indices)
    npt.assert_array_equal(a.indptr, b.indptr)


def unsolved_field(problem, z) -> CorrectorField:
    """The nodal pair ``z`` at ZETA as a corrector field, with the true
    residuals ``rhs_j - K z_j`` that a solve starting and ending there
    would record."""
    system, loads = problem.system(ZETA)
    r = [loads[j] - system.matrix @ z[j] for j in range(2)]
    residual = tuple(np.linalg.norm(r[j]) / np.linalg.norm(loads[j]) for j in range(2))
    return CorrectorField(
        z=np.asarray(z), zeta=ZETA, grid=problem.grid, iterations=(0, 0),
        residual=residual, r=np.array(r), start_residual=residual)


@pytest.mark.parametrize("name", ["sine", "skew"])
def test_dot_product_matrix_matches_the_quadrature(sine_coeff, rng, name):
    """For any nodal pair, solved or not, the dot products give the
    quadrature of the corrected flux plus, for symmetric A, the adjoint
    correction z_i . (K z_j - rhs_j) / |Y|; a non-symmetric A gets the
    quadrature alone."""
    coeff = sine_coeff if name == "sine" else skew_coefficient()
    problem = CellProblem(coeff, 32)
    assert problem.symmetric == (name == "sine")
    fields = [unsolved_field(problem, rng.standard_normal((2, 1024)))]
    if name == "sine":
        fields.append(problem.solve(ZETA))
    system, loads = problem.system(ZETA)
    for field in fields:
        expected = homogenized_matrix_at(coeff, ZETA, field)
        if name == "sine":
            z = field.z
            expected = expected + np.array(
                [[z[i] @ (system.matrix @ z[j] - loads[j]) for j in range(2)]
                 for i in range(2)]) / problem.grid.area
        dot = problem.effective_matrix(field)
        assert np.abs(dot - expected).max() <= 1e-12 * np.abs(expected).max()


def test_the_stationary_form_is_second_order_in_the_corrector_error(sine_coeff, rng):
    """Moving a solved pair by eps e, e zero-mean, moves the stationary
    form by O(eps^2) and the flux quadrature by O(eps)."""
    problem = CellProblem(sine_coeff, 32)
    field = problem.solve(ZETA)
    e = rng.standard_normal((2, 1024))
    e -= e.mean(axis=1, keepdims=True)

    def changes(eps):
        moved = unsolved_field(problem, field.z + eps * e)
        stationary = problem.effective_matrix(moved) - problem.effective_matrix(field)
        flux = (homogenized_matrix_at(sine_coeff, ZETA, moved)
                - homogenized_matrix_at(sine_coeff, ZETA, field))
        return np.abs(stationary).max(), np.abs(flux).max()

    (stationary, flux), (stationary_half, flux_half) = changes(1e-3), changes(5e-4)
    assert stationary >= 3.5 * stationary_half
    assert flux == pytest.approx(2.0 * flux_half, rel=1e-6)


@pytest.mark.parametrize("name, form", [("sine", "stationary"), ("skew", "flux")])
def test_a_sweep_records_the_form_of_b(sine_coeff, name, form):
    coeff = sine_coeff if name == "sine" else skew_coefficient()
    field = tensor_field(coeff, [0.3, 0.5, 0.7], cell_resolution=16)
    assert field.metadata["effective_matrix"] == form


def tilted_spd_values(pts):
    """A symmetric coefficient, positive definite (det >= 0.71) though
    min a11 - max |a12| = 1.2 - 1.3 is not positive."""
    out = np.empty((pts.shape[0], 2, 2))
    out[:, 0, 0] = 1.5 + 0.3 * np.sin(2 * np.pi * pts[:, 0])
    out[:, 0, 1] = out[:, 1, 0] = 1.3
    out[:, 1, 1] = 2.0
    return out


@pytest.mark.parametrize("coeff", [skew_coefficient(), tilted_spd_values],
                         ids=["skew", "gershgorin-not-positive"])
def test_a_coefficient_without_a_bound_truth_solves_every_scaling(coeff):
    """A non-symmetric A, and a symmetric one whose Gershgorin bound
    min(min a11, min a22) - max |a12| is not positive though it is positive
    definite, have no error bound: every scaling of a sweep is a CG
    solve, warm from the projection onto the pairs before."""
    samples = default_x2_samples(Rectangle(0.05, 2.0, 0.05, 2.0), 8)
    field = tensor_field(coeff, samples, cell_resolution=16)
    meta = field.metadata
    assert sorted(meta["truth_scalings"]) == [row["zeta2"] for row in meta["scalings"]]
    assert all(row["bound"] is None for row in meta["scalings"])
    problem = CellProblem(coeff, 16)
    problem.keep(problem.solve(ZETA))
    assert problem.reduced(ZETA).bound is None


def test_effective_matrix_needs_the_problem_grid(sine_coeff):
    field = solve_corrector(sine_coeff, ZETA, 16)
    with pytest.raises(ValueError):
        CellProblem(sine_coeff, 16).effective_matrix(field)
    with pytest.raises(ValueError):
        CellProblem(sine_coeff, 16).keep(field)
    with pytest.raises(ValueError, match="different grid"):
        CellProblem(sine_coeff, 16).solve(ZETA, start=field)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_identity_coefficient_needs_no_correction(identity_coeff):
    field = solve_corrector(identity_coeff, (1.0, 1.0), 16)
    npt.assert_array_equal(field.z[0], np.zeros(256))
    npt.assert_array_equal(field.z[1], np.zeros(256))
    assert field.iterations == (0, 0)


def test_constant_coefficient_needs_no_correction():
    coeff = coefficients.constant([[2.0, 0.5], [0.5, 1.0]])
    field = solve_corrector(coeff, (1.0, 1.5), 16)
    assert field.sup_norm() <= 1e-12


def test_corrector_components_are_zero_mean(sine_coeff):
    field = solve_corrector(sine_coeff, (1.0, 1.4), 32)
    assert abs(field.z[0].mean()) <= 1e-14
    assert abs(field.z[1].mean()) <= 1e-14
    assert 0.01 < field.sup_norm() < 1.0
    assert field.z.shape == field.r.shape == (2, 32 * 32)


def test_residual_orthogonality_against_random_test_vectors(sine_coeff, rng):
    """Twenty random directions see no component of the defect."""
    grid = UniformCellGrid(32)
    system, loads = CellProblem(sine_coeff, grid).system((1.0, 1.0))
    field = solve_corrector(sine_coeff, (1.0, 1.0), grid, tol=1e-10)
    for j, z in enumerate(field.z):
        defect = system.matrix @ z - loads[j]
        for _ in range(20):
            v = rng.standard_normal(grid.n_nodes)
            assert abs(v @ defect) <= 1e-8 * np.linalg.norm(v)


def test_swap_symmetric_coefficient_gives_swapped_correctors(sine_coeff):
    """a(y1, y2) = a(y2, y1) forces z2 to be z1 with the axes exchanged."""
    n = 32
    field = solve_corrector(sine_coeff, (1.0, 1.0), n, tol=1e-12)
    z1 = field.z[0].reshape(n, n)
    z2 = field.z[1].reshape(n, n)
    assert np.abs(z1 - z2.T).max() <= 1e-9


def test_laminate_corrector_is_one_dimensional(laminate_coeff):
    n = 64
    field = solve_corrector(laminate_coeff, (1.0, 1.0), n, tol=1e-12)
    assert np.abs(field.z[1]).max() <= 1e-13
    z1 = field.z[0].reshape(n, n)
    assert np.abs(z1 - z1[0]).max() <= 1e-13


def test_laminate_profile_matches_the_quadrature_oracle(laminate_coeff):
    """z1' = c/a - 1 with c the harmonic mean sqrt(3), integrated per node."""
    n = 64
    field = solve_corrector(laminate_coeff, (1.0, 1.0), n, tol=1e-12)
    z1 = field.z[0].reshape(n, n)[0]
    c = math.sqrt(3)
    profile = np.array([
        quad(lambda t: c / (2.0 + math.sin(2 * np.pi * t)) - 1.0, 0.0, y,
             limit=200)[0]
        for y in np.arange(n) / n
    ])
    profile -= profile.mean()
    assert np.abs(z1 - profile).max() <= 1e-4


def test_warm_start_from_the_solution_converges_instantly(sine_coeff):
    """Solved again at the same scaling from the pair solved there, or
    from the projection onto it once it is kept, a problem takes no
    iteration."""
    problem = CellProblem(sine_coeff, 32)
    field = problem.solve((1.0, 1.2))
    problem.keep(field)
    for start in (field, problem.reduced((1.0, 1.2))):
        again = problem.solve((1.0, 1.2), start=start)
        assert again.iterations == (0, 0)
        npt.assert_allclose(again.z[0], field.z[0], atol=1e-12)


def test_a_first_solve_starts_cold(sine_coeff):
    """With no start, a solve starts from zero, so the start leaves the
    whole load, and a later one does too: solving keeps nothing, and
    there is nothing to project onto. A kept pair is copied into the
    basis, where a change to the returned field does not reach."""
    problem = CellProblem(sine_coeff, 32)
    first = problem.solve((1.0, 1.2))
    assert first.start_residual == pytest.approx((1.0, 1.0))
    assert problem.solve((1.0, 1.2)).start_residual == pytest.approx((1.0, 1.0))
    assert problem.reduced((1.0, 1.2)) is None
    problem.keep(first)
    z1 = first.z[0].copy()
    first.z[0] = 0.0
    npt.assert_allclose(problem.reduced((1.0, 1.2)).z[0], z1, rtol=0, atol=1e-12)


def test_later_solves_project_onto_the_solved_pairs(sine_coeff):
    """At a scaling already solved and kept the projection returns that
    pair, so a solve started there leaves less than the tolerance;
    between two kept scalings it leaves far less than a zero start, and
    the solve agrees with a cold one to the tolerance."""
    problem = CellProblem(sine_coeff, 32)
    for z2 in (1.0, 1.4):
        problem.keep(problem.solve((1.0, z2), tol=1e-10))
    again = problem.solve((1.0, 1.4), tol=1e-10, start=problem.reduced((1.0, 1.4)))
    assert again.iterations == (0, 0)
    between = problem.solve((1.0, 1.2), tol=1e-10, start=problem.reduced((1.0, 1.2)))
    assert max(between.start_residual) <= 1e-2
    cold = CellProblem(sine_coeff, 32).solve((1.0, 1.2), tol=1e-10)
    assert cold.start_residual == pytest.approx((1.0, 1.0))
    npt.assert_allclose(between.z[0], cold.z[0], rtol=0, atol=1e-9)
    npt.assert_allclose(between.z[1], cold.z[1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("z2, named", [(1e153, "breakdown"), (1e154, "diagonal["),
                                       (1e155, "k2 = inf")])
def test_a_huge_warm_scaling_fails_as_a_cold_one(sine_coeff, z2, named):
    """The projection refuses entries that overflow, and a start that
    overflows fails on the solve's own system, so a warm solve at a huge
    scaling raises the cold solve's SolverError, with no RuntimeWarning."""
    problem = CellProblem(sine_coeff, 16)
    for small in (1.0, 2.0):
        problem.keep(problem.solve((1.0, small)))
    with pytest.raises(numerics.SolverError, match=re.escape(named)):
        CellProblem(sine_coeff, 16).solve((1.0, z2))
    start = problem.reduced((1.0, z2))
    with pytest.raises(numerics.SolverError, match=re.escape(named)):
        problem.solve((1.0, z2), start=start)


@pytest.mark.parametrize("target", [0.0, -1e-13, math.nan])
def test_a_certified_solve_needs_a_positive_target(sine_coeff, target):
    with pytest.raises(ValueError, match="target must be positive"):
        CellProblem(sine_coeff, 16).solve((1.0, 1.0), target=target)


def test_a_projection_carries_the_certificate_of_its_residuals(sine_coeff):
    """With two pairs kept, a projection's ``bound`` is
    max_j r_j . K0^+ r_j / (alpha |Y|), recomputed from its own residuals:
    K0 the spectral operator at the scaled means zeta_i^2 <a_ii>, alpha
    the Gershgorin bound over the quadrature points over max <a_ii>."""
    problem = CellProblem(sine_coeff, 16)
    for z2 in (2.0, 3.0):
        problem.keep(problem.solve((ZETA[0], z2)))
    field = problem.reduced(ZETA)
    grid = problem.grid
    A = grid.coefficient(sine_coeff)
    a11, a22 = problem.means[0, 0], problem.means[1, 1]
    least = min(A[..., 0, 0].min(), A[..., 1, 1].min()) - np.abs(A[..., 0, 1]).max()
    alpha = least / max(a11, a22)
    k1, k2 = ZETA[0] ** 2 * a11, ZETA[1] ** 2 * a22
    expected = max(numerics.dual_norm(grid, k1, k2, r) for r in field.r) / (alpha * grid.area)
    assert expected > 0
    assert field.bound == pytest.approx(expected, rel=1e-12)


def _galerkin_energy(system, loads, x):
    """Per component j, x_j . K x_j / 2 - rhs_j . x_j."""
    x = np.asarray(x)
    Kx = np.asarray([system.matrix @ xj for xj in x])
    return 0.5 * np.einsum("jn,jn->j", x, Kx) - np.einsum("jn,jn->j", loads, x)


def test_the_cached_start_is_the_direct_projection(sine_coeff):
    """The basis holds every kept corrector, orthonormalized as it joins,
    with per-piece Gram matrices V K_p V^T and load products. After nine
    kept pairs, more than the former ring of eight held, V V^T is the
    identity to 1e-13, the cached numbers combine to the direct
    projection V K(zeta) V^T and V rhs_j(zeta) to 1e-12 relative, and the
    projection is the Galerkin solution: its residuals are orthogonal to
    the basis, and it reaches the Galerkin energy of a direct solve to
    1e-12."""
    problem = CellProblem(sine_coeff, 32)
    for step, z2 in enumerate((0.3, 0.5, 0.9, 1.6, 2.5, 3.0, 4.0, 0.7, 1.1, 2.0)):
        zeta = (1.0, z2)
        if step:
            field = problem.reduced(zeta)
            k = problem._size
            V = problem._vectors[:k]
            npt.assert_allclose(V @ V.T, np.eye(k), rtol=0, atol=1e-13)
            system, loads = problem.system(zeta)
            H = V @ (system.matrix @ V.T)
            f = np.asarray(loads) @ V.T
            cached = sum(zeta[i] * zeta[j] * G[:k, :k] for (i, j), G in problem._gram.items())
            assert np.abs(cached - H).max() <= 1e-12 * np.abs(H).max()
            products = np.einsum("i,ijk->jk", zeta, problem._products[:, :, :k])
            assert np.abs(products - f).max() <= 1e-12 * np.abs(f).max()
            for j in range(2):
                assert np.abs(V @ field.r[j]).max() <= 1e-12 * np.abs(f[j]).max()
            direct = np.linalg.solve(H, f.T).T @ V
            npt.assert_allclose(_galerkin_energy(system, loads, field.z),
                                _galerkin_energy(system, loads, direct), rtol=1e-12)
        problem.keep(problem.solve(zeta, tol=1e-10))
    assert problem._size == 20  # no pair was evicted or dropped


def test_a_pair_solved_twice_is_dropped_as_dependent(sine_coeff):
    """Solved again at the same scaling, the pair lies in the span of the
    first to rounding: two Gram-Schmidt passes leave less than
    ``DEPENDENT`` of it, and the basis keeps two vectors, not four."""
    problem = CellProblem(sine_coeff, 32)
    problem.keep(problem.solve((1.0, 1.2)))
    problem.keep(problem.solve((1.0, 1.2)))
    assert problem._size == 2


def test_starts_project_each_new_corrector_once_per_piece(sine_coeff, monkeypatch):
    """Outside CG, a kept corrector makes one CSR product per nonzero
    stiffness piece (K11 and K22: K12 + K21 vanishes for the isotropic
    sine product) as it joins, a projection one per piece and corrector
    for its true residuals, and a solve none, forming no matrix at its
    scaling. Three kept pairs and four projections make 3 x 2 x 2 +
    4 x 2 x 2 products. A problem solved once makes none, and builds no
    piece matrix."""
    inside, products = [False], {True: 0, False: 0}
    counted, solve = sp.csr_matrix.__matmul__, cell.cg_solve

    def matmul(self, other):
        products[inside[0]] += 1
        return counted(self, other)

    def cg_solve(*args, **kwargs):
        inside[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", matmul)
    monkeypatch.setattr(cell, "cg_solve", cg_solve)
    problem = CellProblem(sine_coeff, 32)
    iterations = 0
    for z2 in (0.5, 2.0, 1.0):
        field = problem.solve((1.0, z2))
        problem.keep(field)
        iterations += sum(field.iterations)
    for z2 in (0.7, 0.8, 1.5, 1.7):
        problem.reduced((1.0, z2))
    assert problem._size == 6
    assert products[False] == 3 * 2 * 2 + 4 * 2 * 2
    assert products[True] >= iterations

    products.update({True: 0, False: 0})
    problem = CellProblem(sine_coeff, 32)
    problem.solve((1.0, 1.2))
    assert products[False] == 0 and products[True] > 0
    assert len(problem._stiffness) == 2
    assert "_matrices" not in vars(problem)


def test_a_truth_solve_measures_its_own_start(sine_coeff, monkeypatch):
    """Started from a projection that meets the target, a solve forms
    each corrector's residual once more (one CSR product) and measures
    it (one dual norm), and returns the start without iterating, with a
    bound under the target that is the projection's own to rounding."""
    problem = CellProblem(sine_coeff, 16)
    for z2 in (1.0, 1.4):
        problem.keep(problem.solve((1.0, z2), tol=1e-12))
    start = problem.reduced((1.0, 1.2))
    target = 2.0 * start.bound
    assert 0.0 < start.bound <= target
    products = _counting(monkeypatch, sp.csr_matrix, ["__matmul__"])
    norms = _counting(monkeypatch, cell, ["dual_norm"])
    field = problem.solve((1.0, 1.2), start=start, target=target)
    assert products == {"__matmul__": 2} and norms == {"dual_norm": 2}
    assert field.iterations == (0, 0)
    assert field.bound <= target
    assert field.bound == pytest.approx(start.bound, rel=1e-8)


def test_rounding_noise_loads_are_zero(sine_coeff, laminate_coeff):
    """The laminate's L_22 cancels in exact arithmetic and is set to zero
    with L_12 and L_21; the sine product's loads are the grid's loads bit
    for bit."""
    sine = CellProblem(sine_coeff, 128)
    grid = sine.grid
    A, G, w = grid.coefficient(sine_coeff), grid.gradients, grid.weights
    for i, j in np.ndindex(2, 2):
        npt.assert_array_equal(sine._loads[i, j],
                               grid.load(A[:, :, i, j], -w[:, None] * G[:, :, i]))
    laminate = CellProblem(laminate_coeff, 128)
    assert np.any(laminate._loads[0, 0]) and not np.any(laminate._loads[[0, 1, 1], [1, 0, 1]])


def test_a_weak_laminate_spends_no_iterations_on_its_noise_load():
    """The L_22 noise of laminate(2, 0.01) is some 2,000 eps of its largest
    load, L_11 of size 0.01, but a fraction of an eps of the terms of its
    own sum: the default 128^2 sweep solves z2 = 0 without iterating."""
    field = tensor_field(coefficients.laminate(2.0, 0.01),
                         default_x2_samples(Rectangle(0.05, 2.0, 0.05, 2.0), 64))
    assert sum(row["iterations"][1] for row in field.metadata["scalings"]) <= 5


def test_integer_shorthand_builds_the_grid(sine_coeff):
    field = solve_corrector(sine_coeff, (1.0, 1.0), 16)
    assert (field.grid.nx, field.grid.ny) == (16, 16)
    assert field.grid.periodic


@pytest.mark.parametrize("use", [
    lambda c, n: CellProblem(c, n).means,
    lambda c, n: solve_corrector(c, (1.0, 2.0), n).z[1],
    lambda c, n: classical_homogenized_matrix(c, n),
], ids=["CellProblem", "solve_corrector", "classical_homogenized_matrix"])
def test_numpy_integer_resolutions_act_like_ints(sine_coeff, use):
    npt.assert_array_equal(use(sine_coeff, np.int64(16)), use(sine_coeff, 16))


# ---------------------------------------------------------------------------
# the rescaled-rectangle route
# ---------------------------------------------------------------------------


def test_rescaled_cell_geometry_defaults(sine_coeff):
    field = solve_rescaled_corrector(sine_coeff, 1.0, tol=1e-8)
    assert field.zeta == (1.0, 1.0)
    assert field.grid.periodic
    assert field.grid.rectangle == Rectangle(0.0, 1.0, 0.0, 0.5)
    assert (field.grid.nx, field.grid.ny) == (128, 128)


@pytest.mark.parametrize("x2", [65.0, 100.0])
def test_rescaled_cell_default_fits_thin_rectangles(x2):
    """However thin the rectangle, the default keeps the unit cell's
    nodes: 128 x 128 elements, 2 x2 times wider than tall."""
    grid = solve_rescaled_corrector(coefficients.identity(), x2).grid
    assert (grid.nx, grid.ny) == (128, 128)
    assert grid.hx == pytest.approx(2 * x2 * grid.hy, rel=1e-12)


@pytest.mark.parametrize("x2", [0.75, 16.5, 100.0])
def test_rescaled_route_is_the_unit_cell_node_for_node(sine_coeff, x2):
    """The rectangle on n x n elements is the n^2 unit-cell problem at
    zeta = (1, 2 x2) in other variables: the matrices agree to 1e-12 and
    the correctors node for node to 1e-10. The iteration counts agree
    to within a tenth, so exactly at small counts: from x2 = 16.5 on the
    solves are strongly anisotropic and long, and rounding moves their
    stopping step by a few."""
    zeta = (1.0, 2.0 * x2)
    unit = solve_corrector(sine_coeff, zeta, 128)
    rect = solve_rescaled_corrector(sine_coeff, x2)
    B_unit = homogenized_matrix_at(sine_coeff, zeta, unit)
    B_rect = homogenized_matrix_at(stretched(sine_coeff, 2.0 * x2), (1.0, 1.0), rect)
    print(f"x2 = {x2}: gap {np.abs(B_rect - B_unit).max():.2e}, iterations "
          f"{unit.iterations} and {rect.iterations}")
    assert np.abs(B_rect - B_unit).max() <= 1e-12
    assert np.abs(rect.z[0] - unit.z[0]).max() <= 1e-10
    assert np.abs(rect.z[1] - unit.z[1]).max() <= 1e-10
    for n_unit, n_rect in zip(unit.iterations, rect.iterations):
        assert abs(n_rect - n_unit) <= n_unit / 10


def test_rescaled_cell_rejects_skewed_resolutions(sine_coeff):
    """One element count serves both sides; a resolution pair, a
    fractional count and a non-positive x2 raise."""
    with pytest.raises(TypeError):
        solve_rescaled_corrector(sine_coeff, 1.0, (128, 8))
    with pytest.raises(TypeError):
        solve_rescaled_corrector(sine_coeff, 1.0, 32.9)
    for x2 in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            solve_rescaled_corrector(sine_coeff, x2)


def test_rescaled_route_reduces_to_the_unit_cell_at_the_isotropy_line(sine_coeff):
    """At x2 = 0.5 the rectangle is the unit cell and both routes coincide."""
    cell = solve_rescaled_corrector(sine_coeff, 0.5, tol=1e-10)
    field = solve_corrector(sine_coeff, (1.0, 1.0), 128, tol=1e-10)
    assert np.abs(cell.z[0] - field.z[0]).max() <= 1e-13
    assert np.abs(cell.z[1] - field.z[1]).max() <= 1e-13


def test_pullback_matches_the_scaled_corrector(sine_coeff):
    """Node (i, j) of the rectangle pulls back to node (i, j) of the unit
    cell, so the pull-back is the identity on nodal values."""
    cell = solve_rescaled_corrector(sine_coeff, 1.0, tol=1e-10)
    field = solve_corrector(sine_coeff, (1.0, 2.0), 128, tol=1e-10)
    assert np.abs(cell.z[0] - field.z[0]).max() <= 1e-10
    assert np.abs(cell.z[1] - field.z[1]).max() <= 1e-10


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
    """x2 = 2 gives a 128 x 128 rectangle of height 1/4 (zeta2 = 4)."""
    cell = solve_rescaled_corrector(coefficients.sine_product(0.99), 2.0)
    assert (cell.grid.nx, cell.grid.ny) == (128, 128)
    assert max(cell.iterations) <= CELL_ITERATION_CEILING
    assert max(cell.residual) <= 1e-10
