"""Dirichlet problems on a macroscopic rectangle: the oscillatory-
coefficient solve, the effective-tensor solve, error norms and the
h-sweep comparison table.

Solutions are continuous piecewise bilinear with homogeneous Dirichlet
values, stored on the full node set with exact zeros on the boundary.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, ClassVar, Sequence

import numpy as np
import scipy.sparse as sp

from .homogenize import HomogenizedTensor
from .numerics import (
    DEFAULT_RULE,
    Q1Assembly,
    QuadratureRule,
    Rectangle,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    spectral_preconditioner,
)

__all__ = [
    "ConvergenceRow",
    "DirichletProblem",
    "DomainMesh",
    "SolutionField",
    "convergence_study",
    "flux_moment",
    "l2_error",
    "solve_homogenized",
    "solve_oscillatory",
    "write_convergence_csv",
]


@dataclasses.dataclass
class DomainMesh:
    """Uniform quadrilateral mesh of a first-quadrant rectangle."""

    omega: Rectangle
    n1: int
    n2: int

    def __post_init__(self):
        if not (self.omega.a1 > 0 and self.omega.a2 > 0):
            raise ValueError("domain must lie in the open first quadrant")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("mesh needs at least two elements per direction")
        self._grid = UniformCellGrid(
            self.n1, periodic=False, ny=self.n2,
            lengths=(self.omega.width, self.omega.height),
            origin=(self.omega.a1, self.omega.a2),
        )
        self._interior = ~self._grid.boundary_mask()

    @property
    def grid(self) -> UniformCellGrid:
        return self._grid

    @property
    def interior_mask(self) -> np.ndarray:
        return self._interior

    @property
    def n_interior(self) -> int:
        return (self.n1 - 1) * (self.n2 - 1)

    def matches(self, other: "DomainMesh") -> bool:
        return self.omega == other.omega and self.n1 == other.n1 and self.n2 == other.n2


@dataclasses.dataclass
class SolutionField:
    """Nodal solution with provenance and solve diagnostics.

    ``values`` covers every node; boundary entries are exactly zero.
    ``energy`` is the quadratic form int D grad(u).grad(u) and
    ``source_work`` the load functional int f u; the two agree to solver
    accuracy by the Galerkin identity. ``assemble_s`` is the wall time
    from the coefficient evaluation to the built preconditioner and
    ``solve_s`` that of the CG solve.
    """

    values: np.ndarray
    mesh: DomainMesh
    label: str
    warn_underresolved: bool
    iterations: int
    residual: float
    energy: float
    source_work: float
    assemble_s: float = 0.0
    solve_s: float = 0.0

    def interior_values(self) -> np.ndarray:
        return self.values[self.mesh.interior_mask]

    @property
    def energy_gap(self) -> float:
        """|energy - source_work| / |source_work|; the absolute gap when
        no work is done."""
        gap = abs(self.energy - self.source_work)
        return gap / abs(self.source_work) if self.source_work else gap

    def diagnostics(self) -> dict:
        """The solve's label, CG iterations, final residual, energy gap and
        its assembly and solve times."""
        return {"label": self.label, "iterations": self.iterations,
                "residual": self.residual, "energy_gap": self.energy_gap,
                "assemble_s": round(self.assemble_s, 6),
                "solve_s": round(self.solve_s, 6)}


class DirichletProblem:
    """The Dirichlet problem of one source on one mesh, for any coefficient.

    Built once per mesh: the :class:`~maphom.numerics.Q1Assembly` of the
    mesh grid, whose nine-point layout covers the interior nodes, and the
    interior load of ``f``. A solve then evaluates its coefficient once
    at the quadrature points, assembles the interior stiffness through
    the assembly and solves it by conjugate gradients with the DST-I
    spectral preconditioner of the mean diagonal coefficient, scaled by
    the system's diagonal.
    """

    def __init__(self, mesh: DomainMesh, f, rule: QuadratureRule = DEFAULT_RULE):
        self.mesh = mesh
        self.assembly = assembly = Q1Assembly(mesh.grid, rule)
        source = np.asarray(f(assembly.points), dtype=float)
        if source.shape != (assembly.points.shape[0],):
            raise ValueError("source must return one value per point")
        if not np.all(np.isfinite(source)):
            raise ValueError("source evaluated to a non-finite value")
        load = assembly.load(source.reshape(mesh.grid.n_elements, -1),
                             assembly.weights[:, None] * assembly.phi)
        self.load = load[mesh.interior_mask]

    def oscillatory(self, coefficient, scale_map, tol: float = 1e-8) -> SolutionField:
        """The solve for A(alpha_h(x)); see :func:`solve_oscillatory`."""
        mesh = self.mesh
        need1, need2 = scale_map.required_mesh_density(mesh.omega)
        warn = mesh.n1 / mesh.omega.width < need1 or mesh.n2 / mesh.omega.height < need2
        return self._solve(lambda pts: coefficient(scale_map(pts)), tol,
                           f"oscillatory h={scale_map.h}", warn)

    def homogenized(self, field: HomogenizedTensor, tol: float = 1e-8) -> SolutionField:
        """The solve for the sampled effective tensor."""
        return self._solve(tensor_evaluator(field), tol, "homogenized", False)

    def stiffness(self, coefficient) -> tuple[sp.spmatrix, tuple[float, float]]:
        """The interior stiffness matrix of a coefficient, and the
        quadrature means of its D11 and D22."""
        D = self.assembly.coefficient(coefficient)
        mean = self.assembly.mean(D)
        K = self.assembly.matrix(self.assembly.stiffness_data(D))
        return K, (float(mean[0, 0]), float(mean[1, 1]))

    def _solve(self, coeff_eval, tol: float, label: str, warn: bool) -> SolutionField:
        start = time.perf_counter()
        mesh = self.mesh
        K, (k1, k2) = self.stiffness(coeff_eval)
        precondition = spectral_preconditioner(mesh.grid, k1, k2, K.diagonal())
        assembled = time.perf_counter()
        res = cg_solve(SparseSystem(K), self.load, precondition, tol=tol)
        solved = time.perf_counter()
        values = np.zeros(mesh.grid.n_nodes)
        values[mesh.interior_mask] = res.x
        return SolutionField(values=values, mesh=mesh, label=label,
                             warn_underresolved=warn, iterations=res.iterations,
                             residual=res.residual, energy=float(res.x @ (K @ res.x)),
                             source_work=float(self.load @ res.x),
                             assemble_s=assembled - start, solve_s=solved - assembled)


def solve_oscillatory(
    coefficient,
    scale_map,
    f,
    mesh: DomainMesh,
    tol: float = 1e-8,
    rule: QuadratureRule = DEFAULT_RULE,
) -> SolutionField:
    """Solve -div(A(alpha_h(x)) grad u) = f with zero Dirichlet data.

    The coefficient is evaluated at the mapped quadrature points. If the
    mesh supplies fewer than 8 elements per local oscillation period
    (checked against the map's requirement at the top edge) the solution is
    flagged under-resolved but still returned.

    Builds a :class:`DirichletProblem` for this one solve; studies that
    solve many coefficients on one mesh build it once.
    """
    return DirichletProblem(mesh, f, rule).oscillatory(coefficient, scale_map, tol)


def tensor_evaluator(field: HomogenizedTensor) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise effective coefficient from sampled curves.

    Entries are interpolated linearly in x2 (constant in x1) and clamped
    at the sampled range's ends.
    """
    order = np.argsort(field.x2, kind="stable")
    x2s = field.x2[order]
    mats = field.matrices[order]

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((pts.shape[0], 2, 2))
        for i in range(2):
            for j in range(2):
                out[:, i, j] = np.interp(pts[:, 1], x2s, mats[:, i, j])
        return out

    return evaluate


def solve_homogenized(
    field: HomogenizedTensor,
    f,
    mesh: DomainMesh,
    tol: float = 1e-8,
    rule: QuadratureRule = DEFAULT_RULE,
) -> SolutionField:
    """Solve -div(B(x) grad u) = f for the sampled effective tensor."""
    return DirichletProblem(mesh, f, rule).homogenized(field, tol)


def l2_error(u: SolutionField, v: SolutionField, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """L2 norm of u - v over the domain; both fields must share the mesh.

    The difference is piecewise bilinear, so the default rule integrates
    its square exactly.
    """
    if not u.mesh.matches(v.mesh):
        raise ValueError("solution fields live on different meshes")
    assembly = Q1Assembly(u.mesh.grid, rule)
    return float(np.sqrt(assembly.integral(assembly.values(u.values - v.values) ** 2)))


def flux_moment(
    coeff_eval,
    u: SolutionField,
    phi,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Weighted flux functional int (D grad u) . phi dx.

    ``phi`` is a smooth vector test field, callable on (m, 2) points with
    (m, 2) values.
    """
    assembly = Q1Assembly(u.mesh.grid, rule)
    D = assembly.coefficient(coeff_eval)
    sigma = np.einsum("eqik,eqk->eqi", D, assembly.gradient(u.values), optimize=True)
    test = np.asarray(phi(assembly.points), dtype=float).reshape(sigma.shape)
    return float(assembly.integral(np.einsum("eqi,eqi->eq", sigma, test)))


@dataclasses.dataclass
class ConvergenceRow:
    CSV_HEADER: ClassVar[str] = "h,l2_error,energy,warn_underresolved\n"

    h: int
    l2_error: float
    energy: float
    warn_underresolved: bool

    def csv_line(self) -> str:
        return (f"{self.h},{self.l2_error:.17g},{self.energy:.17g},"
                f"{int(self.warn_underresolved)}\n")


def convergence_study(
    coefficient,
    map_family,
    f,
    mesh: DomainMesh,
    h_list: Sequence[int],
    tensor: HomogenizedTensor,
    tol: float = 1e-8,
    on_row=None,
    on_solve=None,
) -> list[ConvergenceRow]:
    """Compare oscillatory solves against the effective-tensor solve.

    ``map_family`` is a callable h -> scale map. The homogenized reference
    is solved once; each h row records the L2 distance to it, the solve's
    energy and the resolution flag. ``on_row`` (if given) is called with
    each completed row, letting callers persist partial tables;
    ``on_solve`` (if given) is called with every SolutionField, the
    reference first. One :class:`DirichletProblem` serves every solve, so
    ``f`` is evaluated once.
    """
    h_list = [int(h) for h in h_list]
    if any(b <= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly increasing")
    problem = DirichletProblem(mesh, f)
    reference = problem.homogenized(tensor, tol)
    if on_solve is not None:
        on_solve(reference)
    rows = []
    for h in h_list:
        u_h = problem.oscillatory(coefficient, map_family(h), tol)
        if on_solve is not None:
            on_solve(u_h)
        row = ConvergenceRow(
            h=h,
            l2_error=l2_error(u_h, reference),
            energy=u_h.energy,
            warn_underresolved=u_h.warn_underresolved,
        )
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows


def write_convergence_csv(rows: Sequence[ConvergenceRow], stream) -> None:
    """Write one row per scale index: h,l2_error,energy,warn_underresolved."""
    stream.write(ConvergenceRow.CSV_HEADER)
    for row in rows:
        stream.write(row.csv_line())
