"""Periodic corrector problems on the unit cell, scaled by a diagonal
field, and the equivalent classical problem on a rescaled rectangle.

The scaled corrector pair (z_1, z_2) solves, for j = 1, 2 and all periodic
zero-mean test functions v,

    int_Y sum_{i,k} zeta_i zeta_k a_ik dz_j/dy_k dv/dy_i dy
        = - int_Y sum_i zeta_i a_ij dv/dy_i dy,

with zeta a positive pair. zeta = (1, 1) recovers the classical cell
problem. The same solution can be obtained by solving the classical
problem for A(y1, zeta_2 y2) on the rectangle (0,1) x (0, 1/zeta_2) and
pulling back, which :func:`solve_rescaled_corrector` implements; the two
routes agree up to discretization error.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .numerics import (
    DEFAULT_RULE,
    Q1Assembly,
    QuadratureRule,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    interpolate_nodal,
    spectral_preconditioner,
)

__all__ = [
    "CellProblem",
    "CorrectorField",
    "RescaledCell",
    "solve_corrector",
    "solve_rescaled_corrector",
    "write_corrector_csv",
]


@dataclasses.dataclass
class CorrectorField:
    """Corrector pair on a periodic grid with solver diagnostics.

    ``z1`` and ``z2`` are nodal values of the two zero-mean periodic
    correctors; ``zeta`` is the diagonal scaling they were solved with
    (equivalently the macroscopic point, stored in ``x`` when known).
    """

    z1: np.ndarray
    z2: np.ndarray
    zeta: tuple[float, float]
    grid: UniformCellGrid
    iterations: tuple[int, int]
    residual: tuple[float, float]
    x: tuple[float, float] | None = None

    def component(self, j: int) -> np.ndarray:
        if j not in (1, 2):
            raise ValueError("component index must be 1 or 2")
        return self.z1 if j == 1 else self.z2

    def mean(self, j: int) -> float:
        # uniform periodic grids: the nodal mean is the cell integral
        return float(self.component(j).mean())

    def sup_norm(self) -> float:
        return float(max(np.abs(self.z1).max(), np.abs(self.z2).max()))


def _scaling(zeta) -> tuple[float, float]:
    z1, z2 = float(zeta[0]), float(zeta[1])
    if not (z1 > 0 and z2 > 0):
        raise ValueError("scaling pair must be positive")
    return z1, z2


class CellProblem:
    """The scaled cell problem of one coefficient on one periodic grid.

    With D = diag(zeta) A diag(zeta) the stiffness matrix and the loads are
    polynomials in the scaling,

        K(zeta)     = zeta_1^2 K11 + zeta_1 zeta_2 (K12 + K21) + zeta_2^2 K22,
        rhs_j(zeta) = zeta_1 L_1j + zeta_2 L_2j,   L_ij = -int a_ij d_i phi,

    where K_ik is the stiffness of the single entry a_ik. The coefficient
    is evaluated once, and the three stiffness pieces are assembled once
    by one :class:`~maphom.numerics.Q1Assembly` as data arrays on its
    nine-point CSR layout, together with the four loads and the four flux
    vectors M_ik = int a_ik d_k phi / |Y|. A
    scaling then costs two vector combinations and the two CG solves, and
    the effective matrix is read off dot products:

        b_ij = <a_ij> + sum_k zeta_k M_ik . z_j.

    This is the quadrature of :func:`maphom.homogenize.homogenized_matrix_at`
    summed in another order, for symmetric and non-symmetric A alike.
    """

    def __init__(
        self,
        coefficient,
        grid: UniformCellGrid | int,
        rule: QuadratureRule = DEFAULT_RULE,
    ):
        if isinstance(grid, int):
            grid = UniformCellGrid(grid, periodic=True)
        if not grid.periodic:
            raise ValueError("corrector problems need a periodic grid")
        self.grid = grid
        self.assembly = assembly = Q1Assembly(grid, rule)
        A = assembly.coefficient(coefficient)
        self.means = assembly.mean(A)
        G, w = assembly.gradients, assembly.weights
        self._stiffness = tuple(assembly.stiffness_data(A, entries) for entries in
                                ([(0, 0)], [(0, 1), (1, 0)], [(1, 1)]))
        # _loads[i][j] = L_ij and _fluxes[i][k] = M_ik
        self._loads = [[assembly.load(A[:, :, i, j], -w[:, None] * G[:, :, i])
                        for j in range(2)] for i in range(2)]
        self._fluxes = [[assembly.load(A[:, :, i, k], w[:, None] * G[:, :, k] / grid.area)
                         for k in range(2)] for i in range(2)]

    def system(self, zeta: tuple[float, float]) -> tuple[SparseSystem, list[np.ndarray]]:
        """The stiffness matrix and both loads at ``zeta``."""
        z1, z2 = _scaling(zeta)
        d11, d12, d22 = self._stiffness
        K = self.assembly.matrix(z1 * z1 * d11 + z1 * z2 * d12 + z2 * z2 * d22)
        loads = [z1 * self._loads[0][j] + z2 * self._loads[1][j] for j in range(2)]
        return SparseSystem(K, singular=True), loads

    def solve(
        self,
        zeta: tuple[float, float],
        tol: float = 1e-10,
        x0_pair: Sequence[np.ndarray] | None = None,
        x: tuple[float, float] | None = None,
    ) -> CorrectorField:
        """Both correctors at ``zeta`` by spectrally preconditioned CG.

        ``x0_pair`` optionally warm starts the two solves. The solutions
        are made zero-mean once more after the solve.
        """
        z1, z2 = _scaling(zeta)
        system, loads = self.system(zeta)
        precondition = spectral_preconditioner(
            self.grid, z1 * z1 * self.means[0, 0], z2 * z2 * self.means[1, 1],
            system.matrix.diagonal())
        sols, iters, resids = [], [], []
        for j in range(2):
            guess = None if x0_pair is None else x0_pair[j]
            res = cg_solve(system, loads[j], precondition, tol=tol, x0=guess)
            sols.append(res.x - res.x.mean())
            iters.append(res.iterations)
            resids.append(res.residual)
        return CorrectorField(
            z1=sols[0], z2=sols[1], zeta=(z1, z2), grid=self.grid,
            iterations=(iters[0], iters[1]), residual=(resids[0], resids[1]), x=x,
        )

    def effective_matrix(self, field: CorrectorField) -> np.ndarray:
        """The effective matrix of a corrector pair solved by this problem."""
        if field.grid is not self.grid:
            raise ValueError("corrector was solved on a different grid")
        b = self.means.copy()
        for i in range(2):
            for j in range(2):
                z = field.component(j + 1)
                b[i, j] += sum(field.zeta[k] * (self._fluxes[i][k] @ z) for k in range(2))
        return b


def solve_corrector(
    coefficient,
    zeta: tuple[float, float],
    grid: UniformCellGrid | int = 128,
    tol: float = 1e-10,
    rule: QuadratureRule = DEFAULT_RULE,
    x0_pair: Sequence[np.ndarray] | None = None,
    x: tuple[float, float] | None = None,
) -> CorrectorField:
    """Solve the scaled corrector pair on the periodic unit cell.

    Args:
        grid: a periodic grid or an element count per side.
        x0_pair: optional initial guesses (warm starts) for the two solves.
        x: macroscopic point to record on the field, if any.

    Builds a :class:`CellProblem` for this one scaling; sweeps over many
    scalings build it once and call its ``solve``.
    """
    return CellProblem(coefficient, grid, rule).solve(zeta, tol, x0_pair, x)


@dataclasses.dataclass
class RescaledCell:
    """Classical corrector data on the rectangle (0,1) x (0, 1/zeta_2).

    The coefficient seen by this problem is A(y1, zeta_2 y2); pulling the
    solution back through y2 -> y2 / zeta_2 reproduces the scaled corrector
    on the unit cell.
    """

    zeta2: float
    grid: UniformCellGrid
    z1: np.ndarray
    z2: np.ndarray
    coefficient_eval: object
    iterations: tuple[int, int]
    residual: tuple[float, float]

    @property
    def lengths(self) -> tuple[float, float]:
        return self.grid.lengths

    def sample_on_unit_grid(self, unit_grid: UniformCellGrid) -> tuple[np.ndarray, np.ndarray]:
        """Pull both correctors back to nodal values on a unit-cell grid."""
        pts = unit_grid.node_coords().copy()
        pts[:, 1] /= self.zeta2
        return (
            interpolate_nodal(self.grid, self.z1, pts),
            interpolate_nodal(self.grid, self.z2, pts),
        )


def solve_rescaled_corrector(
    coefficient,
    x: tuple[float, float],
    resolution: tuple[int, int] | None = None,
    tol: float = 1e-10,
    rule: QuadratureRule = DEFAULT_RULE,
) -> RescaledCell:
    """Solve the classical corrector problem on the rescaled rectangle.

    For a macroscopic point with x2 > 0 the rectangle is
    (0,1) x (0, 1/(2 x2)) and the coefficient is A(y1, 2 x2 y2), periodic
    across both pairs of edges. The default resolution keeps elements
    square: 128 columns and round(128 / (2 x2)) rows.
    """
    x = (float(x[0]), float(x[1]))
    if not x[1] > 0:
        raise ValueError("rescaled cell requires x2 > 0")
    zeta2 = 2.0 * x[1]
    length2 = 1.0 / zeta2
    if resolution is None:
        resolution = (128, max(4, round(128 * length2)))
    n1, n2 = int(resolution[0]), int(resolution[1])
    if n1 < 1 or n2 < 1:
        raise ValueError("resolution must be positive in both directions")
    aspect = (n2 / n1) / length2
    if not 0.25 <= aspect <= 4.0:
        raise ValueError(
            "resolution aspect ratio is far from the rectangle's; "
            f"got {n1}x{n2} for lengths (1, {length2:.4g})"
        )

    grid = UniformCellGrid(n1, periodic=True, ny=n2, lengths=(1.0, length2))

    def stretched(pts):
        q = np.array(pts, dtype=float, copy=True)
        q[:, 1] *= zeta2
        return coefficient(q)

    field = CellProblem(stretched, grid, rule).solve((1.0, 1.0), tol)
    return RescaledCell(
        zeta2=zeta2, grid=grid, z1=field.z1, z2=field.z2,
        coefficient_eval=stretched,
        iterations=field.iterations, residual=field.residual,
    )


def write_corrector_csv(field: CorrectorField, stream) -> None:
    """Dump nodal corrector values as y1,y2,z1,z2 rows."""
    stream.write("y1,y2,z1,z2\n")
    coords = field.grid.node_coords()
    for (y1, y2), a, b in zip(coords, field.z1, field.z2):
        stream.write(f"{y1:.17g},{y2:.17g},{a:.17g},{b:.17g}\n")
