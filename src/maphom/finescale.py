"""Dirichlet problems on a macroscopic rectangle: the oscillatory-
coefficient solve, the effective-tensor solve and error norms.

Solutions are continuous piecewise bilinear with homogeneous Dirichlet
values, stored on the full node set with exact zeros on the boundary.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .homogenize import HomogenizedTensor
from .numerics import (
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    inner,
    spectral_preconditioner,
)

__all__ = [
    "DirichletProblem",
    "SolutionField",
    "flux_moment",
    "l2_error",
]


@dataclasses.dataclass
class SolutionField:
    """Nodal solution with provenance and solve diagnostics.

    ``values`` covers every node; boundary entries are exactly zero.
    ``energy`` is the quadratic form int D grad(u).grad(u) and
    ``source_work`` the load functional int f u; the two agree to solver
    accuracy by the Galerkin identity. ``assemble_s`` is the wall time
    from the coefficient evaluation to the built preconditioner and
    ``solve_s`` that of the CG solve. ``preconditioner`` is ``"scaled"``,
    ``"half"`` or ``"unscaled"``, the nodal scale :class:`DirichletProblem`
    chose from the ``periods`` across the domain and the coefficient's
    ``contrast``.
    """

    values: np.ndarray
    grid: UniformCellGrid
    label: str
    warn_underresolved: bool
    iterations: int
    residual: float
    energy: float
    source_work: float
    assemble_s: float = 0.0
    solve_s: float = 0.0
    preconditioner: str = "scaled"
    periods: float = 0.0
    contrast: float = 1.0

    @property
    def energy_gap(self) -> float:
        """|energy - source_work| / |source_work|; the absolute gap when
        no work is done."""
        gap = abs(self.energy - self.source_work)
        return gap / abs(self.source_work) if self.source_work else gap

    def diagnostics(self) -> dict:
        """The solve's label, under-resolution flag, preconditioner and the
        periods and contrast it was chosen from, CG iterations, final
        residual, energy gap and its assembly and solve times."""
        return {"label": self.label, "warn_underresolved": self.warn_underresolved,
                "preconditioner": self.preconditioner, "periods": self.periods,
                "contrast": self.contrast, "iterations": self.iterations,
                "residual": self.residual, "energy_gap": self.energy_gap,
                "assemble_s": round(self.assemble_s, 6),
                "solve_s": round(self.solve_s, 6)}


class DirichletProblem:
    """The Dirichlet problem of one source on one mesh, for any coefficient.

    The mesh is a clamped grid over a first-quadrant rectangle with at
    least two elements per direction; its nine-point layout covers the
    interior nodes. Built once per mesh with the interior load of ``f``.
    A solve then evaluates its coefficient once at the grid's quadrature
    points, assembles the interior stiffness and solves it by conjugate
    gradients with the DST-I spectral preconditioner of the mean diagonal
    coefficient.

    The preconditioner's nodal scale ``s = sqrt(diag K0 / diag K)`` is
    picked from three bands of the spread ``P ln c`` against ``sqrt(c)``:
    the full scale ``s`` up to ``2 sqrt(c)``, the half scale ``s^1/2`` up
    to ``8 sqrt(c)`` and no scale beyond. ``P`` is the number of
    coefficient periods across the domain, the longer side of the image
    of its corners under the scale map (0 for the homogenized solve), and
    ``c`` the contrast, the larger of max / min of D11 and of D22 at the
    quadrature points. With the full scale, the condition number grows
    like ``(P ln c)^2`` as its log-gradient varies across the periods;
    without it, it is bounded by ``c``; the half scale halves that
    log-gradient. A constant coefficient (``c = 1``) and a single period
    keep the full scale.
    """

    def __init__(self, grid: UniformCellGrid, f):
        omega = grid.rectangle
        if grid.periodic:
            raise ValueError("Dirichlet problems need a clamped grid")
        if not (omega.a1 > 0 and omega.a2 > 0):
            raise ValueError("domain must lie in the open first quadrant")
        if grid.nx < 2 or grid.ny < 2:
            raise ValueError("mesh needs at least two elements per direction")
        self.grid = grid
        self.interior = ~grid.boundary_mask()
        source = np.asarray(f(grid.points), dtype=float)
        if source.shape != (grid.points.shape[0],):
            raise ValueError("source must return one value per point")
        if not np.all(np.isfinite(source)):
            raise ValueError("source evaluated to a non-finite value")
        load = grid.load(source.reshape(grid.n_elements, -1),
                         grid.weights[:, None] * grid.phi)
        self.load = load[self.interior]

    def oscillatory(self, coefficient, scale_map, tol: float = 1e-8) -> SolutionField:
        """Solve -div(A(alpha_h(x)) grad u) = f with zero Dirichlet data.

        The coefficient is evaluated at the mapped quadrature points. If
        the mesh supplies fewer than 8 elements per local oscillation
        period (checked against the map's requirement at the top edge) the
        solution is flagged under-resolved but still returned.
        """
        omega = self.grid.rectangle
        need1, need2 = scale_map.required_mesh_density(omega)
        warn = self.grid.nx / omega.width < need1 or self.grid.ny / omega.height < need2
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = scale_map(np.array([[omega.a1, omega.a2], [omega.b1, omega.b2]]))
            periods = float(np.max(high - low))
        return self._solve(lambda pts: coefficient(scale_map(pts)), tol,
                           f"oscillatory h={scale_map.h}", warn, periods)

    def homogenized(self, field: HomogenizedTensor, tol: float = 1e-8) -> SolutionField:
        """Solve -div(B(x) grad u) = f for the sampled effective tensor."""
        return self._solve(tensor_evaluator(field), tol, "homogenized", False, 0.0)

    def stiffness(self, coefficient) -> tuple[sp.spmatrix, tuple[float, float], float]:
        """The interior stiffness matrix of a coefficient, the quadrature
        means of its D11 and D22, and its contrast: the larger of max / min
        of D11 and of D22 at the points, infinite where a minimum is not
        positive."""
        D = self.grid.coefficient(coefficient)
        mean = self.grid.mean(D)
        K = self.grid.matrix(self.grid.stiffness_data(D))
        extremes = [(float(d.max()), float(d.min())) for d in (D[..., 0, 0], D[..., 1, 1])]
        contrast = max(hi / lo if lo > 0 else math.inf for hi, lo in extremes)
        return K, (float(mean[0, 0]), float(mean[1, 1])), contrast

    def _preconditioner(self, K: sp.csr_matrix, k1: float, k2: float, periods: float,
                        contrast: float) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
        """The spectral preconditioner of the band ``P ln c`` falls in, and
        its name. A NaN spread, from a domain the map overflows on or 0
        periods times an infinite contrast, keeps the full scale. The
        diagonal lives only until the preconditioner is built."""
        spread, root = periods * math.log(contrast), math.sqrt(contrast)
        if spread > 8.0 * root:
            return spectral_preconditioner(self.grid, k1, k2, None), "unscaled"
        diagonal = K.diagonal()
        if not spread > 2.0 * root:
            return spectral_preconditioner(self.grid, k1, k2, diagonal), "scaled"
        # sqrt(diag K0 diag K) in place; the preconditioner refuses what
        # is not positive
        np.sqrt(diagonal, out=diagonal, where=diagonal > 0.0)
        diagonal *= math.sqrt(self.grid.spectral_diagonal(k1, k2))
        return spectral_preconditioner(self.grid, k1, k2, diagonal), "half"

    def _solve(self, coeff_eval, tol: float, label: str, warn: bool,
               periods: float) -> SolutionField:
        start = time.perf_counter()
        K, (k1, k2), contrast = self.stiffness(coeff_eval)
        precondition, scale = self._preconditioner(K, k1, k2, periods, contrast)
        assembled = time.perf_counter()
        res = cg_solve(SparseSystem(K), self.load, precondition, tol=tol)
        solved = time.perf_counter()
        values = np.zeros(self.grid.n_nodes)
        values[self.interior] = res.x
        return SolutionField(values=values, grid=self.grid, label=label,
                             warn_underresolved=warn, iterations=res.iterations,
                             residual=res.residual, energy=inner(res.x, K @ res.x),
                             source_work=inner(self.load, res.x),
                             assemble_s=assembled - start, solve_s=solved - assembled,
                             preconditioner=scale,
                             periods=periods, contrast=contrast)


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


def l2_error(u: SolutionField, v: SolutionField) -> float:
    """L2 norm of u - v over the domain; both fields must share the grid.

    The difference is piecewise bilinear, so 2x2 Gauss integrates its
    square exactly.
    """
    if u.grid != v.grid:
        raise ValueError("solution fields live on different meshes")
    return float(np.sqrt(u.grid.integral(u.grid.values(u.values - v.values) ** 2)))


def flux_moment(coeff_eval, u: SolutionField, phi) -> float:
    """Weighted flux functional int (D grad u) . phi dx.

    ``phi`` is a smooth vector test field, callable on (m, 2) points with
    (m, 2) values.
    """
    grid = u.grid
    D = grid.coefficient(coeff_eval)
    sigma = np.einsum("eqik,eqk->eqi", D, grid.gradient(u.values))
    test = np.asarray(phi(grid.points), dtype=float).reshape(sigma.shape)
    return float(grid.integral(np.einsum("eqi,eqi->eq", sigma, test)))
