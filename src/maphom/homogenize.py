"""Effective 2x2 tensors from cell correctors.

The pointwise effective matrix at a macroscopic point with scaling
zeta(x) is

    b_ij = int_Y sum_k a_ik(y) (delta_kj + zeta_k dz_j/dy_k) dy,

normalized by the cell measure (1 on the unit cell). Because the scaling
of the quadratic stretch family depends on x2 alone, the tensor over a
domain is a one-parameter family in x2; equal scalings share one corrector
solve.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .cell import CellProblem, CorrectorField, RescaledCell
from .coefficients import PeriodicCoefficient
from .numerics import (
    DEFAULT_RULE,
    Q1Assembly,
    QuadratureRule,
    Rectangle,
    UniformCellGrid,
)

__all__ = [
    "HomogenizationJob",
    "HomogenizedTensor",
    "IsotropyResult",
    "classical_homogenized_matrix",
    "default_x2_samples",
    "homogenized_matrix_at",
    "isotropy_scan",
    "rescaled_matrix",
    "sym_eigenvalue_range",
    "tensor_field",
    "write_tensor_csv",
]


def _effective_matrix(
    coefficient,
    zeta: tuple[float, float],
    z_pair: Sequence[np.ndarray],
    grid: UniformCellGrid,
    rule: QuadratureRule,
) -> np.ndarray:
    """Quadrature of the effective-matrix integrand, normalized by the
    cell measure so the same path serves unit and rescaled cells."""
    assembly = Q1Assembly(grid, rule)
    A = assembly.coefficient(coefficient)
    zvec = np.array([float(zeta[0]), float(zeta[1])])
    b = np.empty((2, 2))
    for j in range(2):
        # integrand_i = a_ij + sum_k a_ik zeta_k dz_j/dy_k
        col = A[:, :, :, j] + np.einsum(
            "eqik,k,eqk->eqi", A, zvec, assembly.gradient(z_pair[j]), optimize=True
        )
        b[:, j] = assembly.integral(col)
    return b / grid.area


def homogenized_matrix_at(
    coefficient,
    zeta: tuple[float, float],
    corrector: CorrectorField,
    rule: QuadratureRule = DEFAULT_RULE,
) -> np.ndarray:
    """Effective matrix from an already-solved corrector pair.

    The corrector must have been solved with the same scaling; mismatched
    pairs raise ValueError. The matrix is computed by quadrature of the
    corrected flux, independently of :class:`CellProblem`'s dot products.
    """
    if tuple(corrector.zeta) != (float(zeta[0]), float(zeta[1])):
        raise ValueError("corrector was solved with a different scaling")
    return _effective_matrix(coefficient, zeta, (corrector.z1, corrector.z2),
                             corrector.grid, rule)


def classical_homogenized_matrix(
    coefficient,
    grid: UniformCellGrid | int = 128,
    tol: float = 1e-10,
    rule: QuadratureRule = DEFAULT_RULE,
) -> np.ndarray:
    """Effective matrix of the unscaled (zeta = (1,1)) cell problem."""
    problem = CellProblem(coefficient, grid, rule)
    return problem.effective_matrix(problem.solve((1.0, 1.0), tol))


def rescaled_matrix(cell: RescaledCell, rule: QuadratureRule = DEFAULT_RULE) -> np.ndarray:
    """Effective matrix from the rescaled-rectangle route.

    The classical formula on the rectangle, normalized by its measure,
    equals the scaled-cell matrix at the matching zeta up to discretization
    error.
    """
    return _effective_matrix(cell.coefficient_eval, (1.0, 1.0),
                             (cell.z1, cell.z2), cell.grid, rule)


def default_x2_samples(omega: Rectangle, count: int = 64) -> np.ndarray:
    """``count`` uniform samples strictly inside (a2, b2).

    Implemented as the interior points of an inclusive (count+2)-point
    subdivision; for the default domain (0.05, 2) the default count puts a
    sample within one ulp of x2 = 0.5.
    """
    if count < 1:
        raise ValueError("sample count must be positive")
    return np.linspace(omega.a2, omega.b2, count + 2)[1:-1]


@dataclasses.dataclass
class HomogenizationJob:
    """Specification of a tensor-field computation over a domain.

    ``classical`` forces zeta = (1, 1) at every sample (the periodic
    baseline); otherwise the quadratic stretch scaling (1, 2 x2) is used.
    """

    coefficient: PeriodicCoefficient
    omega: Rectangle
    x2_samples: np.ndarray
    cell_resolution: int = 128
    tol: float = 1e-10
    classical: bool = False

    def __post_init__(self):
        if not (self.omega.a1 > 0 and self.omega.a2 > 0):
            raise ValueError("domain must lie in the open first quadrant")
        self.x2_samples = np.asarray(self.x2_samples, dtype=float).ravel()
        if self.x2_samples.size == 0:
            raise ValueError("need at least one x2 sample")
        inside = (self.x2_samples > self.omega.a2) & (self.x2_samples < self.omega.b2)
        if not np.all(inside):
            bad = float(self.x2_samples[~inside][0])
            raise ValueError(f"x2 sample {bad} lies outside ({self.omega.a2}, {self.omega.b2})")
        if self.cell_resolution < 1:
            raise ValueError("cell resolution must be positive")


@dataclasses.dataclass
class HomogenizedTensor:
    """Effective matrices sampled along x2, with job metadata."""

    x2: np.ndarray
    matrices: np.ndarray
    metadata: dict

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.matrices[:, i, j]


def _round_sig(value: float, digits: int = 12) -> float:
    return float(f"{value:.{digits}g}")


def tensor_field(job: HomogenizationJob) -> HomogenizedTensor:
    """Solve the tensor field over the job's x2 samples.

    Samples are grouped by their scaling zeta_2 rounded to 12 significant
    digits; each group is solved once and shares bitwise-identical
    matrices. One :class:`CellProblem` serves every group: the groups are
    solved in ascending order, each warm started from the previous
    solution, and each matrix is read off the problem's dot products.
    """
    problem = CellProblem(job.coefficient,
                          UniformCellGrid(job.cell_resolution, periodic=True))
    if job.classical:
        zeta2 = np.ones_like(job.x2_samples)
    else:
        zeta2 = 2.0 * job.x2_samples
    keys = [_round_sig(z) for z in zeta2]
    unique = sorted(set(keys))

    matrices: dict[float, np.ndarray] = {}
    iterations: dict[float, tuple[int, int]] = {}
    residuals: dict[float, tuple[float, float]] = {}
    sup_norm = 0.0
    prev: tuple[np.ndarray, np.ndarray] | None = None
    for z2 in unique:
        corr = problem.solve((1.0, z2), tol=job.tol, x0_pair=prev)
        matrices[z2] = problem.effective_matrix(corr)
        iterations[z2] = corr.iterations
        residuals[z2] = corr.residual
        sup_norm = max(sup_norm, corr.sup_norm())
        prev = (corr.z1, corr.z2)

    metadata = {
        "coefficient": job.coefficient.description,
        "cell_resolution": job.cell_resolution,
        "tol": job.tol,
        "classical": job.classical,
        "unique_scalings": len(unique),
        "corrector_sup_norm": sup_norm,
        "preconditioner": "spectral",
        "cg_iterations": iterations,
        "cg_residuals": residuals,
    }
    return HomogenizedTensor(x2=job.x2_samples.copy(),
                             matrices=np.stack([matrices[k] for k in keys]),
                             metadata=metadata)


@dataclasses.dataclass
class IsotropyResult:
    x2: float
    gap: float
    index: int


def isotropy_scan(field: HomogenizedTensor) -> IsotropyResult:
    """Locate the sample where |b11 - b22| is smallest.

    Ties prefer the smallest x2. Fewer than three samples is a usage
    error: a scan over one or two points says nothing about a minimum.
    """
    if field.x2.size < 3:
        raise ValueError("isotropy scan needs at least three samples")
    gaps = np.abs(field.entry(0, 0) - field.entry(1, 1))
    best = 0
    for i in range(1, gaps.size):
        better = gaps[i] < gaps[best]
        tie = gaps[i] == gaps[best] and field.x2[i] < field.x2[best]
        if better or tie:
            best = i
    return IsotropyResult(x2=float(field.x2[best]), gap=float(gaps[best]), index=best)


def sym_eigenvalue_range(matrices: np.ndarray) -> tuple[float, float]:
    """Closed-form eigenvalue range of symmetrized 2x2 matrices.

    Returns (smallest, largest) over the whole stack.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim == 2:
        m = m[None]
    a = m[:, 0, 0]
    d = m[:, 1, 1]
    off = 0.5 * (m[:, 0, 1] + m[:, 1, 0])
    center = 0.5 * (a + d)
    radius = np.sqrt((0.5 * (a - d)) ** 2 + off ** 2)
    return float((center - radius).min()), float((center + radius).max())


def write_tensor_csv(field: HomogenizedTensor, stream) -> None:
    """Write one row per sample: x2,b11,b12,b21,b22."""
    stream.write("x2,b11,b12,b21,b22\n")
    for x2, m in zip(field.x2, field.matrices):
        stream.write(
            f"{x2:.17g},{m[0, 0]:.17g},{m[0, 1]:.17g},{m[1, 0]:.17g},{m[1, 1]:.17g}\n"
        )
