"""Numerical homogenization of mapped periodic microstructures.

Coefficients of the form A(alpha_h(x)), with A periodic on the unit cell
and alpha_h a scale map whose second coordinate stretches quadratically,
are not periodic, yet admit effective tensors computed from cell problems
scaled by the diagonal field zeta(x) = (1, 2 x2). This package provides
the cell solvers, the effective-tensor assembly, distribution diagnostics
for the mapped cell partitions, fine-scale comparison solves and a small
experiment CLI.
"""

from .cell import (
    CellProblem,
    CorrectorField,
    RescaledCell,
    solve_corrector,
    solve_rescaled_corrector,
)
from .coefficients import PeriodicCoefficient
from .finescale import (
    DirichletProblem,
    DomainMesh,
    SolutionField,
    convergence_study,
    flux_moment,
    l2_error,
    solve_homogenized,
    solve_oscillatory,
)
from .homogenize import (
    HomogenizationJob,
    HomogenizedTensor,
    classical_homogenized_matrix,
    homogenized_matrix_at,
    isotropy_scan,
    rescaled_matrix,
    tensor_field,
)
from .numerics import (
    CGResult,
    QuadratureRule,
    Rectangle,
    SolverError,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
)
from .structure import (
    AudReport,
    LinearScaleMap,
    QuadraticStretchMap,
    aud_ratio,
    aud_verify,
    oscillatory_mean_integral,
)

__version__ = "0.1.0"

__all__ = [
    "AudReport",
    "CGResult",
    "CellProblem",
    "CorrectorField",
    "DirichletProblem",
    "DomainMesh",
    "HomogenizationJob",
    "HomogenizedTensor",
    "LinearScaleMap",
    "PeriodicCoefficient",
    "QuadratureRule",
    "QuadraticStretchMap",
    "Rectangle",
    "RescaledCell",
    "SolutionField",
    "SolverError",
    "SparseSystem",
    "UniformCellGrid",
    "aud_ratio",
    "aud_verify",
    "cg_solve",
    "classical_homogenized_matrix",
    "convergence_study",
    "flux_moment",
    "homogenized_matrix_at",
    "isotropy_scan",
    "l2_error",
    "oscillatory_mean_integral",
    "rescaled_matrix",
    "solve_corrector",
    "solve_homogenized",
    "solve_oscillatory",
    "solve_rescaled_corrector",
    "tensor_field",
]
