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
    solve_corrector,
    solve_rescaled_corrector,
    stretched,
)
from .coefficients import PeriodicCoefficient
from .finescale import (
    DirichletProblem,
    SolutionField,
    flux_moment,
    l2_error,
)
from .homogenize import (
    HomogenizedTensor,
    classical_homogenized_matrix,
    homogenized_matrix_at,
    isotropy_scan,
    tensor_field,
)
from .numerics import (
    CGResult,
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
    "HomogenizedTensor",
    "LinearScaleMap",
    "PeriodicCoefficient",
    "QuadraticStretchMap",
    "Rectangle",
    "SolutionField",
    "SolverError",
    "SparseSystem",
    "UniformCellGrid",
    "aud_ratio",
    "aud_verify",
    "cg_solve",
    "classical_homogenized_matrix",
    "flux_moment",
    "homogenized_matrix_at",
    "isotropy_scan",
    "l2_error",
    "oscillatory_mean_integral",
    "solve_corrector",
    "solve_rescaled_corrector",
    "stretched",
    "tensor_field",
]
