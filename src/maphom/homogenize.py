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

import numpy as np

from .cell import CellProblem, CorrectorField
from .numerics import Rectangle, UniformCellGrid, entries_present

__all__ = [
    "HomogenizedTensor",
    "IsotropyResult",
    "classical_homogenized_matrix",
    "default_x2_samples",
    "homogenized_matrix_at",
    "isotropy_scan",
    "tensor_field",
]


def homogenized_matrix_at(
    coefficient,
    zeta: tuple[float, float],
    corrector: CorrectorField,
) -> np.ndarray:
    """Effective matrix from an already-solved corrector pair.

    The corrector must have been solved with the same scaling; mismatched
    pairs raise ValueError. The matrix is computed by quadrature of the
    corrected flux, independently of :class:`CellProblem`'s dot products,
    and normalized by the cell measure, so it also reads the matrix of a
    rescaled rectangle (:func:`~maphom.cell.solve_rescaled_corrector`):
    the integral of A, plus per column j one contraction of each entry
    a_ik not zero at every point with w_q zeta_k dz_j/dy_k at the points.
    """
    if tuple(corrector.zeta) != (float(zeta[0]), float(zeta[1])):
        raise ValueError("corrector was solved with a different scaling")
    grid = corrector.grid
    A = grid.coefficient(coefficient)
    present = list(zip(*np.nonzero(entries_present(A))))
    b = grid.integral(A)
    for j in range(2):
        # b_ij += sum_k int a_ik zeta_k dz_j/dy_k, entry by entry: one
        # contraction over all of A is several times slower
        flux = grid.gradient(corrector.z[j]) * (np.array(corrector.zeta) * grid.weights[:, None])
        for i, k in present:
            b[i, j] += np.einsum("eq,eq->", A[:, :, i, k], flux[:, :, k])
    return b / grid.area


def classical_homogenized_matrix(
    coefficient,
    grid: UniformCellGrid | int = 128,
) -> np.ndarray:
    """Effective matrix of the unscaled (zeta = (1,1)) cell problem."""
    return tensor_field(coefficient, [1.0], cell_resolution=grid, classical=True).matrices[0]


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
class HomogenizedTensor:
    """Effective matrices sampled along x2, with solver metadata."""

    x2: np.ndarray
    matrices: np.ndarray
    metadata: dict

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.matrices[:, i, j]


# a sample's matrix is read off the reduced basis once its error bound is
# at most this fraction of the largest mean diagonal entry <a_ii>, and a
# truth solve stops there too: a decade below the 1e-12 to which sweeps
# are checked
BOUND_TARGET = 1e-13


def tensor_field(
    coefficient,
    x2_samples,
    *,
    cell_resolution: UniformCellGrid | int = 128,
    classical: bool = False,
) -> HomogenizedTensor:
    """The effective matrices at the samples ``x2_samples``, each finite
    and positive (others raise ValueError naming the sample), from cell
    problems on ``cell_resolution``^2 elements, or on a periodic grid.

    ``classical`` forces zeta = (1, 1) at every sample (the periodic
    baseline); otherwise the quadratic stretch scaling (1, 2 x2) is used.

    Samples are grouped by their exact scaling zeta_2, and each group
    shares one matrix, certified at that scaling. One
    :class:`CellProblem` serves every group, and its matrices are read
    off the problem's dot products: the stationary form for a symmetric
    coefficient, the flux form otherwise (the metadata's
    ``effective_matrix``). The groups are visited in dyadic order of
    their index among the ascending scalings: index 0, then the others by
    decreasing lowest set bit (32; 16, 48; 8, 24, 40, 56; ...), each level
    ascending; for 2^m + 1 scalings this is bisection from both ends. At
    each, the Galerkin projection onto the correctors kept so far
    (:meth:`CellProblem.reduced`) is returned when its rigorous error
    bound, the field's ``bound``, is at most the target, ``BOUND_TARGET``
    times the largest mean diagonal entry. Otherwise the scaling is a
    truth solve started from the projection: CG stops each corrector on
    its own bound at the same target, so the recorded bound meets the
    target by construction, and the pair joins the basis
    (:meth:`CellProblem.keep`). A coefficient with no bound, as a
    non-symmetric one, makes every scaling a truth solve, CG to
    :meth:`CellProblem.solve`'s default residual.

    The bound covers the pair's algebraic error, not the rounding of the
    stationary form: for ``1/a`` (``a`` the sine product at 0.9) on 128^2
    cells, cold solves at x2 = 95.39 with bounds below 6e-17 spread by
    1.5e-12, and a sweep to x2 = 100 lies within 2.4e-12 of three of them.
    Compare such sweeps to 5e-12, not to their bound.

    The metadata's ``scalings`` holds one record per scaling, ascending
    in ``zeta2``: its ``iterations`` (0 for a returned projection), its
    error ``bound`` (None where none applies), and the final
    ``residuals`` and the ``start_residuals`` the start left. Per run it
    holds the absolute ``bound_target`` and the ``truth_scalings`` in the
    order they were solved.
    """
    x2 = np.array(x2_samples, dtype=float).ravel()
    if x2.size == 0:
        raise ValueError("need at least one x2 sample")
    bad = x2[~(np.isfinite(x2) & (x2 > 0))]
    if bad.size:
        raise ValueError(f"x2 sample {float(bad[0])} is not finite and positive")
    problem = CellProblem(coefficient, cell_resolution)
    # a sample above half the float range scales to inf, which the solve
    # refuses naming zeta
    with np.errstate(over="ignore"):
        zeta2 = np.ones_like(x2) if classical else 2.0 * x2
    unique, inverse = np.unique(zeta2, return_inverse=True)
    target = BOUND_TARGET * max(problem.means[0, 0], problem.means[1, 1])

    matrices = np.empty((len(unique), 2, 2))
    scalings: list[dict] = [{}] * len(unique)
    truth: list[float] = []
    sup_norm = 0.0
    # index 0 first, then by decreasing lowest set bit; the sort is stable
    for i in sorted(range(len(unique)), key=lambda i: -(i & -i or len(unique))):
        zeta = (1.0, float(unique[i]))
        field = problem.reduced(zeta)
        if field is None or field.bound is None or not field.bound <= target:
            field = problem.solve(zeta, start=field, target=target)
            problem.keep(field)
            truth.append(zeta[1])
        matrices[i] = problem.effective_matrix(field)
        scalings[i] = {"zeta2": zeta[1], "iterations": list(field.iterations),
                       "bound": field.bound, "residuals": list(field.residual),
                       "start_residuals": list(field.start_residual)}
        sup_norm = max(sup_norm, field.sup_norm())

    metadata = {
        "truth_scalings": truth,
        "bound_target": target,
        "corrector_sup_norm": sup_norm,
        "preconditioner": "spectral",
        "warm_start": "reduced_basis",
        "effective_matrix": "stationary" if problem.symmetric else "flux",
        "scalings": scalings,
    }
    return HomogenizedTensor(x2=x2, matrices=matrices[inverse], metadata=metadata)


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
    best = int(np.lexsort((field.x2, gaps))[0])
    return IsotropyResult(x2=float(field.x2[best]), gap=float(gaps[best]), index=best)

