"""Shared numerical substrate: uniform quadrilateral grids, tensor Gauss
quadrature, the checked evaluation of coefficients, the Q1 quadrature
and assembly on the nine-point CSR layout, a projected conjugate gradient
solver and its spectral preconditioner.

Every integral over a grid goes through :class:`Q1Assembly`: the cell and
Dirichlet matrices, loads and fluxes, the effective-matrix oracle and the
error norms. Periodic cell problems and Dirichlet problems on macroscopic
rectangles solve through :func:`cg_solve` with
:func:`spectral_preconditioner`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CGResult",
    "Q1Assembly",
    "QuadratureRule",
    "Rectangle",
    "SolverError",
    "SparseSystem",
    "UniformCellGrid",
    "cg_solve",
    "evaluate_coefficient",
    "interpolate_nodal",
    "nine_point_layout",
    "spectral_preconditioner",
]


class SolverError(RuntimeError):
    """An iterative solve failed to reach the requested tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclasses.dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle (a1, b1) x (a2, b2)."""

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        if not (self.b1 > self.a1 and self.b2 > self.a2):
            raise ValueError("rectangle sides must have positive length")

    @property
    def width(self) -> float:
        return self.b1 - self.a1

    @property
    def height(self) -> float:
        return self.b2 - self.a2

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x1: float, x2: float) -> bool:
        return self.a1 <= x1 <= self.b1 and self.a2 <= x2 <= self.b2


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product rule on the reference square [0,1]^2.

    Attributes:
        points: (nq, 2) quadrature points.
        weights: (nq,) weights summing to 1, the reference measure.
        order: largest per-axis polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    order: int

    @staticmethod
    def gauss(npts_per_axis: int = 2) -> "QuadratureRule":
        """Gauss-Legendre tensor rule, exact per axis up to degree 2*npts - 1."""
        if npts_per_axis < 1:
            raise ValueError("need at least one point per axis")
        t, w = np.polynomial.legendre.leggauss(npts_per_axis)
        t = 0.5 * (t + 1.0)  # map [-1,1] -> [0,1]
        w = 0.5 * w
        pts = np.array([(a, b) for b in t for a in t])
        wts = np.array([wa * wb for wb in w for wa in w])
        return QuadratureRule(points=pts, weights=wts, order=2 * npts_per_axis - 1)


DEFAULT_RULE = QuadratureRule.gauss(2)


class UniformCellGrid:
    """Uniform quadrilateral grid on an axis-aligned rectangle.

    The default configuration is the periodic unit cell: ``n_per_side``
    elements per direction on [0,1]^2 with wrap-around node identification,
    hence exactly n_per_side^2 distinct nodes and spacing 1/n_per_side.
    Passing ``periodic=False`` keeps all (nx+1)*(ny+1) nodes; combined with
    ``origin`` and ``lengths`` that covers Dirichlet meshes on macroscopic
    rectangles and the rescaled cell rectangles.
    """

    def __init__(
        self,
        n_per_side: int,
        periodic: bool = True,
        *,
        ny: int | None = None,
        lengths: tuple[float, float] = (1.0, 1.0),
        origin: tuple[float, float] = (0.0, 0.0),
    ):
        nx = int(n_per_side)
        ny = nx if ny is None else int(ny)
        if nx < 1 or ny < 1:
            raise ValueError("grid needs at least one element per direction")
        if lengths[0] <= 0 or lengths[1] <= 0:
            raise ValueError("grid side lengths must be positive")
        self.nx = nx
        self.ny = ny
        self.periodic = bool(periodic)
        self.lengths = (float(lengths[0]), float(lengths[1]))
        self.origin = (float(origin[0]), float(origin[1]))
        self.hx = self.lengths[0] / nx
        self.hy = self.lengths[1] / ny
        self._conn: np.ndarray | None = None

    @property
    def n_per_side(self) -> int:
        if self.nx != self.ny:
            raise ValueError("grid is not square")
        return self.nx

    @property
    def spacing(self) -> tuple[float, float]:
        return (self.hx, self.hy)

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def n_nodes(self) -> int:
        if self.periodic:
            return self.nx * self.ny
        return (self.nx + 1) * (self.ny + 1)

    @property
    def area(self) -> float:
        return self.lengths[0] * self.lengths[1]

    def node_index(self, i, j):
        """Global node index for integer grid coordinates (vectorized)."""
        if self.periodic:
            return (np.asarray(j) % self.ny) * self.nx + (np.asarray(i) % self.nx)
        return np.asarray(j) * (self.nx + 1) + np.asarray(i)

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) coordinates, row-major in (j, i)."""
        mx = self.nx if self.periodic else self.nx + 1
        my = self.ny if self.periodic else self.ny + 1
        ii, jj = np.meshgrid(np.arange(mx), np.arange(my))
        x = self.origin[0] + ii.ravel() * self.hx
        y = self.origin[1] + jj.ravel() * self.hy
        return np.column_stack([x, y])

    def connectivity(self) -> np.ndarray:
        """(n_elements, 4) node indices per element.

        Local corner order: (i,j), (i+1,j), (i+1,j+1), (i,j+1), matching the
        reference-square shape function order.
        """
        if self._conn is None:
            ii, jj = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
            ii = ii.ravel()
            jj = jj.ravel()
            self._conn = np.column_stack([
                self.node_index(ii, jj),
                self.node_index(ii + 1, jj),
                self.node_index(ii + 1, jj + 1),
                self.node_index(ii, jj + 1),
            ]).astype(np.int64)
        return self._conn

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of boundary nodes; all-False for periodic grids."""
        if self.periodic:
            return np.zeros(self.n_nodes, dtype=bool)
        mask = np.zeros((self.ny + 1, self.nx + 1), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask.ravel()


def q1_tables(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear shape values and reference gradients at the rule's points.

    Returns (phi, dphi) with shapes (nq, 4) and (nq, 4, 2). Corner order
    matches UniformCellGrid.connectivity.
    """
    xi = rule.points[:, 0]
    eta = rule.points[:, 1]
    phi = np.column_stack([
        (1 - xi) * (1 - eta),
        xi * (1 - eta),
        xi * eta,
        (1 - xi) * eta,
    ])
    dphi = np.empty((len(xi), 4, 2))
    dphi[:, 0, 0] = -(1 - eta)
    dphi[:, 1, 0] = 1 - eta
    dphi[:, 2, 0] = eta
    dphi[:, 3, 0] = -eta
    dphi[:, 0, 1] = -(1 - xi)
    dphi[:, 1, 1] = -xi
    dphi[:, 2, 1] = xi
    dphi[:, 3, 1] = 1 - xi
    return phi, dphi


@dataclasses.dataclass(frozen=True)
class SparseSystem:
    """A square CSR matrix, used as it is: its layout, explicit zeros and
    repeated entries included. A system flagged ``singular`` has the
    constant vector in its kernel (periodic diffusion operators) and is
    solved on the zero-mean subspace."""

    matrix: sp.csr_matrix
    singular: bool = False

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclasses.dataclass
class CGResult:
    """Conjugate gradient outcome: solution plus convergence diagnostics."""

    x: np.ndarray
    iterations: int
    residual: float


def spectral_preconditioner(
    grid: UniformCellGrid,
    k1: float,
    k2: float,
    diagonal: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Diagonally scaled inverse of a constant-coefficient Q1 operator.

    Returns ``r -> s K0^-1 s r``. ``K0`` is the Q1 stiffness of the
    constant coefficient diag(k1, k2) on ``grid``; it is diagonal in the
    Fourier basis with symbol ``k1 S(tx) M(ty) + k2 M(tx) S(ty)``, where
    ``S(t) = (2 - 2 cos t) / h`` and ``M(t) = h (4 + 2 cos t) / 6`` are the
    1-D stiffness and mass symbols. Periodic grids act on all nodes
    through ``rfft2`` with the constant mode sent to zero; other grids act
    on the interior nodes, where DST-I diagonalizes ``K0`` at
    ``t = k pi / n``. The nodal scale ``s = sqrt(diag(K0) / diagonal)``,
    with ``diagonal`` that of the system matrix K, gives ``s K s`` the
    diagonal of ``K0``; this keeps the iteration count low at high
    coefficient contrast.

    The preconditioner keeps the inverse symbol and the nodal scale; on
    Dirichlet grids also one odd-extension and one spectrum buffer per
    axis, which every apply reuses, so one preconditioner must not be
    applied from two threads at once.

    Raises:
        SolverError: ``k1``, ``k2`` or a diagonal entry is not finite, as
            when a scaled stiffness overflows (0 iterations, residual nan).
        ValueError: a non-positive one, or a diagonal of the wrong size.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    if grid.periodic:
        shape = (ny, nx)
        tx = 2.0 * np.pi * np.arange(nx // 2 + 1) / nx
        ty = 2.0 * np.pi * np.arange(ny) / ny
    else:
        shape = (ny - 1, nx - 1)
        tx = np.pi * np.arange(1, nx) / nx
        ty = np.pi * np.arange(1, ny) / ny
    diagonal = np.asarray(diagonal, dtype=float).ravel()
    if diagonal.size != shape[0] * shape[1]:
        raise ValueError("matrix diagonal does not match the grid's unknowns")
    bad = [f"{name} = {value}" for name, value in (("k1", k1), ("k2", k2))
           if not np.isfinite(value)]
    bad += [f"diagonal[{p}] = {diagonal[p]}"
            for p in np.flatnonzero(~np.isfinite(diagonal))[:1]]
    if bad:
        raise SolverError("preconditioner input is not finite: " + ", ".join(bad),
                          0, float("nan"))
    if not (k1 > 0 and k2 > 0 and np.all(diagonal > 0)):
        raise ValueError("preconditioner needs positive coefficient means and diagonal")

    def stiff(t, h):
        return (2.0 - 2.0 * np.cos(t)) / h

    def mass(t, h):
        return h * (4.0 + 2.0 * np.cos(t)) / 6.0

    symbol = (k1 * stiff(tx, hx)[None, :] * mass(ty, hy)[:, None]
              + k2 * mass(tx, hx)[None, :] * stiff(ty, hy)[:, None])
    inverse = np.zeros_like(symbol)
    positive = symbol > 0.0
    inverse[positive] = 1.0 / symbol[positive]
    # diag(K0) combines the centre weights 2/h of S and 4h/6 of M
    scale = np.sqrt(4.0 / 3.0 * (k1 * hy / hx + k2 * hx / hy) / diagonal)

    if grid.periodic:
        def apply(r: np.ndarray) -> np.ndarray:
            u = (scale * r).reshape(shape)
            u = np.fft.irfft2(np.fft.rfft2(u) * inverse, s=shape)
            return scale * u.ravel()

        return apply

    # DST-I of a length-n axis is -1/2 the imaginary part of the rfft of
    # its odd extension [0, a, 0, -reversed a]; the extension buffers'
    # two zero columns are never written. A pass below keeps the
    # imaginary part, which is -2 DST-I, and two DST-I per axis multiply
    # by nx ny / 4, so the four passes multiply by 4 nx ny; the transposed
    # inverse symbol divides that out.
    my, mx = shape
    inverse_t = (inverse / (4.0 * nx * ny)).T.copy()
    scale = scale.reshape(shape)
    ext_x, spec_x = np.zeros((my, 2 * mx + 2)), np.empty((my, mx + 2), dtype=complex)
    ext_y, spec_y = np.zeros((mx, 2 * my + 2)), np.empty((mx, my + 2), dtype=complex)

    def sine_pass(ext: np.ndarray, spec: np.ndarray) -> np.ndarray:
        n = spec.shape[1] - 2
        np.negative(ext[:, n:0:-1], out=ext[:, n + 2:])
        np.fft.rfft(ext, out=spec)
        return spec.imag[:, 1:n + 1]

    def apply(r: np.ndarray) -> np.ndarray:
        np.multiply(scale, r.reshape(shape), out=ext_x[:, 1:mx + 1])
        np.copyto(ext_y[:, 1:my + 1], sine_pass(ext_x, spec_x).T)
        np.multiply(sine_pass(ext_y, spec_y), inverse_t, out=ext_y[:, 1:my + 1])
        np.copyto(ext_x[:, 1:mx + 1], sine_pass(ext_y, spec_y).T)
        return (scale * sine_pass(ext_x, spec_x)).ravel()

    return apply


def cg_solve(
    system: SparseSystem,
    rhs: np.ndarray,
    preconditioner: Callable[[np.ndarray], np.ndarray],
    *,
    tol: float = 1e-10,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
) -> CGResult:
    """Preconditioned conjugate gradients.

    Solves ``system`` for ``rhs`` down to a relative residual of ``tol``
    (measured in the Euclidean norm against the true residual). Systems
    flagged singular are solved on the zero-mean subspace: the right-hand
    side and every iterate have their mean subtracted, which selects the
    zero-mean representative of the solution family.

    ``preconditioner`` maps a residual to a search direction; the cell and
    Dirichlet solvers pass :func:`spectral_preconditioner`.

    Raises:
        SolverError: a non-finite residual, a breakdown, or no convergence
            within ``max_iter`` iterations (default 10 * dimension); the
            exception carries the iteration count and the relative
            residual.
        ValueError: dimension mismatch between system and vectors.
    """
    A = system.matrix
    n = system.dimension
    b = np.asarray(rhs, dtype=float).ravel().copy()
    if b.size != n:
        raise ValueError("right-hand side length does not match system dimension")
    if max_iter is None:
        max_iter = 10 * n

    if system.singular:
        b -= b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return CGResult(np.zeros(n), 0, 0.0)

    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=float).ravel().copy()
        if x.size != n:
            raise ValueError("initial guess length does not match system dimension")
        if system.singular:
            x -= x.mean()
        r = b - A @ x
    if system.singular:
        r -= r.mean()

    iterations = 0
    while True:
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise SolverError(
                f"conjugate gradient residual is not finite after {iterations} "
                f"iterations (relative residual {res / bnorm:.3e})",
                iterations, res / bnorm)
        if res <= tol * bnorm and iterations > 0:
            # guard against recurrence drift before declaring victory
            r = b - A @ x
            if system.singular:
                r -= r.mean()
            res = float(np.linalg.norm(r))
        if res <= tol * bnorm:
            return CGResult(x, iterations, res / bnorm)
        if iterations == max_iter:
            raise SolverError(
                f"conjugate gradient did not converge in {max_iter} iterations "
                f"(relative residual {res / bnorm:.3e})", iterations, res / bnorm)
        z = preconditioner(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise SolverError(
                "conjugate gradient breakdown: the preconditioned residual is "
                f"orthogonal to the residual (relative residual {res / bnorm:.3e})",
                iterations, res / bnorm)
        p = z.copy() if iterations == 0 else z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                "conjugate gradient breakdown: operator is not positive definite "
                "on the search space", iterations, res / bnorm)
        alpha = rz / pAp
        x += alpha * p
        if system.singular:
            x -= x.mean()
        r -= alpha * Ap


def interpolate_nodal(grid: UniformCellGrid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the bilinear interpolant of nodal ``values`` at ``points``.

    Periodic grids wrap around; otherwise points are clamped to the
    rectangle.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size != grid.n_nodes:
        raise ValueError("nodal array length does not match grid")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sx = (pts[:, 0] - grid.origin[0]) / grid.hx
    sy = (pts[:, 1] - grid.origin[1]) / grid.hy
    if grid.periodic:
        sx = np.mod(sx, grid.nx)
        sy = np.mod(sy, grid.ny)
    else:
        sx = np.clip(sx, 0.0, grid.nx)
        sy = np.clip(sy, 0.0, grid.ny)
    i0 = np.minimum(np.floor(sx).astype(np.int64), grid.nx - 1)
    j0 = np.minimum(np.floor(sy).astype(np.int64), grid.ny - 1)
    fx = sx - i0
    fy = sy - j0
    n00 = grid.node_index(i0, j0)
    n10 = grid.node_index(i0 + 1, j0)
    n11 = grid.node_index(i0 + 1, j0 + 1)
    n01 = grid.node_index(i0, j0 + 1)
    out = (
        values[n00] * (1 - fx) * (1 - fy)
        + values[n10] * fx * (1 - fy)
        + values[n11] * fx * fy
        + values[n01] * (1 - fx) * fy
    )
    return out if out.size > 1 else out.reshape(-1)


def nine_point_layout(grid: UniformCellGrid) -> tuple[np.ndarray, np.ndarray]:
    """The nine-point CSR layout of Q1 matrices on a grid's unknowns.

    The unknowns are all nodes of a periodic grid and the interior nodes
    of any other grid, numbered row-major in (j, i). Row p of a matrix in
    this layout holds nine entries, one per neighbour p + (dx, dy) with
    dx, dy in {-1, 0, 1}, in the order s = 3 (dy + 1) + dx + 1. Returns
    ``columns``, the column indices of all rows one after another (the
    CSR ``indices``; ``indptr`` steps by nine), and ``slots``, the place
    9 p + s of every entry of the (n_elements, 4, 4) element matrices, so
    that ``np.bincount(slots, weights=Ke.ravel(), minlength=columns.size
    + 1)[:-1]`` assembles the CSR data. Entries whose row or column is a
    boundary node have the slot ``columns.size``, one past the end, and
    drop out.

    Every row keeps its nine entries whatever their values: a boundary
    neighbour becomes an explicit zero in the row's own column. On
    periodic grids with fewer than three elements per side some
    neighbours coincide; their entries stay separate, and CSR products
    and diagonals sum them.
    """
    nx, ny = grid.nx, grid.ny
    shifts = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    if grid.periodic:
        nodes = np.arange(grid.n_nodes).reshape(ny, nx)
        columns = np.stack([np.roll(nodes, (-dy, -dx), axis=(0, 1))
                            for dx, dy in shifts], axis=-1)
        conn = grid.connectivity()
    else:
        # interior numbering of all nodes, -1 on the boundary
        number = np.full((ny + 1, nx + 1), -1)
        number[1:-1, 1:-1] = np.arange((nx - 1) * (ny - 1)).reshape(ny - 1, nx - 1)
        columns = np.stack([number[1 + dy:ny + dy, 1 + dx:nx + dx]
                            for dx, dy in shifts], axis=-1)
        columns = np.where(columns < 0, number[1:-1, 1:-1, None], columns)
        conn = number.ravel()[grid.connectivity()]
    corner = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
    step = corner[None, :, :] - corner[:, None, :]  # [a, b]: corner b - corner a
    offset = 3 * (step[..., 1] + 1) + step[..., 0] + 1
    slots = 9 * conn[:, :, None] + offset[None, :, :]
    if not grid.periodic:
        slots[(conn[:, :, None] < 0) | (conn[:, None, :] < 0)] = columns.size
    return columns.ravel().astype(np.int32), slots.ravel()


def evaluate_coefficient(coefficient, points: np.ndarray) -> np.ndarray:
    """Values of ``coefficient`` at (m, 2) points. A coefficient is any
    callable returning (m, 2, 2) values; values of another shape and
    non-finite values raise ValueError."""
    values = np.asarray(coefficient(points), dtype=float)
    if values.shape != (points.shape[0], 2, 2):
        raise ValueError(f"coefficient values have shape {values.shape}, not (m, 2, 2)")
    if not np.all(np.isfinite(values)):
        raise ValueError("coefficient evaluated to a non-finite value")
    return values


class Q1Assembly:
    """Q1 quadrature on one grid and rule: every integral over the grid.

    Keeps the quadrature points (n_elements * nq, 2), the shape values
    ``phi`` (nq, 4), the physical shape gradients (nq, 4, 2), the weights
    ``w_q |element|`` and the element tables
    ``T_ik[q, (a, b)] = w_q d_i phi_a d_k phi_b``. Nodal fields are read at
    the points through ``values`` and ``gradient``, fields at the points
    are integrated by ``integral`` and tested against the shape functions
    by ``load``. The element matrices of a coefficient D are
    ``sum_ik D_ik T_ik``; one ``np.bincount`` sums them into CSR data on
    the :func:`nine_point_layout`, which is built on first use, so
    quadratures that assemble no matrix never pay for it.
    """

    def __init__(self, grid: UniformCellGrid, rule: QuadratureRule = DEFAULT_RULE):
        self.grid = grid
        self.rule = rule
        self._conn = grid.connectivity()
        offsets = rule.points * np.array([grid.hx, grid.hy])
        # each element's first corner is its lower-left node
        self.points = (grid.node_coords()[self._conn[:, 0], None, :]
                       + offsets[None, :, :]).reshape(-1, 2)
        self.phi, dphi = q1_tables(rule)
        self.gradients = dphi / np.array([grid.hx, grid.hy])
        self.weights = rule.weights * (grid.hx * grid.hy)
        G, w, nq = self.gradients, self.weights, len(rule.weights)
        self.tables = [[(w[:, None, None] * G[:, :, None, i] * G[:, None, :, k])
                        .reshape(nq, 16) for k in range(2)] for i in range(2)]

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nine-point ``columns`` and ``slots`` and the CSR ``indptr``."""
        columns, slots = nine_point_layout(self.grid)
        return columns, slots, np.arange(0, columns.size + 1, 9, dtype=np.int32)

    def coefficient(self, coefficient) -> np.ndarray:
        """(n_elements, nq, 2, 2) checked values at the quadrature points."""
        return evaluate_coefficient(coefficient, self.points).reshape(
            self.grid.n_elements, len(self.rule.weights), 2, 2)

    def _corners(self, nodal: np.ndarray) -> np.ndarray:
        nodal = np.asarray(nodal, dtype=float).ravel()
        if nodal.size != self.grid.n_nodes:
            raise ValueError("nodal array length does not match grid")
        return nodal[self._conn]

    def values(self, nodal: np.ndarray) -> np.ndarray:
        """(n_elements, nq) values of the bilinear interpolant of nodal
        values at the quadrature points."""
        return np.einsum("qa,ea->eq", self.phi, self._corners(nodal))

    def gradient(self, nodal: np.ndarray) -> np.ndarray:
        """(n_elements, nq, 2) gradient of the bilinear interpolant of
        nodal values at the quadrature points."""
        return np.einsum("qad,ea->eqd", self.gradients, self._corners(nodal),
                         optimize=True)

    def integral(self, values: np.ndarray) -> np.ndarray:
        """The integral over the grid of (n_elements, nq, ...) values at the
        quadrature points."""
        return np.einsum("eq...,q->...", values, self.weights)

    def load(self, values: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Nodal vector of the element vectors ``values @ table``, for
        (n_elements, nq) values and an (nq, 4) table: ``weights[:, None] *
        phi`` gives the load ``int s phi_a`` of values s."""
        return np.bincount(self._conn.ravel(), weights=(values @ table).ravel(),
                           minlength=self.grid.n_nodes)

    def mean(self, D: np.ndarray) -> np.ndarray:
        """The 2x2 quadrature mean of coefficient values at the points."""
        return np.einsum("eqik,q->ik", D, self.rule.weights) / self.grid.n_elements

    def stiffness_data(
        self,
        D: np.ndarray,
        entries: Sequence[tuple[int, int]] = ((0, 0), (0, 1), (1, 0), (1, 1)),
    ) -> np.ndarray:
        """CSR data of the stiffness of the entries (i, k) of D, summed in
        the given order."""
        columns, slots, _ = self.layout
        Ke = sum(D[:, :, i, k] @ self.tables[i][k] for i, k in entries)
        return np.bincount(slots, weights=Ke.ravel(), minlength=columns.size + 1)[:-1]

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with the given data on the nine-point layout."""
        columns, _, indptr = self.layout
        n = indptr.size - 1
        return sp.csr_matrix((data, columns, indptr), shape=(n, n))
