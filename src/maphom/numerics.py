"""Shared numerical substrate: uniform quadrilateral grids, the fixed 2x2
Gauss rule, the checked evaluation of coefficients, the Q1 quadrature
and assembly on the nine-point CSR layout, a projected conjugate gradient
solver and its spectral preconditioner.

Every integral over a grid goes through the :class:`UniformCellGrid`
itself: the cell and Dirichlet matrices, loads and fluxes, the
effective-matrix oracle and the error norms. Periodic cell problems and
Dirichlet problems on macroscopic rectangles solve through
:func:`cg_solve` with :func:`spectral_preconditioner`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CGResult",
    "Rectangle",
    "SolverError",
    "SparseSystem",
    "UniformCellGrid",
    "cg_solve",
    "dual_norm",
    "entries_present",
    "inner",
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


def _gauss_2x2() -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(2)
    t, w = 0.5 * (t + 1.0), 0.5 * w  # map [-1, 1] -> [0, 1]
    points = np.array([(a, b) for b in t for a in t])
    weights = np.array([wa * wb for wb in w for wa in w])
    points.flags.writeable = weights.flags.writeable = False  # shared constants
    return points, weights


# The one quadrature rule: 2x2 Gauss on the reference square [0, 1]^2,
# (4, 2) points with the first axis fastest and (4,) weights summing to 1.
# It integrates bicubics exactly, so l2_error is exact for Q1 fields, and
# CellProblem.effective_matrix equals the homogenized_matrix_at oracle
# because both sum over the same points. The points are leggauss(2) mapped
# to [0, 1]; the closed form 0.5 +- 1/(2 sqrt 3) differs in the last bit.
GAUSS_POINTS, GAUSS_WEIGHTS = _gauss_2x2()


# (dx, dy) of the corners of an element from its lower-left node, in the
# shape function order of q1_tables
CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
# the nine-point slot 3 (dy + 1) + dx + 1 of entry (a, b) of an element
# matrix, with (dx, dy) the step from corner a to corner b
NINE_POINT_SLOTS = np.array([[3 * (by - ay + 1) + bx - ax + 1 for bx, by in CORNERS]
                             for ax, ay in CORNERS])


class UniformCellGrid:
    """Uniform quadrilateral grid on a rectangle, and the Q1 quadrature on it.

    ``n_per_side`` elements in x1 and ``ny`` (as many by default) in x2
    on ``rectangle``. A periodic grid identifies opposite edges and has
    nx * ny nodes; the default is the periodic unit cell. A clamped grid
    (``periodic=False``) keeps all (nx+1)*(ny+1) nodes and its interior
    ones are the unknowns, as on Dirichlet meshes. Grids compare by value.

    Every integral over the grid goes through it. It keeps the shape
    values ``phi`` (nq, 4), the physical shape gradients (nq, 4, 2), the
    weights ``w_q |element|`` and the element tables
    ``tables[(a, b), q, i, k] = w_q d_i phi_a d_k phi_b``, and builds on
    first use the quadrature ``points`` (n_elements * nq, 2) and the
    :func:`nine_point_layout`, which a quadrature that assembles no matrix
    never pays for. Nodal fields are read at the points by ``values`` and
    ``gradient``; fields at the points are integrated by ``integral``, and
    ``load`` and ``assemble`` sum element vectors and matrices at the
    nodes. All four go through (ny, nx) arrays shifted by a corner, with
    no index arrays; the element-to-node ``connectivity`` is there for
    reference assemblies by scatter.
    """

    def __init__(
        self,
        n_per_side: int,
        periodic: bool = True,
        *,
        ny: int | None = None,
        rectangle: Rectangle = Rectangle(0.0, 1.0, 0.0, 1.0),
    ):
        nx = operator.index(n_per_side)
        ny = nx if ny is None else operator.index(ny)
        if nx < 1 or ny < 1:
            raise ValueError("grid needs at least one element per direction")
        self.nx = nx
        self.ny = ny
        self.periodic = bool(periodic)
        self.rectangle = rectangle
        self.hx = hx = rectangle.width / nx
        self.hy = hy = rectangle.height / ny
        # the weights scale as hx hy, the gradients as 1 / hx and 1 / hy and
        # the element tables as hy / hx and hx / hy
        if not (0.0 < hx * hy < math.inf and max(hx / hy, hy / hx, 1 / hx, 1 / hy) < math.inf):
            raise ValueError(f"grid elements of {hx} x {hy} leave the floating-point range")
        self.phi, dphi = q1_tables()
        self.gradients = dphi / np.array([hx, hy])
        self.weights = GAUSS_WEIGHTS * (hx * hy)
        G, w = self.gradients, self.weights
        tables = w[:, None, None, None, None] * G[:, :, None, :, None] * G[:, None, :, None, :]
        self.tables = tables.transpose(1, 2, 0, 3, 4).reshape(16, -1, 2, 2)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniformCellGrid) and (
            (self.nx, self.ny, self.periodic, self.rectangle)
            == (other.nx, other.ny, other.periodic, other.rectangle))

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
        return self.rectangle.area

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
        x = self.rectangle.a1 + ii.ravel() * self.hx
        y = self.rectangle.a2 + jj.ravel() * self.hy
        return np.column_stack([x, y])

    @functools.cached_property
    def connectivity(self) -> np.ndarray:
        """(n_elements, 4) node indices per element, corners in the order
        of ``CORNERS``."""
        jj, ii = np.indices((self.ny, self.nx)).reshape(2, -1)
        return np.column_stack([self.node_index(ii + dx, jj + dy)
                                for dx, dy in CORNERS]).astype(np.int32)

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of boundary nodes; all-False for periodic grids."""
        if self.periodic:
            return np.zeros(self.n_nodes, dtype=bool)
        mask = np.zeros((self.ny + 1, self.nx + 1), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask.ravel()

    # -- the Q1 quadrature ----------------------------------------------------

    @functools.cached_property
    def points(self) -> np.ndarray:
        """(n_elements * nq, 2) quadrature points, element by element."""
        # each element's lower-left node plus the offsets of the points
        points = np.empty((self.ny, self.nx, len(GAUSS_WEIGHTS), 2))
        x = self.rectangle.a1 + np.arange(self.nx) * self.hx
        y = self.rectangle.a2 + np.arange(self.ny) * self.hy
        points[..., 0] = x[:, None] + GAUSS_POINTS[:, 0] * self.hx
        points[..., 1] = y[:, None, None] + GAUSS_POINTS[:, 1] * self.hy
        return points.reshape(-1, 2)

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The nine-point ``columns`` and the CSR ``indptr``."""
        columns = nine_point_layout(self)
        return columns, np.arange(0, columns.size + 1, 9, dtype=np.int32)

    def coefficient(self, coefficient) -> np.ndarray:
        """(n_elements, nq, 2, 2) values of ``coefficient`` at the quadrature
        points. A coefficient is any callable returning (m, 2, 2) values for
        (m, 2) points; values of another shape and non-finite values raise
        ValueError."""
        values = np.asarray(coefficient(self.points), dtype=float)
        if values.shape != (self.points.shape[0], 2, 2):
            raise ValueError(f"coefficient values have shape {values.shape}, not (m, 2, 2)")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient evaluated to a non-finite value")
        return values.reshape(self.n_elements, len(GAUSS_WEIGHTS), 2, 2)

    def _corners(self, nodal: np.ndarray) -> np.ndarray:
        """(n_elements, 4) corner values, read as the nodal array shifted
        by each corner; a periodic grid wraps its last row and column."""
        nodal = np.asarray(nodal, dtype=float).ravel()
        if nodal.size != self.n_nodes:
            raise ValueError("nodal array length does not match grid")
        nx, ny = self.nx, self.ny
        if self.periodic:
            nodal = np.pad(nodal.reshape(ny, nx), ((0, 1), (0, 1)), mode="wrap")
        nodal = nodal.reshape(ny + 1, nx + 1)
        corners = np.empty((ny, nx, 4))
        for a, (dx, dy) in enumerate(CORNERS):
            corners[..., a] = nodal[dy:dy + ny, dx:dx + nx]
        return corners.reshape(-1, 4)

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
        element = (table.T @ values.T).reshape(4, 1, self.ny, self.nx)
        return self._node_sums(element, np.zeros((4, 1), dtype=int), 1).ravel()

    def mean(self, D: np.ndarray) -> np.ndarray:
        """The 2x2 quadrature mean of coefficient values at the points."""
        return np.einsum("eqik,q->ik", D, GAUSS_WEIGHTS) / self.n_elements

    def stiffness_data(self, D: np.ndarray, entries: np.ndarray | float = 1.0) -> np.ndarray:
        """CSR data of the stiffness of the entries (i, k) of D that the
        (2, 2) 0/1 mask ``entries`` picks, all of them by default. Entries
        that overflow are left as infinities or NaN for the preconditioner
        to refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            # one contiguous (16, 16) by (16, n_elements) product, in which
            # the entries left out multiply zero rows of the tables: a
            # gather of the picked entries' columns costs what it saves
            return self.assemble((self.tables * entries).reshape(16, -1)
                                 @ D.reshape(self.n_elements, -1).T)

    def assemble(self, Ke: np.ndarray) -> np.ndarray:
        """CSR data on the nine-point layout of the (16, n_elements)
        element matrices ``Ke``, row 4 a + b holding entry (a, b) of every
        element. Entries whose row or column is a boundary node of a
        clamped grid drop out."""
        total = self._node_sums(Ke.reshape(4, 4, self.ny, self.nx), NINE_POINT_SLOTS, 9)
        if not self.periodic:
            total = total[:, 1:-1, 1:-1]
            # the slots of interior nodes next to the boundary that point at it
            total[:3, 0] = total[6:, -1] = total[0::3, :, 0] = total[2::3, :, -1] = 0.0
        return np.moveaxis(total, 0, -1).ravel()

    def _node_sums(self, element: np.ndarray, slots: np.ndarray, n_slots: int) -> np.ndarray:
        """(n_slots, ny + 1, nx + 1) node sums of (4, m, ny, nx) element
        values, ``element[a, b]`` into slot ``slots[a, b]`` at corner a; a
        periodic grid folds them onto (n_slots, ny, nx)."""
        nx, ny = self.nx, self.ny
        total = np.zeros((n_slots, ny + 1, nx + 1))
        # at an interior node, the elements that hold it as corners 2, 3, 1
        # and 0 follow in row-major element order
        for a in (2, 3, 1, 0):
            dx, dy = CORNERS[a]
            for values, slot in zip(element[a], slots[a]):
                total[slot, dy:dy + ny, dx:dx + nx] += values
        if self.periodic:
            total[:, 0] += total[:, ny]
            total[:, :, 0] += total[:, :, nx]
            total = total[:, :ny, :nx]
        return total

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with the given data on the nine-point layout."""
        columns, indptr = self.layout
        n = indptr.size - 1
        return sp.csr_matrix((data, columns, indptr), shape=(n, n))

    @functools.cached_property
    def spectral_factors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The 1-D factors ``(S(tx), M(ty))`` and ``(M(tx), S(ty))`` of the
        Fourier symbols ``S(tx) M(ty)`` and ``M(tx) S(ty)`` of the Q1
        stiffness of the coefficients diag(1, 0) and diag(0, 1), with
        ``S(t) = (2 - 2 cos t) / h`` and ``M(t) = h (4 + 2 cos t) / 6`` the
        1-D stiffness and mass symbols: at the ``rfft2`` frequencies
        ``t = 2 pi k / n``, ``nx // 2 + 1`` in x and ``ny`` in y, of a
        periodic grid, and at the DST-I frequencies ``t = k pi / n`` of
        the interior of any other. Only the vectors are kept: keeping
        their (ny, nx) products raised the peak memory of cold 256^2 cell
        solves by 2.5 MB."""
        nx, ny = self.nx, self.ny
        if self.periodic:
            tx = 2.0 * np.pi * np.arange(nx // 2 + 1) / nx
            ty = 2.0 * np.pi * np.arange(ny) / ny
        else:
            tx = np.pi * np.arange(1, nx) / nx
            ty = np.pi * np.arange(1, ny) / ny
        cx, cy = np.cos(tx), np.cos(ty)
        sx, mx = (2.0 - 2.0 * cx) / self.hx, self.hx * (4.0 + 2.0 * cx) / 6.0
        sy, my = (2.0 - 2.0 * cy) / self.hy, self.hy * (4.0 + 2.0 * cy) / 6.0
        return (sx, my), (mx, sy)

    def spectral_symbol(self, k1: float, k2: float) -> np.ndarray:
        """``k1 S(tx) M(ty) + k2 M(tx) S(ty)``: the Fourier symbol of the Q1
        stiffness of the constant coefficient diag(k1, k2) on the grid's
        unknowns (see ``spectral_factors``), as a new array."""
        (sx, my), (mx, sy) = self.spectral_factors
        return (k1 * sx)[None, :] * my[:, None] + (k2 * mx)[None, :] * sy[:, None]

    def spectral_diagonal(self, k1: float, k2: float) -> float:
        """The diagonal entry of the Q1 stiffness of the constant
        coefficient diag(k1, k2), the same at every unknown: the centre
        weights 2/h of S and 4h/6 of M combined."""
        return 4.0 / 3.0 * (k1 * self.hy / self.hx + k2 * self.hx / self.hy)


def q1_tables() -> tuple[np.ndarray, np.ndarray]:
    """Bilinear shape values and reference gradients at the Gauss points.

    Returns (phi, dphi) with shapes (nq, 4) and (nq, 4, 2), corners in the
    order of ``CORNERS``.
    """
    xi = GAUSS_POINTS[:, 0]
    eta = GAUSS_POINTS[:, 1]
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
    """Conjugate gradient outcome: the solution ``x``, the true residual
    ``r = rhs - K x`` it ended on (projected to zero mean on singular
    systems), its relative norm ``residual`` and the relative norm
    ``start_residual`` of the residual the start left (1 for a zero
    start, to rounding), and its ``stop`` ``measure`` (0 if none was taken)."""

    x: np.ndarray
    iterations: int
    residual: float
    r: np.ndarray
    start_residual: float
    measure: float = 0.0


def spectral_preconditioner(
    grid: UniformCellGrid,
    k1: float,
    k2: float,
    diagonal: np.ndarray | None,
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
    with ``diag(K0)`` the grid's ``spectral_diagonal`` and ``diagonal``
    that of the system matrix K, gives ``s K s`` the diagonal of ``K0``;
    this keeps the iteration count low at high coefficient contrast while
    each period of the coefficient spans many elements. The diagonal
    ``sqrt(diag(K0) diag(K))`` gives the half scale ``s^1/2``, which
    Dirichlet solves take between the two. ``diagonal=None`` takes
    ``s = 1``, which changes no bit: the plain inverse ``K0^-1``, whose
    condition number on K is bounded by the coefficient's contrast however
    fast it oscillates.

    The grid forms the symbol from the factors it keeps
    (``UniformCellGrid.spectral_symbol``). The preconditioner keeps the
    inverse symbol and the nodal scale; on Dirichlet grids also one
    zero-padded row buffer and one spectrum buffer per axis, which every
    apply reuses, so one preconditioner must not be applied from two
    threads at once.

    Raises:
        SolverError: ``k1``, ``k2`` or a diagonal entry is not finite, as
            when a scaled stiffness overflows (0 iterations, residual nan).
        ValueError: a non-positive one, or a diagonal of the wrong size.
    """
    nx, ny = grid.nx, grid.ny
    shape = (ny, nx) if grid.periodic else (ny - 1, nx - 1)
    bad = [f"{name} = {value}" for name, value in (("k1", k1), ("k2", k2))
           if not np.isfinite(value)]
    if diagonal is not None:
        diagonal = np.asarray(diagonal, dtype=float).ravel()
        if diagonal.size != shape[0] * shape[1]:
            raise ValueError("matrix diagonal does not match the grid's unknowns")
        bad += [f"diagonal[{p}] = {diagonal[p]}"
                for p in np.flatnonzero(~np.isfinite(diagonal))[:1]]
    if bad:
        raise SolverError("preconditioner input is not finite: " + ", ".join(bad),
                          0, float("nan"))
    if not (k1 > 0 and k2 > 0 and (diagonal is None or np.all(diagonal > 0))):
        raise ValueError("preconditioner needs positive coefficient means and diagonal")

    symbol = grid.spectral_symbol(k1, k2)
    inverse = np.zeros_like(symbol)
    np.divide(1.0, symbol, out=inverse, where=symbol > 0.0)
    scale = (1.0 if diagonal is None else
             np.sqrt(grid.spectral_diagonal(k1, k2) / diagonal).reshape(shape))

    if grid.periodic:
        def apply(r: np.ndarray) -> np.ndarray:
            u = np.fft.irfft2(np.fft.rfft2(scale * r.reshape(shape)) * inverse, s=shape)
            return (scale * u).ravel()

        return apply

    # DST-I of a length-n axis is minus the imaginary part of the rfft of
    # the zero-padded row [0, a, 0, ..., 0] of length 2n + 2; the buffers'
    # padding is never written. Two DST-I per axis multiply by nx ny / 4,
    # and so do the four passes below, as the signs cancel; the
    # transposed inverse symbol divides that out.
    my, mx = shape
    inverse_t = (inverse / (nx * ny / 4.0)).T.copy()
    ext_x, spec_x = np.zeros((my, 2 * mx + 2)), np.empty((my, mx + 2), dtype=complex)
    ext_y, spec_y = np.zeros((mx, 2 * my + 2)), np.empty((mx, my + 2), dtype=complex)

    def sine_pass(ext: np.ndarray, spec: np.ndarray) -> np.ndarray:
        np.fft.rfft(ext, out=spec)
        return spec.imag[:, 1:spec.shape[1] - 1]

    def apply(r: np.ndarray) -> np.ndarray:
        np.multiply(scale, r.reshape(shape), out=ext_x[:, 1:mx + 1])
        np.copyto(ext_y[:, 1:my + 1], sine_pass(ext_x, spec_x).T)
        np.multiply(sine_pass(ext_y, spec_y), inverse_t, out=ext_y[:, 1:my + 1])
        np.copyto(ext_x[:, 1:mx + 1], sine_pass(ext_y, spec_y).T)
        u = sine_pass(ext_x, spec_x)
        # the pass is a view of the reused spectrum buffer: the product
        # copies it out
        return (scale * u).ravel()

    return apply


def dual_norm(grid: UniformCellGrid, k1: float, k2: float, r: np.ndarray) -> float:
    """``r . K0^+ r`` for a nodal vector ``r`` on a periodic grid, with
    ``K0`` the operator of the plain (``diagonal=None``)
    :func:`spectral_preconditioner` at ``k1``, ``k2`` and ``K0^+`` its
    inverse on the zero-mean vectors. It is read off one forward
    ``rfft2`` by Parseval, ``sum_t |r^(t)|^2 / (n symbol(t))`` over the
    nonzero frequencies, where the half spectrum counts every column
    but the first and, for even ``nx``, the last twice. ``k1`` and ``k2``
    must be finite and positive."""
    if not grid.periodic:
        raise ValueError("the dual norm is read off periodic grids")
    symbol = grid.spectral_symbol(k1, k2)
    spectrum = np.fft.rfft2(np.asarray(r, dtype=float).reshape(grid.ny, grid.nx))
    power = spectrum.real ** 2 + spectrum.imag ** 2
    power[:, 1:(grid.nx + 1) // 2] *= 2.0
    # the constant mode is the kernel of K0
    power[0, 0], symbol[0, 0] = 0.0, 1.0
    return float(np.sum(power / symbol)) / grid.n_nodes


def entries_present(D: np.ndarray) -> np.ndarray:
    """The (2, 2) mask of the entries (i, k) of coefficient values
    ``D[..., i, k]`` that are not zero at every point: one ``np.any`` per
    entry, several times faster than one over the leading axes."""
    return np.array([[np.any(D[..., i, k]) for k in range(2)] for i in range(2)])


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two vectors in numpy's own single-threaded loop, so
    that its bits, unlike BLAS ``ddot``'s, do not depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _check_positive(name: str, value: float, factor: np.ndarray, breakdown: str,
                    iterations: int, residual: float, least: tuple[float, int]) -> None:
    """Raise the ``breakdown`` when the CG product ``name`` is not positive,
    or an overflow when it is not finite while its ``factor`` is. The
    message names the ``residual`` and the ``least`` relative residual
    the run reached, with its iteration."""
    overflow = not math.isfinite(value) and np.all(np.isfinite(factor))
    if overflow or value <= 0.0:
        reason = f"a product overflowed ({name} = {value})" if overflow else breakdown
        raise SolverError(f"conjugate gradient breakdown: {reason} (relative residual "
                          f"{residual:.3e}; smallest {least[0]:.3e} at iteration "
                          f"{least[1]})", iterations, residual)


def cg_solve(
    system: SparseSystem,
    rhs: np.ndarray,
    preconditioner: Callable[[np.ndarray], np.ndarray],
    *,
    tol: float = 1e-10,
    x0: np.ndarray | None = None,
    stop: Callable[[np.ndarray], float] | None = None,
) -> CGResult:
    """Preconditioned conjugate gradients.

    Solves ``system`` for ``rhs`` down to a relative residual of ``tol``
    (measured in the Euclidean norm against the true residual), which must
    lie strictly between 0 and 1. Systems
    flagged singular are solved on the zero-mean subspace: the right-hand
    side and every iterate have their mean subtracted, which selects the
    zero-mean representative of the solution family. ``stop`` replaces
    ``tol`` by a measure of the true residual, quadratic in it, that must
    reach 1: the start is measured, and after a miss of ``q`` the next
    true residual once the recurrence residual has fallen by ``sqrt(q)``.

    ``preconditioner`` maps a residual to a search direction; the cell and
    Dirichlet solvers pass :func:`spectral_preconditioner`.

    Raises:
        SolverError: a non-finite residual, a breakdown, or no convergence
            within 10 * dimension iterations; the exception carries the
            iteration count and the relative residual, and a breakdown's
            message also the smallest one the run reached and its iteration.
        ValueError: a tolerance outside (0, 1), or a dimension mismatch
            between system and vectors.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    A = system.matrix
    n = system.dimension
    b = np.asarray(rhs, dtype=float).ravel().copy()
    if b.size != n:
        raise ValueError("right-hand side length does not match system dimension")
    max_iter = 10 * n

    if system.singular:
        b -= b.mean()
    bnorm = math.sqrt(inner(b, b))
    if bnorm == 0.0:
        return CGResult(np.zeros(n), 0, 0.0, np.zeros(n), 0.0)

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
    start_residual = math.sqrt(inner(r, r)) / bnorm

    # the recurrence residual norm at which the true residual is tested
    gate = tol * bnorm if stop is None else math.inf
    iterations = 0
    least = (math.inf, 0)
    while True:
        res = math.sqrt(inner(r, r))
        if res <= gate and iterations > 0:
            # guard against recurrence drift before declaring victory
            r = b - A @ x
            if system.singular:
                r -= r.mean()
            res = math.sqrt(inner(r, r))
        if not np.isfinite(res):
            raise SolverError(
                f"conjugate gradient residual is not finite after {iterations} "
                f"iterations (relative residual {res / bnorm:.3e})",
                iterations, res / bnorm)
        least = min(least, (res / bnorm, iterations))
        if res <= gate:
            q = 0.0 if stop is None else stop(r)
            if q <= 1.0:
                return CGResult(x, iterations, res / bnorm, r, start_residual, q)
            # a measure that overflows shuts the gate
            gate = res / math.sqrt(q)
        if iterations == max_iter:
            raise SolverError(
                f"conjugate gradient did not converge in {max_iter} iterations "
                f"(relative residual {res / bnorm:.3e})", iterations, res / bnorm)
        z = preconditioner(r)
        rz_new = inner(r, z)
        _check_positive("r . z", rz_new, z, "the preconditioned residual is orthogonal to "
                        "the residual", iterations, res / bnorm, least)
        p = z.copy() if iterations == 0 else z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
        Ap = A @ p
        pAp = inner(p, Ap)
        _check_positive("p . Ap", pAp, p, "operator is not positive definite on the "
                        "search space", iterations, res / bnorm, least)
        alpha = rz / pAp
        x += alpha * p
        if system.singular:
            x -= x.mean()
        r -= alpha * Ap


def nine_point_layout(grid: UniformCellGrid) -> np.ndarray:
    """The nine-point CSR layout of Q1 matrices on a grid's unknowns.

    The unknowns are all nodes of a periodic grid and the interior nodes
    of any other grid, numbered row-major in (j, i). Row p of a matrix in
    this layout holds nine entries, one per neighbour p + (dx, dy) with
    dx, dy in {-1, 0, 1}, in the order s = 3 (dy + 1) + dx + 1. Returns
    ``columns``, the int32 column indices of all rows one after another
    (the CSR ``indices``; ``indptr`` steps by nine).

    Every row keeps its nine entries whatever their values: a boundary
    neighbour becomes an explicit zero in the row's own column. On
    periodic grids with fewer than three elements per side some
    neighbours coincide; their entries stay separate, and CSR products
    and diagonals sum them.
    """
    nx, ny = grid.nx, grid.ny
    shifts = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    if grid.periodic:
        nodes = np.arange(grid.n_nodes, dtype=np.int32).reshape(ny, nx)
        columns = np.stack([np.roll(nodes, (-dy, -dx), axis=(0, 1))
                            for dx, dy in shifts], axis=-1)
    else:
        # interior numbering of all nodes, -1 on the boundary
        number = np.full((ny + 1, nx + 1), -1, dtype=np.int32)
        number[1:-1, 1:-1] = np.arange((nx - 1) * (ny - 1)).reshape(ny - 1, nx - 1)
        columns = np.stack([number[1 + dy:ny + dy, 1 + dx:nx + dx]
                            for dx, dy in shifts], axis=-1)
        columns = np.where(columns < 0, number[1:-1, 1:-1, None], columns)
    return columns.ravel()
