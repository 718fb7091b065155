"""Periodic corrector problems on the unit cell, scaled by a diagonal
field, and the equivalent classical problem on a rescaled rectangle.

The scaled corrector pair (z_1, z_2) solves, for j = 1, 2 and all periodic
zero-mean test functions v,

    int_Y sum_{i,k} zeta_i zeta_k a_ik dz_j/dy_k dv/dy_i dy
        = - int_Y sum_i zeta_i a_ij dv/dy_i dy,

with zeta a positive pair. zeta = (1, 1) recovers the classical cell
problem. The same solution can be obtained by solving the classical
problem for A(y1, zeta_2 y2) on the rectangle (0,1) x (0, 1/zeta_2),
which :func:`solve_rescaled_corrector` implements. The rectangle keeps
the unit cell's n x n nodes, so the two routes are one discretization
and agree to rounding.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .numerics import (
    Rectangle,
    SolverError,
    SparseSystem,
    UniformCellGrid,
    cg_solve,
    dual_norm,
    entries_present,
    inner,
    spectral_preconditioner,
)

__all__ = [
    "CellProblem",
    "CorrectorField",
    "solve_corrector",
    "solve_rescaled_corrector",
    "stretched",
]


@dataclasses.dataclass
class CorrectorField:
    """Corrector pair on a periodic grid with solver diagnostics.

    ``z`` and ``r`` hold, as ``(2, n)`` rows, the nodal values of the two
    zero-mean periodic correctors and the true residuals ``rhs_j - K z_j``
    the solves ended on; ``zeta`` is the diagonal scaling they were solved
    with, ``residual`` the residuals' relative norms and ``start_residual``
    the relative residuals the solves' starts left. ``bound`` is the
    pair's certificate ``max_j eta_j / |Y|`` (see :class:`CellProblem`),
    set by ``CellProblem.reduced`` and ``CellProblem.solve(target=)``;
    None for a problem with no bound and for a plain ``tol`` solve.
    """

    z: np.ndarray
    zeta: tuple[float, float]
    grid: UniformCellGrid
    iterations: tuple[int, int]
    residual: tuple[float, float]
    r: np.ndarray
    start_residual: tuple[float, float]
    bound: float | None = None

    def sup_norm(self) -> float:
        return float(np.abs(self.z).max())


def _scaling(zeta) -> tuple[float, float]:
    z1, z2 = float(zeta[0]), float(zeta[1])
    if not (z1 > 0 and z2 > 0):
        raise ValueError("scaling pair must be positive")
    return z1, z2


# a corrector of which less than this fraction is left after it is
# orthogonalized against the basis lies in its span to rounding and is
# dropped, as the pair of a scaling solved twice
DEPENDENT = 1e-12
# a load within this many eps of the rounding bound of its sum is noise
# and is set to zero: max|a_ij| sum_q w_q sum_a |d_i phi_a(q)| bounds the
# absolute terms that meet at a node. A load that cancels in exact
# arithmetic, as L_22 of a coefficient of y1 alone, reads at most 0.25 eps
# of it at any resolution; a genuine one reads millions of eps.
LOAD_NOISE = 16


# the stiffness pieces K11, K12 + K21 and K22: the scaling indices (i, k)
# whose product zeta_i zeta_k weighs the piece, and the entries of A it takes
PIECES = {(0, 0): [[1, 0], [0, 0]], (0, 1): [[0, 1], [1, 0]], (1, 1): [[0, 0], [0, 1]]}


def _combination(zeta, pieces: dict) -> np.ndarray:
    """The sum of ``zeta_i zeta_k x`` over the pieces ``(i, k): x``, in
    their order, as a new array; a piece left out for being exactly zero
    changes no bit."""
    terms = [zeta[i] * zeta[k] * x for (i, k), x in pieces.items()]
    return sum(terms[1:], terms[0])


def _grown(a: np.ndarray, shape: tuple) -> np.ndarray:
    """An uninitialized array of ``shape`` that starts with a copy of ``a``."""
    out = np.empty(shape)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


class CellProblem:
    """The scaled cell problem of one coefficient on one periodic grid.

    With D = diag(zeta) A diag(zeta) the stiffness matrix and the loads are
    polynomials in the scaling,

        K(zeta)     = zeta_1^2 K11 + zeta_1 zeta_2 (K12 + K21) + zeta_2^2 K22,
        rhs_j(zeta) = zeta_1 L_1j + zeta_2 L_2j,   L_ij = -int a_ij d_i phi,

    where K_ik is the stiffness of the single entry a_ik. The coefficient
    is evaluated once, and the stiffness pieces are assembled once by the
    grid as data arrays on its nine-point CSR layout, together with the
    four loads and the four flux vectors M_ik = int a_ik d_k phi / |Y|.
    The pieces and loads of an entry a_ik that is zero at every point, as
    K12 + K21, L_12 and L_21 of an isotropic A, are never assembled, and a
    symmetric A reads its fluxes off its loads; a piece whose terms
    cancel exactly is left out, and loads that are rounding noise
    (``LOAD_NOISE``) are set to zero. A scaling then costs the
    combinations of the pieces and the two CG solves, and the effective
    matrix is read off dot products. The correctors the problem kept
    (``keep``) span an orthonormal basis V,
    with per piece p the Gram matrix ``V K_p V^T`` and the load products
    ``L_ij . v``; the Galerkin projection onto it (``reduced``) combines
    these cached numbers at its scaling. The flux form

        b_ij = <a_ij> + sum_k zeta_k M_ik . z_j

    is the quadrature of :func:`maphom.homogenize.homogenized_matrix_at`
    summed in another order. It is linear in the CG error of z_j. When A
    is symmetric at the quadrature points (``symmetric``), the matrix is
    read off the stationary form instead,

        b_ij = <a_ij> + sum_k zeta_k M_ik . z_j + z_i . (K z_j - rhs_j) / |Y|,

    the flux form corrected by the adjoint solution, which for symmetric A
    is the corrector z_i itself. Its error is quadratic in the CG error,
    so the cells can be solved to a looser tolerance. A non-symmetric A
    keeps the flux form.

    The stationary form of any pair x_j with true residuals r_j errs by
    exactly -e_i . K e_j / |Y|, with e_j = z_j - x_j. Under 2x2 Gauss,
    K(zeta) >= alpha K0(zeta) for the plain spectral operator K0 at the
    scaled means (zeta_1^2 <a11>, zeta_2^2 <a22>) and alpha = lambda /
    max(<a11>, <a22>), where lambda bounds the least eigenvalue of A at
    every quadrature point from below (Gershgorin over all points:
    min(min a11, min a22) - max |a12|).
    So |e_j|_K^2 <= eta_j = r_j . K0^+ r_j / alpha and each entry errs by
    at most sqrt(eta_i eta_j) / |Y|, so by at most the field's ``bound``,
    max_j eta_j / |Y|. A non-symmetric A, or one whose lambda is not
    positive, has no such bound.
    """

    def __init__(self, coefficient, grid: UniformCellGrid | int):
        if not isinstance(grid, UniformCellGrid):
            grid = UniformCellGrid(grid, periodic=True)
        if not grid.periodic:
            raise ValueError("corrector problems need a periodic grid")
        self.grid = grid
        A = grid.coefficient(coefficient)
        self.means = grid.mean(A)
        self.symmetric = bool(np.array_equal(A[..., 0, 1], A[..., 1, 0]))
        G, w = grid.gradients, grid.weights
        # the pieces and loads of an entry that is zero at every point, as
        # a_12 and a_21 of every isotropic A, are never assembled; a piece
        # whose terms cancel exactly is left out too
        present = entries_present(A)
        pieces = {ik: grid.stiffness_data(A, np.array(entries))
                  for ik, entries in PIECES.items() if np.any(present * entries)}
        self._stiffness = {ik: d for ik, d in pieces.items() if np.any(d)}
        # _loads[i, j] = L_ij and _fluxes[i][k] = M_ik, which is -L_ki / |Y|
        # when a_ik = a_ki
        self._loads = np.zeros((2, 2, grid.n_nodes))
        for i, j in zip(*np.nonzero(present)):
            self._loads[i, j] = grid.load(A[:, :, i, j], -w[:, None] * G[:, :, i])
        # max|a_ij| entry by entry: one reduction over the leading axes of
        # A is several times slower
        reach = np.array([[np.abs(A[:, :, i, j]).max() if present[i, j] else 0.0
                           for j in range(2)] for i in range(2)])
        terms = reach * np.sum(w[:, None, None] * np.abs(G), axis=(0, 1))[:, None]
        noise = np.abs(self._loads).max(axis=2) <= LOAD_NOISE * np.finfo(float).eps * terms
        self._loads[noise] = 0.0
        self._fluxes = [[-self._loads[k, i] / grid.area if self.symmetric else
                         grid.load(A[:, :, i, k], w[:, None] * G[:, :, k] / grid.area)
                         for k in range(2)] for i in range(2)]
        # the kept basis: orthonormal rows, their Gram matrices per piece
        # and load products, stored with room to grow (``_grown``)
        self._vectors = np.empty((0, grid.n_nodes))
        self._gram = {ik: np.empty((0, 0)) for ik in self._stiffness}
        self._products = np.empty((2, 2, 0))
        self._size = 0
        self._alpha = None
        if self.symmetric:
            # Gershgorin over all points at once, exact for an isotropic A
            least = min(A[..., 0, 0].min(), A[..., 1, 1].min()) - reach[0, 1]
            if least > 0.0:
                self._alpha = float(least / max(self.means[0, 0], self.means[1, 1]))

    def system(self, zeta: tuple[float, float]) -> tuple[SparseSystem, list[np.ndarray]]:
        """The stiffness matrix and both loads at ``zeta``. Entries that
        overflow are left as infinities or NaN for the preconditioner to
        refuse."""
        z1, z2 = _scaling(zeta)
        with np.errstate(over="ignore", invalid="ignore"):
            K = self.grid.matrix(_combination((z1, z2), self._stiffness))
            loads = self._rhs((z1, z2))
        return SparseSystem(K, singular=True), loads

    @functools.cached_property
    def _matrices(self) -> dict:
        """The nonzero stiffness pieces as matrices, built on first use."""
        return {ik: self.grid.matrix(d) for ik, d in self._stiffness.items()}

    def _rhs(self, zeta: tuple[float, float]) -> list[np.ndarray]:
        return [zeta[0] * self._loads[0, j] + zeta[1] * self._loads[1, j] for j in range(2)]

    def _scaled_means(self, zeta: tuple[float, float]) -> tuple[float, float]:
        """The scaled means ``zeta_i^2 <a_ii>`` of the preconditioner; a
        ``SolverError`` when one is not finite or underflows to 0."""
        z1, z2 = zeta
        with np.errstate(over="ignore", invalid="ignore"):
            k1, k2 = z1 * z1 * self.means[0, 0], z2 * z2 * self.means[1, 1]
        # a scaling that is not finite makes its mean so too
        bad = [f"{name} = {value}" for name, value in (("k1", k1), ("k2", k2))
               if not np.isfinite(value)]
        if bad:
            raise SolverError("preconditioner input is not finite: " + ", ".join(bad)
                              + f" at zeta = {(z1, z2)}", 0, float("nan"))
        if k1 == 0.0 or k2 == 0.0:
            raise SolverError(f"preconditioner input underflows to 0 at zeta = {(z1, z2)}: "
                              f"k1 = {k1}, k2 = {k2}", 0, float("nan"))
        return k1, k2

    def solve(
        self,
        zeta: tuple[float, float],
        tol: float = 1e-10,
        start: CorrectorField | None = None,
        target: float | None = None,
    ) -> CorrectorField:
        """Both correctors at ``zeta`` by spectrally preconditioned CG,
        started from ``start``, a pair this problem solved or projected at
        the same scaling, or from zero, to the relative residual
        ``tol``. Given a ``target``, a problem with a bound stops each
        corrector once its own ``eta_j / |Y|`` is at most ``target``, and
        records the larger as the field's ``bound``. The solutions are
        made zero-mean once more after the solve. A scaling or a scaled
        mean ``zeta_i^2 <a_ii>`` that is not finite or underflows to 0
        raises ``SolverError`` before the system is formed.
        """
        zeta = _scaling(zeta)
        k1, k2 = self._scaled_means(zeta)
        if start is not None and start.zeta != zeta:
            raise ValueError("start was projected at a different scaling")
        if start is not None and start.grid is not self.grid:
            raise ValueError("start was solved on a different grid")
        if target is not None and not target > 0:
            raise ValueError(f"target must be positive, got {target}")
        system, loads = self.system(zeta)
        precondition = spectral_preconditioner(self.grid, k1, k2, system.matrix.diagonal())
        stop = (None if target is None or self._alpha is None else
                lambda r: self._certificate(k1, k2, r) / target)
        results = [cg_solve(system, loads[j], precondition, tol=tol, stop=stop,
                            x0=None if start is None else start.z[j])
                   for j in range(2)]
        return CorrectorField(
            z=np.array([res.x - res.x.mean() for res in results]), zeta=zeta, grid=self.grid,
            iterations=tuple(res.iterations for res in results),
            residual=tuple(res.residual for res in results),
            r=np.array([res.r for res in results]),
            start_residual=tuple(res.start_residual for res in results),
            bound=None if stop is None else max(res.measure for res in results) * target,
        )

    def keep(self, field: CorrectorField) -> None:
        """Join both correctors of ``field`` to the basis that ``reduced``
        projects onto. Each is copied, orthogonalized against the kept
        vectors by two classical Gram-Schmidt passes, dropped when it is
        zero or less than ``DEPENDENT`` of it is left, normalized, and its
        Gram rows are formed, one product ``K_p v`` per piece. The stored
        rows double as the basis grows; the products ``K_p V`` are not
        kept."""
        if field.grid is not self.grid:
            raise ValueError("corrector was solved on a different grid")
        for z in field.z:
            k = self._size
            if not np.any(z):  # a zero corrector spans nothing
                continue
            if k == len(self._vectors):
                rows = max(8, 2 * k)
                self._vectors = _grown(self._vectors, (rows, z.size))
                self._gram = {ik: _grown(G, (rows, rows)) for ik, G in self._gram.items()}
                self._products = _grown(self._products, (2, 2, rows))
            V, v = self._vectors[:k], self._vectors[k]
            v[:] = z
            norm = math.sqrt(inner(v, v))
            for _ in range(2):
                v -= np.einsum("k,kn->n", np.einsum("kn,n->k", V, v), V)
            left = math.sqrt(inner(v, v))
            if not left > DEPENDENT * norm:
                continue
            v /= left
            V = self._vectors[:k + 1]
            # the row of the new vector against every kept one, filled
            # symmetrically: exact when every piece is, which a symmetric A
            # (``symmetric``) makes so; otherwise only the start's quality
            # depends on the fill
            for ik, K in self._matrices.items():
                self._gram[ik][k, :k + 1] = self._gram[ik][:k + 1, k] = np.einsum(
                    "kn,n->k", V, K @ v)
            self._products[:, :, k] = np.einsum("ijn,n->ij", self._loads, v)
            self._size = k + 1

    def reduced(self, zeta: tuple[float, float]) -> CorrectorField | None:
        """The Galerkin projection of both systems at ``zeta`` onto the
        span of the correctors this problem kept, with its true
        residuals and their ``bound``, as a field of 0 iterations whose
        residuals are its start residuals. None when the problem has kept
        none, or when the projected system is singular or the projection
        or its residuals are not finite, as at a huge scaling, where a
        solve fails on its own system. The bound is None when the problem
        has none or a scaled mean is not finite and positive, where a
        solve raises ``SolverError``."""
        zeta = _scaling(zeta)
        k = self._size
        if k == 0:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            H = _combination(zeta, {ik: G[:k, :k] for ik, G in self._gram.items()})
            f = zeta[0] * self._products[0, :, :k] + zeta[1] * self._products[1, :, :k]
            if not (np.all(np.isfinite(H)) and np.all(np.isfinite(f))):
                return None
            try:
                coeffs = np.linalg.solve(H, f.T)
            except np.linalg.LinAlgError:
                return None
            x = np.einsum("kj,kn->jn", coeffs, self._vectors[:k])
            if not np.all(np.isfinite(x)):
                return None
            r, residual = np.empty_like(x), []
            for j, b in enumerate(self._rhs(zeta)):
                b -= b.mean()
                # K(zeta) x_j from one product per piece, forming no matrix
                r[j] = b - _combination(zeta, {ik: K @ x[j] for ik, K in self._matrices.items()})
                r[j] -= r[j].mean()
                bnorm = math.sqrt(inner(b, b))
                residual.append(math.sqrt(inner(r[j], r[j])) / bnorm if bnorm else 0.0)
        if not np.all(np.isfinite(residual)):
            return None
        bound = None
        if self._alpha is not None:
            try:
                k1, k2 = self._scaled_means(zeta)
            except SolverError:
                pass
            else:
                bound = max(self._certificate(k1, k2, rj) for rj in r)
        return CorrectorField(
            z=x, zeta=zeta, grid=self.grid, iterations=(0, 0), residual=tuple(residual),
            r=r, start_residual=tuple(residual), bound=bound)

    def _certificate(self, k1: float, k2: float, r: np.ndarray) -> float:
        """``eta / |Y|`` of one residual at the scaled means ``k1``, ``k2``."""
        with np.errstate(over="ignore", invalid="ignore"):
            return dual_norm(self.grid, k1, k2, r) / self._alpha / self.grid.area

    def effective_matrix(self, field: CorrectorField) -> np.ndarray:
        """The effective matrix of a corrector pair solved by this problem:
        the stationary form for symmetric A, otherwise the flux form."""
        if field.grid is not self.grid:
            raise ValueError("corrector was solved on a different grid")
        z, r = field.z, field.r
        b = self.means.copy()
        for i in range(2):
            for j in range(2):
                b[i, j] += sum(field.zeta[k] * inner(self._fluxes[i][k], z[j]) for k in range(2))
                if self.symmetric:
                    b[i, j] -= inner(z[i], r[j]) / self.grid.area
        return b


def solve_corrector(
    coefficient,
    zeta: tuple[float, float],
    grid: UniformCellGrid | int = 128,
    tol: float = 1e-10,
) -> CorrectorField:
    """Solve the scaled corrector pair on the periodic unit cell.

    ``grid`` is a periodic grid or an element count per side. Builds a
    :class:`CellProblem` for this one scaling; sweeps over many scalings
    build it once and call its ``solve`` per scaling.
    """
    return CellProblem(coefficient, grid).solve(zeta, tol)


def stretched(coefficient, zeta2: float):
    """The coefficient A(y1, zeta2 y2), as a callable of (m, 2) points."""
    def evaluate(pts):
        q = np.array(pts, dtype=float, copy=True)
        q[:, 1] *= zeta2
        return coefficient(q)

    return evaluate


def solve_rescaled_corrector(
    coefficient,
    x2: float,
    n: int = 128,
    tol: float = 1e-10,
) -> CorrectorField:
    """Solve the classical corrector problem on the rescaled rectangle.

    For a macroscopic point with x2 > 0 the rectangle is
    (0,1) x (0, 1/(2 x2)) and the coefficient is A(y1, 2 x2 y2), periodic
    across both pairs of edges. The rectangle carries ``n`` elements per
    side, so node (i, j) of the returned field is node (i, j) of the
    n x n unit cell, and the field equals the unit cell's corrector at
    zeta = (1, 2 x2) to rounding. Its effective matrix is
    ``homogenized_matrix_at(stretched(coefficient, 2 x2), (1, 1), field)``.
    """
    x2 = float(x2)
    if not x2 > 0:
        raise ValueError("rescaled cell requires x2 > 0")
    zeta2 = 2.0 * x2
    grid = UniformCellGrid(n, rectangle=Rectangle(0.0, 1.0, 0.0, 1.0 / zeta2))
    return solve_corrector(stretched(coefficient, zeta2), (1.0, 1.0), grid, tol)
