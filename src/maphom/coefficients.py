"""Built-in periodic coefficient fields on the unit cell.

A coefficient is any callable from (m, 2) points to (m, 2, 2) values;
:class:`PeriodicCoefficient` is one, with declared bounds.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PeriodicCoefficient",
    "constant",
    "identity",
    "isotropic",
    "laminate",
    "sine_product",
]


class PeriodicCoefficient:
    """Unit-cell-periodic 2x2 coefficient with declared structure bounds.

    Args:
        evaluate: callable taking an (m, 2) array of points and returning
            (m, 2, 2) matrix values. Periodicity with period 1 in both
            directions is part of the contract and is sampled by
            :meth:`check_structure`.
        bound: declared upper bound r with |A(y) xi| <= r |xi|.
        coercivity: declared lower bound s with xi . A(y) xi >= s |xi|^2.
        symmetric: whether A(y) is symmetric everywhere.
        description: short label used in metadata and manifests.
    """

    def __init__(self, evaluate, bound, coercivity, symmetric=True, description="custom"):
        if not coercivity > 0:
            raise ValueError("coercivity bound must be positive")
        if bound < coercivity:
            raise ValueError("upper bound cannot be below the coercivity bound")
        self._evaluate = evaluate
        self.bound = float(bound)
        self.coercivity = float(coercivity)
        self.symmetric = bool(symmetric)
        self.description = str(description)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self._evaluate(pts), dtype=float)
        if out.shape != (pts.shape[0], 2, 2):
            raise ValueError("coefficient evaluator returned wrong shape")
        return out

    __call__ = evaluate

    def check_structure(self, samples: int = 33, directions: int = 16, tol: float = 1e-9) -> None:
        """Sample the declared bounds, symmetry and periodicity.

        Raises ValueError on the first violated property. The bounds are
        checked on a uniform sample grid against unit directions; the
        periodicity check compares A(y) with A(y + e_i) to 1e-12.
        """
        t = np.linspace(0.0, 1.0, samples)
        yy, xx = np.meshgrid(t, t)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        A = self.evaluate(pts)
        for shift in ((1.0, 0.0), (0.0, 1.0)):
            A_shift = self.evaluate(pts + np.array(shift))
            if np.max(np.abs(A_shift - A)) > 1e-12:
                raise ValueError("coefficient is not unit-cell periodic")
        if self.symmetric and np.max(np.abs(A - np.transpose(A, (0, 2, 1)))) > 1e-12:
            raise ValueError("coefficient declared symmetric is not")
        angles = np.linspace(0.0, np.pi, directions, endpoint=False)
        xi = np.column_stack([np.cos(angles), np.sin(angles)])
        Axi = np.einsum("mik,dk->mdi", A, xi)
        norms = np.linalg.norm(Axi, axis=2)
        if norms.max() > self.bound + tol:
            raise ValueError(
                f"bound violated: |A xi| reaches {norms.max():.6g} > {self.bound}"
            )
        quad = np.einsum("mdi,di->md", Axi, xi)
        if quad.min() < self.coercivity - tol:
            raise ValueError(
                f"coercivity violated: xi.A xi falls to {quad.min():.6g} < {self.coercivity}"
            )


def _matrix_from_scalar(a: np.ndarray) -> np.ndarray:
    out = np.zeros((a.size, 2, 2))
    out[:, 0, 0] = a
    out[:, 1, 1] = a
    return out


def identity() -> PeriodicCoefficient:
    """The constant identity matrix."""
    return PeriodicCoefficient(
        lambda pts: np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy(),
        bound=1.0,
        coercivity=1.0,
        description="identity",
    )


def constant(matrix) -> PeriodicCoefficient:
    """A constant symmetric positive definite matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if abs(m[0, 1] - m[1, 0]) > 1e-14:
        raise ValueError("constant coefficient must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0:
        raise ValueError("constant coefficient must be positive definite")
    return PeriodicCoefficient(
        lambda pts: np.broadcast_to(m, (pts.shape[0], 2, 2)).copy(),
        bound=eigs[1],
        coercivity=eigs[0],
        description="constant",
    )


def isotropic(scalar_fn, bound, coercivity, description="isotropic") -> PeriodicCoefficient:
    """Scalar multiple of the identity, a(y) * I, from a vectorized scalar
    field on the unit cell."""
    return PeriodicCoefficient(
        lambda pts: _matrix_from_scalar(np.asarray(scalar_fn(pts), dtype=float)),
        bound=bound,
        coercivity=coercivity,
        description=description,
    )


def sine_product(amplitude: float = 0.9) -> PeriodicCoefficient:
    """a(y) = 1 + amplitude * sin(2 pi y1) * sin(2 pi y2), times identity.

    With the default amplitude 9/10 the field takes values in [1/10, 19/10].
    """
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must lie in [0, 1) to keep coercivity")

    def a(pts):
        return 1.0 + amplitude * np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])

    return isotropic(a, bound=1.0 + amplitude, coercivity=1.0 - amplitude,
                     description=f"sine-product(amplitude={amplitude})")


def laminate(base: float = 2.0, amplitude: float = 1.0) -> PeriodicCoefficient:
    """a(y) = base + amplitude * sin(2 pi y1), times identity.

    Varies in y1 only, so the classical effective matrix is the harmonic
    mean in the first direction and the arithmetic mean in the second.
    """
    if not base - amplitude > 0:
        raise ValueError("base must exceed amplitude to keep coercivity")

    def a(pts):
        return base + amplitude * np.sin(2 * np.pi * pts[:, 0])

    return isotropic(a, bound=base + amplitude, coercivity=base - amplitude,
                     description=f"laminate(base={base}, amplitude={amplitude})")
