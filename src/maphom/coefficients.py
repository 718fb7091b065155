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
    """Unit-cell-periodic 2x2 coefficient with declared bounds, which
    :class:`maphom.cell.CellProblem` checks at its points (:meth:`check`).

    Args:
        evaluate: callable taking an (m, 2) array of points and returning
            (m, 2, 2) matrix values, periodic with period 1 in both
            directions; whether they are symmetric is read off them.
        bound: declared finite upper bound r with |A(y) xi| <= r |xi|.
        coercivity: declared lower bound s with xi . A(y) xi >= s |xi|^2.
    """

    def __init__(self, evaluate, bound, coercivity):
        if not (coercivity > 0 and np.isfinite(bound)):
            raise ValueError("declared bounds must be finite, the coercivity bound positive")
        if bound < coercivity:
            raise ValueError("upper bound cannot be below the coercivity bound")
        self._evaluate = evaluate
        self.bound = float(bound)
        self.coercivity = float(coercivity)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self._evaluate(pts), dtype=float)
        if out.shape != (pts.shape[0], 2, 2):
            raise ValueError("coefficient evaluator returned wrong shape")
        return out

    __call__ = evaluate

    def check(self, values: np.ndarray, points: np.ndarray) -> None:
        """Check (m, 2, 2) values at (m, 2) points against the declared
        bounds. The least eigenvalue of sym(A) and the largest singular
        value of A are read in closed form at every point, so the check is
        exact at the points, with no sampling and no eigen-solve. The bound
        is allowed 1e-9 of itself; the coercivity 1e-9 of itself plus 1e-12
        of the bound, the rounding of entries of the bound's size, so the
        check holds to a contrast bound / coercivity near 1e12. A breach
        raises ValueError naming the declared number, the value reached
        and the point, the coercivity's first."""
        A = values.reshape(-1, 2, 2)
        a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
        spread = np.hypot(a - d, b + c)
        least = (a + d - spread) / 2
        largest = (np.hypot(a + d, c - b) + spread) / 2
        k, j = least.argmin(), largest.argmax()
        for name, declared, reached, y, breached in (
            ("coercivity", self.coercivity, least[k], points[k],
             least[k] < self.coercivity * (1 - 1e-9) - 1e-12 * self.bound),
            ("bound", self.bound, largest[j], points[j], largest[j] > self.bound * (1 + 1e-9)),
        ):
            if breached:
                raise ValueError(f"coefficient declares {name} {declared:.6g}, but its "
                                 f"values reach {reached:.6g} at y = ({y[0]:.6g}, {y[1]:.6g})")


def _matrix_from_scalar(a: np.ndarray) -> np.ndarray:
    out = np.zeros((a.size, 2, 2))
    out[:, 0, 0] = a
    out[:, 1, 1] = a
    return out


def identity() -> PeriodicCoefficient:
    """The constant identity matrix."""
    return constant(np.eye(2))


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
    )


def isotropic(scalar_fn, bound, coercivity) -> PeriodicCoefficient:
    """Scalar multiple of the identity, a(y) * I, from a vectorized scalar
    field on the unit cell."""
    return PeriodicCoefficient(
        lambda pts: _matrix_from_scalar(np.asarray(scalar_fn(pts), dtype=float)),
        bound=bound,
        coercivity=coercivity,
    )


def sine_product(amplitude: float = 0.9) -> PeriodicCoefficient:
    """a(y) = 1 + amplitude * sin(2 pi y1) * sin(2 pi y2), times identity.

    With the default amplitude 9/10 the field takes values in [1/10, 19/10].
    """
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must lie in [0, 1) to keep coercivity")

    def a(pts):
        return 1.0 + amplitude * np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])

    return isotropic(a, bound=1.0 + amplitude, coercivity=1.0 - amplitude)


def laminate(base: float = 2.0, amplitude: float = 1.0) -> PeriodicCoefficient:
    """a(y) = base + amplitude * sin(2 pi y1), times identity.

    Varies in y1 only, so the classical effective matrix is the harmonic
    mean in the first direction and the arithmetic mean in the second.
    """
    if not base > abs(amplitude):
        raise ValueError(f"base {base} must exceed |amplitude| {abs(amplitude)} "
                         "to keep coercivity")

    def a(pts):
        return base + amplitude * np.sin(2 * np.pi * pts[:, 0])

    return isotropic(a, bound=base + abs(amplitude), coercivity=base - abs(amplitude))
