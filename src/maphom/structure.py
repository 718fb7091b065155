"""Scale maps for stretched periodic microstructures, their diagonal limit
scaling, uniform-distribution diagnostics for the induced cell partitions,
and quadrature of oscillatory mean integrals.

The central object is the family alpha_h(x) = (h x1, h x2 |x2|): periodic
period 1/h in the first coordinate, while in the second the local period
shrinks like 1/(2 h x2) as x2 grows. Composing a unit-cell-periodic
coefficient with alpha_h produces a microstructure that is not periodic,
yet homogenizes with the pointwise diagonal scaling zeta(x) = (1, 2 x2)
entering the cell problems.
"""

from __future__ import annotations

import dataclasses
import math
from decimal import Decimal, getcontext
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import Rectangle

__all__ = [
    "AudReport",
    "LinearScaleMap",
    "OscillatoryIntegral",
    "QuadraticStretchMap",
    "aud_ratio",
    "aud_verify",
    "cell_measure",
    "default_oscillation_resolution",
    "interior_j1_range",
    "interior_j2_range",
    "oscillatory_mean_integral",
    "scored_j2_range",
    "subcell_measure",
]


def _as_points(x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def _is_integer(value, least: int) -> bool:
    """Whether ``value`` is an integer of at least ``least``; infinities and
    NaN are not."""
    try:
        return int(value) == value and value >= least
    except (OverflowError, ValueError):
        return False


class QuadraticStretchMap:
    """The scale map x -> (h x1, h x2 |x2|) and its inverse.

    The map is a bijection of the plane for every positive integer h; on
    the first-quadrant domains used here the second component reduces to
    h x2^2. Its rescaled Jacobian diag(d alpha_i / d x_i) / h equals the
    limit scaling zeta(x) = (1, 2 x2) identically.
    """

    def __init__(self, h: int):
        if not _is_integer(h, 1):
            raise ValueError("scale index h must be a positive integer")
        self.h = int(h)

    def __call__(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        out = np.empty_like(pts)
        out[:, 0] = self.h * pts[:, 0]
        out[:, 1] = self.h * pts[:, 1] * np.abs(pts[:, 1])
        return out[0] if single else out

    def inverse(self, y) -> np.ndarray:
        pts, single = _as_points(y)
        out = np.empty_like(pts)
        out[:, 0] = pts[:, 0] / self.h
        out[:, 1] = np.sign(pts[:, 1]) * np.sqrt(np.abs(pts[:, 1]) / self.h)
        return out[0] if single else out

    def zeta_at(self, x) -> tuple[float, float]:
        """The Jacobian diagonal (h, 2 h x2) over h: (1, 2 x2)."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != 2:
            raise ValueError("expected a single point (x1, x2)")
        if not x[1] > 0.0:
            raise ValueError("zeta is defined for x2 > 0 only")
        return (1.0, 2.0 * float(x[1]))

    def required_mesh_density(self, omega: Rectangle) -> tuple[float, float]:
        """Elements per unit length needed for 8 elements per local period.

        The first coordinate oscillates with period 1/h; the second with
        local period 1/(2 h x2), smallest at the top edge x2 = b2.
        """
        return (8.0 * self.h, 16.0 * self.h * omega.b2)


class LinearScaleMap:
    """The classical periodic scaling x -> h x (baseline, zeta = (1, 1))."""

    def __init__(self, h: int):
        if not _is_integer(h, 1):
            raise ValueError("scale index h must be a positive integer")
        self.h = int(h)

    def __call__(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        out = self.h * pts
        return out[0] if single else out

    def inverse(self, y) -> np.ndarray:
        pts, single = _as_points(y)
        out = pts / self.h
        return out[0] if single else out

    def zeta_at(self, x) -> tuple[float, float]:
        return (1.0, 1.0)

    def required_mesh_density(self, omega: Rectangle) -> tuple[float, float]:
        return (8.0 * self.h, 8.0 * self.h)


# ---------------------------------------------------------------------------
# Asymptotic uniform distribution of the preimage cell partitions.
#
# The preimage under alpha_h of the unit cell at integer offset (j1, j2)
# (first quadrant) is the rectangle
#     (j1/h, (j1+1)/h) x (sqrt(j2/h), sqrt((j2+1)/h)),
# of measure (1/(h sqrt(h))) (sqrt(j2+1) - sqrt(j2)). Splitting the mapped
# cell into an n-by-n grid of congruent subcells splits the preimage into
# grid-aligned strips whose measure fraction has the closed form below; the
# fraction tends to 1/n^2 as j2 grows, uniformly in the other indices.
# ---------------------------------------------------------------------------


def aud_ratio(h: int, n: int, j2: int, k2: int) -> float:
    """Measure fraction of one n-by-n subcell within its preimage cell.

    Closed form:
        (1/n^2) * (sqrt(j2+1) + sqrt(j2)) / (sqrt(j2+(k2+1)/n) + sqrt(j2+k2/n))

    The value is independent of h and of both first-axis indices; h is
    accepted to mirror the partition it describes.
    """
    _validate_aud_indices(h, n, j2, k2)
    num = math.sqrt(j2 + 1) + math.sqrt(j2)
    den = math.sqrt(j2 + (k2 + 1) / n) + math.sqrt(j2 + k2 / n)
    return num / den / (n * n)


def _validate_aud_indices(h, n, j2, k2) -> None:
    if not _is_integer(h, 1):
        raise ValueError("h must be a positive integer")
    if not _is_integer(n, 1):
        raise ValueError("subdivision count n must be a positive integer")
    if not _is_integer(j2, 0):
        raise ValueError("cell index j2 must be a nonnegative integer")
    if not (_is_integer(k2, 0) and k2 < n):
        raise ValueError("subcell index k2 must lie in [0, n)")


def cell_measure(h: int, j2: int) -> float:
    """Area of the preimage of the cell at second-axis offset j2 >= 0."""
    return (math.sqrt(j2 + 1) - math.sqrt(j2)) / (h * math.sqrt(h))


def subcell_measure(h: int, n: int, j2: int, k2: int) -> float:
    """Area of the preimage of the (k1, k2) subcell; independent of k1."""
    _validate_aud_indices(h, n, j2, k2)
    return (math.sqrt(j2 + (k2 + 1) / n) - math.sqrt(j2 + k2 / n)) / (n * h * math.sqrt(h))


def interior_j1_range(h: int, omega: Rectangle) -> tuple[int, int]:
    """First-axis offsets whose preimage column lies inside omega."""
    return (math.ceil(h * omega.a1), math.floor(h * omega.b1) - 1)

def interior_j2_range(h: int, omega: Rectangle) -> tuple[int, int]:
    """Second-axis offsets whose preimage strip lies inside omega."""
    return (math.ceil(h * omega.a2 ** 2), math.floor(h * omega.b2 ** 2) - 1)


def scored_j2_range(h: int, omega: Rectangle) -> tuple[int, int]:
    """Second-axis offsets scored by the distribution report.

    Starts at max(ceil(h * a2^2), ceil(sqrt(h))): the sqrt(h) floor tracks
    the index growth of the covering family, the scale from which the
    subdivision ratios converge uniformly, and makes the reported maximum
    deviation decay monotonically in h on domains reaching down to small a2.
    """
    lo, hi = interior_j2_range(h, omega)
    return (max(lo, math.ceil(math.sqrt(h))), hi)


@dataclasses.dataclass
class AudReport:
    """Distribution diagnostics for one scale index.

    ``max_deviation`` is the largest |ratio - 1/n^2| over all scored cells
    and subcells; ``empty`` flags scale indices whose preimage family has
    no interior cell. ``j2_interior_min`` records where the unrestricted
    interior range would start.
    """

    h: int
    n: int
    omega: Rectangle
    empty: bool
    j2_min: int | None = None
    j2_max: int | None = None
    j2_interior_min: int | None = None
    max_deviation: float | None = None

    def x2_fractions(self, j2: int) -> np.ndarray:
        """The n second-axis measure fractions of the cell at offset j2."""
        return np.array([aud_ratio(self.h, self.n, j2, k2) * self.n
                         for k2 in range(self.n)])

    def subcell_ratios(self, j2: int) -> np.ndarray:
        """(n, n) array of subcell measure fractions; rows index k2."""
        return np.tile(self.x2_fractions(j2)[:, None] / self.n, (1, self.n))


def _direct_ratio_decimal(n: int, j2: int, k2: int) -> float:
    """Subcell fraction computed from the two raw area differences in
    40-digit arithmetic; the float formula loses half its digits for large
    j2 because it subtracts nearly equal square roots."""
    getcontext().prec = 40
    lo = Decimal(int(n * j2 + k2)) / n
    hi = Decimal(int(n * j2 + k2 + 1)) / n
    num = hi.sqrt() - lo.sqrt()
    den = Decimal(int(j2 + 1)).sqrt() - Decimal(int(j2)).sqrt()
    return float(num / den / n)


def aud_verify(h_list: Sequence[int], n: int, omega: Rectangle) -> list[AudReport]:
    """Score the subcell measure fractions for each scale index.

    For every h the maximum deviation of the n^2 subcell fractions from
    the uniform value 1/n^2 over the preimage cells interior to ``omega``
    (second-axis offsets from :func:`scored_j2_range`) is recorded. Each
    fraction's deviation decreases in j2, so it is read off the first
    scored offset. For ten randomly drawn cells per h the closed form is
    validated against the direct area quotient to 1e-12 relative.

    Raises ValueError for an h that is not a positive integer or a
    non-increasing h list, RuntimeError if the cross-validation disagrees
    (an index-convention slip).
    """
    if not all(_is_integer(h, 1) for h in h_list):
        raise ValueError("scale indices h must be positive integers")
    h_list = [int(h) for h in h_list]
    if any(b <= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly increasing")
    if not _is_integer(n, 1):
        raise ValueError("subdivision count n must be a positive integer")

    reports = []
    for h in h_list:
        j1_lo, j1_hi = interior_j1_range(h, omega)
        j2_lo, j2_hi = scored_j2_range(h, omega)
        interior_lo, _ = interior_j2_range(h, omega)
        if j1_lo > j1_hi or j2_lo > j2_hi:
            reports.append(AudReport(h=h, n=n, omega=omega, empty=True))
            continue

        uniform = 1.0 / (n * n)
        max_dev = max(abs(aud_ratio(h, n, j2_lo, k2) - uniform) for k2 in range(n))

        rng = np.random.default_rng(987654321 + h)
        for _ in range(10):
            j2 = int(rng.integers(j2_lo, j2_hi + 1))
            k2 = int(rng.integers(0, n))
            closed = aud_ratio(h, n, j2, k2)
            direct = _direct_ratio_decimal(n, j2, k2)
            if abs(closed - direct) > 1e-12 * abs(direct):
                raise RuntimeError(
                    f"closed-form ratio disagrees with direct area quotient at "
                    f"h={h}, j2={j2}, k2={k2}: {closed!r} vs {direct!r}"
                )

        reports.append(AudReport(
            h=h, n=n, omega=omega, empty=False,
            j2_min=j2_lo, j2_max=j2_hi, j2_interior_min=interior_lo,
            max_deviation=max_dev,
        ))
    return reports



# ---------------------------------------------------------------------------
# Oscillatory mean integrals int phi(x) v(x, alpha_h(x)) dx.
# ---------------------------------------------------------------------------


class OscillatoryIntegral(NamedTuple):
    value: float
    under_resolved: bool


def default_oscillation_resolution(h: int) -> int:
    """Default midpoint resolution per unit length: max(4 h, 64)."""
    return max(4 * int(h), 64)


def oscillatory_mean_integral(
    v: Callable,
    phi: Callable,
    scale_map,
    omega: Rectangle,
    resolution: int | None = None,
) -> OscillatoryIntegral:
    """Composite midpoint quadrature of int_omega phi(x) v(x, alpha_h(x)) dx.

    Args:
        v: two-slot callable v(x, y) taking (m, 2) arrays for both slots.
        phi: weight callable on omega taking an (m, 2) array.
        scale_map: the map whose composition drives the oscillation.
        resolution: midpoint cells per unit length; defaults to
            max(4 h, 64). A resolution below 4 h flags the result as
            under-resolved instead of raising.
    """
    if resolution is None:
        resolution = default_oscillation_resolution(scale_map.h)
    if not _is_integer(resolution, 1):
        raise ValueError("resolution must be a positive integer")
    resolution = int(resolution)
    under = resolution < 4 * scale_map.h

    m1 = max(1, round(resolution * omega.width))
    m2 = max(1, round(resolution * omega.height))
    dx = omega.width / m1
    dy = omega.height / m2
    cx = omega.a1 + (np.arange(m1) + 0.5) * dx
    cy = omega.a2 + (np.arange(m2) + 0.5) * dy
    yy, xx = np.meshgrid(cy, cx)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    mapped = scale_map(pts)
    vals = np.asarray(phi(pts), dtype=float) * np.asarray(v(pts, mapped), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError("phi and v must return one value per point")
    return OscillatoryIntegral(float(vals.sum() * dx * dy), under)
