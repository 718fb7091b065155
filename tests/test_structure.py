"""Scale maps, preimage-cell distribution and oscillatory mean integrals."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from maphom.numerics import Rectangle
from maphom.structure import (
    AudReport,
    LinearScaleMap,
    QuadraticStretchMap,
    aud_ratio,
    aud_verify,
    cell_measure,
    default_oscillation_resolution,
    interior_j1_range,
    interior_j2_range,
    oscillatory_mean_integral,
    scored_j2_range,
    subcell_measure,
)

OMEGA = Rectangle(0.05, 2.0, 0.05, 2.0)


# ---------------------------------------------------------------------------
# scale maps
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 64),
    x1=st.floats(0.01, 3.0),
    x2=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-6),
)
def test_stretch_map_round_trips(h, x1, x2):
    m = QuadraticStretchMap(h)
    x = np.array([x1, x2])
    npt.assert_allclose(m.inverse(m(x)), x, rtol=1e-12, atol=1e-12)
    y = np.array([x1, x2])
    npt.assert_allclose(m(m.inverse(y)), y, rtol=1e-12, atol=1e-12)


def test_stretch_map_vectorized_and_signed():
    m = QuadraticStretchMap(4)
    pts = np.array([[0.5, 0.5], [0.5, -0.5]])
    mapped = m(pts)
    npt.assert_allclose(mapped[0], [2.0, 1.0])
    npt.assert_allclose(mapped[1], [2.0, -1.0])


def test_jacobian_is_h_times_zeta():
    """zeta_at is the map's Jacobian over h, here taken by central
    differences of the map itself; the off-diagonal entries are exactly 0."""
    step = 1e-5
    for m in (QuadraticStretchMap(8), LinearScaleMap(8)):
        for x in ([0.3, 0.7], [1.0, 0.25], [2.0, 1.5]):
            x = np.array(x)
            jac = np.column_stack([(m(x + step * e) - m(x - step * e)) / (2 * step)
                                   for e in np.eye(2)])
            npt.assert_allclose(jac / m.h, np.diag(m.zeta_at(x)), rtol=1e-9, atol=0)


def test_zeta_requires_positive_second_coordinate():
    m = QuadraticStretchMap(2)
    assert m.zeta_at([1.0, 0.5]) == (1.0, 1.0)
    with pytest.raises(ValueError):
        m.zeta_at([1.0, 0.0])
    with pytest.raises(ValueError):
        m.zeta_at([1.0, -0.1])
    with pytest.raises(ValueError):
        m.zeta_at([[1.0, 0.5], [1.0, 0.75]])


def test_linear_map_is_the_uniform_baseline():
    m = LinearScaleMap(8)
    npt.assert_allclose(m.inverse(m([0.3, 0.9])), [0.3, 0.9], rtol=1e-15)
    assert m.zeta_at([0.2, 1.7]) == (1.0, 1.0)
    assert m.required_mesh_density(OMEGA) == (64.0, 64.0)


def test_mesh_density_tracks_the_top_edge():
    m = QuadraticStretchMap(8)
    omega = Rectangle(0.5, 1.5, 0.5, 1.5)
    assert m.required_mesh_density(omega) == (64.0, 192.0)


@pytest.mark.parametrize("bad", [0, -3, 2.5, float("inf")])
def test_scale_index_must_be_a_positive_integer(bad):
    for build in (QuadraticStretchMap, LinearScaleMap, lambda h: aud_ratio(h, 2, 0, 0),
                  lambda h: aud_verify([h], 2, OMEGA)):
        with pytest.raises(ValueError):
            build(bad)


# ---------------------------------------------------------------------------
# subcell measure fractions
# ---------------------------------------------------------------------------


def test_fraction_closed_form_at_the_origin_cell():
    # n = 2, j2 = 0: the two row fractions are sqrt(2)/4 and 1/(4 + 2 sqrt(2)),
    # worked out from the raw square-root areas
    assert aud_ratio(1, 2, 0, 0) == pytest.approx(math.sqrt(2) / 4, rel=1e-15)
    assert aud_ratio(1, 2, 0, 1) == pytest.approx(1 / (4 + 2 * math.sqrt(2)),
                                                  rel=1e-15)


def test_trivial_subdivision_has_fraction_one():
    for j2 in (0, 1, 17):
        assert aud_ratio(3, 1, j2, 0) == 1.0


def test_fraction_equals_area_quotient():
    for j2 in (0, 1, 5, 40):
        for k2 in range(4):
            quotient = subcell_measure(7, 4, j2, k2) / cell_measure(7, j2)
            assert aud_ratio(7, 4, j2, k2) == pytest.approx(quotient, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    h=st.integers(1, 10 ** 6),
    n=st.integers(1, 8),
    j2=st.integers(0, 10 ** 9),
    data=st.data(),
)
def test_fraction_bounds_and_scale_independence(h, n, j2, data):
    k2 = data.draw(st.integers(0, n - 1))
    r = aud_ratio(h, n, j2, k2)
    assert 0 < r <= 1
    # the bottom row of each cell is always the widest strip
    assert r <= aud_ratio(h, n, j2, 0) + 1e-18
    # the scale index cancels out of the quotient entirely
    assert aud_ratio(h + 5, n, j2, k2) == r


@pytest.mark.parametrize("n", [2, 4, 5])
@pytest.mark.parametrize("j2", [0, 1, 7, 10 ** 6])
def test_fractions_partition_each_cell(n, j2):
    total = n * sum(aud_ratio(1, n, j2, k2) for k2 in range(n))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_subcell_measures_partition_the_cell_measure():
    for j2 in (0, 3, 11):
        total = sum(subcell_measure(9, 4, j2, k2) for k2 in range(4)) * 4
        assert total == pytest.approx(cell_measure(9, j2), rel=1e-14)


def test_cell_measure_matches_direct_area():
    for h, j2 in ((1, 0), (4, 3), (25, 90)):
        direct = (math.sqrt((j2 + 1) / h) - math.sqrt(j2 / h)) / h
        assert cell_measure(h, j2) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("args", [
    (0, 2, 0, 0), (1, 0, 0, 0), (1, 2, -1, 0), (1, 2, 0, 2), (1.5, 2, 0, 0),
])
def test_invalid_indices_raise(args):
    with pytest.raises(ValueError):
        aud_ratio(*args)


# ---------------------------------------------------------------------------
# index ranges and reports
# ---------------------------------------------------------------------------


def test_interior_ranges_on_the_default_domain():
    assert interior_j1_range(4, OMEGA) == (1, 7)
    assert interior_j2_range(4, OMEGA) == (1, 15)
    assert interior_j2_range(64, OMEGA) == (1, 255)


@pytest.mark.parametrize("h,expected", [
    (4, (2, 15)), (16, (4, 63)), (64, (8, 255)), (256, (16, 1023)),
])
def test_scored_range_floor_grows_like_sqrt_h(h, expected):
    assert scored_j2_range(h, OMEGA) == expected


def test_report_extremes_sit_at_the_first_scored_cell():
    """Per subcell row the deviation shrinks with j2, so the reported
    maximum must be attained at the smallest scored offset."""
    reports = aud_verify([4, 16], 4, OMEGA)
    for rep in reports:
        assert not rep.empty
        expected = max(abs(aud_ratio(rep.h, 4, rep.j2_min, k2) - 1.0 / 16.0)
                       for k2 in range(4))
        assert rep.max_deviation == pytest.approx(expected, rel=1e-12)
        assert rep.j2_interior_min == 1
        assert rep.j2_min > rep.j2_interior_min


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 64])
def test_row_deviation_strictly_decreases_in_j2(n):
    """The audit reads its maximum off the first scored offset because the
    largest |ratio - 1/n^2| of a cell falls strictly with j2; checked at
    every j2 below 64 and at 40 offsets up to 4e5."""
    def row_max(j2):
        return max(abs(aud_ratio(1, n, j2, k2) - 1.0 / (n * n)) for k2 in range(n))

    offsets = sorted(set(range(64)) | {int(j) for j in np.geomspace(64, 4e5, 40)})
    for j2 in offsets:
        assert row_max(j2 + 1) < row_max(j2), j2


def test_deviation_decreases_between_scales():
    reports = aud_verify([16, 256], 4, OMEGA)
    assert reports[1].max_deviation < reports[0].max_deviation


def test_huge_scale_index_is_nearly_uniform():
    (report,) = aud_verify([10 ** 6], 2, OMEGA)
    assert report.max_deviation < 1e-3


def test_domain_with_no_interior_cells_reports_empty():
    tiny = Rectangle(0.5, 0.9, 0.5, 0.9)
    (report,) = aud_verify([1], 4, tiny)
    assert report.empty
    assert report.max_deviation is None


def test_report_row_fractions_sum_to_one():
    rep = AudReport(h=4, n=4, omega=OMEGA, empty=False, j2_min=2, j2_max=15,
                    j2_interior_min=1, max_deviation=0.0)
    assert rep.x2_fractions(2).sum() == pytest.approx(1.0, abs=1e-14)
    ratios = rep.subcell_ratios(2)
    assert ratios.shape == (4, 4)
    assert ratios.sum() == pytest.approx(1.0, abs=1e-13)


def test_verify_rejects_unsorted_scales():
    with pytest.raises(ValueError):
        aud_verify([16, 4], 4, OMEGA)


# ---------------------------------------------------------------------------
# oscillatory mean integrals
# ---------------------------------------------------------------------------


def _phi_one(pts):
    return np.ones(pts.shape[0])


@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_pure_mode_averages_out(h):
    """A zero-mean oscillation integrates to zero once periods align."""
    omega = Rectangle(0.1, 1.1, 0.1, 1.1)

    def v(x, y):
        return np.sin(2 * np.pi * y[:, 0])

    result = oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(h), omega)
    assert abs(result.value) <= 1e-12
    assert not result.under_resolved


def test_map_independent_integrand_reduces_to_midpoint_quadrature():
    omega = Rectangle(0.5, 1.5, 0.5, 1.5)
    res = 32

    def v(x, y):
        return x[:, 0] ** 2 + np.cos(x[:, 1])

    def phi(pts):
        return 1.0 + pts[:, 1]

    result = oscillatory_mean_integral(v, phi, QuadraticStretchMap(2), omega,
                                       resolution=res)
    centers = omega.a1 + (np.arange(res) + 0.5) / res
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    reference = np.sum((pts[:, 0] ** 2 + np.cos(pts[:, 1])) * (1 + pts[:, 1]))
    reference /= res * res
    assert result.value == pytest.approx(reference, rel=1e-13)


def test_resolution_flagging_and_defaults():
    assert default_oscillation_resolution(8) == 64
    assert default_oscillation_resolution(32) == 128
    omega = Rectangle(0.5, 1.5, 0.5, 1.5)

    def v(x, y):
        return np.sin(2 * np.pi * y[:, 0])

    flagged = oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(16),
                                        omega, resolution=32)
    assert flagged.under_resolved
    with pytest.raises(ValueError):
        oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(2), omega,
                                  resolution=0)


@pytest.mark.parametrize("resolution", [15.9, math.inf, math.nan, 0])
def test_oscillatory_resolution_must_be_a_positive_integer(resolution):
    """A fractional resolution is refused, not truncated."""
    omega = Rectangle(0.5, 1.5, 0.5, 1.5)
    with pytest.raises(ValueError, match="resolution"):
        oscillatory_mean_integral(lambda x, y: np.ones(x.shape[0]), _phi_one,
                                  QuadraticStretchMap(2), omega, resolution=resolution)


def test_oscillatory_resolution_takes_numpy_integers():
    omega = Rectangle(0.5, 1.5, 0.5, 1.5)

    def v(x, y):
        return np.sin(2 * np.pi * y[:, 0])

    a = oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(2), omega,
                                  resolution=np.int64(16))
    b = oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(2), omega,
                                  resolution=16)
    assert a == b


def test_mean_recovery_improves_with_scale():
    """The composed integral tends to the cell mean of the oscillation."""
    omega = Rectangle(0.5, 1.5, 0.5, 1.5)

    def v(x, y):
        return (0.7 + 0.5 * np.sin(2 * np.pi * y[:, 0])
                + 0.25 * np.cos(2 * np.pi * y[:, 1]))

    coarse = oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(1),
                                       omega, resolution=128)
    fine = oscillatory_mean_integral(v, _phi_one, QuadraticStretchMap(8),
                                     omega, resolution=128)
    assert abs(fine.value - 0.7) <= 2e-3
    assert abs(fine.value - 0.7) < abs(coarse.value - 0.7)
