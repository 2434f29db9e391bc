import numpy as np
import pytest
from fractions import Fraction

from chargepair import bethe, reference_tables
from chargepair.fss import (
    FssSeries,
    central_charge_estimator,
    eliminate_log_amplitude,
    extrapolate,
    predicted_dimension,
    scaling_dimension_series,
)
from helpers import leading_fss_check


class TestCentralCharge:
    def test_slow_convergence_entry(self):
        assert abs(central_charge_estimator(62, 2.0) - 0.6157199846) < 1e-6

    def test_moderate_size_entry(self):
        assert abs(central_charge_estimator(222, 2.0) - 0.9990148608) < 1e-6


class TestPredictedDimension:
    def test_lowest_dimension(self):
        assert predicted_dimension(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 8)

    @pytest.mark.parametrize("m", [Fraction(-1, 2), Fraction(3, 2)])
    def test_first_excited_dimension(self, m):
        assert predicted_dimension(Fraction(1, 2), m) == Fraction(5, 8)

    def test_symmetry_under_vorticity_reflection(self):
        for n in (Fraction(1, 2), Fraction(3, 2)):
            for m in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
                assert predicted_dimension(n, m) == predicted_dimension(n, 1 - m)

    def test_domain(self):
        with pytest.raises(ValueError):
            predicted_dimension(Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            predicted_dimension(Fraction(-1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            predicted_dimension(Fraction(1, 2), Fraction(0))


class TestElimination:
    def test_zero_amplitude_returns_bare(self):
        assert eliminate_log_amplitude(0.117, 0.117, 65, 145, 2.0) == 0.117

    def test_recovers_planted_limit(self):
        i0 = 2.3
        x, amp = 0.125, 0.4
        bare = lambda L: x - amp / np.log(L * i0)
        got = eliminate_log_amplitude(bare(65), bare(145), 65, 145, i0)
        assert abs(got - x) < 1e-14


class TestSeries:
    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            FssSeries(((62, 1.0), (62, 2.0)))

    @pytest.mark.parametrize("sizes,named", [((0, 1, 2), "L=0, L=1"), ((1, 2, 3), "L=1"),
                                             ((-5, 10, 20), "L=-5")])
    def test_sizes_below_two_rejected(self, sizes, named):
        with pytest.raises(ValueError, match=f"at least 2, got {named}$"):
            FssSeries(tuple((L, 1.0) for L in sizes))

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_dimension_series(2, [65, 145], 2.0)
        with pytest.raises(ValueError):
            scaling_dimension_series(0, [64, 144], 2.0)
        with pytest.raises(ValueError):
            scaling_dimension_series(0, [65], 2.0)

    @pytest.mark.parametrize("sizes", [[145, 65], [225, 65, 145], [65, 65]])
    def test_sizes_must_strictly_increase(self, monkeypatch, sizes):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a dimension series over unsorted sizes")

        monkeypatch.setattr(bethe, "solve", no_solve)
        with pytest.raises(ValueError, match="strictly increasing"):
            scaling_dimension_series(0, sizes, 2.0)

    def test_pair_values_near_printed_table(self):
        series = scaling_dimension_series(0, [65, 145, 225], 3.0)
        ref = reference_tables.DIMENSION_X0[3.0]
        assert [L for L, _ in series.points] == [145, 225]
        for L, value in series.points:
            assert abs(value - ref[L]) < 5e-3


class TestExtrapolate:
    def test_constant_series(self):
        series = FssSeries(tuple((L, 0.5) for L in (10, 20, 30, 40)))
        result = extrapolate(series, "power-law")
        assert result.limit == pytest.approx(0.5, abs=1e-14)
        assert result.uncertainty <= 1e-12

    def test_power_law_recovery(self):
        a, b = 0.364, -2.2
        series = FssSeries(tuple((L, a + b / L) for L in (8, 16, 24, 40, 64)))
        result = extrapolate(series, "power-law")
        assert abs(result.limit - a) < 1e-10

    def test_gap_columns_reach_thermodynamic_value(self):
        for U, column in reference_tables.GAP_EVEN.items():
            series = FssSeries(tuple(sorted(column.items())))
            result = extrapolate(series, "power-law")
            assert abs(result.limit - reference_tables.GAP_INFINITE[U]) < 2e-4

    def test_log_corrected_fit(self):
        a, b, c = 0.125, 0.37, -1.4
        pts = tuple((L, a + b / np.log(L) + c / L) for L in (65, 145, 225, 305, 465))
        result = extrapolate(FssSeries(pts), "log-corrected")
        assert abs(result.limit - a) < 1e-9

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            extrapolate(FssSeries(((10, 1.0), (20, 2.0))), "power-law")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            extrapolate(FssSeries(((10, 1.0), (20, 2.0), (30, 3.0))), "spline")

    @pytest.mark.parametrize("mode", ["power-law", "log-corrected"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_refused(self, mode, bad):
        series = FssSeries(((10, 1.0), (20, bad), (30, 0.5)))
        with pytest.raises(ValueError, match=r"finite.*at L=20"):
            extrapolate(series, mode)


def test_leading_fss_check_small_sizes():
    dev = leading_fss_check(0, [65, 145, 225, 305], 3.0)
    assert dev < 1e-2


def test_reference_gap_columns_monotone():
    for column in reference_tables.GAP_EVEN.values():
        vals = [v for _, v in sorted(column.items())]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    for U, column in reference_tables.GAP_ODD.items():
        vals = [
            v for L, v in sorted(column.items())
            if not reference_tables.is_suspect("table7", U, L)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_extrapolation_tracks_printed_limit_rows():
    # printed limit rows carry one-digit uncertainties; agreement is checked
    # at the order-of-magnitude level
    for U, column in reference_tables.GAP_EVEN.items():
        series = FssSeries(tuple(sorted(column.items())))
        limit = extrapolate(series, "power-law").limit
        ref, unc = reference_tables.GAP_EVEN_EXTRAP[U]
        assert abs(limit - ref) <= 10 * unc
    for U, column in reference_tables.GAP_ODD.items():
        pts = tuple(
            (L, v) for L, v in sorted(column.items())
            if not reference_tables.is_suspect("table7", U, L)
        )
        limit = extrapolate(FssSeries(pts), "power-law").limit
        ref, unc = reference_tables.GAP_ODD_EXTRAP[U]
        assert abs(limit - ref) <= 10 * unc
