import numpy as np
import pytest

from chargepair import bethe, liebwu
from chargepair.liebwu import (
    gap_infinite,
    ground_energy_density,
    spin_velocity,
)


class TestGap:
    @pytest.mark.parametrize(
        "U,ref",
        [(2.0, 0.0863890951), (3.0, 0.3156965889), (4.0, 0.6433635110)],
    )
    def test_reference_values(self, U, ref):
        assert abs(gap_infinite(U) - ref) <= 1e-9

    def test_closes_at_weak_coupling(self):
        assert abs(gap_infinite(0.05)) < 1e-10

    def test_integral_term_limit(self):
        # the integral contribution tends to 2 as the coupling vanishes
        U = 1e-3
        term = gap_infinite(U) - (U / 2.0 - 2.0)
        assert abs(term - 2.0) < 5e-3

    def test_monotone_in_coupling(self):
        values = [gap_infinite(u) for u in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_positive_coupling_required(self):
        with pytest.raises(ValueError):
            gap_infinite(0.0)


class TestEnergyDensity:
    def test_consistent_with_finite_size_sequence(self):
        e_inf = ground_energy_density(2.0)
        errs = [
            abs(bethe.state_energy("ground", L, 2.0) / L - e_inf)
            for L in (62, 142, 222)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_strong_coupling_approach(self):
        assert abs(ground_energy_density(64.0) + 64.0 / 4.0) < 0.07

    def test_approach_is_monotone(self):
        gaps = [ground_energy_density(u) + u / 4.0 for u in (1.0, 2.0, 4.0, 8.0)]
        assert all(g < 0 for g in gaps)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_quadrature_halving_stable(self, monkeypatch):
        couplings = (0.7, 2.0, 4.0)
        coarse = [(ground_energy_density(U), gap_infinite(U)) for U in couplings]
        # half the panel width, more nodes per panel and a cut far in the tail
        monkeypatch.setattr(liebwu, "_PANEL_WIDTH", np.pi / 4)
        monkeypatch.setattr(liebwu, "_NODES", 32)
        monkeypatch.setattr(liebwu, "_upper_cut", lambda U: 160.0)
        for U, (energy, gap) in zip(couplings, coarse):
            assert abs(energy - ground_energy_density(U)) < 1e-10
            assert abs(gap - gap_infinite(U)) < 1e-10

    def test_positive_coupling_required(self):
        with pytest.raises(ValueError):
            ground_energy_density(-1.0)


@pytest.mark.parametrize("quantity", [gap_infinite, ground_energy_density, spin_velocity])
@pytest.mark.parametrize("U", [np.nan, np.inf, 0.0, -1.0])
def test_coupling_must_be_finite_and_positive(quantity, U):
    with pytest.raises(ValueError, match=f"finite and positive, got U={U}"):
        quantity(U)


class TestSpinVelocity:
    def test_twelve_digit_value(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ref = float(2 * mpmath.besseli(1, mpmath.pi) / mpmath.besseli(0, mpmath.pi))
        assert abs(spin_velocity(2.0) - ref) <= 1e-12 * ref

    def test_strong_coupling_asymptote(self):
        U = 200.0
        assert abs(spin_velocity(U) - 2.0 * np.pi / U) < (2.0 * np.pi / U) ** 2

    def test_strictly_decreasing(self):
        xs = [spin_velocity(u) for u in (1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(xs, xs[1:]))

    def test_no_overflow_at_tiny_coupling(self):
        assert 0.0 < spin_velocity(1e-3) <= 2.0
