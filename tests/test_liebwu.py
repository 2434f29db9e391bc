import tracemalloc

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

    def test_value_at_strong_coupling(self):
        assert abs(gap_infinite(1e4) - 4998.00027726) <= 5e-9


class TestStrongCouplingQuadrature:
    """At large U the integrands live on x < 80/U: the plan keeps ten panels
    there however large U is, where 8/U-wide panels up to 80/U + 10 once
    needed 1.25 U of them and refused U >= 1e5."""

    @pytest.mark.parametrize("U", [1e5, 1e6, 1e10])
    def test_leading_terms(self, U):
        # J1(x)/x = 1/2 - x^2/16 + ..., so the integral term is 4 ln 2 / U up
        # to a relative 1/U^2, and each value is U/2 or U/4 to a few ulp of U
        gap_ref = U / 2.0 - 2.0 + 4.0 * np.log(2.0) / U
        energy_ref = -U / 4.0 - 4.0 * np.log(2.0) / U
        assert abs(gap_infinite(U) - gap_ref) <= 4.0 * np.finfo(float).eps * U
        assert abs(ground_energy_density(U) - energy_ref) <= 4.0 * np.finfo(float).eps * U
        assert abs(liebwu._j1_fermi_integral(U) * U / np.log(2.0) - 1.0) <= 1e-9

    def test_plan_is_bounded(self):
        for U in (5.1, 1e5, 1e10, 1e300):
            assert sum(len(x) for x, _ in liebwu._panel_nodes(U)) == 10 * liebwu._NODES


class TestGaussLegendreRule:
    def test_rule_is_built_once_and_read_only(self):
        nodes, weights = liebwu._gauss_legendre()
        assert liebwu._gauss_legendre()[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    @pytest.mark.parametrize("U", [0.3, 2.0, 1e6])
    def test_integrals_equal_those_on_a_fresh_rule(self, monkeypatch, U):
        def integrals():
            return [ground_energy_density(U), gap_infinite(U),
                    *liebwu.counting_tables.__wrapped__(U)]

        cached = integrals()
        monkeypatch.setattr(liebwu, "_gauss_legendre",
                            lambda: np.polynomial.legendre.leggauss(liebwu._NODES))
        for old, new in zip(integrals(), cached, strict=True):
            assert np.array_equal(old, new)


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


COUNTING_COUPLINGS = [0.1, 0.25, 2.0, 4.0, 1e3, 1e10]


class TestCountingTables:
    @pytest.mark.parametrize("U", COUNTING_COUPLINGS)
    def test_charge_counting_function_increases_through_the_zone(self, U):
        k, z_c, _, _ = liebwu.counting_tables(U)
        assert np.all(np.diff(k) > 0) and np.all(np.diff(z_c) > 0)
        assert (k[0], k[-1]) == (-np.pi, np.pi)
        assert (z_c[0], z_c[-1]) == (-np.pi, np.pi)

    @pytest.mark.parametrize("U", COUNTING_COUPLINGS)
    def test_spin_counting_function_is_odd_monotone_and_bounded(self, U):
        _, _, mu, z_s = liebwu.counting_tables(U)
        assert np.array_equal(mu, -mu[::-1]) and np.array_equal(z_s, -z_s[::-1])
        assert np.all(np.diff(mu) > 0) and np.all(np.diff(z_s) >= 0)
        assert np.all(np.abs(z_s) < np.pi / 2)

    @pytest.mark.parametrize("U", [0.5, 2.0, 4.0])
    def test_spin_counting_function_matches_its_real_space_form(self, U):
        # z_s(mu) = (1/pi) int_{-pi}^{pi} atan(tanh(pi (mu - sin k) / U)) dk, by
        # the trapezoidal rule, exact to rounding for a smooth periodic integrand
        _, _, mu, z_s = liebwu.counting_tables(U)
        half = len(mu) // 2
        k = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        x = np.subtract.outer(mu[half::23], np.sin(k))
        ref = 2.0 * np.mean(np.arctan(np.tanh(np.pi * x / U)), axis=1)
        assert np.max(np.abs(z_s[half::23] - ref)) <= 1e-13

    def test_build_holds_no_large_temporary(self):
        # the weakest table a solve builds, U = 0.1, takes 37 000 quadrature
        # nodes: built in one piece it peaks at 26 MB
        tracemalloc.start()
        try:
            liebwu.counting_tables.__wrapped__(0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_tables_are_memoized_by_coupling(self):
        assert liebwu.counting_tables(2.0) is liebwu.counting_tables(2.0)
