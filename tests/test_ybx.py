from functools import partial

import numpy as np
import pytest

from chargepair import fock, models, ybx
from chargepair.models import ModelParams
from chargepair.ybx import (
    CurvePoint,
    coupled_lax,
    coupling_h,
    curve_point,
    density_expansion,
    graded_lax,
    graded_lax_from_twist,
    graded_permutation,
    graded_r,
    shastry_r,
    single_lax,
    two_site_density_reference,
    ybe_residual_graded,
    ybe_residual_spin,
)
from helpers import log_derivative_hamiltonian, transfer_matrix


def maxabs(m):
    return float(np.max(np.abs(m)))


class TestWeightsAndCurve:
    def test_null_b_family_satisfies_free_fermion_condition(self):
        # the block on the family qubits of the two local spaces, spectators
        # empty, in the basis |00>, |01>, |10>, |11>: the eight-vertex form
        # [[a, 0, 0, d], [0, b, c, 0], [0, c, b, 0], [d, 0, 0, a]]
        for family, low in (("sigma", 1), ("tau", 2)):
            idx = np.array([0, low, 4 * low, 5 * low])
            for lam in np.linspace(0, 2 * np.pi, 17):
                block = single_lax(lam, family)[np.ix_(idx, idx)]
                a, b, c, d = block[0, 0], block[1, 1], block[1, 2], block[0, 3]
                eight_vertex = np.array([[a, 0, 0, d], [0, b, c, 0], [0, c, b, 0], [d, 0, 0, a]])
                assert np.array_equal(block, eight_vertex)
                assert b == 0.0
                assert abs(a**2 + b**2 - c**2 - d**2) <= 1e-14

    @pytest.mark.parametrize("U", [np.nan, np.inf, -np.inf])
    def test_coupling_must_be_finite(self, U):
        with pytest.raises(ValueError, match="coupling U must be finite"):
            coupling_h(0.3, U)

    def test_coupling_examples(self):
        assert coupling_h(0.0, 2.0) == 0.0
        assert abs(coupling_h(np.pi / 4, 4.0) - np.arcsinh(1.0) / 2) < 1e-15
        assert abs(coupling_h(-0.3, 5.0) + coupling_h(0.3, 5.0)) < 1e-15

    def test_regular_point(self):
        p = curve_point(0.0, 3.0)
        assert p.x == 1.0 and p.y == 0.0 and p.residual == 0.0

    def test_curve_residual_examples(self):
        assert curve_point(np.pi / 4, 2.0).residual < 1e-13
        rng = np.random.default_rng(5)
        for U in (1.0, 2.0, 4.0):
            worst = max(
                curve_point(lam, U).residual
                for lam in rng.uniform(0, 2 * np.pi, 100)
            )
            assert worst <= 1e-12

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="curve"):
            graded_lax(CurvePoint(1.0, 0.5, 2.0))


class TestCoupledLax:
    def test_permutation_at_origin(self):
        perm = np.zeros((16, 16))
        for i in range(4):
            for j in range(4):
                perm[4 * i + j, 4 * j + i] = 1.0
        assert maxabs(coupled_lax(0.0, 3.0) - perm) < 1e-15

    def test_real_entries(self):
        lax = coupled_lax(0.83, 2.0)
        assert maxabs(np.imag(lax)) == 0.0

    def test_pure_pairing_block_at_half_pi(self):
        block = ybx.single_lax(np.pi / 2, "sigma")
        hop = ybx._pauli_pair(ybx._SP, ybx._SM, "sigma") + ybx._pauli_pair(
            ybx._SM, ybx._SP, "sigma"
        )
        # hopping weight vanishes, pair weight is one
        assert maxabs(block * (hop != 0)) < 1e-15
        pair = ybx._pauli_pair(ybx._SP, ybx._SP, "sigma") + ybx._pauli_pair(
            ybx._SM, ybx._SM, "sigma"
        )
        assert maxabs(block * (pair != 0) - pair) < 1e-15


class TestShastryR:
    def test_coincident_arguments_reduce_to_permutation_form(self):
        r = shastry_r(0.4, 0.4, 2.0)
        l0 = coupled_lax(0.0, 2.0)
        scale = np.sum(r * l0) / np.sum(l0 * l0)
        assert maxabs(r - scale * l0) < 1e-13

    def test_free_case_has_single_term(self):
        lm = 0.3 - 0.7
        first = np.cos(1.0) * ybx.single_lax(lm, "sigma") @ ybx.single_lax(lm, "tau")
        assert maxabs(shastry_r(0.3, 0.7, 0.0) - first) < 1e-14

    def test_zero_argument_proportional_to_lax(self):
        r = shastry_r(0.7, 0.0, 2.0)
        lax = coupled_lax(0.7, 2.0)
        scale = np.sum(r * lax) / np.sum(lax * lax)
        assert maxabs(r - scale * lax) < 1e-13

    def test_generic_invertibility(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            l1, l2 = rng.uniform(0, 2 * np.pi, 2)
            r = shastry_r(l1, l2, 1.0)
            assert np.all(np.isfinite(r))
            assert np.linalg.cond(r) < 1e8


class TestSpinYangBaxter:
    def test_fixed_pairs(self):
        assert ybe_residual_spin(0.3, 0.7, 2.0) < 1e-12
        assert ybe_residual_spin(1.1, 1.1, 4.0) < 1e-13

    @pytest.mark.parametrize("U", [1.0, 2.0, 4.0])
    def test_random_sweep(self, U):
        rng = np.random.default_rng(17)
        worst = max(
            ybe_residual_spin(l1, l2, U)
            for l1, l2 in rng.uniform(0, 2 * np.pi, (25, 2))
        )
        assert worst <= 1e-12


def _trace_product(laxes):
    """The dense einsum contraction of the monodromy that the vector sweep
    replaced, kept as its reference (L <= 4)."""
    mono = laxes[0].reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    for lax in laxes[1:]:
        mono = np.einsum("abIJ,bcij->acIiJj", mono, lax.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3))
        s = mono.shape
        mono = mono.reshape(s[0], s[1], s[2] * s[3], s[4] * s[5])
    perm = fock._site_major_permutation(len(laxes))
    return np.einsum("aaIJ->IJ", mono)[np.ix_(perm, perm)]


def _shift_rows(L):
    """Row of each canonical column under the one-site shift, which moves the
    content of site j+1 onto site j: both spin words rotate right by a bit."""
    cols = np.arange(4**L)
    mask = (1 << L) - 1

    def rotate(word):
        return ((word >> 1) | (word << (L - 1))) & mask

    return rotate(cols & mask) | (rotate((cols >> L) & mask) << L)


class TestTransferMatrix:
    def test_zero_parameter_is_one_site_shift(self):
        for L in (2, 3):
            shift = np.zeros((4**L, 4**L))
            shift[_shift_rows(L), np.arange(4**L)] = 1.0
            assert maxabs(transfer_matrix(0.0, 2.0, L) - shift) < 1e-14

    @pytest.mark.parametrize("L", range(2, 9))
    def test_zero_parameter_shifts_vectors(self, L):
        v = ybx.random_unit_vector(L)
        shifted = np.empty_like(v)
        shifted[_shift_rows(L)] = v
        assert maxabs(ybx.apply_transfer(0.0, 2.0, L, v) - shifted) < 1e-14

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_dense_views_match_einsum_reference(self, L):
        for U in (0.0, 2.0, 3.7):
            for lam in (0.0, 0.3, 1.1):
                ref = _trace_product([coupled_lax(lam, U)] * L)
                assert maxabs(transfer_matrix(lam, U, L) - ref) <= 1e-14
            l0, dl = coupled_lax(0.0, U), ybx._lax_derivative(U)
            dt = sum(_trace_product([dl if k == j else l0 for k in range(L)]) for j in range(L))
            ref = dt @ _trace_product([l0] * L).T
            assert maxabs(log_derivative_hamiltonian(U, L) - ref) <= 1e-14

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_site_major_permutation_state_by_state(self, L):
        # the shift and the coupled chain are blind to swapping up and down,
        # so the local order (empty, up, down, up+down) is checked here;
        # site 1 is the most significant digit of the site-major index
        def bit(word, spin, j):
            return word >> fock.mode_index(L, spin, j) & 1

        expected = [
            np.ravel_multi_index(
                [bit(w, fock.UP, j) + 2 * bit(w, fock.DOWN, j) for j in range(1, L + 1)],
                (4,) * L,
            )
            for w in fock._basis_words(L).tolist()
        ]
        assert fock._site_major_permutation(L).tolist() == expected

    @pytest.mark.parametrize("L", [2, 3])
    def test_commuting_family(self, L):
        lams = np.linspace(0.1, 1.3, 5)
        mats = [transfer_matrix(lam, 2.0, L) for lam in lams]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert maxabs(mats[i] @ mats[j] - mats[j] @ mats[i]) <= 1e-10

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_log_derivative_matches_coupled_chain(self, L):
        d = log_derivative_hamiltonian(2.0, L)
        hs = models.build_model("spin_coupled", ModelParams(L=L, U=2.0)).toarray()
        const = np.trace(d - hs).real / d.shape[0]
        assert maxabs(d - hs - const * np.eye(4**L)) < 1e-10
        # the additive constant is U L / 4
        assert abs(const - 2.0 * L / 4.0) < 1e-9

    @pytest.mark.parametrize("L", [5, 6, 7, 8])
    def test_integrability_on_vectors(self, L):
        U = 2.0
        v = ybx.random_unit_vector(L)
        hs = models.build_model("spin_coupled", ModelParams(L=L, U=U))
        ta, tb = (partial(ybx.apply_transfer, lam, U, L) for lam in (0.3, 0.8))
        assert np.linalg.norm(ta(tb(v)) - tb(ta(v))) <= 1e-10
        assert np.linalg.norm(ta(hs @ v) - hs @ ta(v)) <= 1e-10
        resid, const = ybx.spin_chain_constant_fit(U, L)
        assert resid < 1e-10
        assert abs(const - U * L / 4.0) < 1e-9

    def test_size_limit(self):
        # a vector is swept up to L = 8 and a dense view up to L = 4
        with pytest.raises(ValueError):
            ybx.random_unit_vector(1)
        with pytest.raises(ValueError):
            ybx.apply_transfer(0.1, 1.0, 1, np.ones(4))
        with pytest.raises(ValueError):
            ybx.apply_log_derivative(1.0, 1, np.ones(4))
        with pytest.raises(ValueError):
            ybx.random_unit_vector(9)
        with pytest.raises(ValueError):
            ybx.apply_transfer(0.1, 1.0, 9, np.ones(4**9))
        with pytest.raises(ValueError):
            transfer_matrix(0.1, 1.0, 5)


class TestGradedLax:
    def test_regular_point_is_graded_permutation(self):
        assert maxabs(graded_lax(ybx.regular_point(2.0)) - graded_permutation()) == 0.0

    @pytest.mark.parametrize("lam", [0.4, -0.9, 1.3, 2.8])
    def test_printed_matrix_equals_twisted_construction(self, lam):
        p = curve_point(lam, 2.0)
        assert maxabs(graded_lax(p) - graded_lax_from_twist(p)) <= 1e-12

    def test_weight_identities(self):
        p = curve_point(0.6, 3.0)
        r2 = p.x**2 + p.y**2
        w2, w3, w4 = p.x * p.y / r2, -(p.y**2) / r2, -(p.x**2) / r2
        assert abs(w2 * w2 - w3 * w4) < 1e-15
        assert abs(w3 + w4 + 1.0) < 1e-15


class TestGradedR:
    def test_coincident_points_kill_the_d_entry(self):
        p = curve_point(0.5, 2.0)
        r = graded_r(p, p)
        assert r[5, 0] == 0.0 and r[0, 5] == 0.0

    def test_bbar_entry_against_regular_partner(self):
        p1 = curve_point(0.5, 2.0)
        p2 = ybx.regular_point(2.0)
        r = graded_r(p1, p2)
        expected = p1.y / (p1.x**2 + p1.y**2)
        assert abs(r[4, 11] - expected) < 1e-14

    def test_h_entry_at_double_regular_point(self):
        p = ybx.regular_point(2.0)
        assert graded_r(p, p)[0, 0] == 1.0

    def test_mixed_couplings_rejected(self):
        with pytest.raises(ValueError):
            graded_r(ybx.regular_point(2.0), ybx.regular_point(3.0))

    def test_singular_pair_rejected(self):
        p1 = curve_point(0.4, 2.0)
        x, y = p1.x, p1.y
        p2 = CurvePoint(y, x, 2.0)   # x1 x2 = y1 y2 makes the denominator zero
        if p2.residual < 1e-9:
            with pytest.raises(ValueError, match="singular"):
                graded_r(p1, p2)


class TestGradedYangBaxter:
    def test_check_form_fixed_pair(self):
        p1 = curve_point(0.4, 2.0)
        p2 = curve_point(1.1, 2.0)
        assert ybe_residual_graded(p1, p2) < 1e-12

    def test_check_form_coincident(self):
        p = curve_point(0.9, 2.0)
        assert ybe_residual_graded(p, p) < 1e-13

    @pytest.mark.parametrize("U", [2.0, 4.0])
    def test_check_form_sweep(self, U):
        pts = ybx.random_curve_points(U, 30, seed=11)
        worst = max(ybe_residual_graded(pts[i], pts[15 + i]) for i in range(15))
        assert worst <= 1e-10


class TestDensityExpansion:
    def test_interaction_free_case_is_pure_pairing(self):
        h2 = density_expansion(0.0)
        ref = two_site_density_reference(0.0)
        assert maxabs(h2 - ref) <= 1e-10

    @pytest.mark.parametrize("U", [2.0, 4.0])
    def test_matches_printed_density(self, U):
        assert maxabs(density_expansion(U) - two_site_density_reference(U)) <= 1e-10

    @pytest.mark.parametrize("U", [0.0, 2.0, 4.0])
    def test_printed_lax_first_order_term(self, U):
        # the printed matrix, not the twisted construction the exact
        # density is built from, differenced at a small step
        p = curve_point(1e-6, U)
        first_order = (graded_permutation() @ graded_lax(p) - np.eye(16)) / p.y
        assert maxabs(first_order - density_expansion(U)) <= 1e-5

    def test_ring_sum_reproduces_pairing_chain(self):
        from chargepair import fock

        U, L = 2.0, 3
        terms = []
        for j in range(1, L + 1):
            jn = 1 if j == L else j + 1
            for spin in (fock.UP, fock.DOWN):
                terms.append((1.0, [(fock.ANNIHILATE, spin, j), (fock.ANNIHILATE, spin, jn)]))
                terms.append((1.0, [(fock.CREATE, spin, jn), (fock.CREATE, spin, j)]))
            for site in (j, jn):
                nu = [(fock.CREATE, fock.UP, site), (fock.ANNIHILATE, fock.UP, site)]
                nd = [(fock.CREATE, fock.DOWN, site), (fock.ANNIHILATE, fock.DOWN, site)]
                terms += [(U / 2, nu + nd), (-U / 4, nu), (-U / 4, nd), (U / 8, [])]
            terms.append((U / 4, []))
        ring = fock.assemble_operator(L, terms)
        hc = models.build_model("charge_pair", ModelParams(L=L, U=U))
        offset = (L * U / 4.0) * np.eye(4**L)
        assert maxabs(ring - hc - offset) <= 1e-10


def test_transfer_hamiltonian_isospectral_chain():
    # log-derivative Hamiltonian -> coupled chain -> pairing chain (odd L)
    U, L = 2.0, 3
    d = log_derivative_hamiltonian(U, L)
    hs = models.build_model("spin_coupled", ModelParams(L=L, U=U)).toarray()
    const = np.trace(d - hs).real / d.shape[0]
    ev_d = np.sort(np.linalg.eigvalsh((d + d.conj().T) / 2)) - const
    ev_s = np.sort(np.linalg.eigvalsh(hs))
    ev_c = np.sort(
        np.linalg.eigvalsh(models.build_model("charge_pair", ModelParams(L=L, U=U)).toarray())
    )
    assert maxabs(ev_d - ev_s) < 1e-9
    assert maxabs(ev_s - ev_c) < 1e-9
