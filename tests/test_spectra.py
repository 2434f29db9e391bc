import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chargepair import bethe, fock, models, spectra
from chargepair.fock import Sector
from chargepair.models import ModelParams, build_model
from chargepair.spectra import (
    commutator_norm,
    compare_spectra,
    reference_state_residual,
    spectrum,
)
from helpers import gathered_blockwise_eigvalsh, translation_expectation


def dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


class TestSpectrum:
    def test_two_site_half_filled_sector(self):
        h = build_model(
            "charge_pair_transformed", ModelParams(L=2, U=3.0), sector=Sector(1, 1)
        )
        rep = spectrum(h)
        assert abs(rep.eigenvalues[0] + 1.5) < 1e-12
        assert abs(rep.eigenvalues[-1] - 1.5) < 1e-12

    def test_product_state_eigenvalues_present(self):
        rep = spectrum(build_model("charge_pair", ModelParams(L=3, U=1.0)))
        for target in (0.75, -0.75):
            assert np.min(np.abs(rep.eigenvalues - target)) < 1e-12

    def test_degeneracies_sum_to_dimension(self):
        rep = spectrum(build_model("charge_pair", ModelParams(L=3, U=2.0)))
        assert int(np.sum(rep.degeneracies)) == 64

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_iterative_lowest_k_matches_dense(self):
        h = dense(build_model("charge_pair", ModelParams(L=4, U=2.0)))
        full = np.linalg.eigvalsh(h)
        rep = spectrum(sp.csr_matrix(h), k=4)
        assert np.max(np.abs(rep.eigenvalues[:4] - full[:4])) < 1e-8

    def test_iterative_solve_repeats_bit_for_bit(self):
        # the L = 7 ground block: dimension 1225, so k = 4 takes the Lanczos path
        sector = bethe.quantum_numbers("ground", 7, 2.0).sector
        h = build_model("charge_pair_transformed", ModelParams(L=7, U=2.0), sector=sector)
        first = spectrum(h, k=4).eigenvalues
        for _ in range(2):
            assert np.array_equal(spectrum(h, k=4).eigenvalues, first)

    @pytest.mark.parametrize("k", [0, -1])
    def test_eigenvalue_count_below_one_rejected(self, k):
        for h in (np.eye(1), np.eye(3), sp.identity(5000, format="csr")):
            with pytest.raises(ValueError, match="k must be at least 1"):
                spectrum(h, k=k)

    def test_real_blocks_reach_eigvalsh_as_float64(self, monkeypatch):
        seen, as_dense = [], spectra._as_dense

        def record(h):
            seen.append(as_dense(h))
            return seen[-1]

        monkeypatch.setattr(spectra, "_as_dense", record)
        spectrum(build_model("charge_pair", ModelParams(L=4, U=2.0)))
        assert len(seen) > 1 and sum(len(b) for b in seen) == 256
        assert all(b.dtype == np.float64 for b in seen)
        seen.clear()
        spectrum(build_model("charge_pair_transformed", ModelParams(L=3, U=2.0)))
        assert any(np.iscomplexobj(b) for b in seen)

    @pytest.mark.parametrize("kind,L", [("hubbard", 3), ("hubbard", 4),
                                        ("charge_pair", 4), ("charge_pair", 5)])
    def test_block_order_gather_is_bit_identical_to_per_block_gather(self, kind, L):
        h = build_model(kind, ModelParams(L=L, U=2.0))
        if not np.any(h.data.imag):
            h = h.real  # as spectrum passes it
        assert np.array_equal(spectra._blockwise_eigvalsh(h), gathered_blockwise_eigvalsh(h))

    def test_large_dimension_needs_k(self):
        big = sp.identity(5000, format="csr", dtype=complex)
        with pytest.raises(ValueError, match="k"):
            spectrum(big)

    def test_hubbard_level_crossing_l5(self):
        # the lowest level moves between the (3,3)- and (3,2)-type sectors
        from chargepair.models import _hubbard_terms

        def sector_min(U, sec):
            h = fock.assemble_operator(
                5, _hubbard_terms(ModelParams(L=5, U=U)), sector=Sector(*sec)
            )
            return np.linalg.eigvalsh(dense(h))[0]

        weak = sector_min(1.0, (3, 2)) - sector_min(1.0, (3, 3))
        strong = sector_min(20.0, (3, 2)) - sector_min(20.0, (3, 3))
        assert weak > 0 and strong < 0


class TestCompare:
    def test_hubbard_vs_pairing_l4(self):
        p = ModelParams(L=4, U=2.0)
        a = spectrum(build_model("hubbard", p))
        b = spectrum(build_model("charge_pair", p))
        rep = compare_spectra(a, b, 1e-10)
        assert rep.match and rep.deviation < 1e-10

    def test_coupled_chain_vs_pairing_l3(self):
        p = ModelParams(L=3, U=4.0)
        a = spectrum(build_model("spin_coupled", p))
        b = spectrum(build_model("charge_pair", p))
        assert compare_spectra(a, b, 1e-9).match

    def test_mismatch_at_l3(self):
        p = ModelParams(L=3, U=2.0)
        a = spectrum(build_model("hubbard", p))
        b = spectrum(build_model("charge_pair", p))
        rep = compare_spectra(a, b, 1e-10)
        assert not rep.match and rep.deviation > 1e-3

    def test_dimension_mismatch(self):
        a = spectrum(np.eye(4))
        b = spectrum(np.eye(8))
        with pytest.raises(ValueError):
            compare_spectra(a, b, 1e-10)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        a = spectrum(np.eye(4))
        with pytest.raises(ValueError, match=f"non-negative, got tol={tol}$"):
            compare_spectra(a, a, tol)
        assert compare_spectra(a, a, 0.0).match


class TestCommutators:
    def test_surviving_charge(self):
        hc = build_model("charge_pair", ModelParams(L=4, U=1.0))
        g = models.symmetry_generator("S_y", 4)
        assert commutator_norm(hc, g) < 1e-12

    def test_broken_charge(self):
        hc = build_model("charge_pair", ModelParams(L=3, U=1.0))
        g = models.symmetry_generator("S_z", 3)
        assert commutator_norm(hc, g) > 0.1

    def test_self_commutator(self):
        hc = build_model("charge_pair", ModelParams(L=3, U=1.0))
        assert commutator_norm(hc, hc) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(np.eye(4), np.eye(8))


class TestReferenceStates:
    @pytest.mark.parametrize("which", ["table1_plus", "table1_minus"])
    @pytest.mark.parametrize("L", [3, 4])
    def test_pair_condensate_states(self, which, L):
        assert reference_state_residual(which, L, 2.0) < 1e-12

    def test_ferromagnet_like_state(self):
        assert reference_state_residual("table1_ferro", 4, 1.0) < 1e-12

    @pytest.mark.parametrize("which", ["table10_plus", "table10_minus"])
    @pytest.mark.parametrize("L", [3, 5])
    def test_factorized_spin_chain_states(self, which, L):
        assert reference_state_residual(which, L, 2.0) < 1e-12

    def test_table10_needs_odd_size(self):
        with pytest.raises(ValueError, match="odd"):
            reference_state_residual("table10_plus", 4, 1.0)

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            reference_state_residual("nope", 3, 1.0)


class TestGroundStateSectors:
    def test_even_size_ground_state_is_half_filled(self):
        L, p = 4, ModelParams(L=4, U=2.0)
        full = np.linalg.eigvalsh(dense(build_model("charge_pair", p)))[0]
        half = np.linalg.eigvalsh(
            dense(build_model("charge_pair_transformed", p, sector=Sector(2, 2)))
        )[0]
        assert abs(full - half) < 1e-11

    def test_odd_size_ground_state_doubly_degenerate(self):
        L, p = 3, ModelParams(L=3, U=2.0)
        full = np.linalg.eigvalsh(dense(build_model("charge_pair", p)))
        e21 = np.linalg.eigvalsh(
            dense(build_model("charge_pair_transformed", p, sector=Sector(2, 1)))
        )[0]
        e12 = np.linalg.eigvalsh(
            dense(build_model("charge_pair_transformed", p, sector=Sector(1, 2)))
        )[0]
        assert abs(e21 - e12) < 1e-11
        assert abs(full[0] - e21) < 1e-11
        assert abs(full[1] - full[0]) < 1e-11

    def test_odd_ground_state_has_zero_momentum(self):
        hc = dense(build_model("charge_pair", ModelParams(L=5, U=2.0)))
        w, v = np.linalg.eigh(hc)
        t = translation_expectation(v[:, 0] + v[:, 1], 5)
        assert abs(t - 1.0) < 1e-9


@pytest.mark.parametrize("U", [1.0, 3.0])
def test_product_state_energies_present_for_all_sizes(U):
    # +-LU/4 sit in the pairing-chain spectrum for every L up to six
    for L in range(2, 7):
        assert reference_state_residual("table1_plus", L, U) < 1e-12
        assert reference_state_residual("table1_ferro", L, U) < 1e-12


@st.composite
def hidden_blocks(draw):
    """Hermitian block-diagonal matrix with its rows and columns shuffled by a
    random permutation.  Each block is connected through a chain of nonzero
    couplings, plus random extra couplings; integer diagonals make exact
    degeneracies between blocks likely."""
    sizes = draw(st.one_of(
        st.lists(st.integers(1, 6), min_size=1, max_size=6),
        st.integers(1, 12).map(lambda n: [1] * n),      # all diagonal
        st.integers(2, 12).map(lambda n: [n]),          # one block
    ))
    coupling = draw(st.sampled_from(("real", "complex", "imaginary")))
    fill = draw(st.sampled_from((0.0, 0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    h = np.diag(rng.integers(-2, 3, size=n).astype(complex))
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                if j == i + 1 or rng.random() < fill:
                    x = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
                    c = {"real": x, "imaginary": 1j * x,
                         "complex": x * np.exp(1j * rng.uniform(0, 2 * np.pi))}[coupling]
                    h[i, j], h[j, i] = c, np.conj(c)
        start += size
    perm = rng.permutation(n)
    return h[perm][:, perm]


@settings(max_examples=150, deadline=None)
@given(hidden_blocks())
def test_blockwise_spectrum_matches_dense_eigvalsh(h):
    ref = np.linalg.eigvalsh(h)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    for m in (h, sp.csr_matrix(h)):
        rep = spectrum(m)
        assert np.max(np.abs(rep.eigenvalues - ref)) <= tol
        assert np.array_equal(rep.degeneracies, spectra._group_degeneracies(ref))
        if len(ref) > 1:
            lowest = spectrum(m, k=len(ref) - 1).eigenvalues
            assert np.max(np.abs(lowest - ref[:-1])) <= tol
