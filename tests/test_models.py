import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chargepair import bethe, fock, models
from chargepair.fock import DOWN, UP, Sector
from chargepair.models import ModelParams, build_model
from chargepair.spectra import spectrum
from helpers import (
    V_LOCAL,
    basis_rotation,
    extended_charges,
    flux_charge_pair,
    sublattice_rotation_check,
    transformed_fermion_matrix,
)


def dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def maxabs(m):
    return float(np.max(np.abs(m)))


def sorted_spectrum(kind, params):
    return np.sort(np.linalg.eigvalsh(dense(build_model(kind, params))))


class TestBuilders:
    @pytest.mark.parametrize(
        "kind,L",
        [
            ("hubbard", 3),
            ("charge_pair", 3),
            ("charge_pair_transformed", 3),
            ("spin_coupled", 3),
            ("spin_xx", 4),
            ("spin_xx", 3),
            ("charge_pair_jw", 3),
        ],
    )
    def test_hermitian(self, kind, L):
        h = dense(build_model(kind, ModelParams(L=L, U=1.7)))
        assert maxabs(h - h.conj().T) <= 1e-13

    @pytest.mark.parametrize(
        "build,L,U",
        [
            pytest.param(lambda L, U, kind=kind: build_model(kind, ModelParams(L, U)), L, U,
                         id=f"{kind}-L{L}-U{U}")
            for kind in ("hubbard", "charge_pair", "charge_pair_transformed")
            for L in (2, 3, 4)
            for U in (0.7, 1.3)
        ]
        + [
            pytest.param(lambda L, U: flux_charge_pair(L, U, 0.3, -0.7, 0.2, -0.4), L, U,
                         id=f"charge_pair-fluxes-L{L}-U{U}")
            for L in (2, 3, 4)
            for U in (0.7, 1.3)
        ],
    )
    def test_interaction_diagonal_is_exact(self, build, L, U):
        # one diagonal term per site: no rounding residue may be stored where
        # the exact entry is zero, at dyadic or non-dyadic U
        h = build(L, U)
        assert np.min(np.abs(h.data)) >= 1e-12
        w = np.arange(4**L)
        expected = U * sum(
            ((w >> (j - 1) & 1) - 0.5) * ((w >> (L + j - 1) & 1) - 0.5) for j in range(1, L + 1)
        )
        assert maxabs(h.diagonal() - expected) <= 1e-15

    def test_two_site_pairing_chain_is_diagonal(self):
        h = dense(build_model("charge_pair", ModelParams(L=2, U=5.0)))
        assert maxabs(h - np.diag(np.diag(h))) == 0.0

    def test_two_site_eigenvalue_multiset(self):
        ev = sorted_spectrum("charge_pair", ModelParams(L=2, U=2.0))
        for target in (1.0, 0.0, -1.0):
            assert np.min(np.abs(ev - target)) < 1e-14

    def test_hubbard_matches_pairing_chain_at_l4(self):
        p = ModelParams(L=4, U=3.0)
        dev = maxabs(sorted_spectrum("hubbard", p) - sorted_spectrum("charge_pair", p))
        assert dev < 1e-10

    def test_hubbard_differs_at_l3(self):
        p = ModelParams(L=3, U=3.0)
        dev = maxabs(sorted_spectrum("hubbard", p) - sorted_spectrum("charge_pair", p))
        assert dev > 1e-3

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @pytest.mark.parametrize("U", [np.nan, np.inf, -np.inf])
    def test_coupling_must_be_finite(self, kind, U):
        with pytest.raises(ValueError, match=f"finite, got U={U}$"):
            build_model(kind, ModelParams(L=3, U=U))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_model("xyz", ModelParams(L=2, U=1.0))


class TestConservation:
    @pytest.mark.parametrize("L,U", [(3, 1.0), (4, 1.0), (5, 4.0)])
    def test_surviving_rotations(self, L, U):
        hc = dense(build_model("charge_pair", ModelParams(L=L, U=U)))
        for kind in ("S_y", "R_x"):
            g = dense(models.symmetry_generator(kind, L))
            assert maxabs(hc @ g - g @ hc) < 1e-12

    def test_broken_rotations(self):
        hc = dense(build_model("charge_pair", ModelParams(L=3, U=1.0)))
        for kind in ("S_x", "S_z", "R_y", "R_z"):
            g = dense(models.symmetry_generator(kind, L=3))
            assert maxabs(hc @ g - g @ hc) > 0.1

    @pytest.mark.parametrize("L,commutes", [(3, False), (4, True)])
    def test_staggered_generators_need_even_size(self, L, commutes):
        hc = dense(build_model("charge_pair", ModelParams(L=L, U=1.0)))
        for kind in ("S_x_staggered", "S_z_staggered", "R_y_staggered", "R_z_staggered"):
            g = dense(models.symmetry_generator(kind, L))
            norm = maxabs(hc @ g - g @ hc)
            if commutes:
                assert norm < 1e-12
            else:
                assert norm > 0.1

    def test_generator_hermitian(self):
        for kind in models.GENERATOR_KINDS:
            g = dense(models.symmetry_generator(kind, 3))
            assert maxabs(g - g.conj().T) < 1e-14


class TestBasisRotation:
    def test_printed_single_site_factor(self):
        v = dense(basis_rotation(1))
        assert maxabs(v - V_LOCAL) < 1e-15
        assert maxabs(v @ v.conj().T - np.eye(4)) < 1e-15

    @pytest.mark.parametrize("L", [2, 3, 4])
    @settings(max_examples=10, deadline=None)
    @given(U=st.floats(0.0, 8.0))
    def test_conjugation_gives_transformed_model(self, L, U):
        p = ModelParams(L=L, U=U)
        w = dense(basis_rotation(L))
        assert maxabs(w @ w.conj().T - np.eye(4**L)) < 1e-14
        hc = dense(build_model("charge_pair", p))
        ht = dense(build_model("charge_pair_transformed", p))
        assert maxabs(w @ hc @ w.conj().T - ht) <= 1e-12

    def test_unitary_equivalence_of_spectra(self):
        p = ModelParams(L=2, U=1.0)
        dev = maxabs(
            sorted_spectrum("charge_pair", p)
            - sorted_spectrum("charge_pair_transformed", p)
        )
        assert dev < 1e-12

    def test_rotated_fermions_rebuild_pairing_hamiltonian(self):
        # substituting the printed combinations into the imaginary-hopping
        # form returns the pairing Hamiltonian column by column
        for L in (1, 2):
            U = 1.7
            eye = np.eye(4**L)
            acc = np.zeros_like(eye, dtype=complex)
            for j in range(1, L + 1):
                jn = 1 if j == L else j + 1
                du_j = dense(transformed_fermion_matrix(L, UP, j))
                dd_j = dense(transformed_fermion_matrix(L, DOWN, j))
                if L > 1:
                    du_n = dense(transformed_fermion_matrix(L, UP, jn))
                    dd_n = dense(transformed_fermion_matrix(L, DOWN, jn))
                    acc += 1j * du_j.conj().T @ du_n - 1j * du_n.conj().T @ du_j
                    acc += -1j * dd_j.conj().T @ dd_n + 1j * dd_n.conj().T @ dd_j
                acc += (
                    U
                    * (du_j.conj().T @ du_j - 0.5 * eye)
                    @ (dd_j.conj().T @ dd_j - 0.5 * eye)
                )
            if L > 1:
                target = dense(build_model("charge_pair", ModelParams(L=L, U=U)))
            else:
                nu = dense(transformed_fermion_matrix(L, UP, 1))
                target = dense(
                    fock.assemble_operator(
                        1,
                        [
                            (U, [(fock.CREATE, UP, 1), (fock.ANNIHILATE, UP, 1),
                                 (fock.CREATE, DOWN, 1), (fock.ANNIHILATE, DOWN, 1)]),
                            (-U / 2, [(fock.CREATE, UP, 1), (fock.ANNIHILATE, UP, 1)]),
                            (-U / 2, [(fock.CREATE, DOWN, 1), (fock.ANNIHILATE, DOWN, 1)]),
                            (U / 4, []),
                        ],
                    )
                )
            assert maxabs(acc - target) < 1e-12

    def test_charges_in_rotated_basis(self):
        L = 2
        sy = dense(models.symmetry_generator("S_y", L))
        rx = dense(models.symmetry_generator("R_x", L))
        eye = np.eye(4**L)
        sy_d = np.zeros_like(sy)
        rx_d = np.zeros_like(rx)
        for j in range(1, L + 1):
            du = dense(transformed_fermion_matrix(L, UP, j))
            dd = dense(transformed_fermion_matrix(L, DOWN, j))
            sy_d += 0.5 * (du.conj().T @ du - dd.conj().T @ dd)
            rx_d += 0.5 * (du.conj().T @ du + dd.conj().T @ dd - eye)
        assert maxabs(sy - sy_d) < 1e-13
        assert maxabs(rx - rx_d) < 1e-13


class TestJordanWigner:
    @pytest.mark.parametrize("L,U,tol", [(2, 0.0, 1e-13), (3, 2.0, 1e-12), (4, 1.0, 1e-12)])
    def test_image_equals_pairing_chain(self, L, U, tol):
        jw = dense(models.jordan_wigner_image(L, U))
        hc = dense(build_model("charge_pair", ModelParams(L=L, U=U)))
        assert maxabs(jw - hc) <= tol

    def test_boundary_differs_from_coupled_chain(self):
        jw = dense(models.jordan_wigner_image(3, 2.0))
        hs = dense(build_model("spin_coupled", ModelParams(L=3, U=2.0)))
        assert maxabs(jw - hs) > 0.5


class TestSpinChains:
    @pytest.mark.parametrize("L,tol", [(3, 1e-9), (5, 1e-9)])
    def test_coupled_chain_isospectral_odd(self, L, tol):
        p = ModelParams(L=L, U=4.0)
        dev = maxabs(
            sorted_spectrum("spin_coupled", p) - sorted_spectrum("charge_pair", p)
        )
        assert dev < tol

    def test_coupled_chain_not_isospectral_even(self):
        p = ModelParams(L=4, U=4.0)
        dev = maxabs(
            sorted_spectrum("spin_coupled", p) - sorted_spectrum("charge_pair", p)
        )
        assert dev > 1e-3

    @pytest.mark.parametrize("L,U,tol", [(4, 1.0, 1e-12), (3, 1.0, 1e-12), (2, 0.0, 1e-13), (5, 2.0, 1e-12)])
    def test_sublattice_rotation(self, L, U, tol):
        assert sublattice_rotation_check(L, U) < tol


class TestSectorStructure:
    @pytest.mark.parametrize("L", [3, 4])
    def test_spectral_identity(self, L):
        p = ModelParams(L=L, U=1.7)
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                a = dense(build_model("charge_pair_transformed", p, sector=Sector(n_up, n_down)))
                b = dense(build_model("charge_pair_transformed", p,
                                      sector=Sector(L - n_up, L - n_down)))
                dev = maxabs(np.sort(np.linalg.eigvalsh(a)) - np.sort(np.linalg.eigvalsh(b)))
                assert dev <= 1e-11

    @pytest.mark.parametrize("L", [3, 4])
    def test_spin_flip_symmetry(self, L):
        p = ModelParams(L=L, U=2.3)
        for n_up in range(L + 1):
            for n_down in range(n_up):
                a = dense(build_model("charge_pair_transformed", p, sector=Sector(n_up, n_down)))
                b = dense(build_model("charge_pair_transformed", p, sector=Sector(n_down, n_up)))
                dev = maxabs(np.sort(np.linalg.eigvalsh(a)) - np.sort(np.linalg.eigvalsh(b)))
                assert dev <= 1e-11

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_sector_blocks_restrict_the_full_operator(self, L):
        # the rows of a sector block come from fock's rank tables, the full
        # space's from the words themselves; restricting the full operator to
        # the sector's words checks the tables entry for entry (on the
        # canonical block, before build_model's change of basis)
        p = ModelParams(L=L, U=1.7)
        terms = models._transformed_terms(p)
        full = fock.assemble_operator(L, terms)
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                sector = Sector(n_up, n_down)
                words = fock._basis_words(L, sector)
                block = dense(fock.assemble_operator(L, terms, sector=sector))
                assert np.array_equal(block, dense(full[words][:, words]))

    def test_sector_blocks_tile_the_full_spectrum(self):
        L = 3
        p = ModelParams(L=L, U=1.1)
        pieces = []
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                h = dense(build_model("charge_pair_transformed", p, sector=Sector(n_up, n_down)))
                pieces.append(np.linalg.eigvalsh(h))
        union = np.sort(np.concatenate(pieces))
        full = sorted_spectrum("charge_pair", p)
        assert maxabs(union - full) <= 1e-11

    def test_sector_blocks_tile_the_blockwise_spectrum_l6(self):
        # spectra.spectrum splits the full space into blocks of its own; the
        # 49 particle-number blocks of the transformed model, each by plain
        # eigvalsh, are the independent reference
        L, U = 6, 2.0
        p = ModelParams(L=L, U=U)
        pieces = [
            np.linalg.eigvalsh(dense(build_model("charge_pair_transformed", p,
                                                 sector=Sector(n_up, n_down))))
            for n_up in range(L + 1) for n_down in range(L + 1)
        ]
        assert len(pieces) == 49
        union = np.sort(np.concatenate(pieces))
        full = spectrum(build_model("charge_pair", p)).eigenvalues
        assert maxabs(union - full) <= 1e-10
        assert abs(full[0] - bethe.state_energy("ground", L, U)) <= 1e-10


def _canonical_blocks(L, U):
    """(sector, mirror rows, canonical complex block) of every sector, the
    block cut from the full-space operator."""
    full = build_model("charge_pair_transformed", ModelParams(L=L, U=U))
    for n_up in range(L + 1):
        for n_down in range(L + 1):
            sector = Sector(n_up, n_down)
            words = fock._basis_words(L, sector)
            yield sector, fock._mirror_rows(L, sector), full[words][:, words]


def _mirror_basis(mirror):
    """The unitary Q column by column: e_a for a mirror-fixed row, and
    (e_a + e_b)/sqrt(2) at column a, i (e_a - e_b)/sqrt(2) at column b for
    each pair a < b."""
    s = np.sqrt(0.5)
    entries = []
    for a, b in enumerate(mirror.tolist()):
        if a == b:
            entries.append((a, a, 1.0))
        elif a < b:
            entries += [(a, a, s), (b, a, s), (a, b, 1j * s), (b, b, -1j * s)]
    rows, cols, vals = zip(*entries)
    return sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)), shape=(len(mirror),) * 2)


#: couplings of the mirror-basis checks: 0.3 and 1.7 are not dyadic, so the
#: canonical blocks' diagonal sums round differently in the mirrored order
MIRROR_U = (0.3, 1.7, 2.0, 4.0)


class TestMirrorBasis:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_mirror_conjugates_the_canonical_block(self, L):
        # P h P = conj(h); the diagonal sums U/4 z z over the sites in the
        # mirrored order, so it is exact at dyadic U and within a few
        # roundings of max|h| otherwise
        for U in MIRROR_U:
            for sector, mirror, h in _canonical_blocks(L, U):
                r = np.arange(len(mirror))
                assert np.array_equal(np.sort(mirror), r) and np.array_equal(mirror[mirror], r)
                dev = abs(h[mirror][:, mirror] - h.conj()).max()
                if U in (2.0, 4.0):
                    assert dev == 0.0, (sector, U)
                else:
                    assert dev <= 8 * np.finfo(float).eps * abs(h).max(), (sector, U, dev)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_block_is_the_real_part_in_the_mirror_basis(self, L):
        bases = {}
        for U in MIRROR_U:
            for sector, mirror, h in _canonical_blocks(L, U):
                if sector not in bases:
                    q = bases[sector] = _mirror_basis(mirror)
                    assert abs(q.conj().T @ q - sp.identity(q.shape[0])).max() <= 1e-15
                q = bases[sector]
                block = build_model("charge_pair_transformed", ModelParams(L=L, U=U), sector=sector)
                assert block.format == "csr" and block.dtype == np.float64
                expected = q.conj().T @ (h @ q)
                assert abs(expected.imag).max() <= 1e-12 * abs(h).max()
                assert abs(block - expected.real).max() == 0.0, sector

    @pytest.mark.parametrize("L,U", [(L, U) for L in range(2, 7) for U in MIRROR_U] + [(7, 1.7)])
    def test_real_block_keeps_the_spectrum(self, L, U):
        # the complex eigvalsh of the four 1225-state blocks at L = 7 takes
        # about 4 s a coupling, so L = 7 runs at the non-dyadic U only
        for sector, _, h in _canonical_blocks(L, U):
            block = build_model("charge_pair_transformed", ModelParams(L=L, U=U), sector=sector)
            dev = maxabs(np.linalg.eigvalsh(dense(block)) - np.linalg.eigvalsh(dense(h)))
            assert dev <= 1e-12, (sector, dev)

    def test_block_that_is_not_real_raises(self):
        # a real hop on the bond (1, 2) alone breaks the mirror symmetry
        L, sector = 3, Sector(1, 1)
        terms = models._transformed_terms(ModelParams(L=L, U=1.7))
        hop = [(0.5, [(fock.CREATE, UP, 1), (fock.ANNIHILATE, UP, 2)]),
               (0.5, [(fock.CREATE, UP, 2), (fock.ANNIHILATE, UP, 1)])]
        h = fock.assemble_operator(L, terms + hop, sector=sector)
        with pytest.raises(RuntimeError, match="imaginary part"):
            models._real_block(h, fock._mirror_rows(L, sector))


class TestExtendedModel:
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    @pytest.mark.parametrize("U", [0.3, 1.7, 2.0])
    def test_zero_flux_is_the_pairing_chain(self, L, U):
        # the flux-dressed reference at zero flux and chemical potential is
        # the library's pairing chain, entry for entry
        h0 = flux_charge_pair(L, U, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(dense(h0), dense(build_model("charge_pair", ModelParams(L, U))))

    def test_fluxes_removable(self):
        p0 = ModelParams(L=3, U=2.0)
        dev = maxabs(
            sorted_spectrum("charge_pair", p0)
            - np.sort(np.linalg.eigvalsh(dense(flux_charge_pair(3, 2.0, 0.4, -0.7, 0.0, 0.0))))
        )
        assert dev < 1e-11

    @settings(max_examples=10, deadline=None)
    @given(
        U=st.floats(0.0, 8.0),
        theta_up=st.floats(-np.pi, np.pi),
        theta_down=st.floats(-np.pi, np.pi),
        h1=st.floats(-1.0, 1.0),
        h2=st.floats(-1.0, 1.0),
    )
    def test_hamiltonian_splits_into_charges(self, U, theta_up, theta_down, h1, h2):
        h0 = dense(flux_charge_pair(3, U, theta_up, theta_down, 0.0, 0.0))
        hh = dense(flux_charge_pair(3, U, theta_up, theta_down, h1, h2))
        s, r = extended_charges(3, theta_up, theta_down)
        s, r = dense(s), dense(r)
        assert maxabs(hh - h0 - 2 * h1 * s - 2 * h2 * r) < 1e-13
        assert maxabs(h0 @ s - s @ h0) < 1e-12
        assert maxabs(h0 @ r - r @ h0) < 1e-12
        assert maxabs(s @ r - r @ s) < 1e-13

    def test_zero_flux_charges_reduce_to_generators(self):
        s, r = extended_charges(2)
        assert maxabs(dense(s) - dense(models.symmetry_generator("S_y", 2))) < 1e-14
        assert maxabs(dense(r) - dense(models.symmetry_generator("R_x", 2))) < 1e-14


def test_translation_symmetry():
    for L in (2, 3, 4, 5):
        t = models.translation_operator(L)
        hc = dense(build_model("charge_pair", ModelParams(L=L, U=1.0)))
        assert maxabs(t @ hc - hc @ t) < 1e-13
        assert maxabs(t @ t.conj().T - np.eye(4**L)) < 1e-14


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("spin", [UP, DOWN])
def test_translation_shifts_every_mode(L, spin):
    # T c(j) T^dag = c(j+1) with site L wrapping round to site 1
    t = models.translation_operator(L)
    for j in range(1, L + 1):
        c_here = dense(fock.assemble_operator(L, [(1.0, [(fock.ANNIHILATE, spin, j)])]))
        c_next = dense(
            fock.assemble_operator(L, [(1.0, [(fock.ANNIHILATE, spin, j % L + 1)])])
        )
        assert maxabs(t @ c_here @ t.conj().T - c_next) < 1e-14
