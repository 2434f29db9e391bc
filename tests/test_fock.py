from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chargepair import fock, models
from chargepair.fock import (
    ANNIHILATE,
    CREATE,
    DOWN,
    LOWER,
    RAISE,
    UP,
    Z,
    Sector,
    _basis_words,
    assemble_operator,
)
from chargepair.models import ModelParams
from helpers import (
    apply_mode,
    basis_rotation,
    extended_charges,
    flux_charge_pair,
    searchsorted_rows,
    transformed_fermion_matrix,
    xor_fold_parity,
)


def op(kind, spin, site):
    return (kind, spin, site)


class TestEnumeration:
    def test_single_site_has_four_states(self):
        assert _basis_words(1).tolist() == [0, 1, 2, 3]

    def test_sector_counts(self):
        words = _basis_words(2, Sector(1, 1)).tolist()
        assert len(words) == 4
        assert all((w & 0b11).bit_count() == 1 and (w >> 2).bit_count() == 1 for w in words)

    def test_full_enumeration_is_lexicographic(self):
        assert _basis_words(3).tolist() == list(range(64))

    @pytest.mark.parametrize("L", [0, 13])
    def test_site_count_range(self, L):
        with pytest.raises(ValueError):
            _basis_words(L)

    def test_sector_size_formula(self):
        for n_up in range(5):
            for n_down in range(5):
                words = _basis_words(4, Sector(n_up, n_down))
                assert len(words) == comb(4, n_up) * comb(4, n_down)
        assert len(_basis_words(3)) == 64


class TestBasisRows:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_rows_invert_the_words(self, L):
        every_word = np.arange(4**L, dtype=np.int64)
        for sector in [None] + [Sector(u, d) for u in range(L + 1) for d in range(L + 1)]:
            words = _basis_words(L, sector)
            rows = fock._basis_rows(L, sector)
            assert np.array_equal(rows(words), np.arange(len(words)))
            assert np.array_equal(rows(every_word), searchsorted_rows(words, every_word))


class TestParity:
    def test_every_16_bit_word_matches_the_xor_fold(self):
        words = np.arange(1 << 16, dtype=np.int64)
        parity = fock._parity(words)
        assert parity.dtype == np.uint8
        assert np.array_equal(parity, xor_fold_parity(words))

    def test_random_words_below_the_largest_chain_match_the_xor_fold(self):
        assert 2 * fock.MAX_SITES <= 24
        words = np.random.default_rng(5).integers(0, 1 << 24, size=100_000, dtype=np.int64)
        assert np.array_equal(fock._parity(words), xor_fold_parity(words))


class TestApplyMode:
    def test_create_on_vacuum(self):
        assert apply_mode(2, 0, CREATE, UP, 1) == (1, 0b01)

    def test_pauli_blocking(self):
        assert apply_mode(2, 0b01, CREATE, UP, 1) is None
        assert apply_mode(2, 0, ANNIHILATE, UP, 1) is None

    def test_order_antisymmetry(self):
        s1, a = apply_mode(2, 0, CREATE, UP, 2)
        s2, a = apply_mode(2, a, CREATE, UP, 1)
        t1, b = apply_mode(2, 0, CREATE, UP, 1)
        t2, b = apply_mode(2, b, CREATE, UP, 2)
        assert a == b
        assert s1 * s2 == -t1 * t2

    def test_annihilate_undoes_create(self):
        word = 0b0101 | 0b0011 << 4
        s1, mid = apply_mode(4, word, CREATE, DOWN, 3)
        s2, back = apply_mode(4, mid, ANNIHILATE, DOWN, 3)
        assert back == word
        assert s1 * s2 == 1


class TestAssemble:
    def test_number_operator_single_site(self):
        n_up = assemble_operator(1, [(1.0, [op(CREATE, UP, 1), op(ANNIHILATE, UP, 1)])])
        assert np.allclose(n_up.toarray(), np.diag([0, 1, 0, 1]))

    def test_pair_annihilation_sign(self):
        # c_up(1) c_up(2) sends the doubly up-occupied state to -|vacuum>,
        # by hand: c(2) passes the mode-1 creation operator once
        mat = assemble_operator(
            2, [(1.0, [op(ANNIHILATE, UP, 1), op(ANNIHILATE, UP, 2)])]
        )
        # one entry per spectator down configuration, all with the same sign
        for down_bits in range(4):
            assert mat[down_bits << 2, 0b11 | down_bits << 2] == -1.0
        assert mat.nnz == 4

    def test_hermitian_combination(self):
        mat = assemble_operator(
            2,
            [
                (1.0, [op(ANNIHILATE, UP, 1)]),
                (1.0, [op(CREATE, UP, 1)]),
            ],
        )
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-15

    def test_linearity(self):
        t1 = [(0.7, [op(CREATE, UP, 1), op(ANNIHILATE, UP, 2)])]
        t2 = [(1.3j, [op(CREATE, DOWN, 2), op(ANNIHILATE, DOWN, 1)])]
        combined = assemble_operator(3, t1 + t2)
        assert np.allclose(
            combined.toarray(), (assemble_operator(3, t1) + assemble_operator(3, t2)).toarray()
        )

    def test_sector_violation_detected(self):
        with pytest.raises(ValueError, match="sector"):
            assemble_operator(2, [(1.0, [op(CREATE, UP, 1)])], sector=Sector(1, 0))

    def test_sector_violation_names_the_words(self):
        # c+_up(1) sends the word 0x2 (up electron on site 2) to 0x3
        with pytest.raises(ValueError, match="0x2 to 0x3"):
            assemble_operator(2, [(1.0, [op(CREATE, UP, 1)])], sector=Sector(1, 0))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            assemble_operator(2, [(1.0, [("hop", UP, 1)])])

    def test_zero_coefficient_skipped(self):
        mat = assemble_operator(2, [(0.0, [op(CREATE, UP, 1)])], sector=Sector(1, 0))
        assert mat.shape == (2, 2) and mat.nnz == 0

    def test_cancelled_terms_store_no_entries(self):
        # the stored pattern is the nonzero pattern that spectra splits blocks by
        hop = [op(CREATE, UP, 1), op(ANNIHILATE, UP, 2)]
        assert assemble_operator(2, [(1.0, hop), (-1.0, hop)]).nnz == 0

    def test_sector_preserving_assembly(self):
        hop = assemble_operator(
            2,
            [
                (1.0, [op(CREATE, UP, 1), op(ANNIHILATE, UP, 2)]),
                (1.0, [op(CREATE, UP, 2), op(ANNIHILATE, UP, 1)]),
            ],
            sector=Sector(1, 1),
        )
        assert hop.shape == (4, 4)
        assert np.max(np.abs(hop - hop.conj().T)) < 1e-15


N_UP_1 = [(1.0, [op(CREATE, UP, 1), op(ANNIHILATE, UP, 1)])]

#: every operator builder, at the smallest size it accepts
BUILDERS = {
    "assemble_operator": lambda: assemble_operator(1, N_UP_1),
    "assemble_operator_sector": lambda: assemble_operator(1, N_UP_1, Sector(1, 0)),
    **{
        kind: lambda kind=kind: models.build_model(kind, ModelParams(L=2, U=1.0))
        for kind in models.MODEL_KINDS
        if kind != "spin_xx"
    },
    # spin_xx closes its ring differently at even and odd L
    "spin_xx_even": lambda: models.build_model("spin_xx", ModelParams(L=2, U=1.0)),
    "spin_xx_odd": lambda: models.build_model("spin_xx", ModelParams(L=3, U=1.0)),
    "charge_pair_fluxes": lambda: flux_charge_pair(2, 1.0, 0.3, -0.7, 0.2, -0.4),
    **{
        kind: lambda kind=kind: models.symmetry_generator(kind, 2)
        for kind in models.GENERATOR_KINDS
    },
    "extended_charges_S": lambda: extended_charges(2)[0],
    "extended_charges_R": lambda: extended_charges(2)[1],
    "transformed_fermion_matrix": lambda: transformed_fermion_matrix(2, UP, 1),
    "basis_rotation": lambda: basis_rotation(2),
    "translation_operator": lambda: models.translation_operator(1),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_builder_returns_complex_csr(name):
    mat = BUILDERS[name]()
    assert isinstance(mat, sp.csr_matrix) and mat.dtype == complex


def mode_matrix(L, kind, spin, site):
    return assemble_operator(L, [(1.0, [op(kind, spin, site)])])


@pytest.mark.parametrize("L", [2, 3])
def test_canonical_anticommutation(L):
    modes = [(spin, site) for spin in (UP, DOWN) for site in range(1, L + 1)]
    ann = {m: mode_matrix(L, ANNIHILATE, *m) for m in modes}
    cre = {m: mode_matrix(L, CREATE, *m) for m in modes}
    eye = np.eye(4**L)
    for m1 in modes:
        for m2 in modes:
            anti = ann[m1] @ cre[m2] + cre[m2] @ ann[m1]
            expected = eye if m1 == m2 else 0.0
            assert np.max(np.abs(anti - expected)) < 1e-14
            anti2 = ann[m1] @ ann[m2] + ann[m2] @ ann[m1]
            assert np.max(np.abs(anti2)) < 1e-14


def test_canonical_anticommutation_spot_l4():
    L = 4
    pairs = [((UP, 1), (UP, 4)), ((UP, 2), (DOWN, 2)), ((DOWN, 1), (DOWN, 3))]
    eye = np.eye(4**L)
    for m1, m2 in pairs:
        a = mode_matrix(L, ANNIHILATE, *m1)
        c = mode_matrix(L, CREATE, *m2)
        anti = a @ c + c @ a
        expected = eye if m1 == m2 else 0.0
        assert np.max(np.abs(anti - expected)) < 1e-14


@st.composite
def single_terms(draw):
    """(L, sector or None, coefficient, 1-4 mode operators) with L <= 5."""
    L = draw(st.integers(1, 5))
    sector = draw(st.none() | st.builds(Sector, st.integers(0, L), st.integers(0, L)))
    factor = st.tuples(
        st.sampled_from((CREATE, ANNIHILATE)), st.sampled_from((UP, DOWN)), st.integers(1, L)
    )
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    coeff = draw(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    return L, sector, coeff, factors


def folded_columns(L, sector, coeff, factors):
    """Matrix whose columns fold apply_mode over each basis word, rightmost
    factor first; None when some word is sent outside the sector."""
    words = _basis_words(L, sector).tolist()
    row_of = {w: i for i, w in enumerate(words)}
    mat = np.zeros((len(words), len(words)), dtype=complex)
    for col, word in enumerate(words):
        sign = 1
        for factor in reversed(factors):
            res = apply_mode(L, word, *factor)
            if res is None:
                break
            step, word = res
            sign *= step
        else:
            if word not in row_of:
                return None
            mat[row_of[word], col] = sign * coeff
    return mat


@settings(max_examples=200, deadline=None)
@given(single_terms())
def test_assembly_matches_folded_apply_mode(case):
    L, sector, coeff, factors = case
    expected = folded_columns(L, sector, coeff, factors)
    if coeff == 0:
        expected = np.zeros((len(_basis_words(L, sector)),) * 2)
    if expected is None:
        with pytest.raises(ValueError, match="leaves sector"):
            assemble_operator(L, [(coeff, factors)], sector=sector)
        return
    assert np.array_equal(
        assemble_operator(L, [(coeff, factors)], sector=sector).toarray(), expected
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda L: st.tuples(st.just(L), st.integers(0, 4**L - 1))))
def test_site_major_sign_matches_folded_apply_mode(case):
    # create the occupied modes of the word in site-major order, (up, 1)
    # leftmost, onto the vacuum: the result is sign * (canonical state)
    L, word = case
    state, sign = 0, 1
    for site in range(L, 0, -1):
        for spin in (DOWN, UP):
            if word >> fock.mode_index(L, spin, site) & 1:
                step, state = apply_mode(L, state, CREATE, spin, site)
                sign *= step
    assert state == word
    assert fock._site_major_sign(L)[word] == sign


#: the sign-free kinds as 2x2 matrices on (bit clear, bit set)
QUBIT_OPS = {
    RAISE: np.array([[0, 0], [1, 0]]),
    LOWER: np.array([[0, 1], [0, 0]]),
    Z: np.diag([-1, 1]),
}


@st.composite
def qubit_terms(draw):
    """(L, coefficient, 1-4 sign-free factors) with L <= 3, repeats allowed."""
    L = draw(st.integers(1, 3))
    factor = st.tuples(
        st.sampled_from(sorted(QUBIT_OPS)), st.sampled_from((UP, DOWN)), st.integers(1, L)
    )
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    coeff = draw(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    return L, coeff, factors


def kron_product(L, coeff, factors):
    """coeff times the product of the factors, each a 2x2 matrix embedded by
    np.kron with qubit q acting on bit q (qubit 0 is the rightmost factor)."""
    out = np.eye(4**L)
    for kind, spin, site in factors:
        q = fock.mode_index(L, spin, site)
        out = out @ np.kron(np.kron(np.eye(2 ** (2 * L - 1 - q)), QUBIT_OPS[kind]), np.eye(2**q))
    return coeff * out


@settings(max_examples=200, deadline=None)
@given(qubit_terms())
def test_sign_free_kinds_match_kron_reference(case):
    L, coeff, factors = case
    assert np.array_equal(
        assemble_operator(L, [(coeff, factors)]).toarray(), kron_product(L, coeff, factors)
    )
