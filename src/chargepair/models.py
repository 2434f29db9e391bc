"""Hamiltonians and symmetry generators of the pairing chain family.

Every Hamiltonian and generator is assembled by
:func:`chargepair.fock.assemble_operator`; :mod:`chargepair.fock` also owns
the signed site-major map that carries Kronecker products of on-site
factors onto its words.  Spin-chain models
live on the same 2L-bit layout and use its sign-free factor kinds: qubit
``j-1``, the bit of (UP, j), carries the sigma spin of site j and qubit
``L+j-1``, the bit of (DOWN, j), the tau spin, with bit value 1 meaning
spin projection +1/2.  Under the string map

    c_up(j)   = prod_{k<j} sigma^z_k sigma^-_j
    c_down(j) = prod_{k=1..L} sigma^z_k prod_{k<j} tau^z_k tau^-_j

this layout makes spin-chain matrices directly comparable, element by
element, with the fermionic ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from . import fock
from .fock import ANNIHILATE, CREATE, DOWN, LOWER, RAISE, UP, Z, Sector

MODEL_KINDS = (
    "hubbard",
    "charge_pair",
    "charge_pair_transformed",
    "spin_coupled",
    "spin_xx",
    "charge_pair_jw",
)

GENERATOR_KINDS = (
    "S_x",
    "S_y",
    "S_z",
    "R_x",
    "R_y",
    "R_z",
    "S_x_staggered",
    "S_z_staggered",
    "R_y_staggered",
    "R_z_staggered",
)

@dataclass(frozen=True)
class ModelParams:
    """Chain length and on-site coupling of every model of the family."""

    L: int
    U: float


def _site_next(j: int, L: int) -> int:
    return 1 if j == L else j + 1


def _interaction_terms(L: int, U: float) -> List[fock.Term]:
    """U * sum_j (n_up - 1/2)(n_down - 1/2) = U/4 * sum_j z_up z_down: one
    diagonal term per site, shared by the fermion models and the spin chains."""
    return [(U / 4, [(Z, UP, j), (Z, DOWN, j)]) for j in range(1, L + 1)]


def _hopping_terms(L: int, t_up: complex, t_down: complex) -> List[fock.Term]:
    """sum_j t_s c+_{s,j} c_{s,j+1} + h.c. around the ring."""
    terms: List[fock.Term] = []
    for j in range(1, L + 1):
        jn = _site_next(j, L)
        for spin, t in ((UP, t_up), (DOWN, t_down)):
            terms.append((t, [(CREATE, spin, j), (ANNIHILATE, spin, jn)]))
            terms.append((np.conj(t), [(CREATE, spin, jn), (ANNIHILATE, spin, j)]))
    return terms


def _hubbard_terms(params: ModelParams) -> List[fock.Term]:
    return _hopping_terms(params.L, -1.0, -1.0) + _interaction_terms(params.L, params.U)


def _charge_pair_terms(params: ModelParams) -> List[fock.Term]:
    """Pair hopping of both spins around the ring plus the interaction."""
    L = params.L
    terms: List[fock.Term] = []
    for j in range(1, L + 1):
        jn = _site_next(j, L)
        for spin in (UP, DOWN):
            terms.append((1.0, [(ANNIHILATE, spin, j), (ANNIHILATE, spin, jn)]))
            terms.append((1.0, [(CREATE, spin, jn), (CREATE, spin, j)]))
    return terms + _interaction_terms(L, params.U)


def _transformed_terms(params: ModelParams) -> List[fock.Term]:
    """Hopping phases exp(+-i pi/2), opposite for up and down, plus U."""
    return _hopping_terms(params.L, 1j, -1j) + _interaction_terms(params.L, params.U)


def _real_block(h: sp.csr_matrix, mirror: np.ndarray) -> sp.csr_matrix:
    """Re(Q^dag h Q) as float64 CSR for a block with P h P = conj(h), P the
    row permutation ``mirror``.  Q's columns, e_a for a = P a, and
    (e_a + e_b)/sqrt(2) at a and i (e_a - e_b)/sqrt(2) at b for a < b = P a,
    are fixed by P times conjugation, so Q^dag h Q is real; an imaginary part
    above rounding, 1e-12 max|h|, raises ``RuntimeError``, never dropped."""
    r = np.arange(len(mirror))
    # a fixed row gets 1/2 twice, and the constructor sums them
    d = np.select([r < mirror, r > mirror], [np.sqrt(0.5), -1j * np.sqrt(0.5)], 0.5)
    rows, cols = np.concatenate([r, mirror]), np.concatenate([r, r])
    q = sp.csr_matrix((np.concatenate([d, d.conj()]), (rows, cols)), shape=h.shape)
    block = q.conj().T.tocsr() @ (h @ q)
    dev = abs(block.imag).max()
    if dev > 1e-12 * abs(h).max():
        raise RuntimeError(f"mirror-conjugation block keeps an imaginary part {dev:.3e}")
    real = block.real
    real.eliminate_zeros()
    return real


def build_model(
    kind: str, params: ModelParams, sector: Optional[Sector] = None
) -> sp.csr_matrix:
    """Matrix of the requested model on the full chain space, complex CSR.

    ``sector`` restricts to a particle-number block and is supported for the
    transformed model only (the others do not conserve mode numbers); the
    block is float64 CSR in ``_real_block``'s mirror basis, which no gauge
    replaces at odd L (the ring's twist i^L is not real).  A U that is not
    finite raises ``ValueError``.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    L = params.L
    if L < 2:
        raise ValueError("ring models need L >= 2")
    if not math.isfinite(params.U):
        raise ValueError(f"coupling U must be finite, got U={params.U}")
    if sector is not None and kind != "charge_pair_transformed":
        raise ValueError("sector blocks are available for charge_pair_transformed only")

    if kind == "hubbard":
        return fock.assemble_operator(L, _hubbard_terms(params))
    if kind == "charge_pair":
        return fock.assemble_operator(L, _charge_pair_terms(params))
    if kind == "charge_pair_transformed":
        h = fock.assemble_operator(L, _transformed_terms(params), sector=sector)
        return h if sector is None else _real_block(h, fock._mirror_rows(L, sector))
    if kind == "spin_coupled":
        return _spin_chain(L, params.U, _pair_bond, _pair_bond)
    if kind == "spin_xx":
        # hops on the open bonds; odd L closes the ring with a pair bond
        return _spin_chain(L, params.U, _xx_bond, _pair_bond if L % 2 else _xx_bond)
    if kind == "charge_pair_jw":
        return jordan_wigner_image(L, params.U)
    raise AssertionError(kind)


def _generator_site_terms(kind: str, j: int) -> List[fock.Term]:
    cu, au = (CREATE, UP, j), (ANNIHILATE, UP, j)
    cd, ad = (CREATE, DOWN, j), (ANNIHILATE, DOWN, j)
    if kind == "S_x":
        return [(0.5, [cu, ad]), (0.5, [cd, au])]
    if kind == "S_y":
        return [(0.5j, [cd, au]), (-0.5j, [cu, ad])]
    if kind == "S_z":
        return [(0.5, [cu, au]), (-0.5, [cd, ad])]
    if kind == "R_x":
        return [(0.5, [cu, cd]), (0.5, [ad, au])]
    if kind == "R_y":
        return [(0.5j, [ad, au]), (-0.5j, [cu, cd])]
    if kind == "R_z":
        return [(0.5, [cu, au]), (0.5, [cd, ad]), (-0.5, [])]
    raise AssertionError(kind)


def symmetry_generator(kind: str, L: int) -> sp.csr_matrix:
    """Sum over sites of the on-site spin / pseudo-spin generator; staggered
    variants carry a factor (-1)^j."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    base = kind.replace("_staggered", "")
    staggered = kind.endswith("_staggered")
    terms: List[fock.Term] = []
    for j in range(1, L + 1):
        weight = (-1.0) ** j if staggered else 1.0
        for coeff, factors in _generator_site_terms(base, j):
            terms.append((weight * coeff, factors))
    return fock.assemble_operator(L, terms)


# ---------------------------------------------------------------------------
# spin chains: sigma_j is the bit of (UP, j), tau_j the bit of (DOWN, j)


def _pair_bond(spin: str, j: int, k: int, c: float = 1.0) -> List[fock.Term]:
    return [(c, [(LOWER, spin, j), (LOWER, spin, k)]), (c, [(RAISE, spin, j), (RAISE, spin, k)])]


def _xx_bond(spin: str, j: int, k: int) -> List[fock.Term]:
    return [(1.0, [(LOWER, spin, j), (RAISE, spin, k)]), (1.0, [(RAISE, spin, j), (LOWER, spin, k)])]


def _string_bond(spin: str, j: int, k: int) -> List[fock.Term]:
    """Closing pair bond of the string map, j = L to k = 1: the z string over
    the interior sites and the sign (-1)^L."""
    string = [(Z, spin, m) for m in range(k + 1, j)]
    return [((-1.0) ** j, [(kind, spin, k)] + string + [(kind, spin, j)]) for kind in (LOWER, RAISE)]


def _spin_chain(L: int, U: float, bond, closing_bond) -> sp.csr_matrix:
    """``bond`` on the ring bonds (j, j+1) of both spin species, ``closing_bond``
    on (L, 1), plus the on-site coupling U/4 sigma^z tau^z of every model."""
    terms: List[fock.Term] = []
    for j in range(1, L + 1):
        make = bond if j < L else closing_bond
        for spin in (UP, DOWN):
            terms += make(spin, j, _site_next(j, L))
    return fock.assemble_operator(L, terms + _interaction_terms(L, U))


def jordan_wigner_image(L: int, U: float) -> sp.csr_matrix:
    """Spin-chain matrix of the pairing chain: open pair bonds of sign -1,
    on-site zz coupling, and the string-dressed boundary terms.

    The strings count occupied modes, matching the Fock kernel's parity
    bookkeeping, so on this module's qubit layout the result equals the
    fermionic charge-pair matrix element by element.  Strings that count
    empty modes instead differ by a site-parity gauge that flips the bulk
    bond signs.
    """
    if L < 2:
        raise ValueError("needs L >= 2")
    return _spin_chain(L, U, lambda spin, j, k: _pair_bond(spin, j, k, -1.0), _string_bond)


def translation_operator(L: int) -> sp.csr_matrix:
    """One-site shift on the fermionic chain, T c(j) T^dag = c(j+1), with the
    permutation sign of reordering the shifted modes.

    The shift rotates the up bits and the down bits of a word separately.
    Reordering only moves the wrapped mode of each spin block (L -> 1) past
    the other occupied modes of its block, so the sign is
    (-1)^(n(up, L) (N_up - 1) + n(down, L) (N_down - 1)).
    """
    words = fock._basis_words(L)
    mask = (1 << L) - 1
    up, down = words & mask, words >> L

    def rotate(block):
        return ((block << 1) | (block >> (L - 1))) & mask

    def wrap_odd(block):
        return (block >> (L - 1)) & (fock._parity(block) ^ 1)

    sign = (1 - 2 * (wrap_odd(up) ^ wrap_odd(down))).astype(complex)
    return sp.coo_matrix(
        (sign, (rotate(up) | (rotate(down) << L), words)), shape=(len(words),) * 2
    ).tocsr()
