"""Fermionic Fock-space kernel for a chain of spin-1/2 modes.

A chain of L sites carries 2L fermionic modes.  The canonical mode order is
all spin-up modes by ascending site followed by all spin-down modes by
ascending site:

    mode(up, j)   = j - 1          (j = 1..L)
    mode(down, j) = L + j - 1

A basis state is encoded as a single 2L-bit word ``up_bits | down_bits << L``
and the basis is enumerated in increasing word order, so the local ordering
at L = 1 is (empty, up, down, up+down).  On the full space the row of a word
is the word itself; in a particle-number sector it is read from two rank
tables over the 2^L patterns of one spin block (Lin's two-table index).
The many-body state attached to a word is the product of creation operators
applied in ascending mode order to the vacuum; fermionic signs follow from
the parity of the occupied modes below the target mode, read from a 16-bit
parity table.

The same bits also carry the 2L qubits of a spin chain.  The sign-free factor
kinds act on one bit without the parity of the lower modes: ``RAISE`` sets it,
``LOWER`` clears it and ``Z`` is diag(-1, +1) on (clear, set).

The site-major order (site 1 most significant, local index up_bit +
2 down_bit) is the layout of Kronecker products of on-site factors.
``_site_major_permutation`` and ``_site_major_sign`` together map it onto
the canonical words, signs included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

UP = "up"
DOWN = "down"
CREATE = "create"
ANNIHILATE = "annihilate"
RAISE = "raise"
LOWER = "lower"
Z = "z"

MAX_SITES = 12

Factor = Tuple[str, str, int]
Term = Tuple[complex, Sequence[Factor]]


@dataclass(frozen=True)
class Sector:
    """Particle-number block (N_up, N_down) of the chain Hilbert space."""

    n_up: int
    n_down: int

    def validate(self, L: int) -> None:
        if not (0 <= self.n_up <= L and 0 <= self.n_down <= L):
            raise ValueError(f"sector {self} out of range for L={L}")


def mode_index(L: int, spin: str, site: int) -> int:
    """Canonical mode number of (spin, site); sites are 1-based."""
    if not 1 <= site <= L:
        raise ValueError(f"site {site} outside 1..{L}")
    if spin == UP:
        return site - 1
    if spin == DOWN:
        return L + site - 1
    raise ValueError(f"unknown spin {spin!r}")


def _check_L(L: int) -> None:
    if not 1 <= L <= MAX_SITES:
        raise ValueError(f"site count L={L} outside 1..{MAX_SITES}")


def _pattern_ranks(L: int, n: int) -> np.ndarray:
    """rank[p] = position of the L-bit pattern p among the patterns with n
    set bits in increasing order, and -1 for a pattern with another count."""
    patterns = np.arange(1 << L, dtype=np.int64)
    inside = sum((patterns >> b) & 1 for b in range(L)) == n
    rank = np.full(1 << L, -1, dtype=np.int64)
    rank[inside] = np.arange(np.count_nonzero(inside))
    return rank


def _basis_words(L: int, sector: Optional[Sector] = None) -> np.ndarray:
    """Sorted int64 array of the encoded words spanning the basis.

    This is the one definition of the basis order, and ``_basis_rows`` is its
    inverse: both read the same rank tables, and every enumeration, index
    lookup and operator matrix of this module follows them.
    """
    _check_L(L)
    if sector is None:
        return np.arange(4**L, dtype=np.int64)
    sector.validate(L)
    ups = np.flatnonzero(_pattern_ranks(L, sector.n_up) >= 0)
    downs = np.flatnonzero(_pattern_ranks(L, sector.n_down) >= 0)
    # down bits are the high block, so down-major order is increasing order
    return ((downs[:, None] << L) | ups[None, :]).ravel()


def _basis_rows(L: int, sector: Optional[Sector] = None) -> Callable[[np.ndarray], np.ndarray]:
    """The inverse of ``_basis_words``: a map from words to their rows, -1
    for a word outside the sector.

    On the full space the row is the word.  In a sector it is
    ``rank_dn[w >> L] * n_ups + rank_up[w & mask]`` (down-major order).
    """
    if sector is None:
        return lambda w: w
    rank_up = _pattern_ranks(L, sector.n_up)
    rank_dn = _pattern_ranks(L, sector.n_down)
    n_ups, mask = np.count_nonzero(rank_up >= 0), (1 << L) - 1

    def rows(w: np.ndarray) -> np.ndarray:
        up, dn = rank_up[w & mask], rank_dn[w >> L]
        return np.where((up < 0) | (dn < 0), -1, dn * n_ups + up)

    return rows


def _mirror_rows(L: int, sector: Sector) -> np.ndarray:
    """mirror[r] = row of the mirror image j -> L + 1 - j of row r's word, by
    a 2^L table that reverses the L bits of each spin block.  Its reordering
    sign, (-1)^(n_up (n_up - 1) / 2 + n_down (n_down - 1) / 2), is constant
    on a sector, so on a block the mirror is this plain row permutation."""
    patterns = np.arange(1 << L, dtype=np.int64)
    rev = sum(((patterns >> b) & 1) << (L - 1 - b) for b in range(L))
    words = _basis_words(L, sector)
    return _basis_rows(L, sector)(rev[words & ((1 << L) - 1)] | (rev[words >> L] << L))


def _parity_table() -> np.ndarray:
    """uint8 parity of every 16-bit word, from the parities of the bytes."""
    byte = np.zeros(256, dtype=np.uint8)
    for b in range(8):
        byte ^= (np.arange(256, dtype=np.uint8) >> b) & 1
    return (byte[:, None] ^ byte[None, :]).ravel()


_PARITY16 = _parity_table()
_PARITY16.setflags(write=False)


def _parity(words: np.ndarray) -> np.ndarray:
    """uint8 parity of the set bits of each word (table lookup; words below
    2**24, which every 2L-bit word with L <= MAX_SITES is)."""
    return _PARITY16[(words >> 16) ^ (words & 0xFFFF)]


def _site_major_permutation(L: int) -> np.ndarray:
    """perm[f] = site-major index of canonical (bit-layout) index f: the
    local index up_bit + 2 down_bit of each site, site 1 most significant."""
    f = np.arange(4**L, dtype=np.int64)
    perm = np.zeros_like(f)
    for j in range(1, L + 1):
        perm = 4 * perm + ((f >> (j - 1)) & 1) + 2 * ((f >> (L + j - 1)) & 1)
    return perm


def _site_major_sign(L: int) -> np.ndarray:
    """sign[f] = +-1 with state(f) = sign[f] * (its site-major product state):
    the fermion sign of reordering the occupied modes of canonical word f
    into the order (up, 1), (down, 1), (up, 2), (down, 2), ...  Each occupied
    (down, i) passes every occupied (up, k) with i < k."""
    f = np.arange(4**L, dtype=np.int64)
    up = f & ((1 << L) - 1)
    odd = np.zeros_like(f)
    for i in range(1, L + 1):
        odd ^= (f >> (L + i - 1)) & _parity(up >> i)
    return 1 - 2 * odd


def assemble_operator(
    L: int,
    terms: Iterable[Term],
    sector: Optional[Sector] = None,
) -> sp.csr_matrix:
    """Assemble sum(coeff * product of mode operators) as a complex CSR matrix.

    Each term is ``(coefficient, factors)`` with factors listed left to right
    as written in the operator product; an empty factor list contributes
    ``coefficient * identity``.  Factor kinds are the fermionic ``CREATE`` /
    ``ANNIHILATE`` and the sign-free ``RAISE`` / ``LOWER`` / ``Z``.  With a
    sector, any term mapping a sector state outside the block raises.

    Each term acts on every basis word at once; the row of each output word
    comes from ``_basis_rows`` (the word itself on the full space, two rank
    tables in a sector) and the fermion signs from the ``_parity`` table.
    Terms are added in the order given, and ``tocsr`` sums duplicates in
    that order.
    """
    words, rows_of = _basis_words(L, sector), _basis_rows(L, sector)
    dim = len(words)

    all_cols = np.arange(dim, dtype=np.int64)
    no_index = np.empty(0, dtype=np.int64)
    rows, cols, vals = [no_index], [no_index], [np.empty(0, dtype=complex)]
    for coeff, factors in terms:
        if coeff == 0:
            continue
        factors = list(factors)
        # act right to left on every basis word at once; each factor keeps
        # the unblocked words, adds the parity of the modes below it (the
        # fermionic kinds only), and flips its own bit; Z only adds a sign
        w, col, odd = words, all_cols, np.zeros(dim, dtype=np.int64)
        for kind, spin, site in reversed(factors):
            m = mode_index(L, spin, site)
            bit = (w >> m) & 1
            if kind == Z:
                odd = odd ^ bit ^ 1
                continue
            if kind in (CREATE, RAISE):
                keep = bit == 0
            elif kind in (ANNIHILATE, LOWER):
                keep = bit == 1
            else:
                raise ValueError(f"unknown operator kind {kind!r}")
            w, col, odd = w[keep], col[keep], odd[keep]
            if kind in (CREATE, ANNIHILATE):
                odd = odd ^ _parity(w & ((1 << m) - 1))
            w = w ^ (1 << m)
        row = rows_of(w)
        outside = row < 0
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"operator term {factors} leaves sector {sector}: "
                f"maps word {int(words[col[i]]):#x} to {int(w[i]):#x}"
            )
        c = complex(coeff)
        rows.append(row)
        cols.append(col)
        vals.append(np.where(odd == 1, -c, c))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    # tocsr sums duplicates; drop the ones that cancelled, so that the stored
    # pattern is the nonzero pattern (spectra splits blocks along it)
    mat.eliminate_zeros()
    return mat
