"""Reference views and diagnostics that only the tests use.

Most are thin wrappers over the library: dense views of the transfer matrix
sweep on identity columns, the distance of an extrapolated dimension series
from its conformal target, and the momentum phase of an eigenvector.  The
rest are plain forms of the exact-diagonalization kernel that the library
replaced by faster ones with the same output: the binary-search row lookup,
the XOR-fold parity and the per-block gather.
"""

from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from chargepair import fss, models, spectra, ybx

#: conformal targets of the two odd-L dimension series: 1/8 (j=0), 5/8 (j=1)
LEADING_TARGET = {0: 0.125, 1: 0.625}


def transfer_matrix(lam: float, U: float, L: int) -> np.ndarray:
    """Dense view of :func:`ybx.apply_transfer`, for L <= 4."""
    ybx._check_size(L, 16**L)  # before the identity is allocated
    return ybx.apply_transfer(lam, U, L, np.eye(4**L))


def log_derivative_hamiltonian(U: float, L: int) -> np.ndarray:
    """Dense view of :func:`ybx.apply_log_derivative`, for L <= 4."""
    ybx._check_size(L, 16**L)  # before the identity is allocated
    return ybx.apply_log_derivative(U, L, np.eye(4**L))


def leading_fss_check(j: int, sizes: Sequence[int], U: float) -> float:
    """Deviation of the extrapolated dimension series from 1/8 (j=0) or
    5/8 (j=1)."""
    series = fss.scaling_dimension_series(j, sizes, U)
    result = fss.dimension_series_limit(series, U)
    return float(abs(result.limit - LEADING_TARGET[j]))


def translation_expectation(v: np.ndarray, L: int) -> complex:
    """Expectation of the one-site shift on an eigenvector; its phase exposes
    the lattice momentum."""
    t = models.translation_operator(L)
    return complex(np.vdot(v, t @ v) / np.vdot(v, v))


def searchsorted_rows(words: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row of each word of ``w`` in the sorted basis ``words`` by binary
    search, -1 where it is absent: the reference for ``fock._basis_rows``."""
    row = np.minimum(np.searchsorted(words, w), len(words) - 1)
    return np.where(words[row] == w, row, -1)


def xor_fold_parity(words: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each word by an XOR fold (words below
    2**32): the reference for ``fock._parity``."""
    for shift in (16, 8, 4, 2, 1):
        words = words ^ (words >> shift)
    return words & 1


def gathered_blockwise_eigvalsh(h: sp.csr_matrix) -> np.ndarray:
    """``spectra._blockwise_eigvalsh`` with each block gathered from ``h`` by
    two fancy-index calls, ``h[b][:, b]``."""
    pattern = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    pieces = [np.linalg.eigvalsh(spectra._as_dense(h[b][:, b])) for b in blocks]
    return np.sort(np.concatenate(pieces))
