"""Exact diagonalization, spectrum comparison and reference-state checks."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import fock, models
from .fock import Sector
from .models import ModelParams

#: full diagonalization up to this dimension, iterative lowest-k above
FULL_DIAG_LIMIT = 4096

#: eigenvalues within this relative distance are grouped as degenerate
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    degeneracies: np.ndarray
    sector: Optional[Sector] = None


def _as_dense(h: sp.csr_matrix) -> np.ndarray:
    return h.toarray()


def _check_hermitian(h: sp.csr_matrix) -> None:
    dev = abs(h - h.conj().T).max()
    if dev > 1e-10:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")


def _blockwise_eigvalsh(h: sp.csr_matrix) -> np.ndarray:
    """Sorted eigenvalues, one dense ``eigvalsh`` per connected component of the
    nonzero pattern.  The graph is built from the pattern, not the values: a
    purely imaginary coupling cast to float would read as zero and cut a
    block apart.  ``h`` is permuted once into block order, and each block is
    a contiguous diagonal slice of the result.  A stable sort keeps each
    block's rows in their original order, so ``eigvalsh`` reads the same
    lower-triangle entries as in ``h``."""
    pattern = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels)).tolist()
    hp = h[order][:, order]
    pieces = [np.linalg.eigvalsh(_as_dense(hp[a:b, a:b])) for a, b in zip([0] + ends, ends)]
    return np.sort(np.concatenate(pieces))


def _group_degeneracies(ev: np.ndarray) -> np.ndarray:
    groups = []
    i = 0
    while i < len(ev):
        j = i + 1
        while j < len(ev) and abs(ev[j] - ev[i]) <= DEGENERACY_RTOL * max(1.0, abs(ev[i])):
            j += 1
        groups.append(j - i)
        i = j
    return np.asarray(groups, dtype=int)


def spectrum(
    h: sp.spmatrix | np.ndarray,
    k: Optional[int] = None,
    sector: Optional[Sector] = None,
) -> SpectrumReport:
    """Sorted eigenvalues with degeneracy counts.

    Full diagonalization up to dimension ``FULL_DIAG_LIMIT``: one dense
    ``eigvalsh`` per connected block of the nonzero pattern, in real
    arithmetic when every entry is real.  Above that, or when ``k`` is given
    for a large matrix, a Lanczos solve of the lowest k eigenvalues with an
    explicit residual check against ghosts, started from a seeded vector so
    that repeated calls agree bit for bit.
    """
    if k is not None and k < 1:
        raise ValueError(f"eigenvalue count k must be at least 1, got {k}")
    hs = sp.csr_matrix(h)
    if np.iscomplexobj(hs.data) and not np.any(hs.data.imag):
        hs = hs.real
    _check_hermitian(hs)
    dim = hs.shape[0]
    if k is None and dim > FULL_DIAG_LIMIT:
        raise ValueError(
            f"dimension {dim} needs an explicit eigenvalue count k for the iterative solver"
        )
    if dim <= FULL_DIAG_LIMIT and (k is None or k >= dim - 1):
        ev = _blockwise_eigvalsh(hs)
        if k is not None:
            ev = ev[:k]
    else:
        # drawn like ARPACK's own random start, but seeded
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        vals, vecs = spla.eigsh(hs, k=k, which="SA", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        for i, lam in enumerate(vals):
            r = np.linalg.norm(hs @ vecs[:, i] - lam * vecs[:, i])
            if r > 1e-8:
                raise RuntimeError(f"iterative eigenvalue {lam} has residual {r:.3e}")
        ev = vals
    ev = np.sort(np.real(ev))
    return SpectrumReport(ev, _group_degeneracies(ev), sector)


@dataclass(frozen=True)
class MatchReport:
    match: bool
    deviation: float
    tol: float


def check_tolerance(tol: float) -> None:
    """Raise ``ValueError`` unless tol is finite and non-negative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got tol={tol}")


def compare_spectra(a: SpectrumReport, b: SpectrumReport, tol: float) -> MatchReport:
    """Multiset comparison of two sorted spectra; a tol that is not finite
    and non-negative raises ``ValueError``."""
    check_tolerance(tol)
    if len(a.eigenvalues) != len(b.eigenvalues):
        raise ValueError("spectra have different dimensions")
    dev = float(np.max(np.abs(a.eigenvalues - b.eigenvalues)))
    return MatchReport(dev <= tol, dev, tol)


def commutator_norm(a: sp.spmatrix | np.ndarray, b: sp.spmatrix | np.ndarray) -> float:
    """Max-norm of the commutator AB - BA, from sparse products."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    return float(abs(a @ b - b @ a).max())


REFERENCE_STATES = (
    "table1_plus",
    "table1_minus",
    "table1_ferro",
    "table10_plus",
    "table10_minus",
)


def _table1_state(which: str, L: int) -> np.ndarray:
    """Product states of the pairing chain with energy +-LU/4: 1 +- c+_up c+_down
    or the ferromagnet-like c+_up + i c+_down on every site.  The site-major
    Kronecker product carries the fermion sign of its mode order."""
    # local slots: empty, up, down, doubly occupied (as in _table10_state)
    if which == "table1_ferro":
        local = np.array([0.0, 1.0, 1j, 0.0])
    else:
        local = np.array([1.0, 0.0, 0.0, 1.0 if which == "table1_plus" else -1.0], dtype=complex)
    v = functools.reduce(np.kron, [local] * L)
    return fock._site_major_sign(L) * v[fock._site_major_permutation(L)]


def _table10_state(which: str, L: int) -> np.ndarray:
    """Factorized eigenvectors of the odd-L transformed coupled chain, with
    the alternating phases exp(i pi (2j - 1) / 2) on the second component."""
    if which == "table10_plus":
        base, partner = 0, 3    # local empty and doubly occupied slots
    else:
        base, partner = 1, 2    # local up and down slots
    local = []
    for j in range(1, L + 1):
        a = np.zeros(4, dtype=complex)
        a[base] = 1.0
        a[partner] = np.exp(1j * np.pi * (2 * j - 1) / 2)
        local.append(a)
    return functools.reduce(np.kron, local)[fock._site_major_permutation(L)]


def reference_state_residual(which: str, L: int, U: float) -> float:
    """Eigen-residual ||H v - E v|| / ||v|| of a printed product state.

    table1 variants test the pairing chain at E = +-LU/4; table10 variants
    test the transformed coupled spin chain (odd L only).
    """
    if which not in REFERENCE_STATES:
        raise ValueError(f"unknown reference state {which!r}")
    if which.startswith("table10"):
        if L % 2 == 0:
            raise ValueError("table10 states exist for odd L only")
        h = models.build_model("spin_xx", ModelParams(L=L, U=U))
        v = _table10_state(which, L)
        e = L * U / 4.0 if which == "table10_plus" else -L * U / 4.0
    else:
        h = models.build_model("charge_pair", ModelParams(L=L, U=U))
        v = _table1_state(which, L)
        e = -L * U / 4.0 if which == "table1_ferro" else L * U / 4.0
    return float(np.linalg.norm(h @ v - e * v) / np.linalg.norm(v))
