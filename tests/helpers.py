"""Reference views and diagnostics that only the tests use.

Some are thin wrappers over the library: dense views of the transfer matrix
sweep on identity columns, the distance of an extrapolated dimension series
from its conformal target, and the momentum phase of an eigenvector.  Some
are plain forms of the exact-diagonalization kernel that the library
replaced by faster ones with the same output: the scalar mode operator, the
binary-search row lookup, the XOR-fold parity, the per-block gather and the
dense Bethe Jacobian.  The rest state claims of the paper that no command
computes: the on-site rotation onto the imaginary-hopping chain and its
rotated fermions, the even-site spin flip onto the XX chain, the
flux-dressed pairing chain and its charges, the twisted form of the graded
Lax operator and its two-body density, and the twisted isotropic chain that
the spin rapidities approach at strong coupling.
"""

import functools
from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from chargepair import bethe, fock, fss, models, spectra, ybx
from chargepair.bethe import BetheConfig
from chargepair.fock import ANNIHILATE, CREATE, DOWN, UP
from chargepair.models import ModelParams, build_model
from chargepair.ybx import CurvePoint

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


def apply_mode(
    L: int, word: int, kind: str, spin: str, site: int
) -> Optional[Tuple[int, int]]:
    """Apply one creation/annihilation operator to the basis word of an
    L-site chain.

    Returns ``None`` when Pauli-blocked, else ``(sign, new_word)`` where the
    sign is the parity of the occupied modes preceding the target in
    canonical order.
    """
    m = fock.mode_index(L, spin, site)
    occupied = (word >> m) & 1
    if kind == CREATE:
        if occupied:
            return None
    elif kind == ANNIHILATE:
        if not occupied:
            return None
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    sign = -1 if (word & ((1 << m) - 1)).bit_count() & 1 else 1
    return sign, word ^ (1 << m)


# ---------------------------------------------------------------------------
# on-site basis rotation


#: the on-site 4x4 rotation matrix as printed (one site factor)
V_LOCAL = np.array(
    [
        [1, 0, 0, 1],
        [0, -1j, 1, 0],
        [0, -1, 1j, 0],
        [-1, 0, 0, 1],
    ],
    dtype=complex,
) / np.sqrt(2)


def basis_rotation(L: int) -> sp.csr_matrix:
    """Product over sites of the on-site unitary that trades the pairing form
    for the imaginary-hopping form.

    The printed factor conserves the local parity, so in the site-major
    layout the product is the Kronecker product of L factors; the signed
    site-major map of :mod:`chargepair.fock` carries it onto the canonical
    words.  The returned W satisfies W W^dag = 1 and realizes
    ``W @ H_charge_pair @ W^dag == H_transformed`` element by element.
    """
    fock._check_L(L)
    f = np.arange(4**L)
    s = sp.csr_matrix(
        (fock._site_major_sign(L).astype(complex), (f, fock._site_major_permutation(L))),
        shape=(4**L, 4**L),
    )
    k = functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), [sp.csr_matrix(V_LOCAL)] * L)
    return (s @ k @ s.T).tocsr()


def transformed_fermion_matrix(L: int, spin: str, site: int) -> sp.csr_matrix:
    """Matrix of the rotated annihilation operator d(site) in the original
    basis, built from its linear combination of c and c^dag."""
    cu, au = (CREATE, UP, site), (ANNIHILATE, UP, site)
    cd, ad = (CREATE, DOWN, site), (ANNIHILATE, DOWN, site)
    if spin == UP:
        terms = [(0.5, [au]), (0.5j, [cu]), (-0.5j, [ad]), (0.5, [cd])]
    elif spin == DOWN:
        terms = [(0.5j, [au]), (0.5, [cu]), (-0.5, [ad]), (0.5j, [cd])]
    else:
        raise ValueError(f"unknown spin {spin!r}")
    return fock.assemble_operator(L, terms)


def sublattice_rotation_check(L: int, U: float) -> float:
    """Residual of conjugating the coupled chain by the even-site spin flips
    against the XX chain, whose closing bond follows from the parity of L."""
    params = ModelParams(L=L, U=U)
    hs, target = build_model("spin_coupled", params), build_model("spin_xx", params)
    w = _even_site_flip(L)
    return float(abs(w @ hs @ w.T - target).max())


def _even_site_flip(L: int) -> sp.csr_matrix:
    """Product of sigma^x tau^x over even sites (spin flip on those sites)."""
    mask = 0
    for j in range(2, L + 1, 2):
        mask |= (1 << fock.mode_index(L, UP, j)) | (1 << fock.mode_index(L, DOWN, j))
    words = fock._basis_words(L)
    return sp.csr_matrix((np.ones(len(words)), (words ^ mask, words)), shape=(len(words),) * 2)


# ---------------------------------------------------------------------------
# the flux-dressed pairing chain


def _charge_terms(L: int, theta_up: float, theta_down: float, s: float, r: float) -> list:
    """s S + r R for the flux-dressed charges S, R of the pairing chain,
    site by site (a zero weight drops its terms in the kernel)."""
    half_diff = (theta_up - theta_down) / 2
    half_sum = (theta_up + theta_down) / 2
    terms = []
    for j in range(1, L + 1):
        terms.append((s * 0.5j * np.exp(1j * half_diff), [(CREATE, DOWN, j), (ANNIHILATE, UP, j)]))
        terms.append((s * -0.5j * np.exp(-1j * half_diff), [(CREATE, UP, j), (ANNIHILATE, DOWN, j)]))
        terms.append((r * 0.5 * np.exp(-1j * half_sum), [(CREATE, UP, j), (CREATE, DOWN, j)]))
        terms.append((r * 0.5 * np.exp(1j * half_sum), [(ANNIHILATE, DOWN, j), (ANNIHILATE, UP, j)]))
    return terms


def flux_charge_pair(
    L: int, U: float, theta_up: float, theta_down: float, h1: float, h2: float
) -> sp.csr_matrix:
    """Flux-dressed pair hopping plus interaction plus 2 h1 S + 2 h2 R; at
    zero flux and zero h1, h2 this is ``build_model("charge_pair")``."""
    terms = []
    for j in range(1, L + 1):
        jn = models._site_next(j, L)
        for spin, th in ((UP, theta_up), (DOWN, theta_down)):
            terms.append((np.exp(1j * th), [(ANNIHILATE, spin, j), (ANNIHILATE, spin, jn)]))
            terms.append((np.exp(-1j * th), [(CREATE, spin, jn), (CREATE, spin, j)]))
    terms += models._interaction_terms(L, U)
    return fock.assemble_operator(L, terms + _charge_terms(L, theta_up, theta_down, 2 * h1, 2 * h2))


def extended_charges(
    L: int, theta_up: float = 0.0, theta_down: float = 0.0
) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """Flux-dressed conserved charges of the pairing chain.

    Returns (S, R) with the flux-dressed chain satisfying
    H(theta, h1, h2) = H(theta, 0, 0) + 2 h1 S + 2 h2 R; at zero flux S and R
    reduce to the y spin rotation and x pseudo-spin rotation generators.
    """
    return (fock.assemble_operator(L, _charge_terms(L, theta_up, theta_down, 1.0, 0.0)),
            fock.assemble_operator(L, _charge_terms(L, theta_up, theta_down, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# the graded Lax operator as a twist, and its two-body density


_TWIST_M = np.diag(
    [1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
).astype(float)
_TWIST_MBAR = np.diag(
    [1, 1, 1, 1, 1, -1, 1, -1, -1, 1, -1, 1, -1, -1, -1, -1]
).astype(float)


def graded_lax_from_twist(p: CurvePoint) -> np.ndarray:
    """The graded Lax operator built by twisting the coupled Lax operator
    with the printed diagonal matrices."""
    ybx._check_on_curve(p)
    lam = p.spectral_parameter
    return _TWIST_M @ ybx.coupled_lax(lam, p.U) @ _TWIST_MBAR


def density_expansion(U: float) -> np.ndarray:
    """Two-body Hamiltonian density: the first-order term of the fermionic
    Lax operator around the regular point in the second spectral variable y.

    The graded Lax operator is the twisted coupled one, its graded-permuted
    form is the identity at the regular point and dy/d lam = 1 there, so the
    term is the twisted exact Lax derivative.
    """
    return ybx.graded_permutation() @ _TWIST_M @ ybx._lax_derivative(U) @ _TWIST_MBAR


def two_site_density_reference(U: float) -> np.ndarray:
    """The printed two-body density as a fermionic 16 x 16 matrix: pairing
    terms for both spins plus half the on-site interaction of each end plus
    U/4 times the identity, in the local-state basis 4 i1 + i2 with
    i = n_up + 2 n_down."""
    terms = models._interaction_terms(2, U / 2) + [(U / 4, [])]
    for spin in (fock.UP, fock.DOWN):
        terms.append((1.0, [(fock.ANNIHILATE, spin, 1), (fock.ANNIHILATE, spin, 2)]))
        terms.append((1.0, [(fock.CREATE, spin, 2), (fock.CREATE, spin, 1)]))
    mat = fock.assemble_operator(2, terms).toarray()
    sign = fock._site_major_sign(2)
    order = np.argsort(fock._site_major_permutation(2))
    return (sign[:, None] * mat * sign)[np.ix_(order, order)]


# ---------------------------------------------------------------------------
# Bethe equations: the dense Jacobian and the strong-coupling limit


def dense_jacobian(k: np.ndarray, mu: np.ndarray, config: BetheConfig) -> np.ndarray:
    """Dense Jacobian of the residual: the reference the Schur step is tested against."""
    dk, ck, d1, e = bethe._jacobian_blocks(k, mu, config)
    return np.block([[np.diag(dk), -d1], [-d1.T * ck, e]])


def twisted_heisenberg_solve(config: BetheConfig) -> np.ndarray:
    """Real roots lam of the twisted isotropic chain
    n 2 atan(2 lam_m) = 2 pi (q2_m + shift2) + sum_l 2 atan(lam_m - lam_l), for
    n = |q1|: the rapidity rows of the Bethe equations at U = 2 with every
    sin k at zero, started from the tangent roots of n 2 atan(2 lam) =
    2 pi (q2 + shift2) with their mutual scattering dropped, the argument
    clipped short of its poles.  The reference of ``strong_coupling_check``."""
    chain = replace(config, U=2.0)
    n = len(config.q1)
    k = np.zeros(n)
    start = 0.5 * np.tan(np.clip(chain.targets[1] / (2.0 * n), -0.47 * np.pi, 0.47 * np.pi))
    lam, _, _ = bethe._damped_newton(
        start,
        lambda lam: bethe._residual(k, lam, chain)[n:],
        lambda lam, f: np.linalg.solve(bethe._jacobian_blocks(k, lam, chain)[3], f),
    )
    return lam


def strong_coupling_check(L: int, n: float, U: float) -> float:
    """Deviation of the rescaled spin rapidities from the twisted-chain roots.

    Solves the full equations in the half-filled sector with spin imbalance
    2n, rescales mu -> 2 mu / U, and compares against the decoupled two-level
    equation; the deviation decays like 1/U.
    """
    if L % 2 == 0:
        raise ValueError("strong-coupling check is set up for odd L")
    if U < 50:
        raise ValueError("strong-coupling check expects U >= 50")
    if n <= 0 or 2 * n != int(2 * n) or int(2 * n) % 2 == 0:
        raise ValueError("spin imbalance n must be a positive half-odd integer")
    n_down = (L - int(2 * n)) // 2
    if n_down <= 0:
        raise ValueError("sector has no spin rapidities")
    ground = bethe.quantum_numbers("ground", L, U)
    config = replace(ground, q2=ground.q2[:n_down])
    roots = bethe.solve(config)
    lam_full = np.sort(2.0 * roots.mu / U)
    lam_ref = np.sort(twisted_heisenberg_solve(config))
    return float(np.max(np.abs(lam_full - lam_ref)))
