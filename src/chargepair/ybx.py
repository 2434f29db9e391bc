"""Vertex-model integrability engine.

Free-fermion eight-vertex building blocks with one null weight, the coupled
Lax operator, Shastry-form R-matrix, transfer matrices, the quartic spectral
curve, the graded fermionic Lax operator and R-matrix, and the Yang-Baxter
residual checks in spin and grading-insensitive check form.

Local spaces are four dimensional, ordered (empty, up, down, up+down) with
Grassmann parities (0, 1, 1, 0).  A local space is the pair of qubits
(tau, sigma) with the sigma qubit on the low bit, so sigma operators embed
as kron(I2, s) and tau operators as kron(t, I2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import fock, models
from .models import ModelParams

_ID2 = np.eye(2)
_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])
_SM = np.array([[0.0, 1.0], [0.0, 0.0]])

PARITIES = (0, 1, 1, 0)


def _kron(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def coupling_h(lam: float, U: float) -> float:
    """Coupling strength from sinh(2h) = (U/4) sin(2 lam), principal branch."""
    if not math.isfinite(U):
        raise ValueError(f"coupling U must be finite, got U={U}")
    return 0.5 * float(np.arcsinh(0.25 * U * np.sin(2.0 * lam)))


@dataclass(frozen=True)
class CurvePoint:
    """Point (x, y) on the quartic curve (x^2+y^2)^2 - U x y - 1 = 0."""

    x: float
    y: float
    U: float

    @property
    def residual(self) -> float:
        r2 = self.x**2 + self.y**2
        return abs(r2 * r2 - self.U * self.x * self.y - 1.0)

    @property
    def spectral_parameter(self) -> float:
        return float(np.arctan2(self.y, self.x))


def curve_point(lam: float, U: float) -> CurvePoint:
    """Map the spectral parameter onto the curve via x = cos(lam) e^h,
    y = sin(lam) e^h."""
    eh = np.exp(coupling_h(lam, U))
    return CurvePoint(float(np.cos(lam) * eh), float(np.sin(lam) * eh), U)


def _pauli_pair(a: np.ndarray, b: np.ndarray, family: str) -> np.ndarray:
    """Embed one-qubit operators on the (family) qubit of two local spaces."""
    if family == "sigma":
        return _kron(_ID2, a, _ID2, b)
    return _kron(a, _ID2, b, _ID2)


_FAMILIES = ("sigma", "tau")
_DIAG = {f: 0.5 * (np.eye(16) + _pauli_pair(_Z, _Z, f)) for f in _FAMILIES}
_HOP = {f: _pauli_pair(_SP, _SM, f) + _pauli_pair(_SM, _SP, f) for f in _FAMILIES}
_PAIR = {f: _pauli_pair(_SP, _SP, f) + _pauli_pair(_SM, _SM, f) for f in _FAMILIES}


def single_lax(lam: float, family: str) -> np.ndarray:
    """One free-fermion eight-vertex block acting on the family qubits of
    two local spaces (16 x 16)."""
    return _DIAG[family] + np.cos(lam) * _HOP[family] + np.sin(lam) * _PAIR[family]


#: (zz + 1) / 2 on one local space, and the same on the auxiliary space of
#: an (auxiliary, site) pair: the generator of the coupling dressing
_ZZ_HALF = 0.5 * (np.diag(_kron(_Z, _Z)) + 1.0)
_D = np.kron(np.diag(_ZZ_HALF), np.eye(4))
_ZZ_AUX = _kron(_Z, _Z, np.eye(4))


def coupled_lax(lam: float, U: float) -> np.ndarray:
    """Shastry-coupled Lax operator on (auxiliary space, site space)."""
    e16 = np.diag(np.exp(coupling_h(lam, U) * np.diag(_D)))
    return e16 @ (single_lax(lam, "sigma") @ single_lax(lam, "tau")) @ e16


def _lax_derivative(U: float) -> np.ndarray:
    """Exact d/d lam of ``coupled_lax`` at lam = 0, where h' = U/4, the
    dressing is the identity and each block's derivative is its pair term."""
    s_sigma, s_tau = single_lax(0.0, "sigma"), single_lax(0.0, "tau")
    s0 = s_sigma @ s_tau
    return 0.25 * U * (_D @ s0 + s0 @ _D) + _PAIR["sigma"] @ s_tau + s_sigma @ _PAIR["tau"]


def _coupling_dressing(h1: float, h2: float) -> np.ndarray:
    """exp[(h1/2)(zz+1)] on the first space times exp[(h2/2)(zz+1)] on the
    second: the same dressing that wraps the coupled Lax operator."""
    return _kron(np.diag(np.exp(h1 * _ZZ_HALF)), np.diag(np.exp(h2 * _ZZ_HALF)))


def shastry_r(lam1: float, lam2: float, U: float) -> np.ndarray:
    """Intertwiner of two coupled Lax operators (16 x 16).

    The two-term cosh/sinh combination of null-b blocks at the difference
    and sum arguments, wrapped in the coupling dressing of both auxiliary
    spaces; the wrap is what makes the combination satisfy the Yang-Baxter
    equation in this basis (checked against the unique intertwiner
    obtained by a null-space solve).
    """
    h1, h2 = coupling_h(lam1, U), coupling_h(lam2, U)
    dh = h1 - h2
    lm, lp = lam1 - lam2, lam1 + lam2
    first = np.cos(lp) * np.cosh(dh) * (single_lax(lm, "sigma") @ single_lax(lm, "tau"))
    second = (
        np.cos(lm)
        * np.sinh(dh)
        * (single_lax(lp, "sigma") @ single_lax(lp, "tau"))
        @ _ZZ_AUX
    )
    dress = _coupling_dressing(h1, h2)
    undress = _coupling_dressing(-h1, -h2)
    return dress @ (first + second) @ undress


#: swap of two 4-dim spaces, embedded on spaces (1, 2) of a triple product
_SWAP_12 = np.kron(np.eye(4), np.eye(16).reshape(4, 4, 4, 4).transpose(1, 0, 2, 3).reshape(16, 16))


def _embed_pair(a: np.ndarray, spaces: Tuple[int, int]) -> np.ndarray:
    """Embed a two-space operator into the triple product space."""
    eye = np.eye(4)
    if spaces == (0, 1):
        return np.kron(a, eye)
    if spaces == (1, 2):
        return np.kron(eye, a)
    if spaces == (0, 2):
        return _SWAP_12 @ np.kron(a, eye) @ _SWAP_12
    raise ValueError(f"unsupported space pair {spaces}")


def ybe_residual_spin(lam1: float, lam2: float, U: float) -> float:
    """Max-norm residual of R12 L13 L23 = L23 L13 R12 on the 64-dim space."""
    r12 = _embed_pair(shastry_r(lam1, lam2, U), (0, 1))
    l13 = _embed_pair(coupled_lax(lam1, U), (0, 2))
    l23 = _embed_pair(coupled_lax(lam2, U), (1, 2))
    return float(np.max(np.abs(r12 @ l13 @ l23 - l23 @ l13 @ r12)))


# ---------------------------------------------------------------------------
# transfer matrix


def _check_size(L: int, size: int) -> None:
    """The one memory rule of the sweep: at most 4^8 entries, which is one
    vector up to L = 8 or the identity up to L = 4."""
    if L < 2 or size > 4**8:
        raise ValueError(f"transfer sweeps need L >= 2 and at most 4^8 entries (L = {L})")


def _sweep(laxes: Sequence[np.ndarray], v: np.ndarray) -> np.ndarray:
    """tr_aux(L_1 ... L_L) applied to the columns of v on the canonical layout
    of :mod:`models`: in site-major order the auxiliary index opens as a delta
    on its trace partner, passes from the last site to the first by one
    16 x 16 GEMM per site, and closes."""
    L = len(laxes)
    _check_size(L, v.size)
    perm = fock._site_major_permutation(L)
    s = np.multiply.outer(np.eye(4), v[np.argsort(perm)].reshape((4,) * L + (-1,)))
    for k in range(L, 0, -1):
        # s is [b, a0, i_1 .. i_L, columns]; the Lax [a_out, i_out, a_in, i_in] takes (b, i_k)
        s = np.tensordot(laxes[k - 1].reshape(4, 4, 4, 4), s, ([2, 3], [0, k + 1]))
        s = np.moveaxis(s, 1, k + 1)
    return np.trace(s).reshape(v.shape)[perm]


def random_unit_vector(L: int) -> np.ndarray:
    """Seeded Gaussian unit vector on L sites, refused where a sweep would be."""
    _check_size(L, 4**L)
    v = np.random.default_rng(0).standard_normal(4**L)
    return v / np.linalg.norm(v)


def apply_transfer(lam: float, U: float, L: int, v: np.ndarray) -> np.ndarray:
    """T(lam) applied to the columns of v; T(0) is the one-site shift."""
    return _sweep([coupled_lax(lam, U)] * L, v)


def apply_log_derivative(U: float, L: int, v: np.ndarray) -> np.ndarray:
    """d/d lam log T at lam = 0 applied to the columns of v, exactly: T(0)^-1
    is T(0)^(L-1), and T'(0) is the product-rule sum of the sweeps with the
    Lax derivative at one site.  Equals the coupled spin chain plus U L / 4."""
    _check_size(L, v.size)
    l0, dl = coupled_lax(0.0, U), _lax_derivative(U)
    for _ in range(L - 1):
        v = _sweep([l0] * L, v)
    return sum(_sweep([dl if k == j else l0 for k in range(L)], v) for j in range(L))


def spin_chain_constant_fit(U: float, L: int) -> Tuple[float, float]:
    """(2-norm residual, fitted additive constant) of the log-derivative
    against the coupled chain on :func:`random_unit_vector`."""
    v = random_unit_vector(L)
    r = apply_log_derivative(U, L, v) - models.build_model("spin_coupled", ModelParams(L=L, U=U)) @ v
    c = float(np.vdot(v, r).real)
    return float(np.linalg.norm(r - c * v)), c


# ---------------------------------------------------------------------------
# graded objects


def graded_permutation() -> np.ndarray:
    p = np.zeros((16, 16))
    for j in range(4):
        for k in range(4):
            sign = (-1.0) ** (PARITIES[j] * PARITIES[k])
            p[4 * j + k, 4 * k + j] = sign
    return p


_TWIST_M = np.diag(
    [1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
).astype(float)
_TWIST_MBAR = np.diag(
    [1, 1, 1, 1, 1, -1, 1, -1, -1, 1, -1, 1, -1, -1, -1, -1]
).astype(float)

_CURVE_TOL = 1e-9


def _check_on_curve(p: CurvePoint) -> None:
    if p.residual > _CURVE_TOL:
        raise ValueError(f"point ({p.x}, {p.y}) off the curve (residual {p.residual:.3e})")


def graded_lax(p: CurvePoint) -> np.ndarray:
    """Fermionic Lax operator at a curve point, as the explicit 16 x 16
    matrix in the spectral variables."""
    _check_on_curve(p)
    x, y = p.x, p.y
    r2 = x * x + y * y
    w1 = r2
    w2 = x * y / r2
    w3 = -y * y / r2
    w4 = -x * x / r2
    m = np.zeros((16, 16))
    rows = [
        [(0, w1), (5, -y), (10, -y), (15, -y * y)],
        [(4, x), (14, -x * y)],
        [(8, x), (13, x * y)],
        [(12, x * x)],
        [(1, x), (11, w2)],
        [(0, y), (5, -1.0), (10, w3), (15, -y)],
        [(9, w4)],
        [(8, w2), (13, x)],
        [(2, x), (7, -w2)],
        [(6, w4)],
        [(0, y), (5, w3), (10, -1.0), (15, -y)],
        [(4, -w2), (14, x)],
        [(3, x * x)],
        [(2, -x * y), (7, x)],
        [(1, x * y), (11, x)],
        [(0, -y * y), (5, y), (10, y), (15, w1)],
    ]
    for i, entries in enumerate(rows):
        for jcol, val in entries:
            m[i, jcol] = val
    return m


def graded_lax_from_twist(p: CurvePoint) -> np.ndarray:
    """The same operator built by twisting the coupled Lax operator with the
    printed diagonal matrices."""
    _check_on_curve(p)
    lam = p.spectral_parameter
    return _TWIST_M @ coupled_lax(lam, p.U) @ _TWIST_MBAR


def graded_r(p1: CurvePoint, p2: CurvePoint) -> np.ndarray:
    """Graded R-matrix between two points of the same-coupling curve."""
    if p1.U != p2.U:
        raise ValueError("curve points carry different couplings")
    _check_on_curve(p1)
    _check_on_curve(p2)
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    r1 = x1 * x1 + y1 * y1
    r2 = x2 * x2 + y2 * y2
    den = x1 * x1 * x2 * x2 - y1 * y1 * y2 * y2
    if abs(den) < 1e-12 or abs(r1) < 1e-12 or abs(r2) < 1e-12:
        raise ValueError("singular denominator for this pair of points")
    a = y1 * y2 / r1 + x1 * x2 / r2
    b = -x1 * y2 / r1 + y1 * x2 / r2
    bb = y1 * x2 / r1 - x1 * y2 / r2
    d = (x1 * y1 - x2 * y2) / den
    g = -x1 * x2 / r1 - y1 * y2 / r2
    h = (x1 * x2 * r1 - y1 * y2 * r2) / den
    q = (y1 * y2 * r1 - x1 * x2 * r2) / den
    m = np.zeros((16, 16))
    rows = [
        [(0, h), (5, -d), (10, -d), (15, a - h)],
        [(4, 1.0), (14, -b)],
        [(8, 1.0), (13, b)],
        [(12, a)],
        [(1, 1.0), (11, bb)],
        [(0, d), (5, q), (10, q - g), (15, -d)],
        [(9, g)],
        [(8, bb), (13, 1.0)],
        [(2, 1.0), (7, -bb)],
        [(6, g)],
        [(0, d), (5, q - g), (10, q), (15, -d)],
        [(4, -bb), (14, 1.0)],
        [(3, a)],
        [(2, -b), (7, 1.0)],
        [(1, b), (11, 1.0)],
        [(0, a - h), (5, d), (10, d), (15, h)],
    ]
    for i, entries in enumerate(rows):
        for jcol, val in entries:
            m[i, jcol] = val
    return m


def ybe_residual_graded(p1: CurvePoint, p2: CurvePoint) -> float:
    """Max-norm residual of the grading-insensitive check-form relation.

    With RC = P_g R and LC = P_g L the relation reads
    RC_23(p1,p2) LC_12(p1) LC_23(p2) = LC_12(p2) LC_23(p1) RC_12(p1,p2),
    evaluated with plain tensor embeddings.
    """
    pg = graded_permutation()
    rc = pg @ graded_r(p1, p2)
    lc1 = pg @ graded_lax(p1)
    lc2 = pg @ graded_lax(p2)
    lhs = _embed_pair(rc, (1, 2)) @ _embed_pair(lc1, (0, 1)) @ _embed_pair(lc2, (1, 2))
    rhs = _embed_pair(lc2, (0, 1)) @ _embed_pair(lc1, (1, 2)) @ _embed_pair(rc, (0, 1))
    return float(np.max(np.abs(lhs - rhs)))


def random_curve_points(U: float, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [curve_point(lam, U) for lam in rng.uniform(0.0, 2.0 * np.pi, size=count)]


# ---------------------------------------------------------------------------
# density expansion


def regular_point(U: float) -> CurvePoint:
    return CurvePoint(1.0, 0.0, U)


def density_expansion(U: float) -> np.ndarray:
    """Two-body Hamiltonian density: the first-order term of the fermionic
    Lax operator around the regular point in the second spectral variable y.

    The graded Lax operator is the twisted coupled one, its graded-permuted
    form is the identity at the regular point and dy/d lam = 1 there, so the
    term is the twisted exact Lax derivative.
    """
    return graded_permutation() @ _TWIST_M @ _lax_derivative(U) @ _TWIST_MBAR


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
