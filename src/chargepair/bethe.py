"""Nested Bethe equations of the pairing chain in logarithmic real-root form.

The two-level equations for momenta k_j and spin rapidities mu_l read

    L k_j = 2 pi q1_j - sum_l theta1(sin k_j - mu_l)
    sum_l theta1(mu_m - sin k_l) = 2 pi q2_m + sum_{l != m} theta2(mu_m - mu_l)

with theta1(x) = 2 atan(4x/U), theta2(x) = 2 atan(2x/U).  The ring twist
follows from L: for even L the branch numbers q1, q2 are used as tabulated;
for odd L the ring phases shift them by -1/4 (first level) and +1/2 (second
level).  Branch numbers are floats: each q and q + shift is a multiple of
1/4 far below 2^51, which float64 holds exactly.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# scipy.sparse (through fock) before scipy.special (through liebwu): the
# other order adds about 80 ms to every import of the package
from .fock import Sector
from . import liebwu

EVEN = "even"
ODD = "odd"

STATES_EVEN = ("ground", "charge_excitation", "spin_excitation")
STATES_ODD = ("ground", "first_excitation", "charge_excitation")


class SolverError(RuntimeError):
    """Newton iteration failed; carries the last residual for diagnosis."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last max-residual {residual:.3e})")
        self.residual = residual


#: the largest accepted coupling.  The kernels square differences of roots,
#: which spread like U.  Cold solves of every tabulated state at L = 13-1038
#: ran without an overflow up to U = 4e153; the first overflows came at
#: 6.3e153 (L = 1025-1038), 1e154 (L = 65-386) and 1.6e154 (L = 13-14), the
#: earlier the larger L.  The bound keeps a factor of 6000 below them for the
#: sizes up to ``_MAX_L``.
_MAX_U = 1e150


@dataclass(frozen=True)
class BetheConfig:
    """A root-class target: lattice, coupling and branch numbers.  Neither
    the sector nor the ring twist is an input: N_up + N_down = |q1| and
    N_down = |q2|, and the twist follows from the parity of L."""

    L: int
    U: float
    q1: Tuple[float, ...]
    q2: Tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.U) and self.U > 0):
            raise ValueError(f"coupling U must be finite and positive, got U={self.U}")
        if self.U * self.U < sys.float_info.min:
            # theta' = (2U/c) / (x^2 + (U/c)^2) loses (U/c)^2 as U^2 underflows
            raise ValueError(f"coupling U={self.U} is too small: U^2 underflows, "
                             f"so U must be at least {math.sqrt(sys.float_info.min):.4g}")
        if self.U > _MAX_U:
            raise ValueError(f"coupling U={self.U} is too large: the Bethe kernels overflow, "
                             f"so U must be at most {_MAX_U:.4g}")
        # 2 pi (q + shift) is exact enough to keep the order of q (denominators 1, 2, 4)
        if not all(np.all(d > 0) or np.all(d < 0) for d in map(np.diff, self.targets)):
            raise ValueError("branch numbers must be strictly monotone")
        if len(self.q1) > self.L or self.sector.n_up < self.sector.n_down:
            raise ValueError("sector outside the N_up + N_down <= L, N_up >= N_down wedge")

    @property
    def sector(self) -> Sector:
        return Sector(len(self.q1) - len(self.q2), len(self.q2))

    @property
    def shifts(self) -> Tuple[float, float]:
        return (-0.25, 0.5) if self.L % 2 else (0.0, 0.0)

    @cached_property
    def targets(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only right-hand sides 2 pi (q1 + shift1), 2 pi (q2 + shift2),
        built once per config."""
        a1, a2 = (2.0 * np.pi * (np.array(q, dtype=float) + shift)
                  for q, shift in zip((self.q1, self.q2), self.shifts))
        a1.flags.writeable = a2.flags.writeable = False
        return a1, a2


@dataclass(frozen=True)
class BetheRoots:
    """A solved state: its config and rapidities, ordered to match the
    config's branch numbers."""

    config: BetheConfig
    k: np.ndarray
    mu: np.ndarray
    residual_norm: float
    iterations: int


def _branch_numbers(start: float, step: int, count: int) -> Tuple[float, ...]:
    """start, start + step, ... (count terms), exact for a start on the quarter lattice."""
    return tuple((start + step * np.arange(count)).tolist())


def parity(L: int) -> str:
    """Parity class of the size L: ``ODD`` for odd L, ``EVEN`` for L = 2
    (mod 4).  Multiples of four share the spectrum of the plain hopping
    chain, belong to neither class and raise ``ValueError``; so does L < 1."""
    if L % 4 == 0:
        raise ValueError(f"even sizes need L = 2 (mod 4), got L={L}")
    if L < 1:
        raise ValueError(f"sizes must be at least 1, got L={L}")
    return ODD if L % 2 else EVEN


#: the largest size with branch numbers, so that a huge L is refused before
#: O(L) of them are built.  The float64 residual stops reaching ``_TOL`` well
#: below it: at U = 0.5, 2 and 4 every gap tried at L = 1793-2049 stalled at
#: 1.1-1.4e-12 (L = 1790 converged), and a gap at L = 4094 stalls from both
#: its starts after 16 s.  At L = 4096 the kernel scratch would hold 268 MB:
#: three n x m and two m x m buffers.
_MAX_L = 4096


def quantum_numbers(state: str, L: int, U: float) -> BetheConfig:
    """Branch numbers of the tabulated low-lying states.

    The states on offer follow from ``parity(L)``: ``STATES_EVEN`` at
    L = 2 (mod 4), ``STATES_ODD`` at odd L; any other size raises
    ``ValueError``, and so does a size above ``_MAX_L``, before any branch
    number is built.
    """
    if L > _MAX_L:
        raise ValueError(f"size L={L} is above the largest solved size {_MAX_L}: "
                         "the float64 residual no longer reaches the 1e-12 gate there")
    if parity(L) == EVEN:
        if state == "ground":
            q1 = _branch_numbers(L / 2, -1, L)
            q2 = _branch_numbers(-(L - 2) / 4, 1, L // 2)
        elif state == "charge_excitation":
            q1 = _branch_numbers((L - 1) / 2, -1, L - 1)
            q2 = _branch_numbers(-(L - 2) / 4, 1, L // 2 - 1)
        elif state == "spin_excitation":
            q1 = _branch_numbers((L - 1) / 2, -1, L)
            q2 = _branch_numbers(-(L - 4) / 4, 1, L // 2 - 1)
        else:
            raise ValueError(f"unsupported even-parity state {state!r}")
        return BetheConfig(L, U, q1, q2)

    if state == "ground":
        q1 = _branch_numbers(L / 2, -1, L)
        q2 = _branch_numbers(-(L - 1) / 4, 1, (L - 1) // 2)
    elif state == "first_excitation":
        q1 = _branch_numbers(-L / 2, 1, L)
        q2 = _branch_numbers((L - 1) / 4, -1, (L - 1) // 2)
    elif state == "charge_excitation":
        q1 = _branch_numbers((L - 2) / 2, -1, L - 1)
        q2 = _branch_numbers(-(L - 3) / 4, 1, (L - 1) // 2)
    else:
        raise ValueError(f"unsupported odd-parity state {state!r}")
    return BetheConfig(L, U, q1, q2)


def _theta(x: np.ndarray, c: float, U: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Half the phase, atan(c x / U): theta1 / 2 for c = 4, theta2 / 2 for
    c = 2, written into ``out`` (over x when it is None) and returned.

    Two passes, atan(x / (U/c)): c is a power of two, so U/c is exact and
    x / (U/c) rounds as (c x) / U does.  The factor 2 goes on the row sums,
    where 2 sum(t) is sum(2 t) bit for bit."""
    t = np.divide(x, U / c, out=x if out is None else out)
    return np.arctan(t, out=t)


def _dtheta(x: np.ndarray, c: float, U: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The derivative 2cU / (U^2 + c^2 x^2) of theta, written into ``out`` (a
    new array when it is None) and returned.  Three passes,
    (2U/c) / (x^2 + (U/c)^2): numerator and denominator are the usual ones
    divided by the power of two c^2, so every value keeps its bits wherever
    no pass overflows or underflows."""
    h = U / c
    d = np.multiply(x, x, out=out)
    d += h * h
    return np.divide(2.0 * h, d, out=d)


#: flat float64 buffers of the Newton kernels by name, each allocated on first
#: use and replaced only by a larger one.  Fresh n x m and m x m temporaries
#: (0.3-0.6 MB each at L = 382) are handed back to the OS by glibc's heap
#: trimming after every call and page-faulted in again on the next one.
#: One thread at a time: every solve in a process shares these buffers.
_SCRATCH: dict = {}


def _scratch(name: str, rows: int, cols: int) -> np.ndarray:
    """A C-ordered (rows, cols) view of the scratch buffer ``name``: valid
    until the next kernel call that takes the same buffer."""
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < rows * cols:
        buf = _SCRATCH[name] = np.empty(rows * cols)
    return buf[:rows * cols].reshape(rows, cols)


def bethe_residual(roots: BetheRoots) -> np.ndarray:
    """Stacked left-minus-right sides of the two logarithmic equation sets."""
    return _residual(roots.k, roots.mu, roots.config)


def _differences(k: np.ndarray, mu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sin k - mu (n x m) and mu - mu (m x m), the arguments of every kernel,
    written to the ``_scratch`` buffers "nm_x" and "mm_x"."""
    n, m = len(k), len(mu)
    return (np.subtract.outer(np.sin(k), mu, out=_scratch("nm_x", n, m)),
            np.subtract.outer(mu, mu, out=_scratch("mm_x", m, m)))


def _residual(k: np.ndarray, mu: np.ndarray, config: BetheConfig) -> np.ndarray:
    """Stacked residual of both equation sets, built on one n x m matrix
    t1 = theta1(sin k - mu) / 2 per call: one theta1 evaluation per Newton
    iterate.

    The mu rows need theta1(mu - sin k) = -theta1(sin k - mu), which holds bit
    for bit because numpy's arctan is odd.  They are the negated row
    sums of a C-contiguous copy of t1^T, the same pairwise summation as the
    rows of theta1(mu - sin k), so the sums keep their bits.  ``t1.sum(axis=0)``
    is not used: it adds the rows one after another, and at L ~ 1000 that
    rounding lifts converged residuals of 7-9e-13 over the 1e-12 gate.

    The differences (``_differences``) stay in "nm_x" and "mm_x" for
    ``_newton_step(..., reuse=True)`` at the same (k, mu); t1, its transposed
    copy and theta2 / 2 live in the ``_scratch`` buffers "nm_a", "nm_b" and
    "mm_a"."""
    U = config.U
    a1, a2 = config.targets
    f1 = config.L * k - a1
    if len(mu):
        n, m = len(k), len(mu)
        x1, x2 = _differences(k, mu)
        t1 = _theta(x1, 4.0, U, out=_scratch("nm_a", n, m))
        f1 += 2.0 * t1.sum(axis=1)
        t1_rows = _scratch("nm_b", m, n)
        np.copyto(t1_rows, t1.T)
        f2 = -2.0 * t1_rows.sum(axis=1) - a2
        t2 = _theta(x2, 2.0, U, out=_scratch("mm_a", m, m))
        np.fill_diagonal(t2, 0.0)
        f2 -= 2.0 * t2.sum(axis=1)
        return np.concatenate([f1, f2])
    return f1


def _jacobian_blocks(
    k: np.ndarray, mu: np.ndarray, config: BetheConfig, reuse: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of the Jacobian [[diag(dk), -d1], [-d1^T diag(cos k), e]].

    theta1' is even, so the k-rows and the mu-rows share the n x m matrix d1.
    The differences are built afresh, or with ``reuse`` read from "nm_x" and
    "mm_x" as the last ``_residual`` call left them, which must have been at
    this (k, mu).  d1 and e are views of the ``_scratch`` buffers "nm_b" and
    "mm_a", valid until the next kernel call (``_residual``,
    ``_jacobian_blocks`` or ``_newton_step``) in this thread."""
    U = config.U
    n, m = len(k), len(mu)
    ck = np.cos(k)
    x1, x2 = (_scratch("nm_x", n, m), _scratch("mm_x", m, m)) if reuse else _differences(k, mu)
    d1 = _dtheta(x1, 4.0, U, out=_scratch("nm_b", n, m))
    dk = config.L + ck * d1.sum(axis=1)
    e = _dtheta(x2, 2.0, U, out=_scratch("mm_a", m, m))
    np.fill_diagonal(e, 0.0)
    diag = d1.sum(axis=0) - e.sum(axis=1)
    np.fill_diagonal(e, diag)
    return dk, ck, d1, e


def _jacobian(k: np.ndarray, mu: np.ndarray, config: BetheConfig) -> np.ndarray:
    """Dense Jacobian of the residual: the reference the Schur step is tested against."""
    dk, ck, d1, e = _jacobian_blocks(k, mu, config)
    return np.block([[np.diag(dk), -d1], [-d1.T * ck, e]])


def _newton_step(
    k: np.ndarray, mu: np.ndarray, config: BetheConfig, f: np.ndarray, reuse: bool = False
) -> np.ndarray:
    """Solve J step = f by eliminating the diagonal k-block: an m x m Schur
    system on the rapidities, then back-substitution for the momenta.  With
    ``reuse`` the Jacobian is built on the differences of the last
    ``_residual`` call, which must have been at this (k, mu).

    Dense algebra stays on numpy (solve and @): scipy bundles a second
    OpenBLAS with its own thread pool, and alternating the two libraries in
    this loop makes the pools contend for the cores (measured 2-3x slower).

    w = d1^T diag(ck/dk) is written F-ordered, into the transpose of the
    (n, m) buffer "nm_a", as a fresh ``d1.T * (ck / dk)`` comes out: a
    C-ordered w rounds the GEMM ``w @ d1`` differently.  That product goes
    to "mm_x", whose differences e and d1 no longer need."""
    dk, ck, d1, e = _jacobian_blocks(k, mu, config, reuse)
    if not np.all(np.isfinite(dk) & (dk != 0.0)):
        raise np.linalg.LinAlgError("vanishing k-pivot")
    n, m = d1.shape
    f1, f2 = f[:n], f[n:]
    w = np.multiply(d1.T, ck / dk, out=_scratch("nm_a", n, m).T)
    e -= np.matmul(w, d1, out=_scratch("mm_x", m, m))
    rhs = w @ f1
    rhs += f2
    step_mu = np.linalg.solve(e, rhs)
    step_k = d1 @ step_mu
    step_k += f1
    step_k /= dk
    return np.concatenate([step_k, step_mu])


#: the acceptance gate on the max-norm residual and the iteration cap of every solve
_TOL = 1e-12
_MAX_ITER = 200


def _damped_newton(
    x: np.ndarray,
    residual: Callable[[np.ndarray], np.ndarray],
    newton_step: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, float, int]:
    """Newton iteration on residual(x) = 0 with step halving: a step is taken
    only if it lowers the max-norm residual, and x is accepted once that is at
    most ``_TOL``, within ``_MAX_ITER`` steps.  Returns (x, residual, steps).

    ``newton_step(x, f)`` is only called right after ``f = residual(x)``, with
    no other ``residual`` call between: a step may reuse what the residual
    built at x (``_newton`` does)."""
    f = residual(x)
    best = float(np.max(np.abs(f))) if len(f) else 0.0
    for it in range(_MAX_ITER + 1):
        if best <= _TOL:
            return x, best, it
        if it == _MAX_ITER:
            break
        try:
            step = newton_step(x, f)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Jacobian", residual=best) from exc
        lam = 1.0
        for _ in range(30):
            xn = x - lam * step
            fn = residual(xn)
            norm = float(np.max(np.abs(fn)))
            if norm < best:
                x, f, best = xn, fn, norm
                break
            lam *= 0.5
        else:
            raise SolverError("damped Newton stalled", residual=best)
    raise SolverError(f"no convergence after {_MAX_ITER} iterations", residual=best)


#: the weakest coupling whose counting functions seed a solve: a table's build
#: grows like 1/U (30 ms at U = 0.1), so a weaker U starts from this one's
_SEED_U_FLOOR = 0.1


def _counting_seed(config: BetheConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Start from the infinite chain: each root where the counting function of
    its level (``liebwu.counting_tables`` at U, at least ``_SEED_U_FLOOR``)
    reaches 2 pi (q + shift) / L, by linear interpolation.  A target beyond
    the range of its function, +-pi for z_c and +-pi/2 for z_s, is reflected
    into it: the outermost roots of ``first_excitation`` lie a quarter step
    beyond, and its solved roots just inside."""
    k, z_c, mu, z_s = liebwu.counting_tables(max(config.U, _SEED_U_FLOOR))
    z1, z2 = (np.where(np.abs(z) > edge, np.copysign(2.0 * edge, z) - z, z)
              for z, edge in zip((a / config.L for a in config.targets), (np.pi, np.pi / 2)))
    return np.interp(z1, z_c, k), np.interp(z2, z_s, mu)


def _newton(
    k: np.ndarray, mu: np.ndarray, config: BetheConfig
) -> Tuple[np.ndarray, np.ndarray, float, int]:
    n = len(k)
    x, res, its = _damped_newton(
        np.concatenate([k, mu]),
        lambda x: _residual(x[:n], x[n:], config),
        lambda x, f: _newton_step(x[:n], x[n:], config, f, reuse=True),
    )
    return x[:n], x[n:], res, its


#: strong coupling where the continuation in U starts
_U_START = 20.0


def _start(config: BetheConfig, seed: Optional[BetheRoots] = None) -> Tuple[np.ndarray, np.ndarray]:
    """The start of every Newton run: the counting seed of ``config``.  Given
    a solved ``seed`` at the same U, of any class and size, each root also
    takes the seed's deviation from its own counting seed, interpolated over
    (q + shift)/L and held at its end values beyond the seed's range, and
    then the few outermost roots of each level are relaxed
    (``_relax_edges``).  The deviation is small and smooth, so it is held,
    not extrapolated, beyond the end nodes; its error gathers at the edges
    of the real-root class: without the relaxation the charge
    excitation seeded from the ground at L = 385, U = 4 takes 5 Newton
    iterations instead of 4, and at L = 1025, U = 3 it takes 6 instead of 4."""
    k, mu = _counting_seed(config)
    if seed is None:
        return k, mu
    for root, solved, counted, a, a_seed in zip(
            (k, mu), (seed.k, seed.mu), _counting_seed(seed.config),
            config.targets, seed.config.targets):
        if len(root):
            order = np.argsort(a_seed)
            root += np.interp(a / config.L, a_seed[order] / seed.config.L, (solved - counted)[order])
    return _relax_edges(k, mu, config)


#: roots relaxed at each end of either level of a seeded start, the relaxation
#: sweeps, and the step halvings each relaxed root may take
_EDGE_ROOTS = 3
_EDGE_SWEEPS = 2
_EDGE_HALVINGS = 4


def _relax_edges(
    k: np.ndarray, mu: np.ndarray, config: BetheConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Relax the outermost ``_EDGE_ROOTS`` momenta and rapidities at each end
    of a seed, in place: ``_EDGE_SWEEPS`` sweeps of the momenta, then the
    rapidities, each root against its own equation with every other root
    held.  A sweep costs O(_EDGE_ROOTS (n + m))."""
    U, L = config.U, config.L
    ik, im = (i[(i < _EDGE_ROOTS) | (i >= len(i) - _EDGE_ROOTS)]
              for i in (np.arange(len(k)), np.arange(len(mu))))
    a1, a2 = config.targets[0][ik], config.targets[1][im]
    rows = np.arange(len(im))

    def own_k(kk, slope=False):
        x = np.subtract.outer(np.sin(kk), mu)
        d = L + np.cos(kk) * _dtheta(x, 4.0, U).sum(axis=1) if slope else None
        return L * kk - a1 + 2.0 * _theta(x, 4.0, U).sum(axis=1), d

    def own_mu(mm, slope=False):
        x = np.subtract.outer(mm, np.sin(k))
        y = np.subtract.outer(mm, mu)
        d = None
        if slope:
            e = _dtheta(y, 2.0, U)
            e[rows, im] = 0.0  # a rapidity does not scatter on itself
            d = _dtheta(x, 4.0, U).sum(axis=1) - e.sum(axis=1)
        t2 = _theta(y, 2.0, U)
        t2[rows, im] = 0.0
        return 2.0 * _theta(x, 4.0, U).sum(axis=1) - a2 - 2.0 * t2.sum(axis=1), d

    for _ in range(_EDGE_SWEEPS):
        _relax_level(k, ik, own_k)
        _relax_level(mu, im, own_mu)
    return k, mu


def _relax_level(x: np.ndarray, idx: np.ndarray, own: Callable) -> None:
    """One damped scalar Newton step on each root x[idx], in place.
    ``own(values, slope)`` gives the residuals of the roots x[idx] moved to
    ``values``, each against its own equation, and with ``slope`` their
    derivatives.  A root takes the longest of the steps 1, 1/2, ...
    1/2^_EDGE_HALVINGS that lowers its own residual, and keeps it only if it
    is shorter than the gap to the root's nearest neighbour and the roots
    stay in branch order.  A longer step means the neighbours are off too,
    and the root stays."""
    old = x[idx]
    f, d = own(old, slope=True)
    step = f / d
    new, moved = old.copy(), np.zeros(len(idx), dtype=bool)
    for j in range(_EDGE_HALVINGS + 1):
        trial = old - step / 2**j
        better = ~moved & (np.abs(own(trial)[0]) < np.abs(f))
        new[better], moved = trial[better], moved | better
        if moved.all():
            break
    gaps = np.concatenate(([np.inf], np.abs(x[1:] - x[:-1]), [np.inf]))
    moved &= np.abs(new - old) < np.minimum(gaps[idx], gaps[idx + 1])
    stepped = x.copy()
    stepped[idx] = new
    pairs_in_order = (stepped[1:] - stepped[:-1]) * (x[1:] - x[:-1]) > 0
    in_order = np.concatenate(([True], pairs_in_order, [True]))
    x[idx] = np.where(moved & in_order[idx] & in_order[idx + 1], new, old)


def _starts(config: BetheConfig, seed: Optional[BetheRoots]):
    """The coupling paths of ``solve`` in the order they are tried, each as
    (start, couplings): ``_start(config, seed)`` at the target U, then, below
    ``_U_START``, the continuation in U from ``_start`` at ``_U_START``.  A
    start is only built when its path is reached."""
    yield _start(config, seed), [config.U]
    if config.U < _U_START:
        path = _continuation_path(config.U)
        yield _start(replace(config, U=path[0])), path


def solve(config: BetheConfig, *, seed: Optional[BetheRoots] = None) -> BetheRoots:
    """Solve the logarithmic equations for the configured root class.

    Tries one start at the target U (``_start``): the roots of the infinite
    chain, corrected by the ``seed`` when one is given (a solved state at
    the same U: the same state at another size, or another state at any
    size).  If Newton fails from there and U is below ``_U_START``, a
    continuation in decreasing U from the start at ``_U_START`` follows.
    Every path runs a damped Newton iteration (step halving on residual
    increase) at each coupling on it.  Raises the last path's
    ``SolverError`` when every path fails.
    """
    for (k, mu), path in _starts(config, seed):
        try:
            its_total = 0
            for u in path:
                at_u = config if u == config.U else replace(config, U=u)
                k, mu, res, its = _newton(k, mu, at_u)
                its_total += its
            return _validated_roots(k, mu, config, res, its_total)
        except SolverError as exc:
            error = exc
    raise error


def _validated_roots(
    k: np.ndarray, mu: np.ndarray, config: BetheConfig, res: float, its: int
) -> BetheRoots:
    """Reject root sets that are not strictly monotone in the direction of
    their branch numbers (collapsed or misordered roots)."""
    for arr, q, name in ((k, config.q1, "momenta"), (mu, config.q2, "rapidities")):
        if len(arr) > 1:
            gaps = np.diff(arr) if q[1] > q[0] else -np.diff(arr)
            if np.min(gaps) < 1e-11:
                raise SolverError(
                    f"{name} collapsed or out of branch-number order: "
                    "root class left the real-root branch", residual=res)
    return BetheRoots(config, k, mu, res, its)


def _continuation_path(u_target: float) -> List[float]:
    """Couplings from ``_U_START`` down to the target in steps of 1/1.5."""
    path = []
    u = _U_START
    while u > u_target * 1.0001:
        path.append(u)
        u /= 1.5
    path.append(u_target)
    return path


def energy(roots: BetheRoots) -> float:
    """Eigenenergy of the root set."""
    c = roots.config
    return -2.0 * float(np.sum(np.cos(roots.k))) + (c.U / 2.0) * (c.L / 2.0 - len(c.q1))


#: roots solved by ``state_roots`` by (state, U, L), the oldest dropped first
_ROOTS: Dict[Tuple[str, float, int], BetheRoots] = {}
_STORE_SIZE = 4096
_LOOKUPS = {"hits": 0, "misses": 0}
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: a stored size seeds its state at sizes up to this many times larger.  Table
#: columns step by at most 2.29x (62 -> 142); a 17x seed (62 -> 1038 at
#: U = 0.5) stalled, and its continuation in U failed after 8 s.
_SEED_RATIO = 2.5


def state_roots(state: str, L: int, U: float) -> BetheRoots:
    """Roots of one tabulated state class at (L, U), from the root store.  A
    new (state, U, L) is one ``solve``, stored, from the one start
    (``_start``): the counting seed corrected by the stored ground at (U, L),
    else by the state's largest stored size of L's class at most
    ``_SEED_RATIO`` times below L, else uncorrected.  A bad size or U raises
    ``ValueError`` before any solve, and a failed solve stores nothing."""
    roots = _ROOTS.get((state, U, L))
    if roots is None:
        config = quantum_numbers(state, L, U)
        seed = _ROOTS.get(("ground", U, L)) or max(
            (r for (s, u, size), r in _ROOTS.items() if (s, u) == (state, U)
             and size < L <= size * _SEED_RATIO and size % 2 == L % 2),
            key=lambda r: r.config.L, default=None)
        roots = solve(config, seed=seed)
        if len(_ROOTS) >= _STORE_SIZE:
            del _ROOTS[next(iter(_ROOTS))]
        _ROOTS[state, U, L] = roots
    return roots


def state_energy(state: str, L: int, U: float) -> float:
    """Energy of ``state_roots(state, L, U)``.  ``state_energy.cache_clear()``
    drops the stored roots, and ``cache_info()`` counts the lookups of
    ``state_energy`` as ``lru_cache`` did."""
    _LOOKUPS["hits" if (state, U, L) in _ROOTS else "misses"] += 1
    return energy(state_roots(state, L, U))


state_energy.cache_clear = lambda: _ROOTS.clear() or _LOOKUPS.update(hits=0, misses=0)
state_energy.cache_info = lambda: CacheInfo(**_LOOKUPS, maxsize=_STORE_SIZE, currsize=len(_ROOTS))


def charge_gap(L: int, U: float) -> float:
    """Gap of one charge excitation over the half-filled ground state; the
    formula follows from the parity class of L.

    Even L (L = 2 (mod 4)): E0(L/2, L/2-1) - E0(L/2, L/2).
    Odd L: E0((L-1)/2, (L-1)/2) - E0((L+1)/2, (L-1)/2).

    A multiple of four raises ``ValueError`` before any solve.  Both
    energies come from ``state_energy``, the ground first, so the start of
    the charge excitation is its counting seed corrected by the ground roots
    at L.
    """
    e0 = state_energy("ground", L, U)
    return state_energy("charge_excitation", L, U) - e0


def l2_closed_forms(U: float) -> List[dict]:
    """The five closed-form rows of the two-site chain.

    The (1,1) upper state is reported through the exponentials e^{ik} solving
    z^2 + (U/2) z + 1 = 0; they are complex of unit modulus for U < 4.
    A U that is not finite raises ``ValueError``.
    """
    if not math.isfinite(U):
        raise ValueError(f"coupling U must be finite, got U={U}")
    disc = complex(U * U - 16.0)
    root = np.sqrt(disc)
    z1 = (-U - root) / 4.0
    z2 = (-U + root) / 4.0
    return [
        {"sector": Sector(0, 0), "energy": U / 2.0, "k": [], "mu": [],
         "description": "empty set"},
        {"sector": Sector(1, 0), "energy": 0.0, "k": [np.pi / 2], "mu": [],
         "description": "k1 = +-pi/2"},
        {"sector": Sector(2, 0), "energy": -U / 2.0,
         "k": [np.pi / 2, -np.pi / 2], "mu": [],
         "description": "k1 = pi/2; k2 = -pi/2"},
        {"sector": Sector(1, 1), "energy": U / 2.0, "k": [], "mu": [0.0],
         "exp_ik": [z1, z2],
         "description": "e^{ik} roots of z^2 + (U/2) z + 1 = 0; mu1 = 0"},
        {"sector": Sector(1, 1), "energy": -U / 2.0, "k": [0.0, np.pi],
         "mu": [0.0], "description": "k1 = 0; k2 = pi; mu1 = 0"},
    ]


def _twisted_heisenberg_solve(config: BetheConfig) -> np.ndarray:
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
    lam, _, _ = _damped_newton(
        start,
        lambda lam: _residual(k, lam, chain)[n:],
        lambda lam, f: np.linalg.solve(_jacobian_blocks(k, lam, chain)[3], f),
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
    ground = quantum_numbers("ground", L, U)
    config = replace(ground, q2=ground.q2[:n_down])
    roots = solve(config)
    lam_full = np.sort(2.0 * roots.mu / U)
    lam_ref = np.sort(_twisted_heisenberg_solve(config))
    return float(np.max(np.abs(lam_full - lam_ref)))
