"""Finite-size-scaling estimators and sequence extrapolation.

Central-charge and conformal-dimension estimators combine solved finite-size
energies with the thermodynamic-limit energy density and the spin-sector
sound velocity.  The dimension estimators carry a strong 1/log correction
whose amplitude is eliminated between consecutive sizes (the two-step
scheme).  Sequence limits are taken either by rational extrapolation with a
tunable leading exponent or by a least-squares fit in 1/log(L) plus 1/L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import special

from . import bethe, liebwu


@dataclass(frozen=True)
class FssSeries:
    points: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        sizes = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        small = [L for L in sizes if L < 2]
        if small:
            raise ValueError("sizes must be at least 2, got " + ", ".join(f"L={L}" for L in small))

    @property
    def sizes(self) -> np.ndarray:
        return np.array([p[0] for p in self.points], dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.points], dtype=float)


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    uncertainty: float
    method_params: Dict[str, object]


def central_charge_estimator(L: int, U: float) -> float:
    """C(L) = (6L / pi xi) [e_inf L - E0(L/2, L/2)]; approaches one.

    The formula needs the half-filled ground state of an even ring, so a size
    outside the even class (L = 2 (mod 4)), or a U too small for ``liebwu``,
    raises ``ValueError`` before any solve."""
    if bethe.parity(L) != bethe.EVEN:
        raise ValueError(f"the central-charge estimator needs L = 2 (mod 4), got L={L}")
    e_inf = liebwu.ground_energy_density(U)
    e0 = bethe.state_energy("ground", L, U)
    xi = liebwu.spin_velocity(U)
    return 6.0 * L / (np.pi * xi) * (e_inf * L - e0)


def _bare_dimension(state: str, L: int, U: float, e_inf: float, xi: float) -> float:
    e = bethe.state_energy(state, L, U)
    return L / (2.0 * np.pi * xi) * (e - e_inf * L) + 1.0 / 12.0


_DIMENSION_STATES = {0: "ground", 1: "first_excitation"}


def eliminate_log_amplitude(
    bare1: float, bare2: float, l1: int, l2: int, i0: float
) -> float:
    """Solve X = bare_i + A / log(L_i I0) for X across one pair of sizes.

    With equal bare values the amplitude is zero and X is the bare estimator
    itself.
    """
    u1, u2 = 1.0 / np.log(l1 * i0), 1.0 / np.log(l2 * i0)
    if bare1 == bare2:
        return bare1
    amp = (bare1 - bare2) / (u2 - u1)
    return bare1 + amp * u1


def scaling_dimension_series(j: int, sizes: Sequence[int], U: float) -> FssSeries:
    """Two-step estimators X_j(L) for the odd-L ground state (j=0) or first
    excitation (j=1).

    The log-correction amplitude is eliminated between each pair of
    consecutive sizes, and the pair value is placed at the larger size.
    Sizes that are even, out of order or outside ``bethe.quantum_numbers``
    raise ``ValueError`` before any solve.
    """
    if j not in _DIMENSION_STATES:
        raise ValueError("j must be 0 (ground) or 1 (first excitation)")
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(L % 2 == 0 for L in sizes):
        raise ValueError("sizes must be odd")
    if any(l2 <= l1 for l1, l2 in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    state = _DIMENSION_STATES[j]
    e_inf = liebwu.ground_energy_density(U)
    xi = liebwu.spin_velocity(U)
    i0 = special.i0(2.0 * np.pi / U)
    # the sizes are solved in ascending order, so only the largest can be
    # refused after a smaller one was solved: one above bethe._MAX_L raises here
    bethe.quantum_numbers(state, sizes[-1], U)
    bare = [_bare_dimension(state, L, U, e_inf, xi) for L in sizes]
    pts = []
    for i in range(len(sizes) - 1):
        l1, l2 = sizes[i], sizes[i + 1]
        x = eliminate_log_amplitude(bare[i], bare[i + 1], l1, l2, i0)
        pts.append((l2, x))
    return FssSeries(tuple(pts))


def predicted_dimension(n: Fraction, m: Fraction) -> Fraction:
    """Exact conformal dimension n^2/2 + (m - 1/2)^2/2 of the twisted-chain
    tower; n positive half-odd, m half-odd of either sign."""
    n, m = Fraction(n), Fraction(m)
    for name, v in (("n", n), ("m", m)):
        if (2 * v).denominator != 1 or (2 * v).numerator % 2 == 0:
            raise ValueError(f"{name} must be a half-odd integer, got {v}")
    if n <= 0:
        raise ValueError("n must be positive")
    return n * n / 2 + (m - Fraction(1, 2)) ** 2 / 2


def _bst_limit(x: np.ndarray, s: np.ndarray, w: float) -> float:
    """Rational sequence extrapolation with leading exponent w.

    The m = 1 level is the pure algebraic step, exact on a + b / L**w;
    vanishing increments propagate the value unchanged.
    """
    n = len(s)
    t_prev2 = None
    t_prev = s.astype(float).copy()
    for m in range(1, n):
        t_new = np.empty(n - m)
        for i in range(n - m):
            diff = t_prev[i + 1] - t_prev[i]
            if diff == 0.0:
                t_new[i] = t_prev[i + 1]
                continue
            ratio = 0.0
            if t_prev2 is not None:
                den2 = t_prev[i + 1] - t_prev2[i + 1]
                if den2 != 0.0:
                    ratio = diff / den2
            denom = (x[i + m] / x[i]) ** w * (1.0 - ratio) - 1.0
            if denom == 0.0:
                t_new[i] = t_prev[i + 1]
            else:
                t_new[i] = t_prev[i + 1] + diff / denom
        t_prev2 = t_prev
        t_prev = t_new
    return float(t_prev[0])


_W_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0)


def _extrapolate_power(series: FssSeries) -> ExtrapolationResult:
    x, s = series.sizes, series.values
    scored: List[Tuple[float, float, float]] = []
    for w in _W_GRID:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite limit is skipped
            full = _bst_limit(x, s, w)
            drop = _bst_limit(x[:-1], s[:-1], w)
        if not (np.isfinite(full) and np.isfinite(drop)):
            continue
        scored.append((abs(full - drop), full, w))
    if not scored:
        raise RuntimeError("rational extrapolation produced no finite result")
    scored.sort()
    score, limit, w_best = scored[0]
    spread = abs(limit - scored[1][1]) if len(scored) > 1 else 0.0
    unc = max(score, spread, 1e-14)
    return ExtrapolationResult(limit, unc, {"mode": "power-law", "w": w_best})


def _lstsq_limit(series: FssSeries, basis, mode: str) -> ExtrapolationResult:
    """Constant coefficient of the least-squares fit on the columns
    ``basis(sizes)``; the uncertainty is its change when the last point is
    dropped."""

    def fit(x, s):
        coef, *_ = np.linalg.lstsq(basis(x), s, rcond=None)
        return coef[0]

    x, s = series.sizes, series.values
    full = fit(x, s)
    drop = fit(x[:-1], s[:-1])
    return ExtrapolationResult(float(full), max(abs(full - drop), 1e-14), {"mode": mode})


def _extrapolate_log(series: FssSeries) -> ExtrapolationResult:
    return _lstsq_limit(
        series,
        lambda x: np.column_stack([np.ones_like(x), 1.0 / np.log(x), 1.0 / x]),
        "log-corrected",
    )


def extrapolate(series: FssSeries, mode: str = "power-law") -> ExtrapolationResult:
    """Estimate the infinite-size limit of a series.

    power-law: rational extrapolation over a grid of leading exponents; the
    exponent whose limit is most stable under deleting the last row wins, and
    the uncertainty is the spread across that deletion and the runner-up
    exponent.  log-corrected: least-squares fit a + b/log(L) + c/L.  A value
    that is not finite raises ``ValueError`` in either mode.
    """
    if len(series.points) < 3:
        raise ValueError("need at least three points to extrapolate")
    bad = [(L, v) for L, v in series.points if not np.isfinite(v)]
    if bad:
        raise ValueError("values must be finite, got "
                         + ", ".join(f"{v} at L={L}" for L, v in bad))
    if mode == "power-law":
        return _extrapolate_power(series)
    if mode == "log-corrected":
        return _extrapolate_log(series)
    raise ValueError(f"unknown extrapolation mode {mode!r}")


def dimension_series_limit(series: FssSeries, U: float) -> ExtrapolationResult:
    """Infinite-size limit of a two-step dimension series.

    The pairwise elimination removes the 1/log term, so the residue starts
    at 1/log^2; the limit is the least-squares fit of
    a + b / log(L I0(2 pi / U))^2.
    """
    i0 = special.i0(2.0 * np.pi / U)
    return _lstsq_limit(
        series,
        lambda x: np.column_stack([np.ones_like(x), 1.0 / np.log(x * i0) ** 2]),
        "inverse-log-squared",
    )
