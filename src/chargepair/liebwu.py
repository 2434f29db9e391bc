"""Thermodynamic-limit values of the half-filled chain.

Ground-state energy density and charge gap are damped oscillatory integrals
over Bessel functions; the spin-sector sound velocity is a ratio of modified
Bessel functions.  The improper integrals are truncated where the Fermi-type
damping is below working precision and evaluated by composite Gauss-Legendre
panels sized to the Bessel oscillation scale.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special

#: composite Gauss-Legendre plan for the damped Bessel integrals: the widest
#: panel and the nodes per panel
_PANEL_WIDTH = np.pi / 2
_NODES = 24


def _upper_cut(U: float) -> float:
    # exp(-U x / 2) below 1e-17 kills the tail; keep a floor for tiny U
    return 80.0 / U + 10.0


def _fermi(x: np.ndarray, U: float) -> np.ndarray:
    """1 / (exp(U x / 2) + 1), overflow-safe for large U x."""
    t = np.exp(-0.5 * U * x)
    return t / (1.0 + t)


#: the most panels one quadrature plans: about 51/U are needed at small U, and
#: at this limit ``chargepair liebwu gap`` takes 0.17 s and peaks at 74 MB RSS
_MAX_PANELS = 100_000

#: panels evaluated and summed at once, so memory stays flat in the panel count.
#: Every U above 0.0125 fits one chunk (the tabulated U = 2-4 need at most 32
#: panels), so its sum stays the one pairwise sum over all nodes.
_CHUNK_PANELS = 4096


def _panel_quadrature(f: Callable, U: float) -> float:
    upper = _upper_cut(U)
    nodes, weights = np.polynomial.legendre.leggauss(_NODES)
    # panels must resolve both the Bessel oscillation and the exp(-Ux/2) decay
    width = min(_PANEL_WIDTH, 8.0 / U)
    if upper / width > _MAX_PANELS:
        smallest = 80.0 / (_MAX_PANELS * _PANEL_WIDTH - 10.0)  # _upper_cut inverted
        raise ValueError(f"coupling U={U} is too small for the Lieb-Wu quadrature (over "
                         f"{_MAX_PANELS} panels); the smallest accepted U is about {smallest:.3g}")
    n_panels = max(4, int(np.ceil(upper / width)))
    edges = np.linspace(0.0, upper, n_panels + 1)
    total = 0.0
    for lo in range(0, n_panels, _CHUNK_PANELS):
        chunk = edges[lo:lo + _CHUNK_PANELS + 1]
        half = 0.5 * np.diff(chunk)
        mid = 0.5 * (chunk[:-1] + chunk[1:])
        x = mid[:, None] + half[:, None] * nodes[None, :]
        w = half[:, None] * weights[None, :]
        total += np.sum(w * f(x.ravel()).reshape(x.shape))
    return float(total)


def _j1_fermi_integral(U: float, weight=lambda x: 1.0) -> float:
    """Integral over x >= 0 of weight(x) J1(x) / x / (exp(U x / 2) + 1), for a
    weight with weight(0) = 1."""

    def integrand(x):
        out = np.empty_like(x)
        small = x < 1e-12
        # J1(x) / x -> 1/2 at the origin
        out[small] = 0.5 * _fermi(x[small], U)
        xs = x[~small]
        out[~small] = weight(xs) * special.j1(xs) / xs * _fermi(xs, U)
        return out

    return _panel_quadrature(integrand, U)


def _check_coupling(U: float) -> None:
    if not (math.isfinite(U) and U > 0):
        raise ValueError(f"coupling U must be finite and positive, got U={U}")


def ground_energy_density(U: float) -> float:
    """Half-filled ground-state energy per site in the infinite chain."""
    _check_coupling(U)
    return -4.0 * _j1_fermi_integral(U, special.j0) - U / 4.0


def gap_infinite(U: float) -> float:
    """Charge gap of the half-filled chain in the infinite-size limit."""
    _check_coupling(U)
    return 4.0 * _j1_fermi_integral(U) + U / 2.0 - 2.0


def spin_velocity(U: float) -> float:
    """Sound velocity of the spin excitations, 2 I1(2 pi / U) / I0(2 pi / U).

    Uses exponentially scaled Bessel ratios, so small U does not overflow.
    """
    _check_coupling(U)
    z = 2.0 * np.pi / U
    return 2.0 * float(special.i1e(z) / special.i0e(z))
