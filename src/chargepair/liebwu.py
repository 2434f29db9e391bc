"""Thermodynamic-limit values of the half-filled chain.

Ground-state energy density and charge gap are damped oscillatory integrals
over Bessel functions; the spin-sector sound velocity is a ratio of modified
Bessel functions; the counting functions of the ground state, tabulated once
per U, seed the Bethe roots at any size.  The improper integrals are truncated
where the Fermi-type damping is below working precision and evaluated by
composite Gauss-Legendre panels sized to the Bessel oscillation scale.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Tuple

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


@lru_cache(maxsize=None)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``_NODES``-point Gauss-Legendre
    rule on [-1, 1], built on first use: a build takes 250 us, two thirds of
    a ``ground_energy_density`` call."""
    nodes, weights = np.polynomial.legendre.leggauss(_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_nodes(U: float, chunk_panels: int = _CHUNK_PANELS):
    """Flat nodes and weights of the composite Gauss-Legendre plan at U,
    ``chunk_panels`` panels at a time: ``_PANEL_WIDTH`` wide up to
    ``_upper_cut`` while 8/U is wider, else ten 8/U wide up to exp(-40) of
    the decay, so that the plan stays bounded at large U."""
    if 8.0 / U < _PANEL_WIDTH:
        edges = np.linspace(0.0, 80.0 / U, 11)
    else:
        upper = _upper_cut(U)
        if upper / _PANEL_WIDTH > _MAX_PANELS:
            smallest = 80.0 / (_MAX_PANELS * _PANEL_WIDTH - 10.0)  # _upper_cut inverted
            raise ValueError(f"coupling U={U} is too small for the Lieb-Wu quadrature (over "
                             f"{_MAX_PANELS} panels); the smallest accepted U is about {smallest:.3g}")
        edges = np.linspace(0.0, upper, max(4, int(np.ceil(upper / _PANEL_WIDTH))) + 1)
    nodes, weights = _gauss_legendre()
    for lo in range(0, len(edges) - 1, chunk_panels):
        chunk = edges[lo:lo + chunk_panels + 1]
        half = 0.5 * np.diff(chunk)[:, None]
        mid = 0.5 * (chunk[:-1] + chunk[1:])[:, None]
        yield (mid + half * nodes).ravel(), (half * weights).ravel()


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

    return float(sum(np.sum(w * integrand(x)) for x, w in _panel_nodes(U)))


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


#: grid points of each counting table where it is integrated, k in [0, pi/2]
#: and mu in [0, 1 + 1.5 U], and the values of sin(w x) formed at once while it
#: is built (256 kB), so that a build adds nothing to a process's peak memory
_TABLE_POINTS = 64
_TABLE_CHUNK = 32768


def _sine_transform(x: np.ndarray, g: Callable, U: float) -> np.ndarray:
    """Integral over w >= 0 of g(w) sin(w x) at each x, on the plan at U."""
    out = np.zeros(len(x))
    for w, weight in _panel_nodes(U, max(1, _TABLE_CHUNK // (len(x) * _NODES))):
        out += np.sin(np.multiply.outer(x, w)) @ (weight * g(w))
    return out


@lru_cache(maxsize=32)
def counting_tables(U: float) -> Tuple[np.ndarray, ...]:
    """Counting functions of the half-filled ground state of the infinite chain,
    z_c(k) = k + 2 int_0^inf J0(w) sin(w sin k) / (w (1 + exp(U w / 2))) dw and
    z_s(mu) = int_0^inf J0(w) sin(w mu) / (w cosh(U w / 4)) dw, as ascending
    (k, z_c, mu, z_s): k over [-pi, pi], where z_c runs from -pi to pi, and mu
    over +-(1 + 1.5 U), where pi/2 - |z_s| falls like exp(-2 pi |mu| / U) to
    8e-6 to 2e-4.  A root at size L lies within O(1/L) of where its function
    reaches 2 pi (q + shift) / L.  z_c - k is odd and a function of sin k, and
    z_s is odd, so only k in [0, pi/2] and mu >= 0 are integrated.  Memoized
    by U; the build grows like 1/U at weak coupling (30 ms at U = 0.1)."""
    _check_coupling(U)
    k = np.linspace(0.0, np.pi / 2, _TABLE_POINTS)
    mu = np.linspace(0.0, 1.0 + 1.5 * U, _TABLE_POINTS)
    dz = 2.0 * _sine_transform(np.sin(k), lambda w: special.j0(w) * _fermi(w, U) / w, U)
    # 1 / cosh(U w / 4) decays half as fast as the Fermi factor: plan at U / 2
    z_s = _sine_transform(mu, lambda w: special.j0(w) / (w * np.cosh(0.25 * U * w)), U / 2.0)
    k = np.concatenate([k, np.pi - k[-2::-1]])
    z_c = k + np.concatenate([dz, dz[-2::-1]])
    # the slope 2 pi rho(k) of z_c is about exp(-2 pi / U) at |k| > pi/2, below
    # rounding for U < 0.2: keep the nodes below every later one, so that the
    # table increases strictly and inverts
    keep = np.append(z_c[:-1] < np.minimum.accumulate(z_c[::-1])[-2::-1], True)
    return tuple(np.concatenate([-x[:0:-1], x]) for x in (k[keep], z_c[keep], mu, z_s))
