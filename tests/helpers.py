"""Reference views and diagnostics that only the tests use.

Each one is a thin wrapper over the library: dense views of the transfer
matrix sweep on identity columns, the distance of an extrapolated dimension
series from its conformal target, and the momentum phase of an eigenvector.
"""

from typing import Sequence

import numpy as np

from chargepair import fss, models, ybx

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
