"""Monomial-basis references for the special-function tests.

Coefficients of H_n and L_u^(alpha) in ascending powers, and the exact
Gaussian moments they contract against.  Evaluated in double precision they
lose all accuracy well inside quatosc's DEGREE_CAP, so they serve only as
low-degree oracles here; quatosc itself stores orthonormal-function
coefficients.
"""

import math
from functools import lru_cache

import numpy as np

from quatosc.specfun import _check_degree


@lru_cache(maxsize=None)
def hermite_coeffs(n: int) -> tuple[float, ...]:
    """Coefficients of H_n in ascending powers."""
    _check_degree(n, "n")
    if n == 0:
        return (1.0,)
    prev = np.array([1.0])
    cur = np.array([0.0, 2.0])
    for k in range(1, n):
        nxt = np.zeros(k + 2)
        nxt[1:] = 2.0 * cur
        nxt[: k] -= 2.0 * k * prev
        prev, cur = cur, nxt
    return tuple(cur)


@lru_cache(maxsize=None)
def laguerre_coeffs(u: int, alpha: float) -> tuple[float, ...]:
    """Coefficients of L_u^{(alpha)} in ascending powers."""
    _check_degree(u, "u")
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if u == 0:
        return (1.0,)
    prev = np.array([1.0])
    cur = np.array([1.0 + alpha, -1.0])
    for k in range(1, u):
        nxt = np.zeros(k + 2)
        nxt[: k + 1] = (2.0 * k + 1.0 + alpha) * cur
        nxt[1:] -= cur
        nxt[: k] -= (k + alpha) * prev
        nxt /= k + 1.0
        prev, cur = cur, nxt
    return tuple(cur)


@lru_cache(maxsize=None)
def gaussian_moment(k: int) -> float:
    """Exact moment of the full-line Gaussian weight:
    integral of x^k exp(-x^2) over the real line.

    Zero for odd k; for even k follows the double-factorial recursion
    M_k = (k-1)/2 * M_{k-2} with M_0 = sqrt(pi).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k % 2 == 1:
        return 0.0
    if k == 0:
        return math.sqrt(math.pi)
    return 0.5 * (k - 1) * gaussian_moment(k - 2)


def radial_moment(k: int) -> float:
    """Exact half-line radial moment:
    integral of rho^(2k) exp(-rho^2) rho^2 drho over [0, inf) = M_(2k+2) / 2."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return 0.5 * gaussian_moment(2 * k + 2)
