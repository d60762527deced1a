"""Special functions, normalization constants and quadrature rules.

Generalized Laguerre polynomials are evaluated by their three-term
recurrence (stable, no factorial ratios), the Hermite functions by
wavestate's normalized one; the literal H_n and its norm constant are test
oracles (tests/monomial_refs.py).  Spherical harmonics take their normalized
associated Legendre factor, Condon-Shortley phase, from one upward pass over
the degree per order m, and laguerre a sequence of degrees from one pass, so
each yields every degree a family asks for at once.  The quadrature rules
cross-check the Cartesian coefficient inner products and are the radial
sector's one numeric route, exact for its polynomial degrees.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DEGREE_CAP",
    "QuadratureRule",
    "laguerre",
    "sph_harm",
    "laguerre_norm_const",
    "make_rule",
]

# Degree cap shared by the polynomial evaluators; keeps double precision
# coefficients finite.
DEGREE_CAP = 200

def _check_integer(n: int, name: str) -> None:
    """A label must be an integer (numpy's too), but not a bool: True as an index is a mask.
    A plain int skips the slower abstract-class check."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {n!r}")


def _check_real(v: float, name: str) -> float:
    """v as a float if it is a finite real (numpy's too) but not a bool, else ValueError, for an
    int past the double range as well.  A plain float skips the slower abstract-class check."""
    if type(v) is not float and not isinstance(v, bool) and isinstance(v, numbers.Real):
        with contextlib.suppress(OverflowError):  # an int past the double range stays an int
            v = float(v)
    if type(v) is float and math.isfinite(v):
        return v
    raise ValueError(f"{name} must be finite and real, got {v!r}")


def _check_degree(n: int, name: str) -> None:
    _check_integer(n, name)
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    if n > DEGREE_CAP:
        raise ValueError(f"{name}={n} exceeds the degree cap {DEGREE_CAP}")


def laguerre(u, alpha: float, x):
    """Generalized Laguerre polynomial L_u^{(alpha)}(x), alpha > -1.

    Uses (u+1) L_{u+1} = (2u+1+alpha-x) L_u - (u+alpha) L_{u-1}.  u is one
    degree, or a sequence of degrees: one upward pass to the highest then
    yields a row per degree, each bit for bit its own single-degree call.
    The pass keeps two running rows and holds on only to the requested ones.
    """
    for d in (degrees := list(u) if np.ndim(u) else [u]):  # as given: numpy would read True as 1
        _check_degree(d, "u")
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    l_prev = np.ones_like(x) if not np.isscalar(x) else 1.0
    l_cur = 1.0 + alpha - x
    rows, wanted = {0: l_prev, 1: l_cur}, set(degrees)
    for k in range(1, max(degrees, default=0)):
        l_cur, l_prev = ((2.0 * k + 1.0 + alpha - x) * l_cur - (k + alpha) * l_prev) / (k + 1.0), l_cur
        if k + 1 in wanted:
            rows[k + 1] = l_cur
    return np.reshape([rows[d] for d in degrees], (len(degrees), *np.shape(x))) if np.ndim(u) else rows[u]


def _degree_step(k: int, m: int) -> tuple[float, float]:
    """Coefficients (a, b) of the normalized degree recurrence
    P_k^m = a (x P_(k-1)^m - b P_(k-2)^m), k >= m + 2."""
    a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
    b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
    return a, b


def _legendre_rows(m: int, degrees, x, s) -> np.ndarray:
    """sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(x) for m >= 0, Condon-Shortley,
    one row per degree l of the sorted, distinct degrees (each >= m), at
    x = cos(theta) with s = sin(theta) >= 0 given beside it: sqrt(1 - x^2)
    would lose s near the poles, where x rounds to +-1.

    One pass: seeds the diagonal P_m^m, then raises the degree up to the last
    one asked for, keeping only the two previous rows (Holmes & Featherstone,
    J. Geodesy 76, 2002).
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((len(degrees), *x.shape))
    cur = np.full_like(x, 1.0 / math.sqrt(4.0 * math.pi))
    if m > 0:
        for k in range(1, m + 1):
            cur = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * cur
    j = 0
    for k in range(m, degrees[-1] + 1):
        if k == m + 1:
            prev, cur = cur, math.sqrt(2.0 * m + 3.0) * x * cur
        elif k > m + 1:
            a, b = _degree_step(k, m)
            prev, cur = cur, a * (x * cur - b * prev)
        if degrees[j] == k:
            rows[j] = cur
            j += 1
    return rows


def sph_harm(l: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_l^m(theta, phi), 0 <= l <= DEGREE_CAP.

    theta is the polar angle, phi the azimuth; Condon-Shortley phase.
    Accepts scalars or broadcastable numpy arrays.  The Legendre factor is
    the one-degree case of _legendre_rows, the pass angular_gram runs once
    per |m| for a whole family.
    """
    _check_degree(l, "l")
    _check_integer(m, "m")
    if abs(m) > l:
        raise ValueError(f"m={m} out of range for l={l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    leg = _legendre_rows(ma, [l], np.cos(theta), np.sin(theta))[0]
    y = leg * np.exp(1j * ma * phi)
    if m < 0:
        y = (-1.0) ** ma * np.conj(y)
    if y.ndim == 0:
        return complex(y)
    return y


def laguerre_norm_const(u: int, l: int) -> float:
    """Constant N_u making rho^l exp(-rho^2/2) L_u^{(l+1/2)}(rho^2) unit-norm
    under the measure rho^2 drho: N_u = sqrt(2 u! / Gamma(u+l+3/2))."""
    _check_degree(u, "u")
    _check_degree(l, "l")
    log_n = 0.5 * (math.log(2.0) + math.lgamma(u + 1.0) - math.lgamma(u + l + 1.5))
    return math.exp(log_n)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of one of the supported integration rules.

    gauss_hermite    : sum w f(x) ~ integral f(x) exp(-x^2) dx over R
    gauss_legendre   : sum w f(x) ~ integral f(x) dx over [-1, 1]
    half_line        : sum w f(r) ~ integral f(r) r^2 dr over [0, inf), exact for
                       f = exp(-r^2) p(r^2), deg p <= 2*order-1; the Gaussian stays
                       in f, so no weight underflows at the outer nodes
    uniform_periodic : sum w f(t) ~ integral f(t) dt over [0, 2 pi)
    """

    kind: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.nodes)

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def _laguerre_sweep(s: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi_(n-1), psi_n (n = order; psi_k orthonormal under s^(1/2) exp(-s)) in a
    shared per-node scale, and the r-rule weights exp(s) / (2 sum_(k<n) psi_k(s)^2).
    A node whose values pass 2^500 is scaled by 2^-500; log_scale, from -s/2, is the
    log of its stored unit, so neither psi_k nor exp(-s/2) leaves the double range."""
    prev, cur, total = np.zeros_like(s), np.ones_like(s), np.zeros_like(s)
    log_scale = -0.5 * s - 0.5 * math.lgamma(1.5)  # psi_0 = Gamma(3/2)^(-1/2)
    for k in range(order):
        total += cur * cur
        # b_(k+1) psi_(k+1) = (s - a_k) psi_k - b_k psi_(k-1), a_k = 2k + 3/2, b_k = sqrt(k (k + 1/2))
        prev, cur = cur, ((s - 2.0 * k - 1.5) * cur - math.sqrt(k * (k + 0.5)) * prev) \
            / math.sqrt((k + 1.0) * (k + 1.5))
        e = np.where(np.abs(cur) > 2.0 ** 500, -500, 0)
        prev, cur, total = np.ldexp(prev, e), np.ldexp(cur, e), np.ldexp(total, 2 * e)
        log_scale -= e * math.log(2.0)
    return prev, cur, 0.5 * np.exp(-2.0 * log_scale) / total


def _half_line_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch rule for s^(1/2) exp(-s) in r = sqrt(s): Jacobi eigenvalues
    polished by one Newton step, and Christoffel weights from the recurrence (as
    numpy's hermgauss takes them), not from eigenvectors."""
    k = np.arange(1, order)
    off = np.sqrt(k * (k + 0.5))
    s = np.linalg.eigvalsh(np.diag(2.0 * np.arange(order) + 1.5) + np.diag(off, 1) + np.diag(off, -1))
    below, last, _ = _laguerre_sweep(s, order)
    # one Newton step on psi_n, with s psi_n' = n psi_n + b_n psi_(n-1)
    s -= s * last / (order * last + math.sqrt(order * (order + 0.5)) * below)
    return np.sqrt(s), _laguerre_sweep(s, order)[2]


@lru_cache(maxsize=None)
def make_rule(kind: str, order: int) -> QuadratureRule:
    """The QuadratureRule of the given kind and node count; rules are
    immutable, so one instance per (kind, order) is shared by every caller."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if kind == "gauss_hermite":
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    elif kind == "gauss_legendre":
        nodes, weights = np.polynomial.legendre.leggauss(order)
    elif kind == "half_line":
        nodes, weights = _half_line_rule(order)
    elif kind == "uniform_periodic":
        nodes = 2.0 * math.pi * np.arange(order) / order
        weights = np.full(order, 2.0 * math.pi / order)
    else:
        raise ValueError(f"unsupported quadrature kind: {kind!r}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind, nodes, weights)
