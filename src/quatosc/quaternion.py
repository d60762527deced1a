"""Quaternion arithmetic with the symplectic (complex-pair) decomposition.

A quaternion q = x0 + x1*i + x2*j + x3*k is stored componentwise.  The
symplectic form writes the same number as q = z0 + z1*j with complex
z0 = x0 + x1*i and z1 = x2 + x3*i; this pairing is what lets a
quaternionic wavefunction be handled as two complex amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Quaternion",
    "SymplecticPair",
    "ONE",
    "I",
    "J",
    "K",
    "mul",
    "conj",
    "sc",
    "right_mul_i",
    "is_parallel",
]

PARALLEL_TOL = 1e-10


class SymplecticPair(NamedTuple):
    """Complex pair (z0, z1) with q = z0 + z1*j."""

    z0: complex
    z1: complex


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion with real components (x0, x1, x2, x3)."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        for c in (self.x0, self.x1, self.x2, self.x3):
            if not math.isfinite(c):
                raise ValueError(f"quaternion component is not finite: {c!r}")

    @classmethod
    def from_symplectic(cls, z0: complex, z1: complex) -> "Quaternion":
        z0 = complex(z0)
        z1 = complex(z1)
        return cls(z0.real, z0.imag, z1.real, z1.imag)

    def to_symplectic(self) -> SymplecticPair:
        return SymplecticPair(complex(self.x0, self.x1), complex(self.x2, self.x3))

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def sc(self) -> float:
        """Scalar (real) part."""
        return self.x0

    def norm_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.x0 * b.x0 - a.x1 * b.x1 - a.x2 * b.x2 - a.x3 * b.x3,
                a.x0 * b.x1 + a.x1 * b.x0 + a.x2 * b.x3 - a.x3 * b.x2,
                a.x0 * b.x2 - a.x1 * b.x3 + a.x2 * b.x0 + a.x3 * b.x1,
                a.x0 * b.x3 + a.x1 * b.x2 - a.x2 * b.x1 + a.x3 * b.x0,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        return NotImplemented


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (non-commutative)."""
    return a * b


def conj(q: Quaternion) -> Quaternion:
    """Quaternionic conjugate; reverses products: conj(p*q) = conj(q)*conj(p)."""
    return q.conj()


def sc(q: Quaternion) -> float:
    """Scalar part; cyclically invariant, sc(p*q) = sc(q*p)."""
    return q.x0


def right_mul_i(q: Quaternion) -> Quaternion:
    """Right multiplication q*i.

    In symplectic form this maps (z0, z1) to (i*z0, -i*z1), which is the
    action the momentum and energy operators need.
    """
    return Quaternion(-q.x1, q.x0, q.x3, -q.x2)


def _parallel(p, q, tol: float):
    """is_parallel on broadcastable quaternion arrays, each given as its symplectic
    pair (z0, z1) or its components (x0, x1, x2, x3).  For p = z0 + z1 j, q = w0 + w1 j,
    p*conj(q) = (z0 conj(w0) + z1 conj(w1)) + (z1 w0 - z0 w1) j: its imaginary parts
    take four complex products, where the real components take twelve."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    (z0, z1), (w0, w1) = (v if len(v) == 2 else (v[0] + 1j * v[1], v[2] + 1j * v[3]) for v in (p, q))
    i_part = (z0 * w0.conj() + z1 * w1.conj()).imag
    jk = z1 * w0 - z0 * w1
    return (abs(i_part) <= tol) & (abs(jk.real) <= tol) & (abs(jk.imag) <= tol)


def is_parallel(p: Quaternion, q: Quaternion, tol: float = PARALLEL_TOL) -> bool:
    """True iff every imaginary component of p*conj(q) is within tol of zero.

    Componentwise absolute tolerance; states with near-zero norm are
    excluded by the callers.  The one-pair case of the array rule, run on
    one-element arrays so that it takes numpy's arithmetic, as tables do.
    """
    return bool(_parallel(*(np.array([v.to_symplectic()]).T for v in (p, q)), tol)[0])
