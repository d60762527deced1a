"""Quaternionic wavefunctions stored in orthonormal Hermite-function coefficients.

A WaveState is a finite sum of modes.  Each mode lives in one symplectic
slot (z0 or z1), carries a complex amplitude, a real time frequency nu
giving the factor exp(i nu t), and per dimension a coefficient vector in
the Hermite functions phi_n of the dimensionless coordinate
X_k = sqrt(mu*omega/hbar) x_k.  The represented value is

    z_slot += coeff * exp(i nu t) * prod_k sum_n c_kn phi_n(X_k)

and the quaternion value of the state is z0 + z1*j.  The phi_n are
orthonormal, so an inner product is one coefficient dot product per
dimension, and X and d/dX act as two-band shifts of the coefficients.
Gauss-Hermite quadrature of the values, which the normalized three-term
recurrence gives pointwise, is the independent evaluation of the same
integrals, through the rule's Gram matrix of the phi_n (cached per width).

A state is its columns, one row per mode: every operation reads and writes
them, and WaveState(dims, slots, amps, freqs, coefs) takes them directly.
A Gram makes each side one operand (_side), once per object and per _Family:
its rows and, when single-level (one nonzero coefficient a row per dimension,
as in every built state), their levels and values, at which two such sides
gather the rule's Gram matrix or the identity.  It is formed over row tiles
of bounded size, so its memory is that of its result.  Like modes merge on
normalized rows (see _merged), so scaled copies of one function become one mode.

Operators are trees over X, d/dX, right multiplication by i and real
scaling.  Since right_i commutes with the other three and squares to -1 in
both slots, every tree has a normal form, cached on the Operator: a sum of
terms c (right_i)^r W_0 W_1 ..., with one word W_k of X and d/dX per
dimension the term touches.  apply runs it as a banded table, kept in one
bounded module cache per normal form, coefficient width and _band_shift, so
equal normal forms share it: per right-i power and dimension, one real vector
per band offset, made once by running the band shifts over the identity, so
bands that cancel are dropped then.  expectation reads <op s, s> from the
same table without building op s, in one pass over the dimensions that reads
every block from the state's per-dimension Gram factors, whose product also
gives the norm it checks; expectation_quaternionic makes a pass per normal form.

Pointwise values add each term of the recurrence to a running sum as it is
made, and form each complex product as separate real products and sums
(_times), since numpy's complex multiply may fuse them into an FMA.  evaluate
is the one-point case of evaluate_points, stepped on Python floats with one
numpy call (the Gaussian's exp), and equal to it bit for bit.

The real inner product used throughout is the scalar part

    <a, b> = integral Sc(a * conj(b)) d^p x
           = integral Re[z0_a conj(z0_b) + z1_a conj(z1_b)] d^p x,

which is slot-diagonal and real by construction.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .quaternion import Quaternion
from .specfun import QuadratureRule, _check_real, make_rule

__all__ = [
    "PhysicalParams",
    "WaveState",
    "Operator",
    "QuadratureOrderWarning",
    "mul_x",
    "d_dx",
    "right_i",
    "scale",
    "op_add",
    "op_compose",
    "identity_op",
    "zero_state",
    "evaluate",
    "evaluate_points",
    "apply",
    "inner",
    "inner_quad",
    "moment_gram",
    "quad_gram",
    "expectation",
    "expectation_quaternionic",
    "time_derivative",
]

NORM_CHECK_TOL = 1e-8


class QuadratureOrderWarning(UserWarning):
    """Quadrature order too low for the polynomial degree of the integrand."""


@dataclass(frozen=True)
class PhysicalParams:
    """Oscillator parameters; natural units by default."""

    mu: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mu", "omega", "hbar", "alpha", "energy_quantum"):  # the last two can over- or underflow
            if type(v := getattr(self, name)) is not float:  # a field: the last two are floats once the fields are
                object.__setattr__(self, name, v := _check_real(v, name))
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    @property
    def alpha(self) -> float:
        """Inverse length scale: X = alpha * x."""
        return math.sqrt(self.mu * self.omega / self.hbar)

    @property
    def energy_quantum(self) -> float:
        return self.hbar * self.omega


# ---------------------------------------------------------------------------
# states

class WaveState:
    """Immutable quaternionic wavefunction in p dimensions, stored as columns.

    Row r is one mode: slot slots[r] (0 or 1), complex amplitude amps[r], real
    time frequency freqs[r] and, in dimension k, coefficients coefs[k, r, n] on
    the orthonormal Hermite functions phi_n(X_k) = pi^(-1/4) (2^n n!)^(-1/2)
    H_n(X_k) exp(-X_k^2/2), zero-padded to the width of coefs (dims, modes, width).

    The constructor copies the arrays it is given, as they are (no merge, no
    trim), and raises ValueError unless dims >= 1, every slot is 0 or 1, the
    amplitudes and frequencies are finite and coefs holds one row of width >= 1
    per mode in every dimension.  The stored arrays are read-only: states share them.
    """

    __slots__ = ("dims", "slots", "amps", "freqs", "coefs", "params")

    def __init__(self, dims: int, slots, amps, freqs, coefs, params: PhysicalParams | None = None):
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        slots = np.array(slots)
        if slots.ndim != 1 or not np.isin(slots, (0, 1)).all():
            raise ValueError(f"slots must be a row of 0s and 1s, got {slots.tolist()}")
        amps, freqs = np.array(amps, dtype=complex), np.array(freqs, dtype=float)
        if amps.shape != slots.shape or freqs.shape != slots.shape:
            raise ValueError(f"need one amplitude and one frequency per slot, got {amps.shape} and {freqs.shape}")
        if not (np.isfinite(amps).all() and np.isfinite(freqs).all()):
            raise ValueError("mode amplitude and frequency must be finite")
        coefs = np.array(coefs, dtype=complex)
        if coefs.ndim != 3 or coefs.shape[:2] != (dims, len(slots)) or not coefs.shape[2]:
            raise ValueError(f"coefs must have shape ({dims}, {len(slots)}, width >= 1), got {coefs.shape}")
        _fill(self, dims, slots.astype(int), amps, freqs, coefs, params or PhysicalParams())

    def __setattr__(self, name, value):
        raise AttributeError(f"WaveState is immutable; cannot set {name!r}")

    def evaluate(self, x, t: float = 0.0) -> Quaternion:
        return evaluate(self, x, t)

    def norm(self, t: float = 0.0) -> float:
        return math.sqrt(max(inner(self, self, t), 0.0))

    def __add__(self, other: "WaveState") -> "WaveState":
        return _merged(self.dims, *_stacked([self, other])[1:], self.params)

    def __sub__(self, other: "WaveState") -> "WaveState":
        return self + (-1.0) * other

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            amps = _scaled(self.amps, c)
            return _from_columns(self.dims, self.slots, amps, self.freqs, self.coefs, self.params)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


_SLOT_SETTERS = tuple(getattr(WaveState, name).__set__ for name in WaveState.__slots__)  # past __setattr__


def _fill(s: WaveState, dims, slots, amps, freqs, coefs, params) -> None:
    for a in (slots, amps, freqs, coefs):
        a.setflags(False)  # write=False; by position it costs half the keyword call
    for set_slot, value in zip(_SLOT_SETTERS, (dims, slots, amps, freqs, coefs, params)):
        set_slot(s, value)


def _scaled(amps: np.ndarray, factor) -> np.ndarray:
    """amps * factor; an amplitude that overflows is an error, as in WaveState()."""
    with np.errstate(over="ignore", invalid="ignore"):
        amps = amps * factor
    if not np.isfinite(amps).all():
        raise ValueError("mode amplitude and frequency must be finite")
    return amps


def _from_columns(dims: int, slots, amps, freqs, coefs, params) -> WaveState:
    """The state holding these columns as they are: no merge, no trim."""
    s = object.__new__(WaveState)
    _fill(s, dims, slots, amps, freqs, coefs, params)
    return s


def zero_state(dims: int = 1, params: PhysicalParams | None = None) -> WaveState:
    return WaveState(dims, [], [], [], np.zeros((dims, 0, 1)), params)


def _check_compatible(a: WaveState, b: WaveState) -> None:
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if a.params != b.params:
        raise ValueError("states carry different physical parameters")


def _joined(blocks) -> np.ndarray:
    """(dims, modes, width) coefficients of blocks of rows stacked in order, each
    block one (modes, width) matrix per dimension, zero-padded to the widest."""
    out = np.zeros((len(blocks[0]), sum(len(b[0]) for b in blocks), max(c.shape[1] for b in blocks for c in b)),
                   dtype=complex)
    start = 0
    for b in blocks:
        for k, c in enumerate(b):
            out[k, start:start + len(c), :c.shape[1]] = c
        start += len(b[0])
    return out


def _merged(dims: int, slots, amps, freqs, coefs, params) -> WaveState:
    """The state of these rows with like modes combined, amplitudes folded into
    dimension 0.  Each row past dimension 0 is divided by its pivot (its first
    entry of largest magnitude), which multiplies the row of dimension 0, so
    scaled copies of one function share one normalized row.  Rows equal in
    slot, frequency and every normalized row (-0.0 read as 0.0) are summed in
    dimension 0, in row order; a row that vanishes in some dimension is dropped.
    """
    first, rest = amps[:, None] * coefs[0], coefs[1:]
    keys = [slots.tolist(), freqs.tolist()]  # Python floats: -0.0 == 0.0
    if dims > 1:
        pivot = np.take_along_axis(rest, np.abs(rest).argmax(axis=2)[..., None], axis=2)
        pivot[pivot == 0] = 1.0  # a row of zeros, dropped below
        rest = rest / pivot
        first = first * pivot.prod(axis=0)
        rows = rest.transpose(1, 0, 2).reshape(len(slots), (dims - 1) * rest.shape[2]).copy().view(float) + 0.0
        keys.append(rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist())
    index: dict = {}
    group, firsts = [], []
    for r, key in enumerate(zip(*keys)):
        g = index.setdefault(key, len(index))
        if g == len(firsts):
            firsts.append(r)
        group.append(g)
    if len(firsts) < len(group):
        summed = np.zeros((len(firsts), first.shape[1]), dtype=complex)
        np.add.at(summed, group, first)
        slots, freqs, first, rest = slots[firsts], freqs[firsts], summed, rest[:, firsts]
    return _nonzero(dims, slots, freqs, np.concatenate([first[None], rest]), params)


def _nonzero(dims: int, slots, freqs, coefs, params) -> WaveState:
    """The state of these rows at amplitude 1, without the rows that vanish in
    some dimension and without trailing zero columns."""
    alive = coefs.any(axis=2).all(axis=0)
    if not alive.all():
        slots, freqs, coefs = slots[alive], freqs[alive], coefs[:, alive]
    width = coefs.shape[2]
    while width > 1 and not coefs[..., width - 1].any():
        width -= 1
    return _from_columns(dims, slots, np.ones(len(slots), dtype=complex), freqs, coefs[..., :width], params)


def _stacked(states):
    """Every mode of the states, which must share dims and params, in order:
    owner state index, slot, amplitude at time 0, frequency, and the
    (dims, modes, width) coefficients zero-padded to the widest state."""
    for s in states[1:]:
        _check_compatible(states[0], s)
    if len(states) == 1:
        s = states[0]
        return np.zeros(len(s.slots), dtype=int), s.slots, s.amps, s.freqs, s.coefs
    owner = np.repeat(np.arange(len(states)), [len(s.slots) for s in states])
    slots, amps, freqs = (np.concatenate(c) for c in zip(*((s.slots, s.amps, s.freqs) for s in states)))
    coefs = np.zeros((states[0].dims, len(owner), max(s.coefs.shape[2] for s in states)), dtype=complex)
    for s, end in zip(states, np.cumsum([len(s.slots) for s in states]).tolist()):
        coefs[:, end - len(s.slots):end, :s.coefs.shape[2]] = s.coefs  # one slice a state
    return owner, slots, amps, freqs, coefs


class _Side(NamedTuple):
    """One operand of a Gram: _stacked's columns, then _side's levels and values."""

    owner: np.ndarray
    slot: np.ndarray
    amp: np.ndarray
    freqs: np.ndarray
    coefs: np.ndarray
    levels: np.ndarray | None
    values: np.ndarray | None


def _side(states) -> _Side:
    """The Gram operand of these states, made once per _Family (its side).
    When every row holds exactly one nonzero coefficient in every dimension
    (single-level: every built state until an operator is applied), levels
    and values are their (dims, modes) positions and values, from one pass
    over coefs != 0; else None."""
    if type(states) is _Family:
        return states.side
    owner, slots, amps, freqs, coefs = _stacked(states)
    nonzero = coefs != 0
    if np.count_nonzero(nonzero) == nonzero.shape[0] * nonzero.shape[1]:  # one a row, or none in some row
        values = coefs.sum(axis=-1)  # exact: the one nonzero coefficient plus zeros
        if np.count_nonzero(values) == values.size:
            return _Side(owner, slots, amps, freqs, coefs, nonzero.argmax(axis=-1), values)
    return _Side(owner, slots, amps, freqs, coefs, None, None)


class _Family(tuple):
    """States whose Gram operand (_side) is made once, on first use, and
    shared by every evaluation and Gram of the family (_Family(f) is f); it
    is a read-only function of immutable states, as safe to share as they."""

    def __new__(cls, states=()):
        return states if type(states) is cls else super().__new__(cls, states)

    @cached_property
    def side(self) -> _Side:
        side = _side(tuple(self))
        for a in side:
            if a is not None:
                a.setflags(write=False)
        return side


def _hermite_rows(count: int, x):
    """phi_n(x) exp(x^2/2) for n < count, one row at a time: for a float x a
    float, for an array x an array (h_0, which x does not enter, is a float).

    Normalized three-term recurrence (Bunck, BIT 49 (2009)):
    h_0 = pi^(-1/4), h_1 = sqrt(2) x h_0 and
    h_(n+1) = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_(n-1); no factorials,
    no cancellation of large monomial terms.  A float and an array step the
    same operations, so each point's rows are the same either way.
    """
    prev = h = math.pi ** -0.25
    yield h
    if count > 1:
        prev, h = h, math.sqrt(2.0) * x * h
        yield h
    for n in range(1, count - 1):
        prev, h = h, math.sqrt(2.0 / (n + 1)) * x * h - math.sqrt(n / (n + 1)) * prev
        yield h


def _hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) exp(x^2/2) for n < count, as the rows of a (count, points) array."""
    h = np.empty((count, x.size))
    for n, row in enumerate(_hermite_rows(count, x)):
        h[n] = row
    return h


def _times(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as its real and imaginary parts, each two
    products and one sum, of floats or arrays alike.  numpy's complex
    multiply may fuse a product into the sum (an FMA) and so round otherwise;
    these separate operations round the same in numpy and in Python."""
    return ar * br - ai * bi, ar * bi + ai * br


def _times_parts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_times of (2, ...) arrays of real and imaginary parts: the same
    products and sums, one numpy call each, as a new (2, ...) array."""
    out = a * b  # (ar br, ai bi)
    cross = a * b[::-1]  # (ar bi, ai br)
    np.subtract(out[0], out[1], out=out[0])
    np.add(cross[0], cross[1], out=out[1])
    return out


def _check_time(t) -> None:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")


def _check_phases(finite: bool, t: float) -> None:
    """Raise, naming t, unless (finite) every time phase nu t is finite."""
    if not finite:
        raise ValueError(f"t = {t!r} puts a time phase nu t past the float range")


def _check_reach(alpha: float, dims: int, reach: float) -> None:
    """Raise unless coordinates up to reach = |x| (nan if one is nan) are
    finite and keep r^2 = sum_k (alpha x_k)^2 finite, with room for the
    rounding of the sum."""
    scaled = alpha * reach
    if not math.isfinite(2.0 * dims * scaled * scaled):
        if not math.isfinite(reach):
            raise ValueError(f"x must be finite, got a coordinate {reach!r}")
        raise ValueError(f"x is too far out: (alpha x)^2 overflows at |x| = {reach!r}")


def evaluate_points(states: list[WaveState], x, t: float = 0.0):
    """Symplectic components (z0, z1) of each state at each point and time t,
    as (states, points) complex arrays; x holds one position per row, (points,)
    or (points, dims).  A non-finite x or t, an x whose (alpha x)^2
    overflows, or a t whose time phase nu t overflows, is a ValueError.

    Per dimension, each term c_n h_n of the recurrence is added to a
    (modes, points) sum as it is made, in order of n, real and imaginary
    parts apart; no (modes, points, width) product is formed.  Every complex
    product (amplitude by time phase exp(i (nu t)), then by each dimension's
    sum) is formed by _times, and the Gaussian scales each part on its own.
    Each point's sums run alone and in one order, so its values do not
    depend on the other points evaluated with it, and evaluate, which steps
    the same operations on Python floats, equals them bit for bit."""
    _check_time(t)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"x must have shape (points,) or (points, dims), got {x.shape}")
    if not states:
        return tuple(np.zeros((2, 0, len(x)), dtype=complex))
    dims = states[0].dims
    if x.ndim == 1:  # one coordinate a point; no points at all in any dims
        x = x[:, None] if len(x) else x.reshape(0, dims)
    if x.shape[1] != dims:
        raise ValueError(f"expected points of {dims} coordinates, got {x.shape[1]}")
    alpha = states[0].params.alpha
    _check_reach(alpha, dims, float(np.abs(x).max(initial=0.0)))
    coords = alpha * x.T
    owner, slot, amp, freqs, coefs, *_ = states.side if type(states) is _Family else _stacked(states)
    re, im = amp.real, amp.imag
    if t:
        _check_phases(math.isfinite(float(np.abs(freqs).max(initial=0.0)) * t), t)  # the largest |nu t|
        phase = np.exp(1j * (freqs * t))
        re, im = _times(re, im, phase.real, phase.imag)
    terms = np.array([re, im])[..., None]  # (2, modes, 1), then (2, modes, points)
    for c, xk in zip(coefs, coords):
        rows = np.array([c.real, c.imag]).transpose(2, 0, 1)[..., None]  # (width, 2, modes, 1)
        acc = np.zeros((2, len(c), len(xk)))
        for part, h in zip(rows, _hermite_rows(c.shape[1], xk)):
            acc += part * h
        terms = _times_parts(terms, acc)
    z = np.zeros((2, len(states), len(x), 2))  # slot, state, point, real and imaginary part
    np.add.at(z, (slot, owner), terms.transpose(1, 2, 0))
    r2 = functools.reduce(np.add, (xk * xk for xk in coords))  # in dimension order, whatever the points
    r2 *= -0.5
    z *= np.exp(r2, out=r2)[:, None]
    return tuple(z.view(complex)[..., 0])


def evaluate(state: WaveState, x, t: float = 0.0) -> Quaternion:
    """Quaternion value of the state at position x (scalar or p-vector) and
    time t: the one-point case of evaluate_points, equal to it bit for bit.
    Every step runs on Python floats in the operations and order of
    evaluate_points (the time phase through cmath.exp, which rounds as
    numpy's complex exp does) except the Gaussian, whose exp is numpy's on
    a one-element array, since numpy's float exp may round otherwise than
    math.exp.  Its inputs are checked as evaluate_points checks them."""
    _check_time(t)
    xs = [float(x)] if isinstance(x, (int, float)) else np.asarray(x, dtype=float).ravel().tolist()
    if len(xs) != state.dims:
        raise ValueError(f"expected points of {state.dims} coordinates, got {len(xs)}")
    alpha = state.params.alpha
    for xk in xs:
        _check_reach(alpha, state.dims, abs(xk))
    coords = [alpha * xk for xk in xs]
    amps = state.amps.tolist()
    if t:
        angles = [nu * t for nu in state.freqs.tolist()]
        _check_phases(all(map(math.isfinite, angles)), t)
        phases = [cmath.exp(1j * a) for a in angles]
        parts = [_times(a.real, a.imag, p.real, p.imag) for a, p in zip(amps, phases)]
    else:
        parts = [(a.real, a.imag) for a in amps]
    width = state.coefs.shape[2]
    for c, xk in zip(state.coefs.tolist(), coords):
        h = list(_hermite_rows(width, xk))
        for r, row in enumerate(c):
            sr = si = 0.0
            for a, hn in zip(row, h):
                sr += a.real * hn
                si += a.imag * hn
            parts[r] = _times(*parts[r], sr, si)
    z = [0.0, 0.0, 0.0, 0.0]
    for slot, (re, im) in zip(state.slots.tolist(), parts):
        z[2 * slot] += re
        z[2 * slot + 1] += im
    r2 = sum(xk * xk for xk in coords)  # 0 + a == a: the sum evaluate_points reduces
    (gauss,) = np.exp([r2 * -0.5]).tolist()
    return Quaternion(z[0] * gauss, z[1] * gauss, z[2] * gauss, z[3] * gauss)


def _magnitude(z0, z1):
    """Quaternion magnitude |z0 + z1 j| of component arrays."""
    return np.sqrt(z0.real * z0.real + z0.imag * z0.imag + z1.real * z1.real + z1.imag * z1.imag)


# ---------------------------------------------------------------------------
# operators

@dataclass(frozen=True)
class Operator:
    """Composition tree over the primitive actions on a WaveState.

    Kinds: mul_x (multiply by X_dim), d_dx (d/dX_dim), right_i (right
    multiplication by the imaginary unit i), scale (real scalar), add,
    compose.  Composition applies right to left: (A*B)(s) = A(B(s)).
    """

    kind: str
    dim: int = 0
    factor: float = 1.0
    children: tuple["Operator", ...] = ()

    def __add__(self, other: "Operator") -> "Operator":
        return op_add(self, other)

    def __sub__(self, other: "Operator") -> "Operator":
        return op_add(self, (-1.0) * other)

    def __mul__(self, other):
        if isinstance(other, Operator):
            return op_compose(self, other)
        if isinstance(other, (int, float)):
            return op_compose(scale(other), self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return op_compose(scale(other), self)
        return NotImplemented

    def __neg__(self):
        return (-1.0) * self

    def __pow__(self, n: int) -> "Operator":
        if n < 0:
            raise ValueError("operator powers must be non-negative")
        if n == 0:
            return identity_op()
        out = self
        for _ in range(n - 1):
            out = op_compose(out, self)
        return out

    @cached_property
    def _dims(self) -> frozenset[int]:
        """Every dimension a mul_x or d_dx node of the tree acts on."""
        if self.kind in ("mul_x", "d_dx"):
            return frozenset((self.dim,))
        return frozenset().union(*(c._dims for c in self.children))

    @cached_property
    def _terms(self) -> tuple:
        """Normal form: the operator as a sum of terms (c, r, words) meaning
        c (right_i)^r times, per dimension k, the word w_k of X and d/dX.

        right_i commutes with X, d/dX and real scaling, and right_i^2 = -1 in
        both slots, so every tree expands into this form.  A word is a tuple
        of band-shift signs in application order, +1 for X and -1 for d/dX;
        words is a tuple of (k, w_k) sorted by k, over the dimensions the term
        touches.  Like terms are combined and zero terms dropped.
        """
        k = self.kind
        if k in ("mul_x", "d_dx"):
            terms = ((1.0, 0, ((self.dim, (1.0 if k == "mul_x" else -1.0,)),)),)
        elif k == "right_i":
            terms = ((1.0, 1, ()),)
        elif k == "scale":
            terms = ((self.factor, 0, ()),)
        elif k == "add":
            terms = _collect(((r, words), c) for child in self.children for c, r, words in child._terms)
        elif k == "compose":
            terms = ((1.0, 0, ()),)
            for child in reversed(self.children):
                terms = _collect(_product(a, b) for a in child._terms for b in terms)
        else:
            raise ValueError(f"unknown operator kind: {k!r}")
        if not all(math.isfinite(c) for c, _, _ in terms):
            raise ValueError("operator coefficients must be finite")
        return terms


def _product(outer, inner):
    """Term of outer * inner (inner acts first) as ((r, words), c)."""
    ca, ra, wa = outer
    cb, rb, wb = inner
    words = dict(wb)
    for k, w in wa:
        words[k] = words.get(k, ()) + w
    return (ra ^ rb, tuple(sorted(words.items()))), (-ca * cb if ra & rb else ca * cb)


def _collect(pairs) -> tuple:
    """Terms (c, r, words) from ((r, words), c) pairs, like terms summed and
    zero terms dropped, in order of first appearance."""
    sums: dict = {}
    for key, c in pairs:
        sums[key] = sums.get(key, 0.0) + c
    return tuple((c, r, words) for (r, words), c in sums.items() if c != 0.0)


def mul_x(dim: int = 0) -> Operator:
    """Multiplication by the dimensionless coordinate X_dim."""
    return Operator("mul_x", dim=dim)


def d_dx(dim: int = 0) -> Operator:
    """Derivative with respect to X_dim."""
    return Operator("d_dx", dim=dim)


def right_i() -> Operator:
    """Right multiplication of the wavefunction by i."""
    return Operator("right_i")


def scale(c: float) -> Operator:
    """Multiplication by a real scalar."""
    return Operator("scale", factor=float(c))


def identity_op() -> Operator:
    return scale(1.0)


def op_add(*ops: Operator) -> Operator:
    return Operator("add", children=tuple(ops))


def op_compose(*ops: Operator) -> Operator:
    """Operator product; ops[0] acts last."""
    return Operator("compose", children=tuple(ops))


def apply(op: Operator, state: WaveState) -> WaveState:
    """Exact action of an operator on a state, from the banded table of op's
    normal form at the state's coefficient width and _band_shift (_band_table,
    which caches it): bands that cancel (the +-2 bands of H_k) cancel once,
    when the table is built.  Each block makes one new row per mode in the
    dimensions it replaces, the first carrying the amplitudes, times i in
    slot 0 and -i in slot 1 for right_i terms.  The terms that touch one
    dimension share a block, so a one-dimensional state keeps at most its
    number of modes, without a merge.  In more dimensions the blocks of rows
    are merged once (_merged): H_k turns phi_n into a scaled copy, which
    merges back.
    """
    _check_dims(op, state)
    if not len(state.slots):
        return state
    blocks = []  # per block of output rows, the new coefficient matrix of each dimension it replaces
    for k0, parts, rest in _band_table(op._terms, state.coefs.shape[2], _band_shift):
        first = _summed([_turned(state, r) * _banded(bands, state.coefs[k0]) for r, bands in parts])
        blocks.append({k0: first, **{k: _banded(bands, state.coefs[k]) for k, bands in rest}})
    if not blocks:
        return zero_state(state.dims, state.params)
    if state.dims == 1:
        return _nonzero(1, state.slots, state.freqs, blocks[0][0][None], state.params)
    coefs = _joined([[b.get(k, c) for k, c in enumerate(state.coefs)] for b in blocks])
    return _merged(state.dims, np.tile(state.slots, len(blocks)), np.ones(coefs.shape[1], dtype=complex),
                   np.tile(state.freqs, len(blocks)), coefs, state.params)


def _check_dims(op: Operator, state: WaveState) -> None:
    for d in op._dims:
        if not 0 <= d < state.dims:
            raise ValueError(f"operator dimension {d} out of range for a {state.dims}-dimensional state")


def _turned(state: WaveState, r: int) -> np.ndarray:
    """The state's amplitudes as a column, times (right_i)^r: i in slot 0, -i in slot 1."""
    amps = state.amps * np.where(state.slots == 0, 1j, -1j) if r else state.amps
    return amps[:, None]


@functools.lru_cache(maxsize=256)
def _band_table(terms: tuple, width: int, band_shift) -> tuple:
    """The normal form at this coefficient width as blocks (k0, parts, rest),
    one cached table per (terms, width, band_shift), shared by equal normal forms:
    parts holds (r, bands) for dimension k0, whose rows carry the amplitudes,
    and rest (k, bands) for the block's other dimensions.  The terms touching
    at most dimension k (scalars: k = 0) share one block; each other term is a
    block, its coefficient in k0.  bands are (d, v) by offset d, v[i - max(0, -d)]
    the coefficient of phi_(i+d) in the summed words' image of phi_i, from
    band_shift run over the identity; exactly zero bands are dropped.  The v
    are read-only, as every caller shares them.

    The identity's rows are folded mod p = 2 L + 1, L the longest word: rows
    of one class lie p apart, out of each other's reach within L shifts, so
    every entry read is its identity row's own, bit for bit, for O(L width)
    work instead of O(width^2)."""
    longest = max((len(w) for _, _, words in terms for _, w in words), default=0)
    p = min(width, 2 * longest + 1)
    folded = (np.arange(width) % p == np.arange(p)[:, None]).astype(complex)

    def word(w):
        out = folded
        for sign in w:
            out = band_shift(out, sign)
        return out

    def bands(pairs):
        dense = _summed([c * word(w) for c, w in pairs])
        top = dense.shape[1] - width  # the longest word
        out = []
        for d in range(-top, top + 1):
            i = np.arange(max(0, -d), width)
            if (v := dense[i % p, i + d].real).any():
                v.setflags(write=False)
                out.append((d, v))
        return tuple(out)

    singles: dict = {}  # dimension -> r -> (c, word) pairs of the terms touching at most that dimension
    blocks = []
    for c, r, words in terms:
        (k0, w0), *rest = words or ((0, ()),)
        if rest:
            blocks.append((k0, ((r, bands([(c, w0)])),), tuple((k, bands([(1.0, w)])) for k, w in rest)))
        else:
            singles.setdefault(k0, {}).setdefault(r, []).append((c, w0))
    return tuple((k, tuple((r, bands(pairs)) for r, pairs in singles[k].items()), ()) for k in sorted(singles)) + tuple(blocks)


def _banded(bands: tuple, c: np.ndarray) -> np.ndarray:
    """Rows c (modes, width) through bands (d, v) sorted by d: column i + d
    gets v[i - max(0, -d)] c[:, i]."""
    width = c.shape[1]
    out = np.zeros((len(c), width + max(0, bands[-1][0] if bands else 0)), dtype=complex)
    for d, v in bands:
        out[:, max(0, d):width + d] += v * c[:, max(0, -d):]
    return out


def _summed(parts: list[np.ndarray]) -> np.ndarray:
    """Sum of coefficient arrays that differ only in width, each zero-padded to the widest."""
    if len(parts) == 1:
        return parts[0]
    total = np.zeros(parts[0].shape[:-1] + (max(p.shape[-1] for p in parts),), dtype=complex)
    for p in parts:
        total[..., :p.shape[-1]] += p
    return total


def _band_shift(c: np.ndarray, upper_sign: float) -> np.ndarray:
    """Hermite-function coefficients of X f (upper_sign +1) or d/dX f
    (upper_sign -1) for f = sum_n c_n phi_n, along the last axis of c:
    X phi_n = sqrt(n/2) phi_(n-1) + sqrt((n+1)/2) phi_(n+1), and d/dX is the
    same with the upper band negated."""
    n = c.shape[-1]
    root = np.sqrt(0.5 * np.arange(1, n + 1))  # root[k] = sqrt((k+1)/2)
    out = np.zeros(c.shape[:-1] + (n + 1,), dtype=complex)
    np.multiply(upper_sign * root, c, out=out[..., 1:])
    out[..., :n - 1] += root[:n - 1] * c[..., 1:]
    return out


# ---------------------------------------------------------------------------
# inner products and expectations

_TILE_ELEMENTS = 1 << 13  # (a rows) x (b modes) entries of one tile of _mode_gram's product


def _amps_at(amps: np.ndarray, freqs: np.ndarray, t: float) -> np.ndarray:
    """The amplitudes at time t, amps exp(i freqs t); amps itself at t = 0."""
    if not t:
        return amps
    _check_phases(math.isfinite(float(np.abs(freqs).max(initial=0.0)) * t), t)  # the largest |nu t|
    return amps * np.exp(1j * freqs * t)


_SLOT_COLUMNS = np.array([[0], [1]])


def _slot_widths(side: _Side) -> list[list[int]]:
    """Per slot, per dimension: the longest coefficient row of the side up to
    its last nonzero coefficient (level + 1 on a single-level side), 0 in an
    empty slot."""
    if side.levels is not None:
        lengths = side.levels + 1
    else:
        nonzero = side.coefs != 0
        lengths = np.where(nonzero.any(axis=-1), nonzero.shape[-1] - nonzero[..., ::-1].argmax(axis=-1), 0)
    return (lengths * (side.slot == _SLOT_COLUMNS)[:, None, :]).max(axis=-1, initial=0).tolist()


def _row_tiles(owner: np.ndarray, columns: int) -> list[slice]:
    """Consecutive slices of the a rows, each ending at an owner boundary, of at
    most _TILE_ELEMENTS // columns rows, or one owner's rows where they alone
    are more; one slice of every row when they fit."""
    n, most = len(owner), max(1, _TILE_ELEMENTS // max(columns, 1))
    if n <= most:
        return [slice(0, n)]
    ends = np.append(np.flatnonzero(owner[1:] != owner[:-1]) + 1, n)
    tiles, lo = [], 0
    while lo < n:
        # the last boundary within reach, or else the next one
        hi = int(ends[max(np.searchsorted(ends, lo + most, side="right") - 1, np.searchsorted(ends, lo, side="right"))])
        tiles.append(slice(lo, hi))
        lo = hi
    return tiles


def _mode_gram(a_states, b_states, t: float, grams) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j>, one factor per dimension.

    grams(a, b) takes the _Side of the a and the b modes and returns, per
    dimension k, the Gram G_k of the phi_n over which X_k is integrated (None
    for the identity), its block of the two sides' widths; _factors turns
    each into the (a modes, b modes) matrix A_k G_k B_k^H of integrals of an
    a factor times a conjugated b factor.  Their product over dimensions,
    weighted by amplitude, time phase and slot match, is summed over each
    state's modes.  The product is formed over row tiles of the a side
    (_row_tiles), cut at state boundaries, so each entry of the result sums
    the same terms in the same order whatever the tiles, and a tile holds
    about _TILE_ELEMENTS products.  Each side is made by _side, at its own
    width, and phased to time t here; a side passed as both (b_states is
    a_states) is made and phased once.
    """
    out = np.zeros((len(a_states), len(b_states)))
    if not (a_states and b_states):
        return out
    _check_compatible(a_states[0], b_states[0])
    a = _side(a_states)
    b = a if b_states is a_states else _side(b_states)
    # x_k integrals are 1/alpha times X_k ones, folded into the amplitudes (each holding sqrt(alpha) per
    # dimension) before their outer product: neither it nor the scale then leaves the double range
    scale = math.prod([1.0 / math.sqrt(a_states[0].params.alpha)] * a.coefs.shape[0])
    a_amp = _amps_at(a.amp, a.freqs, t) * scale
    b_amp = (a_amp if b is a else _amps_at(b.amp, b.freqs, t) * scale).conj()
    factors = _factors(a, b, grams(a, b))
    for rows in _row_tiles(a.owner, len(b.slot)):
        prod = np.multiply.outer(a_amp[rows], b_amp)
        prod *= np.equal.outer(a.slot[rows], b.slot)
        for factor in factors:
            prod *= factor(rows)
        np.add.at(out, (a.owner[rows, None], b.owner[None, :]), prod.real)
    return out


def _factors(a: _Side, b: _Side, grams: list) -> list:
    """Per dimension k, a function of a slice of a rows giving their block of
    A_k G_k B_k^H, G_k = grams[k] a block of a Gram of the phi_n, or None for
    the identity.

    Between two single-level sides this is a gather: their rows are their
    values times unit vectors at their levels, so the block is
    values_a G_k[levels_a, levels_b] conj(values_b), in that order, the
    identity's entries being [levels_a == levels_b].  Any other pair of sides
    is multiplied out from the left, (A_k G_k) B_k^H, or A_k B_k^H over the
    narrower side's width for the identity.
    """
    if a.levels is None or b.levels is None:
        def multiplied(ak, g, bk):
            if g is None:
                w = min(ak.shape[1], bk.shape[1])
                ak, bh = ak[:, :w], bk[:, :w].conj().T
                return lambda rows: ak[rows] @ bh
            ak, bh = ak[:, :g.shape[0]], bk[:, :g.shape[1]].conj().T
            return lambda rows: ak[rows] @ g @ bh
        return [multiplied(ak, g, bk) for ak, g, bk in zip(a.coefs, grams, b.coefs)]

    def gathered(la, va, g, lb, vb):
        def factor(rows):
            block = np.equal.outer(la[rows], lb) if g is None else g.take(la[rows], axis=0).take(lb, axis=1)
            block = va[rows, None] * block
            block *= vb
            return block
        return factor
    return [gathered(*args) for args in zip(a.levels, a.values, grams, b.levels, b.values.conj())]


def moment_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> from the coefficients.

    The Hermite functions are orthonormal, so per dimension the integral of
    one mode factor against another is the dot product of their coefficients:
    A B^H, the Gram of the phi_n being the identity.  Between two
    single-level sides that is a gather, [l_a == l_b] times the values;
    otherwise one complex matmul per dimension over the narrower side's width
    (past it, that side's coefficients are 0); see _factors.  Each side is
    made once, as in _mode_gram.
    """
    return _mode_gram(a_states, b_states, t, lambda a, b: [None] * len(a.coefs))


def inner(a: WaveState, b: WaveState, t: float = 0.0) -> float:
    """Real inner product from the Hermite-function coefficients; the 1x1
    case of moment_gram (a state passed as both is one side)."""
    states = [a]
    return float(moment_gram(states, states if b is a else [b], t)[0, 0])


def inner_quad(a: WaveState, b: WaveState, t: float = 0.0,
               rules: list[QuadratureRule] | None = None) -> float:
    """Real inner product by Gauss-Hermite quadrature, one rule per dimension
    (by default the exact one); the 1x1 case of quad_gram (a state passed as
    both is one side)."""
    states = [a]
    return float(quad_gram(states, states if b is a else [b], t, rules)[0, 0])


def quad_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0,
              rules: list[QuadratureRule] | None = None) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> by Gauss-Hermite quadrature,
    one rule per dimension: by default order deg // 2 + 1, exact for the
    dimension's largest product degree deg; a given rule too coarse for it warns.

    The Hermite functions are evaluated pointwise on each dimension's nodes
    by their recurrence.  The Gaussian envelopes of the two states supply
    exactly the Hermite weight, so the rule integrates the polynomial part
    of Sc(a * conj(b)); on the tensor-product grid that sum factors into one
    node sum per dimension, A G B^H with G the rule's Gram matrix of the
    Hermite functions (_rule_gram, made once per rule and width), its block
    of the two sides' widths.  Each side is made once, as in _mode_gram; the
    default orders read its row lengths, found here alone (_slot_widths).
    """
    if not (a_states or b_states):
        return np.zeros((0, 0))
    dims = (a_states or b_states)[0].dims
    if rules is not None and len(rules) != dims:
        raise ValueError(f"need {dims} quadrature rules, got {len(rules)}")
    for r in rules or ():
        if r.kind != "gauss_hermite":
            raise ValueError(f"inner_quad requires gauss_hermite rules, got {r.kind!r}")
    def grams(a, b):
        # rows in different slots never meet, so the degree is taken per slot
        wa = _slot_widths(a)
        wb = wa if b is a else _slot_widths(b)
        out = []
        for k in range(dims):
            deg = max((wa[s][k] + wb[s][k] - 2 for s in (0, 1) if wa[s][k] and wb[s][k]), default=0)
            rule = make_rule("gauss_hermite", deg // 2 + 1) if rules is None else rules[k]
            if deg > 2 * rule.order - 1:
                warnings.warn(
                    f"quadrature order {rule.order} in dimension {k} is below the "
                    f"product degree {deg}; result may be inexact",
                    QuadratureOrderWarning, stacklevel=4)
            na, nb = max(1, wa[0][k], wa[1][k]), max(1, wb[0][k], wb[1][k])
            out.append(_rule_gram(rule, max(na, nb), _hermite_functions)[:na, :nb])
        return out

    return _mode_gram(a_states, b_states, t, grams)


@functools.lru_cache(maxsize=32)
def _rule_gram(rule: QuadratureRule, width: int, hermite_functions) -> np.ndarray:
    """The rule's Gram matrix of phi_n, n < width, on its nodes (the identity when
    exact), read-only; per rule, width and recurrence, as quad_gram passes the
    _hermite_functions it finds, so a replaced recurrence is the one that runs."""
    h = hermite_functions(width, rule.nodes)
    (g := (h * rule.weights) @ h.T).setflags(write=False)
    return g


@np.errstate(over="ignore", invalid="ignore")  # an overflowing state fails the norm check instead
def _expectation(s: WaveState, t: float, check_norm: bool, terms: tuple) -> float:
    """<O s, s> for the normal form terms of O, from the state's per-dimension
    Gram factors G_k = A_k A_k^H (A_k its coefficient rows), with no O s built.

    One pass over the dimensions forms each G_k once.  A block of O's band
    table that touches one dimension k (each term of H or of a sum of ladders)
    puts F_k = banded(A_k) A_k^H, turned by i in slot 0 and -i in slot 1 for
    an odd right-i power, in place of G_k.  These blocks sum to
    P (F_0 G_1 ... G_(p-1) + G_0 F_1 G_2 ... + ...), elementwise, P the amplitude
    and slot matrix of _mode_gram, which the pass forms by the product rule:
    T <- T G_k + Q F_k, Q <- Q G_k, from T = 0 and Q = P; Q ends as the matrix
    whose entries sum to <s, s>, the norm that check_norm requires to be 1.
    A block touching several dimensions keeps a running product from P in the
    same pass, times F_k where it touches k and G_k elsewhere.  The real parts
    of T and of those products are summed by fsum (_exact_sum).
    """
    amps = _amps_at(s.amps, s.freqs, t) * math.prod([1.0 / math.sqrt(s.params.alpha)] * s.dims)  # as in _mode_gram
    pair = np.multiply.outer(amps, amps.conj()) * np.equal.outer(s.slots, s.slots)
    turn = np.where(s.slots == 0, 1j, -1j)[:, None]
    table = _band_table(terms, s.coefs.shape[2], _band_shift)
    singles = {k: parts for k, parts, rest in table if not rest}
    crosses = [({k0: parts, **{k: ((0, bands),) for k, bands in rest}}, pair.copy()) for k0, parts, rest in table if rest]
    total, head = np.zeros_like(pair), pair.copy()
    for k, c in enumerate(s.coefs):
        adjoint = c.conj().T

        def form(parts):
            forms = [(_banded(bands, c)[:, :c.shape[1]] @ adjoint, r) for r, bands in parts]
            return _summed([turn * f if r else f for f, r in forms])

        g = c @ adjoint
        total *= g
        if k in singles:
            total += head * form(singles[k])
        head *= g
        for touched, prod in crosses:
            prod *= form(touched[k]) if k in touched else g
    if check_norm:
        n = _exact_sum(head.real)
        if not abs(n - 1.0) <= NORM_CHECK_TOL:  # a NaN norm fails too
            raise ValueError(
                f"state norm^2 = {n!r} is not 1 within {NORM_CHECK_TOL}; "
                "pass check_norm=False to override")
    value = _exact_sum(np.concatenate([total.real.ravel()] + [prod.real.ravel() for _, prod in crosses]))
    if not math.isfinite(value):  # check_norm=False waives the norm check, not this one
        raise ValueError(f"expectation = {value!r} is not finite")
    return value


def _exact_sum(entries: np.ndarray) -> float:
    """fsum of the entries, correctly rounded; the exact zeros (rows in other
    slots, or orthogonal in some dimension) are dropped first, as they add nothing.
    Finite entries whose partial sums pass the float range, which fsum refuses
    with an OverflowError, sum to an infinity instead."""
    kept = entries[entries != 0].tolist()
    try:
        return math.fsum(kept)
    except OverflowError:
        return sum(kept)


def expectation(op: Operator, s: WaveState, t: float = 0.0, check_norm: bool = True) -> float:
    """Real expectation value <op> = <op s, s> on a normalized state.

    A banded bilinear form over the per-dimension Gram factors: each block of
    op's band table replaces the factors of the dimensions it touches, so no
    op s is built, and the norm is read from the same factors (_expectation).
    inner(apply(op, s), s, t) is the same number by the other order of work.
    """
    _check_dims(op, s)
    return _expectation(s, t, check_norm, op._terms)


def expectation_quaternionic(op: Operator, s: WaveState, t: float = 0.0,
                             check_norm: bool = True) -> tuple[float, float, float]:
    """Expectation of a quaternionic operator: (total, first, second).

    first is the plain expectation of op, second the expectation of the
    right-i companion (op | i); second vanishes for Hermitian operators.
    The companion's normal form is op's with each right-i power raised by
    one: right_i^2 = -1 negates the terms that had one.  Each normal form
    takes its own pass (_expectation); the first checks the norm.
    """
    _check_dims(op, s)
    turned = tuple((-c if r else c, r ^ 1, words) for c, r, words in op._terms)
    first = _expectation(s, t, check_norm, op._terms)
    second = _expectation(s, t, False, turned)
    return first + second, first, second


def time_derivative(s: WaveState) -> WaveState:
    """Exact time derivative: each mode amplitude picks up a factor i*nu."""
    return _from_columns(s.dims, s.slots, _scaled(s.amps * 1j, s.freqs), s.freqs, s.coefs, s.params)
