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
A _Family stacks its states' rows once for all its Grams and values.  Like
modes merge on normalized rows (see _merged), so scaled copies of one
function become one mode.

Operators are trees over X, d/dX, right multiplication by i and real
scaling.  Since right_i commutes with the other three and squares to -1 in
both slots, every tree has a normal form, cached on the Operator: a sum of
terms c (right_i)^r W_0 W_1 ..., with one word W_k of X and d/dX per
dimension the term touches.  apply expands that form once per operator and
runs each word as band shifts of a state's coefficient matrix, all modes
at once.

The real inner product used throughout is the scalar part

    <a, b> = integral Sc(a * conj(b)) d^p x
           = integral Re[z0_a conj(z0_b) + z1_a conj(z1_b)] d^p x,

which is slot-diagonal and real by construction.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .quaternion import Quaternion
from .specfun import QuadratureRule, make_rule

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
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
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

    def merged(self) -> "WaveState":
        return _merged(self.dims, self.slots, self.amps, self.freqs, self.coefs, self.params)

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


def _joined(arrays, axis: int) -> np.ndarray:
    """(dims, modes, width) coefficient arrays joined along axis 0 or 1, each
    zero-padded to the widest."""
    shape = list(arrays[0].shape)
    shape[axis], shape[2] = sum(a.shape[axis] for a in arrays), max(a.shape[2] for a in arrays)
    out, index = np.zeros(shape, dtype=complex), [slice(None)] * 3
    start = 0
    for a in arrays:
        index[axis], index[2] = slice(start, start + a.shape[axis]), slice(a.shape[2])
        out[tuple(index)] = a
        start += a.shape[axis]
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
        rows = rest.transpose(1, 0, 2).reshape(len(slots), (dims - 1) * rest.shape[2]).view(float) + 0.0
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
    return owner, slots, amps, freqs, _joined([s.coefs for s in states], 1)


class _Family(tuple):
    """States whose modes are stacked once, on first use, then shared by every
    evaluation and Gram of the family (_Family(f) is f).  The stack is a pure,
    read-only function of immutable states, so a family is as safe to share
    as they are."""

    def __new__(cls, states=()):
        return states if type(states) is cls else super().__new__(cls, states)

    @cached_property
    def stack(self) -> tuple:
        stack = _stacked(self)
        for a in stack:
            a.setflags(write=False)
        return stack


def _stacked_at(states, t: float) -> tuple:
    """_stacked(states), made once per _Family, with the amplitudes at time t."""
    owner, slots, amps, freqs, coefs = states.stack if isinstance(states, _Family) else _stacked(states)
    return owner, slots, amps * np.exp(1j * freqs * t) if t else amps, freqs, coefs


def _hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) exp(x^2/2) for n < count, as the rows of a (count, points) array.

    Normalized three-term recurrence (Bunck, BIT 49 (2009)):
    h_0 = pi^(-1/4), h_1 = sqrt(2) x h_0 and
    h_(n+1) = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_(n-1); no factorials,
    no cancellation of large monomial terms.  One point steps a Python float
    (same operations, same values) to spare numpy's per-call cost.
    """
    if x.size == 1:
        x, h = x.item(), [0.0] * count
    else:
        h = np.empty((count, x.size))
    h[0] = math.pi ** -0.25
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(1, count - 1):
        h[n + 1] = math.sqrt(2.0 / (n + 1)) * x * h[n] - math.sqrt(n / (n + 1)) * h[n - 1]
    return np.asarray(h).reshape(count, -1)


_CONTRACT_ELEMENTS = 1 << 20  # bounds evaluate_points' products of coefficients and values


def evaluate_points(states: list[WaveState], x, t: float = 0.0):
    """Symplectic components (z0, z1) of each state at each point and time t,
    as (states, points) complex arrays; x holds one position per row, (points,)
    or (points, dims).  Each point's sums run alone and in one order, so its
    values do not depend on the other points evaluated with it."""
    if not states:
        return tuple(np.zeros((2, 0, len(x)), dtype=complex))
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    if x.shape[1] != states[0].dims:
        raise ValueError(f"expected points of {states[0].dims} coordinates, got {x.shape[1]}")
    coords = states[0].params.alpha * x.T
    owner, slot, amp, _, coefs = _stacked_at(states, t)
    terms = amp[:, None]
    step = max(1, _CONTRACT_ELEMENTS // max(1, coefs[0].size))  # points per block of the product below
    for c, xk in zip(coefs, coords):
        h = _hermite_functions(c.shape[1], xk).T.astype(complex)
        # (modes, points, width) in C order: each point's sum over the width is one contiguous run
        parts = [np.multiply(c[:, None, :], h[i:i + step], order="C").sum(axis=2) for i in range(0, len(h), step)]
        terms = terms * (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))
    z = np.zeros((2, len(states), len(x)), dtype=complex)
    np.add.at(z, (slot, owner), terms)
    r2 = functools.reduce(np.add, (xk * xk for xk in coords))  # in dimension order, whatever the points
    return tuple(z * np.exp(-0.5 * r2))


def evaluate(state: WaveState, x, t: float = 0.0) -> Quaternion:
    """Quaternion value of the state at position x (scalar or p-vector) and
    time t; the one-point case of evaluate_points."""
    z0, z1 = evaluate_points([state], np.reshape(np.asarray(x, dtype=float), (1, -1)), t)
    return Quaternion.from_symplectic(z0[0, 0], z1[0, 0])


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
        touches.  Like terms are combined and zero terms dropped.  The form is
        symbolic: no coefficient array is cached.
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
    """Exact action of an operator on a state, from the operator's normal form.

    In each term c (right_i)^r W_0 W_1 ... of op._terms, a word W is a run of
    band shifts of all the state's coefficients, and r = 1 turns amplitudes
    by i in slot 0 and -i in slot 1.  The terms that touch one dimension k (or
    none: dimension 0) are summed, amplitudes folded in, into one new row of
    dimension k per mode, so a one-dimensional state keeps at most its number
    of modes, without a merge.  In more dimensions the blocks of rows are
    merged once (_merged): H_k turns phi_n into a scaled copy, which merges
    back into its mode.  Shifts are computed afresh on every call; only the
    symbolic terms are cached.
    """
    for d in op._dims:
        if not 0 <= d < state.dims:
            raise ValueError(f"operator dimension {d} out of range for a {state.dims}-dimensional state")
    if not len(state.slots):
        return state
    shifted = {(): state.coefs}
    weights: dict = {}  # (r, word) -> {dimension: coefficient} of the one-dimension terms
    blocks = []  # per block of output rows, the new coefficient matrix of each dimension it replaces
    for c, r, words in op._terms:
        if len(words) <= 1:
            # a scalar term (no word) scales the factor of dimension 0
            k, w = words[0] if words else (0, ())
            weights.setdefault((r, w), {})[k] = c
        else:
            (k0, w0), *rest = words
            blocks.append({k0: _turned(state, r) * (c * _word(shifted, w0)[k0]),
                           **{k: _word(shifted, w)[k] for k, w in rest}})
    if weights:
        parts: dict = {}
        for (r, w), by_dim in weights.items():
            c = np.array([by_dim.get(k, 0.0) for k in range(state.dims)])[:, None, None]
            parts.setdefault(r, []).append(c * _word(shifted, w))
        total = _summed([_turned(state, r) * _summed(p) for r, p in parts.items()])
        blocks[:0] = [{k: total[k]} for k in sorted({k for by_dim in weights.values() for k in by_dim})]
    if not blocks:
        return zero_state(state.dims, state.params)
    if state.dims == 1:
        return _nonzero(1, state.slots, state.freqs, blocks[0][0][None], state.params)
    coefs = _joined([_joined([b.get(k, c)[None] for k, c in enumerate(state.coefs)], 0) for b in blocks], 1)
    return _merged(state.dims, np.tile(state.slots, len(blocks)), np.ones(coefs.shape[1], dtype=complex),
                   np.tile(state.freqs, len(blocks)), coefs, state.params)


def _turned(state: WaveState, r: int) -> np.ndarray:
    """The state's amplitudes as a column, times (right_i)^r: i in slot 0, -i in slot 1."""
    amps = state.amps * np.where(state.slots == 0, 1j, -1j) if r else state.amps
    return amps[:, None]


def _word(shifted: dict, w: tuple) -> np.ndarray:
    """The coefficients of every dimension after the band shifts of word w,
    in application order.  shifted maps words to arrays already built in
    this call, so a prefix shared by several words is shifted once."""
    if w not in shifted:
        shifted[w] = _band_shift(_word(shifted, w[:-1]), w[-1])
    return shifted[w]


def _summed(parts: list[np.ndarray]) -> np.ndarray:
    """Sum of coefficient arrays that differ only in width, each zero-padded to the widest."""
    if len(parts) == 1:
        return parts[0]
    total = np.zeros(parts[0].shape[:-1] + (max(p.shape[-1] for p in parts),), dtype=complex)
    for p in parts:
        total[..., :p.shape[-1]] += p
    return total


@cache
def _band_weights(n: int, upper_sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower band of _band_shift on n coefficients, read-only."""
    root = np.sqrt(0.5 * np.arange(1, n + 1))  # root[k] = sqrt((k+1)/2)
    (upper := upper_sign * root).setflags(write=False)
    root.setflags(write=False)
    return upper, root[:n - 1]


def _band_shift(c: np.ndarray, upper_sign: float) -> np.ndarray:
    """Hermite-function coefficients of X f (upper_sign +1) or d/dX f
    (upper_sign -1) for f = sum_n c_n phi_n, along the last axis of c:
    X phi_n = sqrt(n/2) phi_(n-1) + sqrt((n+1)/2) phi_(n+1), and d/dX is the
    same with the upper band negated."""
    n = c.shape[-1]
    upper, lower = _band_weights(n, upper_sign)
    out = np.zeros(c.shape[:-1] + (n + 1,), dtype=complex)
    np.multiply(upper, c, out=out[..., 1:])
    out[..., :n - 1] += lower * c[..., 1:]
    return out


# ---------------------------------------------------------------------------
# inner products and expectations

def _mode_gram(a_states, b_states, t: float, contract) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j>, one factor per dimension.

    contract(A, B, slot_a, slot_b) yields, for the (dims, modes, width)
    coefficients A of the a modes and B of the b modes, in the slots slot_a
    and slot_b, per dimension k the (a modes, b modes) matrix of integrals
    over X_k of each a factor times the conjugated b factor.  Their product
    over dimensions, weighted by amplitude, time phase and slot match, is
    summed over each state's modes.  A family compared with itself
    (b_states is a_states) is stacked once and passed as both A and B.
    """
    states = a_states if b_states is a_states else [*a_states, *b_states]
    if not states:
        return np.zeros((0, 0))
    owner, slot, amp, _, coefs = _stacked_at(states, t)
    if b_states is a_states:
        rows = cols = slice(None)
        col_owner = owner
    else:
        na = np.searchsorted(owner, len(a_states))  # the a states' modes come first
        rows, cols = slice(None, na), slice(na, None)
        col_owner = owner[cols] - len(a_states)
    prod = np.multiply.outer(amp[rows], amp[cols].conj()) * np.equal.outer(slot[rows], slot[cols])
    a = coefs[:, rows]
    for factor in contract(a, a if cols is rows else coefs[:, cols], slot[rows], slot[cols]):
        prod *= factor
    out = np.zeros((len(a_states), len(b_states)))
    np.add.at(out, (owner[rows, None], col_owner[None, :]), prod.real)
    return out * (1.0 / states[0].params.alpha) ** len(coefs)


def moment_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> from the coefficients.

    The Hermite functions are orthonormal, so per dimension the integral of
    one mode factor against another is the dot product of their coefficients:
    one complex matmul A B^H per dimension for the whole family.
    """
    return _mode_gram(a_states, b_states, t, lambda a, b, *_: (ak @ bk.conj().T for ak, bk in zip(a, b)))


def inner(a: WaveState, b: WaveState, t: float = 0.0) -> float:
    """Real inner product from the Hermite-function coefficients; the 1x1
    case of moment_gram."""
    states = [a]
    return float(moment_gram(states, states if b is a else [b], t)[0, 0])


def inner_quad(a: WaveState, b: WaveState, t: float = 0.0,
               rules: list[QuadratureRule] | None = None) -> float:
    """Real inner product by Gauss-Hermite quadrature, one rule per dimension;
    the 1x1 case of quad_gram."""
    return float(quad_gram([a], [b], t, rules)[0, 0])


def quad_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0,
              rules: list[QuadratureRule] | None = None) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> by Gauss-Hermite quadrature,
    one rule per dimension.

    The Hermite functions are evaluated pointwise on each dimension's nodes
    by their recurrence.  The Gaussian envelopes of the two states supply
    exactly the Hermite weight, so the rule integrates the polynomial part
    of Sc(a * conj(b)); on the tensor-product grid that sum factors into one
    node sum per dimension, A G B^H with G the rule's Gram matrix of the
    Hermite functions (_rule_gram, made once per rule and width).  Warns
    (without failing) when the rule order cannot integrate the largest
    product degree exactly.
    """
    states = [*a_states, *b_states]
    if not states:
        return np.zeros((0, 0))
    dims = states[0].dims
    if rules is None:
        rules = [make_rule("gauss_hermite", 64)] * dims
    if len(rules) != dims:
        raise ValueError(f"need {dims} quadrature rules, got {len(rules)}")
    for r in rules:
        if r.kind != "gauss_hermite":
            raise ValueError(f"inner_quad requires gauss_hermite rules, got {r.kind!r}")
    def contract(a, b, slot_a, slot_b):
        # rows in different slots never meet, so the degree is taken per slot
        wa = _slot_widths(a, slot_a)
        wb = wa if b is a else _slot_widths(b, slot_b)
        for k, rule in enumerate(rules):
            deg = max((wa[s][k] + wb[s][k] - 2 for s in (0, 1) if wa[s][k] and wb[s][k]), default=0)
            if deg > 2 * rule.order - 1:
                warnings.warn(
                    f"quadrature order {rule.order} in dimension {k} is below the "
                    f"product degree {deg}; result may be inexact",
                    QuadratureOrderWarning, stacklevel=4)
            width = max(1, wa[0][k], wa[1][k], wb[0][k], wb[1][k])
            yield a[k, :, :width] @ _rule_gram(rule, width, _hermite_functions) @ b[k, :, :width].conj().T

    return _mode_gram(a_states, b_states, t, contract)


@functools.lru_cache(maxsize=32)
def _rule_gram(rule: QuadratureRule, width: int, hermite_functions) -> np.ndarray:
    """The rule's Gram matrix of phi_n, n < width, on its nodes (the identity when
    exact), read-only; per rule, width and recurrence, as quad_gram passes the
    _hermite_functions it finds, so a replaced recurrence is the one that runs."""
    h = hermite_functions(width, rule.nodes)
    (g := (h * rule.weights) @ h.T).setflags(write=False)
    return g


def _slot_widths(coefs: np.ndarray, slots: np.ndarray) -> list[list[int]]:
    """Per slot, per dimension: the longest coefficient row up to its last
    nonzero coefficient, 0 in an empty slot."""
    nonzero = coefs != 0
    lengths = np.where(nonzero.any(axis=-1), coefs.shape[-1] - np.argmax(nonzero[..., ::-1], axis=-1), 0)
    return [np.where(slots == s, lengths, 0).max(axis=-1, initial=0).tolist() for s in (0, 1)]


def _require_normalized(s: WaveState, t: float, check_norm: bool) -> None:
    if not check_norm:
        return
    n = inner(s, s, t)
    if abs(n - 1.0) > NORM_CHECK_TOL:
        raise ValueError(
            f"state norm^2 = {n!r} is not 1 within {NORM_CHECK_TOL}; "
            "pass check_norm=False to override")


def expectation(op: Operator, s: WaveState, t: float = 0.0, check_norm: bool = True) -> float:
    """Real expectation value <op> = <op s, s> on a normalized state."""
    _require_normalized(s, t, check_norm)
    return inner(apply(op, s), s, t)


def expectation_quaternionic(op: Operator, s: WaveState, t: float = 0.0,
                             check_norm: bool = True) -> tuple[float, float, float]:
    """Expectation of a quaternionic operator: (total, first, second).

    first is the plain expectation of op, second the expectation of the
    right-i companion (op | i); second vanishes for Hermitian operators.
    """
    _require_normalized(s, t, check_norm)
    op_s = apply(op, s)
    first = inner(op_s, s, t)
    second = inner(apply(right_i(), op_s), s, t)
    return first + second, first, second


def time_derivative(s: WaveState) -> WaveState:
    """Exact time derivative: each mode amplitude picks up a factor i*nu."""
    return _from_columns(s.dims, s.slots, _scaled(s.amps * 1j, s.freqs), s.freqs, s.coefs, s.params)
