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
integrals.

Operators are trees over X, d/dX, right multiplication by i and real
scaling.  Since right_i commutes with the other three and squares to -1 in
both slots, every tree has a normal form, cached on the Operator: a sum of
terms c (right_i)^r W_0 W_1 ..., with one word W_k of X and d/dX per
dimension the term touches.  apply expands that form once per operator and
runs each word as band shifts on all of a state's modes at once, stacked in
one coefficient matrix per dimension.

The real inner product used throughout is the scalar part

    <a, b> = integral Sc(a * conj(b)) d^p x
           = integral Re[z0_a conj(z0_b) + z1_a conj(z1_b)] d^p x,

which is slot-diagonal and real by construction.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quaternion import Quaternion
from .specfun import QuadratureRule, make_rule

__all__ = [
    "PhysicalParams",
    "Mode",
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
        for name in ("mu", "omega", "hbar"):
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

@dataclass(frozen=True, eq=False)
class Mode:
    """One term of a WaveState: a slot, an amplitude, a time frequency and,
    per dimension, the coefficients of its factor in the orthonormal Hermite
    functions phi_n(X) = pi^(-1/4) (2^n n!)^(-1/2) H_n(X) exp(-X^2/2).

    coefs[k][n] weighs phi_n(X_k).  The arrays are shared between modes and
    states, so they must not be modified in place.
    """

    slot: int
    coeff: complex
    coefs: tuple[np.ndarray, ...]
    freq: float = 0.0

    def __post_init__(self):
        if self.slot not in (0, 1):
            raise ValueError(f"slot must be 0 or 1, got {self.slot}")
        if not (cmath.isfinite(self.coeff) and math.isfinite(self.freq)):
            raise ValueError("mode amplitude and frequency must be finite")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "coefs", tuple(np.asarray(c, dtype=complex) for c in self.coefs))


@dataclass(frozen=True)
class WaveState:
    """Immutable quaternionic wavefunction in p dimensions."""

    dims: int
    modes: tuple[Mode, ...]
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        object.__setattr__(self, "modes", tuple(self.modes))
        for m in self.modes:
            if len(m.coefs) != self.dims:
                raise ValueError(f"mode has {len(m.coefs)} factors, state has {self.dims} dimensions")

    @cached_property
    def _columns(self):
        """_mode_arrays of the state's modes, read-only, since they are shared."""
        slot, coeff, freq, coefs = _mode_arrays(self.modes, self.dims)
        for a in (slot, coeff, freq, *coefs):
            a.setflags(write=False)
        return slot, coeff, freq, coefs

    def evaluate(self, x, t: float = 0.0) -> Quaternion:
        return evaluate(self, x, t)

    def norm(self, t: float = 0.0) -> float:
        return math.sqrt(max(inner(self, self, t), 0.0))

    def merged(self) -> "WaveState":
        return WaveState(self.dims, _merge_modes(_raw(self.modes)), self.params)

    def __add__(self, other: "WaveState") -> "WaveState":
        _check_compatible(self, other)
        return WaveState(self.dims, _merge_modes(_raw(self.modes + other.modes)), self.params)

    def __sub__(self, other: "WaveState") -> "WaveState":
        return self + (-1.0) * other

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return WaveState(self.dims,
                             tuple(Mode(m.slot, m.coeff * c, m.coefs, m.freq) for m in self.modes),
                             self.params)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def zero_state(dims: int = 1, params: PhysicalParams | None = None) -> WaveState:
    return WaveState(dims, (), params or PhysicalParams())


def _check_compatible(a: WaveState, b: WaveState) -> None:
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if a.params != b.params:
        raise ValueError("states carry different physical parameters")


def _raw(modes):
    """Each mode as a (slot, coeff, coefs, freq) tuple, the input of _merge_modes."""
    return ((m.slot, m.coeff, m.coefs, m.freq) for m in modes)


def _merge_modes(terms) -> tuple[Mode, ...]:
    """Modes from (slot, coeff, coefs, freq) terms, like terms combined: exact
    key match on slot, frequency and the coefficients of every dimension past
    the first.  Amplitudes fold into the first dimension's coefficients, so
    evaluations are unchanged up to rounding; trailing zero coefficients are
    cut and a term that cancels to zero is dropped."""
    groups: dict = {}
    for slot, coeff, coefs, freq in terms:
        key = (slot, freq, tuple(tuple(c.tolist()) for c in coefs[1:]))
        groups.setdefault(key, (coefs[1:], []))[1].append(coeff * coefs[0])
    out = []
    for (slot, freq, _), (rest, terms) in groups.items():
        first = terms[0] if len(terms) == 1 else _padded(terms).sum(axis=0)
        n = len(first)
        while n and first[n - 1] == 0:
            n -= 1
        if n:
            out.append(Mode(slot, 1.0, (first[:n],) + rest, freq))
    return tuple(out)


def _padded(rows) -> np.ndarray:
    """Coefficient rows, zero-padded to the longest: a (rows, width) complex matrix."""
    out = np.zeros((len(rows), max(map(len, rows), default=1)), dtype=complex)
    for r, c in enumerate(rows):
        out[r, :len(c)] = c
    return out


def _mode_arrays(modes, dims: int):
    """Slot, amplitude and frequency arrays of the modes and, per dimension,
    their zero-padded (modes, width) coefficient matrix."""
    return (np.array([m.slot for m in modes], dtype=int),
            np.array([m.coeff for m in modes], dtype=complex),
            np.array([m.freq for m in modes], dtype=float),
            tuple(_padded([m.coefs[k] for m in modes]) for k in range(dims)))


def _stacked(states, t: float):
    """Every mode of the states, which must share dims and params, in order:
    owner state index, slot and amplitude at time t, and per dimension the
    padded coefficient matrix.  A single state's arrays are cached on it; a
    family is stacked in one pass over its modes, since its states are
    usually built for that one call."""
    for s in states:
        _check_compatible(states[0], s)
    if len(states) == 1:
        slot, coeff, freq, coefs = states[0]._columns
    else:
        slot, coeff, freq, coefs = _mode_arrays([m for s in states for m in s.modes], states[0].dims)
    owner = np.repeat(np.arange(len(states)), [len(s.modes) for s in states])
    return owner, slot, coeff * np.exp(1j * freq * t), coefs


def _hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) exp(x^2/2) for n < count, as the rows of a (count, points) array.

    Normalized three-term recurrence (Bunck, BIT 49 (2009)):
    h_0 = pi^(-1/4), h_1 = sqrt(2) x h_0 and
    h_(n+1) = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_(n-1); no factorials,
    no cancellation of large monomial terms.
    """
    h = np.empty((count, x.size))
    h[0] = math.pi ** -0.25
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(1, count - 1):
        h[n + 1] = math.sqrt(2.0 / (n + 1)) * x * h[n] - math.sqrt(n / (n + 1)) * h[n - 1]
    return h


def evaluate_points(states: list[WaveState], x, t: float = 0.0):
    """Symplectic components (z0, z1) of each state at each point and time t,
    as (states, points) complex arrays; x holds one position per row, (points,)
    or (points, dims)."""
    if not states:
        return tuple(np.zeros((2, 0, len(x)), dtype=complex))
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    if x.shape[1] != states[0].dims:
        raise ValueError(f"expected points of {states[0].dims} coordinates, got {x.shape[1]}")
    coords = states[0].params.alpha * x.T
    owner, slot, amp, coefs = _stacked(states, t)
    terms = amp[:, None]
    for c, xk in zip(coefs, coords):
        terms = terms * (c @ _hermite_functions(c.shape[1], xk))
    z = np.zeros((2, len(states), len(x)), dtype=complex)
    np.add.at(z, (slot, owner), terms)
    return tuple(z * np.exp(-0.5 * np.sum(coords * coords, axis=0)))


def evaluate(state: WaveState, x, t: float = 0.0) -> Quaternion:
    """Quaternion value of the state at position x (scalar or p-vector) and
    time t; the one-point case of evaluate_points."""
    z0, z1 = evaluate_points([state], [np.atleast_1d(x)], t)
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

    Each term c (right_i)^r W_0 W_1 ... of op._terms acts on every mode at
    once: the words W_k are band shifts of the state's stacked coefficient
    matrix in dimension k, and r = 1 turns the amplitude by i in slot 0 and
    -i in slot 1.  Terms that touch the same single dimension with the same
    r are summed as coefficient matrices before any mode is built, and the
    modes are merged once.  The shifted matrices are computed afresh on every
    call; only the symbolic terms are cached.
    """
    for d in op._dims:
        if not 0 <= d < state.dims:
            raise ValueError(f"operator dimension {d} out of range for a {state.dims}-dimensional state")
    if not state.modes:
        return state
    slot, coeff, _freq, coefs = state._columns
    shifted = {(k, ()): c for k, c in enumerate(coefs)}
    single: dict = {}
    blocks = []
    for c, r, words in op._terms:
        if len(words) <= 1:
            # a scalar term (no word) scales the factor of dimension 0
            k, w = words[0] if words else (0, ())
            single.setdefault((r, k), []).append(c * _word(shifted, k, w))
        else:
            (k0, w0), *rest = words
            blocks.append((r, {k0: c * _word(shifted, k0, w0), **{k: _word(shifted, k, w) for k, w in rest}}))
    for (r, k), parts in single.items():
        total = np.zeros((len(slot), max(p.shape[1] for p in parts)), dtype=complex)
        for p in parts:
            total[:, :p.shape[1]] += p
        blocks.append((r, {k: total}))

    amps = (coeff, coeff * np.where(slot == 0, 1j, -1j))
    terms = []
    for r, replaced in blocks:
        rows = {k: _trimmed_rows(a) for k, a in replaced.items()}
        for i, m in enumerate(state.modes):
            new = list(m.coefs)
            for k, rk in rows.items():
                new[k] = rk[i]
            if all(len(c) for c in new):
                terms.append((m.slot, amps[r][i], tuple(new), m.freq))
    return WaveState(state.dims, _merge_modes(terms), state.params)


def _word(shifted: dict, k: int, w: tuple) -> np.ndarray:
    """Dimension k's coefficient matrix after the band shifts of word w, in
    application order.  shifted maps (k, word) to matrices already built in
    this call, so a prefix shared by several words is shifted once."""
    if (k, w) not in shifted:
        shifted[k, w] = _band_shift(_word(shifted, k, w[:-1]), w[-1])
    return shifted[k, w]


def _trimmed_rows(a: np.ndarray) -> list[np.ndarray]:
    """Rows of a coefficient matrix with their trailing zeros cut; a row of
    zeros comes back empty."""
    nonzero = a != 0
    lengths = a.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    lengths[~nonzero.any(axis=1)] = 0
    return [row[:n] for row, n in zip(a, lengths.tolist())]


def _band_shift(c: np.ndarray, upper_sign: float) -> np.ndarray:
    """Hermite-function coefficients of X f (upper_sign +1) or d/dX f
    (upper_sign -1) for f = sum_n c_n phi_n, along the last axis of c:
    X phi_n = sqrt(n/2) phi_(n-1) + sqrt((n+1)/2) phi_(n+1), and d/dX is the
    same with the upper band negated."""
    n = c.shape[-1]
    root = np.sqrt(0.5 * np.arange(1, n + 1))  # root[k] = sqrt((k+1)/2)
    out = np.zeros(c.shape[:-1] + (n + 1,), dtype=complex)
    out[..., 1:] = upper_sign * root * c
    out[..., :n - 1] += root[:n - 1] * c[..., 1:]
    return out


# ---------------------------------------------------------------------------
# inner products and expectations

def _mode_gram(a_states, b_states, t: float, contract) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j>, one factor per dimension.

    contract(k, A, B) gives, for the coefficient rows A of the a modes and B
    of the b modes in dimension k, the (a modes, b modes) matrix of integrals
    over X_k of each a factor times the conjugated b factor.  Their product
    over dimensions, weighted by amplitude, time phase and slot match, is
    summed over each state's modes.  A family compared with itself
    (b_states is a_states) is stacked once and contracted with itself.
    """
    states = list(a_states) if b_states is a_states else [*a_states, *b_states]
    if not states:
        return np.zeros((0, 0))
    owner, slot, amp, coefs = _stacked(states, t)
    if b_states is a_states:
        rows = cols = slice(None)
        col_owner = owner
    else:
        na = np.searchsorted(owner, len(a_states))  # the a states' modes come first
        rows, cols = slice(None, na), slice(na, None)
        col_owner = owner[cols] - len(a_states)
    prod = np.multiply.outer(amp[rows], amp[cols].conj()) * np.equal.outer(slot[rows], slot[cols])
    for k, c in enumerate(coefs):
        prod *= contract(k, c[rows], c[cols])
    out = np.zeros((len(a_states), len(b_states)))
    np.add.at(out, (owner[rows, None], col_owner[None, :]), prod.real)
    return out * (1.0 / states[0].params.alpha) ** len(coefs)


def moment_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> from the coefficients.

    The Hermite functions are orthonormal, so per dimension the integral of
    one mode factor against another is the dot product of their coefficients:
    one complex matmul A B^H per dimension for the whole family.
    """
    return _mode_gram(a_states, b_states, t, lambda k, a, b: a @ b.conj().T)


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
    Hermite functions.  Warns (without failing) when the rule order
    cannot integrate the largest product degree exactly.
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
    for k in range(dims):
        deg = 0
        for slot in (0, 1):
            la = [len(m.coefs[k]) for s in a_states for m in s.modes if m.slot == slot]
            lb = [len(m.coefs[k]) for s in b_states for m in s.modes if m.slot == slot]
            if la and lb:
                deg = max(deg, max(la) + max(lb) - 2)
        if deg > 2 * rules[k].order - 1:
            warnings.warn(
                f"quadrature order {rules[k].order} in dimension {k} is below the "
                f"product degree {deg}; result may be inexact",
                QuadratureOrderWarning, stacklevel=2)

    def contract(k, a, b):
        # the rule's Gram matrix of the Hermite functions: the identity when exact
        h = _hermite_functions(a.shape[1], rules[k].nodes)
        return a @ ((h * rules[k].weights) @ h.T) @ b.conj().T

    return _mode_gram(a_states, b_states, t, contract)


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
    modes = tuple(Mode(m.slot, m.coeff * 1j * m.freq, m.coefs, m.freq) for m in s.modes)
    return WaveState(s.dims, modes, s.params)
