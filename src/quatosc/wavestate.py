"""Quaternionic wavefunctions as exact Gaussian-enveloped polynomial modes.

A WaveState is a finite sum of modes.  Each mode lives in one symplectic
slot (z0 or z1), carries a complex amplitude, one polynomial per dimension
in the dimensionless coordinates X_k = sqrt(mu*omega/hbar) x_k, and a real
time frequency nu giving the factor exp(i nu t).  The represented value is

    z_slot += coeff * exp(i nu t) * prod_k poly_k(X_k) * exp(-sum_k X_k^2 / 2)

and the quaternion value of the state is z0 + z1*j.  Because every state
is a polynomial times the shared Gaussian envelope, inner products reduce
to exact Gaussian moments; Gauss-Hermite quadrature provides a second,
independent evaluation of the same integrals.

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

import numpy as np

from .quaternion import Quaternion
from .specfun import QuadratureRule, _moment_table, make_rule

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
# polynomial helpers (coefficient tuples, ascending powers, complex)

def _ptrim(c: tuple[complex, ...]) -> tuple[complex, ...]:
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _pshift(c):
    """Multiply by the variable."""
    return (0j,) + tuple(c)


def _pderiv(c):
    if len(c) == 1:
        return (0j,)
    return tuple((k + 1) * c[k + 1] for k in range(len(c) - 1))


def _pscale(c, z):
    return tuple(z * x for x in c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, x in enumerate(b):
        out[k] += x
    return tuple(out)


def _is_zero_poly(c) -> bool:
    return all(x == 0 for x in c)


# ---------------------------------------------------------------------------
# states

@dataclass(frozen=True)
class Mode:
    """One Gaussian-enveloped polynomial term of a WaveState."""

    slot: int
    coeff: complex
    polys: tuple[tuple[complex, ...], ...]
    freq: float = 0.0

    def __post_init__(self):
        if self.slot not in (0, 1):
            raise ValueError(f"slot must be 0 or 1, got {self.slot}")
        if not (cmath.isfinite(self.coeff) and math.isfinite(self.freq)):
            raise ValueError("mode amplitude and frequency must be finite")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "polys", tuple(_ptrim(tuple(complex(x) for x in p)) for p in self.polys))


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
            if len(m.polys) != self.dims:
                raise ValueError(f"mode has {len(m.polys)} polynomials, state has {self.dims} dimensions")

    def evaluate(self, x, t: float = 0.0) -> Quaternion:
        return evaluate(self, x, t)

    def norm(self, t: float = 0.0) -> float:
        return math.sqrt(max(inner(self, self, t), 0.0))

    def merged(self) -> "WaveState":
        return WaveState(self.dims, _merge_modes(self.modes), self.params)

    def __add__(self, other: "WaveState") -> "WaveState":
        _check_compatible(self, other)
        return WaveState(self.dims, _merge_modes(self.modes + other.modes), self.params)

    def __sub__(self, other: "WaveState") -> "WaveState":
        return self + (-1.0) * other

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return WaveState(self.dims,
                             tuple(Mode(m.slot, m.coeff * c, m.polys, m.freq) for m in self.modes),
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


def _merge_modes(modes) -> tuple[Mode, ...]:
    """Combine like terms: exact key match on slot, frequency and the
    polynomials of every dimension past the first; amplitudes fold into the
    first-dimension polynomial, so evaluations are unchanged up to rounding."""
    groups: dict = {}
    order: list = []
    for m in modes:
        key = (m.slot, m.freq, m.polys[1:])
        if key not in groups:
            groups[key] = _pscale(m.polys[0], m.coeff)
            order.append(key)
        else:
            groups[key] = _padd(groups[key], _pscale(m.polys[0], m.coeff))
    out = []
    for key in order:
        slot, freq, rest = key
        poly0 = _ptrim(groups[key])
        if _is_zero_poly(poly0):
            continue
        out.append(Mode(slot, 1.0 + 0j, (poly0,) + rest, freq))
    return tuple(out)


def _padded(polys) -> np.ndarray:
    """Polynomial coefficient rows, zero-padded to the longest polynomial:
    a (rows, degree + 1) complex matrix."""
    out = np.zeros((len(polys), max(map(len, polys), default=1)), dtype=complex)
    for row, p in enumerate(polys):
        out[row, :len(p)] = p
    return out


def _stacked(states, t: float):
    """Every mode of the states, which must share dims and params, in order:
    owner state index, slot and amplitude at time t, and per dimension the
    padded polynomial matrix."""
    for s in states:
        _check_compatible(states[0], s)
    modes = [(i, m) for i, s in enumerate(states) for m in s.modes]
    owner = np.array([i for i, _ in modes], dtype=int)
    slot = np.array([m.slot for _, m in modes], dtype=int)
    freq = np.array([m.freq for _, m in modes], dtype=float)
    amp = np.array([m.coeff for _, m in modes], dtype=complex) * np.exp(1j * freq * t)
    return owner, slot, amp, [_padded([m.polys[k] for _, m in modes]) for k in range(states[0].dims)]


def _polypart(states, coords, t: float):
    """(z0, z1) of each state with the Gaussian envelope stripped, as
    (states, points) arrays; coords holds one array of X_k per dimension."""
    owner, slot, amp, polys = _stacked(states, t)
    terms = amp[:, None]
    for c, x in zip(polys, coords):
        terms = terms * np.polynomial.polynomial.polyval(x, c.T)
    z = np.zeros((2, len(states), coords[0].size), dtype=complex)
    np.add.at(z, (slot, owner), terms)
    return z[0], z[1]


def evaluate_points(states: list[WaveState], x, t: float = 0.0):
    """Symplectic components (z0, z1) of each state at each point and time t,
    as (states, points) complex arrays; x holds one position per row, (points,)
    or (points, dims)."""
    if not states:
        return tuple(np.zeros((2, 0, len(x)), dtype=complex))
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    if x.shape[1] != states[0].dims:
        raise ValueError(f"expected points of {states[0].dims} coordinates, got {x.shape[1]}")
    coords = list(states[0].params.alpha * x.T)
    envelope = np.exp(-0.5 * sum(v * v for v in coords))
    z0, z1 = _polypart(states, coords, t)
    return z0 * envelope, z1 * envelope


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
    """Exact symbolic action of an operator tree on a state."""
    k = op.kind
    if k == "mul_x":
        _check_dim(op, state)
        modes = tuple(_replace_poly(m, op.dim, _pshift(m.polys[op.dim])) for m in state.modes)
        return WaveState(state.dims, modes, state.params)
    if k == "d_dx":
        # product rule against the envelope: d/dX [p e^(-X^2/2)] = (p' - X p) e^(-X^2/2)
        _check_dim(op, state)
        modes = tuple(
            _replace_poly(m, op.dim, _padd(_pderiv(m.polys[op.dim]), _pscale(_pshift(m.polys[op.dim]), -1.0)))
            for m in state.modes)
        return WaveState(state.dims, modes, state.params)
    if k == "right_i":
        modes = tuple(Mode(m.slot, m.coeff * (1j if m.slot == 0 else -1j), m.polys, m.freq)
                      for m in state.modes)
        return WaveState(state.dims, modes, state.params)
    if k == "scale":
        return op.factor * state
    if k == "add":
        out = zero_state(state.dims, state.params)
        for child in op.children:
            out = out + apply(child, state)
        return out
    if k == "compose":
        out = state
        for child in reversed(op.children):
            out = apply(child, out)
        return out
    raise ValueError(f"unknown operator kind: {k!r}")


def _check_dim(op: Operator, state: WaveState) -> None:
    if not 0 <= op.dim < state.dims:
        raise ValueError(f"operator dimension {op.dim} out of range for a {state.dims}-dimensional state")


def _replace_poly(m: Mode, dim: int, poly) -> Mode:
    polys = list(m.polys)
    polys[dim] = poly
    return Mode(m.slot, m.coeff, tuple(polys), m.freq)


# ---------------------------------------------------------------------------
# inner products and expectations

def _hankel_contract(a: np.ndarray, b: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """A H B^H in long double: entry (p, q) is sum_ij a_pi conj(b_qj) moments[i + j],
    for polynomial coefficient rows a and b."""
    hankel = moments[np.add.outer(np.arange(a.shape[1]), np.arange(b.shape[1]))]
    return (a.astype(np.clongdouble) @ hankel) @ b.astype(np.clongdouble).conj().T


def moment_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> by exact Gaussian moments.

    Per dimension, every mode polynomial of the a states contracts with every
    one of the b states through the Hankel matrix of moments (A H B^H, long
    double); the product over dimensions, weighted by amplitude, time phase
    and slot match, is summed over each state's modes.
    """
    states = [*a_states, *b_states]
    if not states:
        return np.zeros((0, 0))
    owner, slot, amp, polys = _stacked(states, t)
    a, b = owner < len(a_states), owner >= len(a_states)
    prod = np.ones((a.sum(), b.sum()), dtype=np.clongdouble)
    for c in polys:
        prod *= _hankel_contract(c[a], c[b], _moment_table(2 * c.shape[1] - 2))
    weight = np.multiply.outer(amp[a], amp[b].conj()) * np.equal.outer(slot[a], slot[b])
    out = np.zeros((len(a_states), len(b_states)), dtype=np.longdouble)
    np.add.at(out, (owner[a][:, None], owner[b][None, :] - len(a_states)), (prod * weight).real)
    return out.astype(float) * (1.0 / states[0].params.alpha) ** len(polys)


def inner(a: WaveState, b: WaveState, t: float = 0.0) -> float:
    """Real inner product, evaluated by exact Gaussian moments; the 1x1 case
    of moment_gram."""
    return float(moment_gram([a], [b], t)[0, 0])


def inner_quad(a: WaveState, b: WaveState, t: float = 0.0,
               rules: list[QuadratureRule] | None = None) -> float:
    """Real inner product by Gauss-Hermite quadrature, one rule per dimension;
    the 1x1 case of quad_gram."""
    return float(quad_gram([a], [b], t, rules)[0, 0])


def _weighted_products(za, zb, w) -> np.ndarray:
    """Re sum_k w_k [z0a_k conj(z0b_k) + z1a_k conj(z1b_k)] for every pair of
    rows; za and zb are (z0, z1) pairs of (states, nodes) arrays."""
    (z0, z1), (y0, y1) = za, zb
    return ((z0 * w) @ y0.conj().T + (z1 * w) @ y1.conj().T).real


def quad_gram(a_states: list[WaveState], b_states: list[WaveState], t: float = 0.0,
              rules: list[QuadratureRule] | None = None) -> np.ndarray:
    """Matrix of real inner products <a_i, b_j> by Gauss-Hermite quadrature,
    one rule per dimension, evaluating each state once on the rules' grid.

    The Gaussian envelopes of the two states supply exactly the Hermite
    weight, so the integrand handed to the rule is the polynomial part of
    Sc(a * conj(b)).  Warns (without failing) when the rule order cannot
    integrate the largest product degree exactly.
    """
    states = [*a_states, *b_states]
    for s in states:
        _check_compatible(states[0], s)
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
            la = [len(m.polys[k]) for s in a_states for m in s.modes if m.slot == slot]
            lb = [len(m.polys[k]) for s in b_states for m in s.modes if m.slot == slot]
            if la and lb:
                deg = max(deg, max(la) + max(lb) - 2)
        if deg > 2 * rules[k].order - 1:
            warnings.warn(
                f"quadrature order {rules[k].order} in dimension {k} is below the "
                f"product degree {deg}; result may be inexact",
                QuadratureOrderWarning, stacklevel=2)
    grids = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    w = rules[0].weights
    for r in rules[1:]:
        w = np.multiply.outer(w, r.weights)
    coords = [g.ravel() for g in grids]
    za = _polypart(a_states, coords, t)
    zb = za if b_states is a_states else _polypart(b_states, coords, t)
    return _weighted_products(za, zb, w.ravel()) * (1.0 / states[0].params.alpha) ** dims


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
    modes = tuple(Mode(m.slot, m.coeff * 1j * m.freq, m.polys, m.freq) for m in s.modes)
    return WaveState(s.dims, modes, s.params)
