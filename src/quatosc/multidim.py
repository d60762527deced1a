"""Multi-dimensional oscillators: Cartesian products, split two-slot states,
spherical radial solutions and quaternionic spherical harmonics.

Cartesian product states multiply the per-direction two-slot states with
the quaternion (symplectic) product law

    (a0 + a1 j)(b0 + b1 j) = (a0 b0 - a1 conj(b1)) + (a0 b1 + a1 conj(b0)) j,

so reordering the factors changes pointwise values but neither the norm
nor the total energy.  The spherical families pair generalized Laguerre
radial profiles, or complex spherical harmonics, across the two slots with
a shared polarization angle.  A radial state is its labels; its inner
products and energies come from the half-line Gauss rule that makes them exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# is_parallel is unused here; the benchmark's tracer checks this binding.
from .quaternion import Quaternion, is_parallel  # noqa: F401
from .oscillator1d import GramMatrix, QPair, _family_gram, _sample_points, _slot_state, hamiltonian
from .specfun import DEGREE_CAP, _check_degree, _legendre_rows, laguerre, laguerre_norm_const, make_rule, sph_harm
from .wavestate import PhysicalParams, WaveState, _joined, _merged, expectation

__all__ = [
    "SplitSpec",
    "RadialState",
    "QSphericalHarmonic",
    "AngularState",
    "product_state",
    "split_state",
    "cartesian_energy",
    "radial_state",
    "radial_inner",
    "radial_gram",
    "radial_energy",
    "radial_ode_residual",
    "radial_energy_expectation",
    "qsph_harm",
    "angular_gram",
    "full_spherical_energy",
    "default_radial_grid",
]


# ---------------------------------------------------------------------------
# Cartesian sector

def product_state(factors: list[QPair], params: PhysicalParams | None = None) -> WaveState:
    """Left-to-right quaternion product of per-direction two-slot states;
    factor k oscillates along dimension k.  Each step multiplies every row a
    so far by both rows b of the next factor: slots add mod 2, and a slot-1 a
    conjugates b (z1 conj(w)), with a sign flip for a slot-1 b."""
    params = params or PhysicalParams()
    states = [_slot_state(((q.n,), (q.m,)), q.theta, params) for q in factors]
    if not states:
        raise ValueError("product_state needs at least one factor")
    first, *rest = states
    slots, amps, freqs, coefs = first.slots, first.amps, first.freqs, [first.coefs[0]]
    for f in rest:
        conj = (slots == 1)[:, None]
        sign = np.where(conj & (f.slots == 1), -1.0, 1.0)
        amps = (sign * amps[:, None] * np.where(conj, f.amps.conj(), f.amps)).ravel()
        freqs = (freqs[:, None] + np.where(conj, -f.freqs, f.freqs)).ravel()
        coefs = [c.repeat(2, axis=0) for c in coefs]
        coefs.append(np.where(conj[..., None], f.coefs[0].conj(), f.coefs[0]).reshape(-1, f.coefs.shape[2]))
        slots = (slots[:, None] ^ f.slots).ravel()
    return _merged(len(states), slots, amps, freqs, _joined([c[None] for c in coefs], 0), params)


@dataclass(frozen=True)
class SplitSpec:
    """Two-slot state whose slots oscillate along chosen dimension sets.

    slot0_dims and slot1_dims must jointly cover every dimension; they may
    overlap (dims = 1 with both sets {0} is the one-dimensional psi_nm).
    """

    dims: int
    slot0_dims: frozenset[int]
    slot1_dims: frozenset[int]
    n: int
    m: int
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slot0_dims", frozenset(self.slot0_dims))
        object.__setattr__(self, "slot1_dims", frozenset(self.slot1_dims))
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        _check_degree(self.n, "n")
        _check_degree(self.m, "m")
        full = frozenset(range(self.dims))
        if self.slot0_dims | self.slot1_dims != full:
            raise ValueError("slot0_dims and slot1_dims must jointly cover all dimensions")


def split_state(spec: SplitSpec, params: PhysicalParams | None = None) -> WaveState:
    """Build the split state: slot 0 oscillates at level n along slot0_dims,
    slot 1 at level m along slot1_dims; every other dimension carries the
    normalized ground Gaussian so the state stays unit norm.  A slot's energy,
    and so its time phase, is (len(dims_set) level + dims/2) hbar omega: each
    padded axis adds its zero-point hbar omega/2."""
    levels = tuple(tuple(level if k in dims_set else 0 for k in range(spec.dims))
                   for level, dims_set in ((spec.n, spec.slot0_dims), (spec.m, spec.slot1_dims)))
    return _slot_state(levels, spec.theta, params or PhysicalParams())


def cartesian_energy(state: WaveState, t: float = 0.0, check_norm: bool = True) -> float:
    """Expectation of the summed per-dimension Hamiltonians."""
    return expectation(hamiltonian(state.params, state.dims), state, t, check_norm=check_norm)


# ---------------------------------------------------------------------------
# radial sector

@dataclass(frozen=True)
class RadialState:
    """Spherical radial state, held as its labels: cos(theta) R_u in slot 0 and
    sin(theta) R_v in slot 1, R_u = N_u rho^l exp(-rho^2/2) L_u^(l+1/2)(rho^2)
    the unit radial function of level u under the measure rho^2 drho."""

    u: int
    v: int
    l: int
    theta: float = 0.0
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        for name in ("u", "v", "l"):
            _check_degree(getattr(self, name), name)

    def components(self, rho):
        """Symplectic components (z0, z1) at dimensionless radius
        rho = sqrt(mu omega/hbar) r; scalars or numpy arrays."""
        r0, r1 = _radial_values((self.u, self.v), self.l, np.asarray(rho, dtype=float))
        return math.cos(self.theta) * r0, math.sin(self.theta) * r1

    def evaluate(self, rho: float) -> Quaternion:
        """Quaternion value at dimensionless radius rho; the scalar case of components."""
        return Quaternion.from_symplectic(*self.components(rho))


def radial_state(u: int, v: int, l: int, theta: float = 0.0,
                 params: PhysicalParams | None = None) -> RadialState:
    return RadialState(u, v, l, theta, params or PhysicalParams())


def _envelope(levels, l: int, rho: np.ndarray) -> np.ndarray:
    """N_u rho^l exp(-rho^2/2) for each level u, one row per level, formed in log
    space so that l up to the cap stays finite; the levels share all but log N_u."""
    with np.errstate(divide="ignore"):
        log_power = l * np.log(np.abs(rho)) if l else 0.0
    log_n = np.reshape([math.log(laguerre_norm_const(u, l)) for u in levels], (-1, *[1] * rho.ndim))
    return np.sign(rho) ** l * np.exp(log_power - 0.5 * rho * rho + log_n)


def _radial_values(levels, l: int, rho: np.ndarray) -> np.ndarray:
    """R_u(rho) for each level u, one row per level, from one Laguerre pass."""
    return _envelope(levels, l, rho) * laguerre(levels, l + 0.5, rho * rho)


def _family_levels(states) -> tuple[int, list[int]]:
    """The shared angular momentum l and the sorted distinct levels of a family."""
    ls = {s.l for s in states}
    if len(ls) > 1:
        raise ValueError("radial inner products require equal angular momentum l")
    return max(ls, default=0), sorted({u for s in states for u in (s.u, s.v)})


def _spread(states, levels, t: np.ndarray) -> np.ndarray:
    """(2, states, points): cos(theta) R_u, sin(theta) R_v from the levels' rows t."""
    row = {u: i for i, u in enumerate(levels)}
    mix = np.array([[math.cos(s.theta) for s in states], [math.sin(s.theta) for s in states]])
    rows = np.array([[row[s.u] for s in states], [row[s.v] for s in states]], dtype=int)
    return mix.reshape(2, -1, 1) * t[rows.reshape(2, -1)]


def _exact_rule(top: int, l: int):
    """Half-line rule exact for R_u R_v and R_u H R_v, u, v <= top (degree 2 top + l in rho^2)."""
    return make_rule("half_line", top + l // 2 + 1)


def _radial_entries(a_states, b_states, radii=()) -> tuple[np.ndarray, np.ndarray]:
    """Real inner products <a_i, b_j> under rho^2 drho: T W T^T on the exact half-line
    rule, the family's distinct radial functions spread to the states' slots; and the
    a states' (2, states, radii) values at the given radii, from the same level pass."""
    l, levels = _family_levels((*a_states, *b_states))
    rule = _exact_rule(max(levels, default=0), l)
    t = _radial_values(levels, l, np.concatenate([rule.nodes, radii]))
    a, b = (_spread(s, levels, t[:, :rule.order]) for s in (a_states, b_states))
    entries = (a[0] * rule.weights) @ b[0].T + (a[1] * rule.weights) @ b[1].T
    return entries, _spread(a_states, levels, t[:, rule.order:])


def radial_inner(a: RadialState, b: RadialState) -> float:
    """Real inner product under the measure rho^2 drho, by exact quadrature."""
    return float(_radial_entries([a], [b])[0][0, 0])


def radial_gram(states: list[RadialState]) -> GramMatrix:
    """Gram matrix of radial states sharing one angular momentum l."""
    states = tuple(states)
    entries, values = _radial_entries(states, states, *_sample_points((0.3, 3.0)))
    return _family_gram(states, entries, [(s.u, s.v) for s in states], values)


def radial_energy(u: int, l: int, params: PhysicalParams | None = None) -> float:
    """Energy of one radial slot: (2u + l + 3/2) hbar omega."""
    params = params or PhysicalParams()
    if u < 0 or l < 0:
        raise ValueError("u and l must be non-negative")
    return (2.0 * u + l + 1.5) * params.energy_quantum


def default_radial_grid(count: int = 40):
    return np.linspace(0.15, 6.0, count)


def _radial_action(u: int, l: int, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_u and H R_u at rho > 0, H = -(d^2/drho^2 + (2/rho) d/drho)/2 + l(l+1)/(2 rho^2)
    + rho^2/2 in units of hbar omega.  With R = E L(s), E = N_u rho^l exp(-s/2), s = rho^2,
    H R = E ((l + 3/2) L - (2l + 3 - 2s) L' - 2s L''), L' = -L_(u-1)^(alpha+1), L'' = L_(u-2)^(alpha+2)."""
    s = rho * rho
    lg, minus_d1, d2 = (laguerre(u - k, l + 0.5 + k, s) if u >= k else 0.0 for k in range(3))
    env = _envelope([u], l, rho)[0]
    return env * lg, env * ((l + 1.5) * lg + (2.0 * l + 3.0 - 2.0 * s) * minus_d1 - 2.0 * s * d2)


def radial_ode_residual(state: RadialState, energies: tuple[float, float] | None = None,
                        grid=None) -> float:
    """Sup over grid and slots of the time-independent radial equation
    residual, each slot tested against its own energy (absolute units)."""
    params = state.params
    if energies is None:
        energies = (radial_energy(state.u, state.l, params),
                    radial_energy(state.v, state.l, params))
    if grid is None:
        grid = default_radial_grid()
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("radial grid must contain positive radii only")
    worst = 0.0
    for level, mix, energy in ((state.u, math.cos(state.theta), energies[0]),
                               (state.v, math.sin(state.theta), energies[1])):
        r, hr = _radial_action(level, state.l, grid)
        worst = max(worst, float(np.max(np.abs(mix * (hr - energy / params.energy_quantum * r)))))
    return worst


def radial_energy_expectation(state: RadialState) -> float:
    """Expectation of the radial Hamiltonian, sum over slots of mix^2 <R, H R> on the
    exact half-line rule; equals the slot-weighted energies for the solution families."""
    rule = _exact_rule(max(state.u, state.v), state.l)
    total = 0.0
    for level, mix in ((state.u, math.cos(state.theta)), (state.v, math.sin(state.theta))):
        r, hr = _radial_action(level, state.l, rule.nodes)
        total += mix * mix * float(np.dot(rule.weights, r * hr))
    return total * state.params.energy_quantum


# ---------------------------------------------------------------------------
# angular sector

@dataclass(frozen=True)
class QSphericalHarmonic:
    """Two-slot angular basis element: cos(theta) Y_l^m1 in slot 0 and
    sin(theta) Y_l^m2 in slot 1."""

    l: int
    m1: int
    m2: int
    theta: float = 0.0

    def __post_init__(self):
        _check_degree(self.l, "l")
        if abs(self.m1) > self.l or abs(self.m2) > self.l:
            raise ValueError(f"azimuthal indices out of range for l={self.l}")


@dataclass(frozen=True)
class AngularState:
    """Evaluable quaternionic angular function on the unit sphere.

    conjugate_slot1 switches the slot-1 component from Y_l^m2 to its
    complex conjugate; the Gram matrices below are insensitive to the
    choice, which the reports make visible.
    """

    spec: QSphericalHarmonic
    conjugate_slot1: bool = False

    def components(self, polar, azimuth):
        z0 = math.cos(self.spec.theta) * sph_harm(self.spec.l, self.spec.m1, polar, azimuth)
        y1 = sph_harm(self.spec.l, self.spec.m2, polar, azimuth)
        if self.conjugate_slot1:
            y1 = np.conj(y1)
        z1 = math.sin(self.spec.theta) * y1
        return z0, z1

    def evaluate(self, polar: float, azimuth: float) -> Quaternion:
        z0, z1 = self.components(polar, azimuth)
        return Quaternion.from_symplectic(complex(z0), complex(z1))


def qsph_harm(spec: QSphericalHarmonic, conjugate_slot1: bool = False) -> AngularState:
    return AngularState(spec, conjugate_slot1)


@lru_cache(maxsize=16)
def _azimuth_phases(az, top: int) -> np.ndarray:
    """exp(i k azimuth) on the rule's nodes, row k + top for |k| <= top; read-only."""
    (e := np.exp(1j * np.outer(np.arange(-top, top + 1), az.nodes))).setflags(write=False)
    return e


def angular_gram(specs: list[QSphericalHarmonic], n_polar: int = 64, n_azimuth: int = 128,
                 conjugate_slot1: bool = False) -> GramMatrix:
    """Gram matrix of quaternionic spherical harmonics over the full sphere,
    by Gauss-Legendre x uniform-azimuth quadrature.  Y_l^m(polar, azimuth) =
    Y_l^m(polar, 0) exp(i m azimuth) on a tensor-product rule, so each slot's
    node sum factors: Re sum_s (F_s W F_s^T) o (E_s V E_s^H), with F_s the real
    polar profiles and E_s the azimuth phases exp(+-i m azimuth) on the nodes.
    The Legendre rows of every state come from one pass per distinct |m| over
    the polar nodes and the parallelism test's sample angles together."""
    specs = tuple(specs)
    n = len(specs)
    gl, az = make_rule("gauss_legendre", n_polar), make_rule("uniform_periodic", n_azimuth)
    thetas, phis = _sample_points((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi))
    polar = np.concatenate([np.arccos(gl.nodes), thetas])
    x, sin = np.cos(polar), np.sin(polar)
    ms = np.array([[s.m1 for s in specs], [s.m2 for s in specs]], dtype=int)
    # the distinct (|m|, l) in one sort; one Legendre pass per run of equal |m|
    keys, slot_row = np.unique(np.abs(ms) * (DEGREE_CAP + 1) + [s.l for s in specs], return_inverse=True)
    orders, degrees = np.divmod(keys, DEGREE_CAP + 1)
    starts = np.flatnonzero(np.diff(orders, prepend=-1)).tolist() + [len(keys)]
    leg = np.concatenate([np.empty((0, len(x)))] + [_legendre_rows(int(orders[a]), degrees[a:b].tolist(), x, sin)
                                                    for a, b in zip(starts, starts[1:])])[slot_row.reshape(2, n)]
    leg *= ((-1.0) ** np.minimum(ms, 0))[..., None]  # Y_l^-m = (-1)^m conj(Y_l^m)
    mix = np.array([[math.cos(s.theta) for s in specs], [math.sin(s.theta) for s in specs]]).reshape(2, n, 1)
    # azimuth frequencies: Y_l^m carries exp(i m azimuth), conjugate_slot1 negates slot 1's
    freqs = ms * np.array([[1], [-1 if conjugate_slot1 else 1]])
    f = mix * leg[..., :n_polar]
    entries = np.zeros((n, n))
    top = int(np.abs(ms).max(initial=0))
    for fs, ks in zip(f, freqs):
        # one azimuth row per distinct frequency k, spread back to the states
        k, row = np.unique(ks, return_inverse=True)
        e = _azimuth_phases(az, top)[k + top]
        entries += (((fs * gl.weights) @ fs.T) * ((e * az.weights) @ e.conj().T)[np.ix_(row, row)]).real
    values = mix * (leg[..., n_polar:] * np.exp(1j * freqs[..., None] * phis))
    return _family_gram(specs, entries, [((s.l, s.m1), (s.l, s.m2)) for s in specs], values)


def full_spherical_energy(u: int, v: int, l: int, theta: float = 0.0,
                          params: PhysicalParams | None = None) -> float:
    """Energy of the full spherical state: slot-weighted radial energies
    cos^2(theta) E(u, l) + sin^2(theta) E(v, l); independent of the
    azimuthal indices."""
    params = params or PhysicalParams()
    c, s = math.cos(theta), math.sin(theta)
    return c * c * radial_energy(u, l, params) + s * s * radial_energy(v, l, params)
