"""Multi-dimensional oscillators: Cartesian products, split two-slot states,
spherical radial solutions and quaternionic spherical harmonics.

Cartesian product states multiply the per-direction two-slot states with
the quaternion (symplectic) product law

    (a0 + a1 j)(b0 + b1 j) = (a0 b0 - a1 conj(b1)) + (a0 b1 + a1 conj(b0)) j,

so reordering the factors changes pointwise values but neither the norm
nor the total energy.  The spherical families pair generalized Laguerre
radial profiles, or complex spherical harmonics, across the two slots with
a shared polarization angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# is_parallel is unused here; the benchmark's tracer checks this binding.
from .quaternion import Quaternion, is_parallel  # noqa: F401
from .oscillator1d import (GramMatrix, QPair, _embedded_factor, _family_gram, _sample_points,
                           hamiltonian)
from .specfun import (
    hermite_coeffs,
    hermite_norm_const,
    laguerre_coeffs,
    laguerre_norm_const,
    make_rule,
    radial_moment,
    sph_harm,
)
from .wavestate import Mode, PhysicalParams, WaveState, _weighted_products, expectation

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

def _mode_product(ma: Mode, mb: Mode) -> Mode:
    """Symplectic product of two modes (ma taken first)."""
    conj_b = ma.slot == 1
    sign = -1.0 if (ma.slot == 1 and mb.slot == 1) else 1.0
    slot = ma.slot ^ mb.slot
    cb = mb.coeff.conjugate() if conj_b else mb.coeff
    fb = -mb.freq if conj_b else mb.freq
    polys = []
    for pa, pb in zip(ma.polys, mb.polys):
        pb_eff = tuple(c.conjugate() for c in pb) if conj_b else pb
        polys.append(tuple(np.convolve(np.asarray(pa), np.asarray(pb_eff))))
    return Mode(slot, sign * ma.coeff * cb, tuple(polys), ma.freq + fb)


def product_state(factors: list[QPair], params: PhysicalParams | None = None) -> WaveState:
    """Left-to-right quaternion product of per-direction two-slot states;
    factor k oscillates along dimension k."""
    params = params or PhysicalParams()
    factors = tuple(factors)
    if not factors:
        raise ValueError("product_state needs at least one factor")
    dims = len(factors)
    modes = _embedded_factor(factors[0], 0, dims, params)
    for k in range(1, dims):
        fk = _embedded_factor(factors[k], k, dims, params)
        modes = tuple(_mode_product(ma, mb) for ma in modes for mb in fk)
    return WaveState(dims, modes, params).merged()


@dataclass(frozen=True)
class SplitSpec:
    """Two-slot state whose slots oscillate along chosen dimension sets.

    slot0_dims and slot1_dims must jointly cover every dimension; by
    default they must also be disjoint (pass allow_overlap to split_state
    to lift that).
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
        if self.n < 0 or self.m < 0:
            raise ValueError("quantum numbers must be non-negative")
        full = frozenset(range(self.dims))
        if self.slot0_dims | self.slot1_dims != full:
            raise ValueError("slot0_dims and slot1_dims must jointly cover all dimensions")


def split_state(spec: SplitSpec, params: PhysicalParams | None = None,
                allow_overlap: bool = False) -> WaveState:
    """Build the split state: slot 0 oscillates at level n along slot0_dims,
    slot 1 at level m along slot1_dims; every other dimension carries the
    normalized ground Gaussian so the state stays unit norm."""
    params = params or PhysicalParams()
    if not allow_overlap and spec.slot0_dims & spec.slot1_dims:
        raise ValueError("slot dimension sets overlap; pass allow_overlap=True to permit this")
    omega = params.omega
    a0 = hermite_norm_const(0, params)

    def slot_mode(slot, mix, level, dims_set, freq_sign):
        poly = tuple(complex(c) for c in hermite_coeffs(level))
        polys = tuple(poly if k in dims_set else (1.0 + 0j,) for k in range(spec.dims))
        coeff = mix
        for k in range(spec.dims):
            coeff *= hermite_norm_const(level, params) if k in dims_set else a0
        freq = freq_sign * len(dims_set) * (level + 0.5) * omega
        return Mode(slot, coeff, polys, freq)

    mode0 = slot_mode(0, math.cos(spec.theta), spec.n, spec.slot0_dims, -1.0)
    mode1 = slot_mode(1, math.sin(spec.theta), spec.m, spec.slot1_dims, +1.0)
    return WaveState(spec.dims, (mode0, mode1), params)


def cartesian_energy(state: WaveState, t: float = 0.0, check_norm: bool = True) -> float:
    """Expectation of the summed per-dimension Hamiltonians."""
    return expectation(hamiltonian(state.params, state.dims), state, t, check_norm=check_norm)


# ---------------------------------------------------------------------------
# radial sector

@dataclass(frozen=True)
class RadialState:
    """Spherical radial profile: rho^l exp(-rho^2/2) times slot-tagged
    Laguerre polynomials in rho^2, with mixing angle theta."""

    u: int
    v: int
    l: int
    theta: float = 0.0
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        if self.u < 0 or self.v < 0 or self.l < 0:
            raise ValueError("u, v and l must be non-negative")

    @cached_property
    def poly0(self) -> tuple[complex, ...]:
        n = laguerre_norm_const(self.u, self.l)
        return tuple(math.cos(self.theta) * n * complex(c)
                     for c in laguerre_coeffs(self.u, self.l + 0.5))

    @cached_property
    def poly1(self) -> tuple[complex, ...]:
        n = laguerre_norm_const(self.v, self.l)
        return tuple(math.sin(self.theta) * n * complex(c)
                     for c in laguerre_coeffs(self.v, self.l + 0.5))

    def evaluate(self, rho: float) -> Quaternion:
        """Quaternion value at dimensionless radius rho = sqrt(mu omega/hbar) r."""
        s = rho * rho
        common = rho ** self.l * math.exp(-0.5 * s)
        z0 = complex(np.polynomial.polynomial.polyval(s, np.asarray(self.poly0))) * common
        z1 = complex(np.polynomial.polynomial.polyval(s, np.asarray(self.poly1))) * common
        return Quaternion.from_symplectic(z0, z1)


def radial_state(u: int, v: int, l: int, theta: float = 0.0,
                 params: PhysicalParams | None = None) -> RadialState:
    return RadialState(u, v, l, theta, params or PhysicalParams())


def radial_inner(a: RadialState, b: RadialState) -> float:
    """Real inner product under the measure rho^2 drho, by exact moments."""
    if a.l != b.l:
        raise ValueError("radial inner product requires equal angular momentum l")
    terms = []
    for pa, pb in ((a.poly0, b.poly0), (a.poly1, b.poly1)):
        prod = np.convolve(np.asarray(pa), np.conj(np.asarray(pb)))
        terms.extend(float(c.real) * radial_moment(a.l + d) for d, c in enumerate(prod))
    return math.fsum(terms)


def radial_gram(states: list[RadialState], parallel_tol: float = 1e-10) -> GramMatrix:
    """Gram matrix of radial states sharing one angular momentum l."""
    states = tuple(states)
    if len({s.l for s in states}) > 1:
        raise ValueError("radial_gram requires all states to share l")
    n = len(states)
    entries = np.array([[radial_inner(a, b) for b in states] for a in states]).reshape(n, n)
    radii, = _sample_points((0.3, 3.0))
    values = [[s.evaluate(float(r)) for r in radii] for s in states]
    return _family_gram(states, entries, [(s.u, s.v) for s in states], values, 0.0, parallel_tol)


def radial_energy(u: int, l: int, params: PhysicalParams | None = None) -> float:
    """Energy of one radial slot: (2u + l + 3/2) hbar omega."""
    params = params or PhysicalParams()
    if u < 0 or l < 0:
        raise ValueError("u and l must be non-negative")
    return (2.0 * u + l + 1.5) * params.energy_quantum


def default_radial_grid(count: int = 40):
    return np.linspace(0.15, 6.0, count)


def _radial_derivative_polys(g, l):
    """Polynomials g1, g2 in s = rho^2 with R' = rho^(l-1) e^(-s/2) g1(s) and
    R'' = rho^(l-2) e^(-s/2) g2(s) for R = rho^l e^(-s/2) g(s)."""
    g = np.asarray(g, dtype=complex)

    def step(h, power):
        out = np.zeros(len(h) + 1, dtype=complex)
        out[: len(h)] += power * h           # power * h
        out[1:] -= h                          # - s h
        dh = np.arange(1, len(h)) * h[1:]
        out[1: len(h)] += 2.0 * dh            # + 2 s h'
        return out

    g1 = step(g, l)
    g2 = step(g1, l - 1)
    return g1, g2


def _radial_residual_poly(g, l, eps):
    """Residual polynomial r(s): the radial equation residual is
    rho^(l-2) e^(-s/2) r(s) at energy eps (in units of hbar omega)."""
    g = np.asarray(g, dtype=complex)
    g1, g2 = _radial_derivative_polys(g, l)
    r = np.zeros(len(g) + 2, dtype=complex)
    r[: len(g2)] -= 0.5 * g2
    r[: len(g1)] -= g1
    r[2: len(g) + 2] += 0.5 * g
    r[1: len(g) + 1] -= eps * g
    r[: len(g)] += 0.5 * l * (l + 1.0) * g
    return r


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
    for poly, energy in ((state.poly0, energies[0]), (state.poly1, energies[1])):
        eps = energy / params.energy_quantum
        r = _radial_residual_poly(poly, state.l, eps)
        s = grid * grid
        vals = np.abs(np.polynomial.polynomial.polyval(s, r)) * grid ** (state.l - 2) * np.exp(-0.5 * s)
        worst = max(worst, float(np.max(vals)))
    return worst


def radial_energy_expectation(state: RadialState) -> float:
    """Expectation of the radial Hamiltonian by exact moments; equals the
    slot-weighted energies for the exact solution families."""
    l = state.l
    terms = []
    for g in (state.poly0, state.poly1):
        h = _radial_residual_poly(g, l, 0.0)  # eps = 0 leaves the pure Hamiltonian action
        prod = np.convolve(h, np.conj(np.asarray(g, dtype=complex)))
        for d, c in enumerate(prod):
            if c == 0:
                continue
            terms.append(float(c.real) * radial_moment(l - 1 + d))
    return math.fsum(terms) * state.params.energy_quantum


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
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got {self.l}")
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


def _sphere_grid(n_polar: int, n_azimuth: int):
    gl = make_rule("gauss_legendre", n_polar)
    az = make_rule("uniform_periodic", n_azimuth)
    polar = np.arccos(gl.nodes)[:, None]
    azimuth = az.nodes[None, :]
    weights = gl.weights[:, None] * az.weights[None, :]
    return polar, azimuth, weights


def angular_gram(specs: list[QSphericalHarmonic], n_polar: int = 64, n_azimuth: int = 128,
                 conjugate_slot1: bool = False, parallel_tol: float = 1e-10) -> GramMatrix:
    """Gram matrix of quaternionic spherical harmonics over the full sphere,
    by Gauss-Legendre x uniform-azimuth quadrature."""
    specs = tuple(specs)
    n = len(specs)
    polar, azimuth, weights = _sphere_grid(n_polar, n_azimuth)
    w = weights.ravel()
    z0 = np.zeros((n, w.size), dtype=complex)
    z1 = np.zeros((n, w.size), dtype=complex)
    for i, spec in enumerate(specs):
        a, b = qsph_harm(spec, conjugate_slot1).components(polar, azimuth)
        z0[i] = np.broadcast_to(a, weights.shape).ravel()
        z1[i] = np.broadcast_to(b, weights.shape).ravel()
    entries = _weighted_products((z0, z1), (z0, z1), w)
    thetas, phis = _sample_points((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi))
    values = [[qsph_harm(spec, conjugate_slot1).evaluate(float(th), float(ph))
               for th, ph in zip(thetas, phis)] for spec in specs]
    return _family_gram(specs, entries, [((s.l, s.m1), (s.l, s.m2)) for s in specs], values,
                        0.0, parallel_tol)


def full_spherical_energy(u: int, v: int, l: int, theta: float = 0.0,
                          params: PhysicalParams | None = None) -> float:
    """Energy of the full spherical state: slot-weighted radial energies
    cos^2(theta) E(u, l) + sin^2(theta) E(v, l); independent of the
    azimuthal indices."""
    params = params or PhysicalParams()
    c, s = math.cos(theta), math.sin(theta)
    return c * c * radial_energy(u, l, params) + s * s * radial_energy(v, l, params)
