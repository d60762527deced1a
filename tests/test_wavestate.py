import gc
import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatosc import oscillator1d, wavestate
from quatosc.multidim import SplitSpec, cartesian_energy, product_state, split_state
from quatosc.oscillator1d import (QPair, _hamiltonian, _ladder, energy_nm, hamiltonian, ladder, momentum, psi_n, psi_nm,
                                  schrodinger_residual)
from quatosc.specfun import DEGREE_CAP, make_rule
from quatosc.wavestate import (
    PhysicalParams,
    QuadratureOrderWarning,
    WaveState,
    apply,
    d_dx,
    evaluate,
    evaluate_points,
    expectation,
    expectation_quaternionic,
    inner,
    inner_quad,
    moment_gram,
    mul_x,
    op_add,
    op_compose,
    quad_gram,
    right_i,
    scale,
    time_derivative,
    zero_state,
)

PI4 = math.pi ** -0.25


def bare_gaussian(params=None, slot=0, coeff=1.0 + 0j, freq=0.0):
    # exp(-X^2/2) = pi^(1/4) phi_0
    return WaveState(1, [slot], [coeff], [freq], [[[math.pi ** 0.25]]], params or PhysicalParams())


def random_eigenmode_combo(rng, n_max=8):
    """Real combination of the first oscillator eigenfunctions."""
    coeffs = rng.uniform(-1.0, 1.0, size=n_max + 1)
    coeffs /= np.linalg.norm(coeffs)
    state = zero_state()
    for n, c in enumerate(coeffs):
        state = state + float(c) * psi_n(n)
    return state


class TestPhysicalParams:
    def test_defaults(self):
        p = PhysicalParams()
        assert (p.mu, p.omega, p.hbar) == (1.0, 1.0, 1.0)
        assert p.alpha == 1.0

    @pytest.mark.parametrize("bad", [dict(mu=0.0), dict(omega=-1.0), dict(hbar=math.inf)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            PhysicalParams(**bad)

    def test_alpha_scaling(self):
        p = PhysicalParams(mu=2.0, omega=8.0, hbar=4.0)
        assert p.alpha == pytest.approx(2.0)


class TestEvaluate:
    def test_zero_state(self):
        z = zero_state()
        for x in (-2.0, 0.0, 1.5):
            assert abs(evaluate(z, x, 0.7)) == 0.0

    def test_ground_state_at_origin(self):
        q = evaluate(psi_n(0), 0.0, 0.0)
        assert q.x0 == pytest.approx(PI4, abs=1e-15)
        assert (q.x1, q.x2, q.x3) == (0.0, 0.0, 0.0)

    def test_slot_one_lands_on_j(self):
        s = bare_gaussian(slot=1)
        q = evaluate(s, 0.0, 0.0)
        assert (q.x0, q.x1, q.x3) == (0.0, 0.0, 0.0)
        assert q.x2 == pytest.approx(1.0)

    def test_method_is_the_function(self):
        s = psi_nm(QPair(3, 1, 0.6))
        assert s.evaluate(0.7, 0.2) == evaluate(s, 0.7, 0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(psi_n(0), [0.0, 1.0], 0.0)


class TestApply:
    def test_derivative_of_gaussian(self):
        # d/dX of the bare Gaussian leaves polynomial -X
        out = apply(d_dx(), bare_gaussian())
        for x in np.linspace(-2, 2, 9):
            want = -x * math.exp(-0.5 * x * x)
            assert evaluate(out, x).x0 == pytest.approx(want, abs=1e-14)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        s = psi_nm(QPair(3, 2, 0.9))
        ds = apply(d_dx(), s)
        h = 1e-5
        for x in rng.uniform(-3.0, 3.0, size=20):
            numeric = (evaluate(s, x + h, 0.4) - evaluate(s, x - h, 0.4)) * (0.5 / h)
            assert abs(evaluate(ds, x, 0.4) - numeric) <= 1e-7

    def test_right_i_twice_is_minus_one(self):
        s = psi_nm(QPair(1, 2, 0.6))
        twice = apply(right_i(), apply(right_i(), s))
        minus = apply(scale(-1.0), s)
        for x in (-1.0, 0.3, 2.0):
            assert abs(evaluate(twice, x, 0.8) - evaluate(minus, x, 0.8)) <= 1e-15

    @pytest.mark.parametrize("n", range(11))
    def test_eigenfunctions_of_hamiltonian(self, n):
        s = psi_n(n)
        residual = apply(hamiltonian(), s) - (n + 0.5) * s
        assert residual.norm() <= 1e-11

    def test_operator_dim_out_of_range(self):
        with pytest.raises(ValueError):
            apply(d_dx(1), psi_n(0))


class TestInner:
    def test_ground_state_normalized_any_time(self):
        s = psi_n(0)
        for t in (0.0, 1.3, -4.0):
            assert inner(s, s, t) == pytest.approx(1.0, abs=1e-14)

    def test_odd_parity_orthogonality(self):
        assert inner(psi_n(0), psi_n(1), 0.0) == 0.0

    def test_slot_orthogonality(self):
        a = bare_gaussian(slot=0, coeff=PI4)
        b = bare_gaussian(slot=1, coeff=PI4)
        assert inner(a, b, 0.7) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = random_eigenmode_combo(rng)
            b = random_eigenmode_combo(rng)
            t = rng.uniform(-2, 2)
            assert abs(inner(a, b, t) - inner(b, a, t)) <= 1e-13

    def test_positive_and_time_independent(self):
        rng = np.random.default_rng(5)
        s = random_eigenmode_combo(rng)
        base = inner(s, s, 0.0)
        assert base >= 0.0
        for t in rng.uniform(-5, 5, size=5):
            assert abs(inner(s, s, float(t)) - base) <= 1e-12

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_linear_in_real_scalings(self, c):
        a = psi_n(1)
        b = psi_nm(QPair(1, 0, 0.4))
        assert inner(c * a, b, 0.2) == pytest.approx(c * inner(a, b, 0.2), abs=1e-13)
        assert inner(a, c * b, 0.2) == pytest.approx(c * inner(a, b, 0.2), abs=1e-13)

    def test_params_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner(psi_n(0), psi_n(0, PhysicalParams(mu=2.0)), 0.0)

    def test_physical_units_jacobian(self):
        # normalization holds in physical units, not only natural ones
        p = PhysicalParams(mu=3.0, omega=0.5, hbar=2.0)
        assert inner(psi_n(4, p), psi_n(4, p), 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_zero_state_is_orthogonal_to_everything(self):
        assert inner(zero_state(), psi_nm(QPair(3, 2, 0.4)), 0.7) == 0.0


class TestMomentGram:
    @pytest.mark.parametrize("dims", [1, 2])
    def test_agrees_with_quad_gram(self, dims):
        rng = np.random.default_rng(11 + dims)

        def pair():
            return QPair(int(rng.integers(8)), int(rng.integers(8)), float(rng.uniform(0.0, 1.5)))

        states = [product_state([pair() for _ in range(dims)]) for _ in range(7)]
        rules = [make_rule("gauss_hermite", 24)] * dims
        for a_states in (states, states[:3]):
            moments = moment_gram(a_states, states, 0.6)
            assert moments.shape == (len(a_states), len(states))
            assert np.max(np.abs(moments - quad_gram(a_states, states, 0.6, rules))) <= 1e-12


class TestInnerQuad:
    def test_agrees_with_moments(self):
        rules = [make_rule("gauss_hermite", 64)]
        for n in range(11):
            s = psi_n(n)
            assert abs(inner_quad(s, s, 0.0, rules) - inner(s, s, 0.0)) <= 1e-10

    def test_zero_state(self):
        z = zero_state()
        assert inner_quad(z, z, 0.0) == 0.0

    def test_normalization_at_late_time(self):
        s = psi_n(2)
        assert inner_quad(s, s, 5.0) == pytest.approx(1.0, abs=1e-10)

    def test_insufficient_order_warns(self):
        s = psi_n(12)
        rules = [make_rule("gauss_hermite", 6)]
        with pytest.warns(QuadratureOrderWarning):
            inner_quad(s, s, 0.0, rules)

    def test_requires_hermite_rules(self):
        with pytest.raises(ValueError):
            inner_quad(psi_n(0), psi_n(0), 0.0, [make_rule("gauss_legendre", 16)])

    def test_requires_one_rule_per_dimension(self):
        with pytest.raises(ValueError):
            inner_quad(psi_n(0), psi_n(0), 0.0, [make_rule("gauss_hermite", 16)] * 2)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_default_rule_is_exact_for_the_family(self, dims):
        # without rules, dimension k takes the order top_k + 1, top_k the family's highest
        # level there: exact (no warning) and bit for bit that explicit rule, which
        # warns one order lower in any dimension
        rng = np.random.default_rng(40 + dims)
        labels = [[QPair(int(rng.integers(12)), int(rng.integers(12)), float(rng.uniform(0.2, 1.4)))
                   for _ in range(dims)] for _ in range(5)]
        states = [psi_nm(q[0]) if dims == 1 else product_state(q) for q in labels]
        orders = [max(max(q[k].n, q[k].m) for q in labels) + 1 for k in range(dims)]
        exact = [make_rule("gauss_hermite", order) for order in orders]
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureOrderWarning)
            derived = quad_gram(states, states, 0.4)
            assert np.array_equal(derived, quad_gram(states, states, 0.4, exact))
            part = quad_gram(states[:2], states, 0.4)
            assert np.max(np.abs(part - moment_gram(states[:2], states, 0.4))) <= 1e-12
        assert np.max(np.abs(derived - moment_gram(states, states, 0.4))) <= 1e-12
        for k in range(dims):
            short = [*exact[:k], make_rule("gauss_hermite", orders[k] - 1), *exact[k + 1:]]
            with pytest.warns(QuadratureOrderWarning, match=f"dimension {k} "):
                quad_gram(states, states, 0.4, short)

    def test_rule_gram_cached_per_rule_and_width(self):
        # rules of different order never share a cached Gram, nor does a narrower
        # width take a slice of a wider one: each is its own read-only matmul
        hf = wavestate._hermite_functions
        grams = {}
        for order in (10, 11):
            rule = make_rule("gauss_hermite", order)
            for width in (6, 11):
                g = wavestate._rule_gram(rule, width, hf)
                h = hf(width, rule.nodes)
                assert np.array_equal(g, (h * rule.weights) @ h.T) and not g.flags.writeable
                assert wavestate._rule_gram(rule, width, hf) is g
                grams[order, width] = g
        assert len({id(g) for g in grams.values()}) == 4
        # phi_10^2 has degree 20: exact at order 11, not at order 10
        assert np.abs(grams[11, 11] - np.eye(11)).max() <= 1e-12 < np.abs(grams[10, 11] - np.eye(11)).max()

    @pytest.mark.parametrize("count", [1, 3])
    def test_family_stack_is_read_only(self, count):
        # every Gram of the family shares its side, so none may write into it
        family = wavestate._Family([psi_nm(QPair(n, 2, 0.4)) for n in range(count)])
        assert family.side is family.side
        assert not any(a.flags.writeable for a in family.side)


class TestHighDegree:
    # every level up to DEGREE_CAP is verified, not only accepted
    @pytest.mark.parametrize("n", [100, 150, 200])
    def test_both_routes_normalized(self, n):
        s = psi_nm(QPair(n, n - 1, 0.7))
        assert abs(inner(s, s, 0.3) - 1.0) <= 1e-12
        assert abs(inner_quad(s, s, 0.3, [make_rule("gauss_hermite", n + 2)]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [100, 150, 200])
    def test_values_match_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            norm = 1 / mpmath.sqrt(mpmath.sqrt(mpmath.pi) * mpmath.mpf(2) ** n * mpmath.factorial(n))
            for x in (-5.9, -3.3, -0.45, 1.2, 2.7, 4.4, 6.0):
                big_x = mpmath.mpf(x)
                want = float(norm * mpmath.hermite(n, big_x) * mpmath.exp(-big_x * big_x / 2))
                assert evaluate(psi_n(n), x).x0 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [50, 120, 200])
    def test_position_square_matches_mpmath(self, n):
        # <X^2> = |X phi_n|^2, from the bands X phi_n = sqrt(n/2) phi_(n-1) + sqrt((n+1)/2) phi_(n+1)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = float(mpmath.sqrt(mpmath.mpf(n) / 2) ** 2 + mpmath.sqrt(mpmath.mpf(n + 1) / 2) ** 2)
        got = expectation(mul_x(0) * mul_x(0), psi_n(n), 0.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert want == n + 0.5


class TestExpectation:
    def test_position_odd(self):
        s = psi_nm(QPair(2, 3, 0.8))
        assert abs(expectation(mul_x(), s, 0.0)) <= 1e-14

    @pytest.mark.parametrize("n", range(6))
    def test_energy_eigenvalues(self, n):
        assert expectation(hamiltonian(), psi_n(n), 0.0) == pytest.approx(n + 0.5, abs=1e-12)

    def test_mixed_state_energy(self):
        s = psi_nm(QPair(1, 2, math.pi / 4))
        e = expectation(hamiltonian(), s, 0.0)
        assert e == pytest.approx(2.0, abs=1e-12)
        # quadrature oracle for the same number
        quad = inner_quad(apply(hamiltonian(), s), s, 0.0)
        assert abs(e - quad) <= 1e-10

    def test_rejects_unnormalized(self):
        s = 2.0 * psi_n(0)
        with pytest.raises(ValueError):
            expectation(mul_x(), s, 0.0)
        assert expectation(mul_x(), s, 0.0, check_norm=False) == pytest.approx(0.0, abs=1e-13)


class TestExpectationQuaternionic:
    @pytest.mark.parametrize("make_op", [hamiltonian, mul_x])
    def test_hermitian_second_term_vanishes(self, make_op):
        s = psi_nm(QPair(2, 1, 0.7))
        total, first, second = expectation_quaternionic(make_op(), s, 0.6)
        assert abs(second) <= 1e-10
        assert total == pytest.approx(first, abs=1e-10)

    def test_right_i_alone(self):
        total, first, second = expectation_quaternionic(right_i(), psi_n(0), 0.0)
        assert first == pytest.approx(0.0, abs=1e-14)
        assert second == pytest.approx(-1.0, abs=1e-14)
        assert total == pytest.approx(-1.0, abs=1e-14)


class TestTimeDerivative:
    def test_static_mode_gives_zero(self):
        s = bare_gaussian(freq=0.0)
        d = time_derivative(s)
        assert d.norm() == 0.0

    def test_slot0_phase_factor(self):
        for n in (0, 3):
            s = psi_n(n)
            d = time_derivative(s)
            z0, _ = evaluate(d, 0.7, 1.1).to_symplectic()
            w0, _ = evaluate(s, 0.7, 1.1).to_symplectic()
            assert z0 == pytest.approx(-1j * (n + 0.5) * w0, abs=1e-14)

    def test_slot1_phase_factor(self):
        s = psi_nm(QPair(0, 2, math.pi / 2))
        d = time_derivative(s)
        _, z1 = evaluate(d, 0.4, 0.9).to_symplectic()
        _, w1 = evaluate(s, 0.4, 0.9).to_symplectic()
        assert z1 == pytest.approx(1j * 2.5 * w1, abs=1e-14)

    def test_matches_finite_differences(self):
        s = psi_nm(QPair(2, 1, 0.5))
        d = time_derivative(s)
        h = 1e-6
        for x, t in [(-1.2, 0.0), (0.5, 2.2), (1.8, -0.7)]:
            numeric = (evaluate(s, x, t + h) - evaluate(s, x, t - h)) * (0.5 / h)
            assert abs(evaluate(d, x, t) - numeric) <= 1e-7


class TestLadderCommutator:
    def test_identity_action(self):
        lower, raise_ = ladder("lower"), ladder("raise")
        for n in range(21):
            s = psi_n(n)
            comm = apply(lower, apply(raise_, s)) - apply(raise_, apply(lower, s))
            assert (comm - s).norm() <= 1e-10


class TestAdditionAndMerge:
    def test_merge_preserves_evaluations(self):
        a = psi_nm(QPair(1, 0, 0.3))
        b = psi_nm(QPair(1, 2, 1.1))
        summed = a + b
        for x in np.linspace(-3, 3, 13):
            direct = evaluate(a, x, 0.8) + evaluate(b, x, 0.8)
            assert abs(evaluate(summed, x, 0.8) - direct) <= 1e-14

    def test_cancellation_produces_zero_state(self):
        s = psi_n(2)
        assert len((s - s).slots) == 0

    def test_mismatched_dims_rejected(self):
        one = psi_n(0)
        two = WaveState(2, [], [], [], np.zeros((2, 0, 1)), PhysicalParams())
        with pytest.raises(ValueError):
            one + two


def tree_walk(op, state):
    """Reference action of an operator tree: a recursive walk, one node at a
    time, building a new state at each node and merging modes at each add."""
    k = op.kind
    if k in ("mul_x", "d_dx"):
        if not 0 <= op.dim < state.dims:
            raise ValueError(f"operator dimension {op.dim} out of range")
        rows = []
        for r in range(len(state.slots)):
            coefs = [c[r] for c in state.coefs]
            coefs[op.dim] = wavestate._band_shift(coefs[op.dim], 1.0 if k == "mul_x" else -1.0)
            rows.append(coefs)
        return WaveState(state.dims, state.slots, state.amps, state.freqs, padded(rows, state.dims), state.params)
    if k == "right_i":
        amps = [a * (1j if slot == 0 else -1j) for slot, a in zip(state.slots, state.amps)]
        return WaveState(state.dims, state.slots, amps, state.freqs, state.coefs, state.params)
    if k == "scale":
        return op.factor * state
    if k == "add":
        out = zero_state(state.dims, state.params)
        for child in op.children:
            out = out + tree_walk(child, state)
        return out
    if k == "compose":
        out = state
        for child in reversed(op.children):
            out = tree_walk(child, out)
        return out
    raise ValueError(f"unknown operator kind: {k!r}")


def padded(rows, dims):
    """(dims, modes, width) columns of per-mode lists of per-dimension coefficient
    vectors, each cut after its last nonzero entry and zero-padded to the longest."""
    rows = [[np.trim_zeros(np.asarray(c), "b") for c in row] for row in rows]
    coefs = np.zeros((dims, len(rows), max([1] + [len(c) for row in rows for c in row])), dtype=complex)
    for r, row in enumerate(rows):
        for k, c in enumerate(row):
            coefs[k, r, :len(c)] = c
    return coefs


def random_state(rng, dims, modes):
    """Multi-mode state with random complex coefficient vectors of lengths 1-5;
    frequencies from a short list, so that some modes merge."""
    slots, amps, freqs, rows = [], [], [], []
    for _ in range(modes):
        slots.append(int(rng.integers(2)))
        amps.append(complex(*rng.normal(size=2)))
        rows.append([np.array((1.0, 1j)) @ rng.normal(size=(2, int(rng.integers(1, 6)))) for _ in range(dims)])
        freqs.append(float(rng.choice((-1.5, 0.5, 2.0))))
    return WaveState(dims, slots, amps, freqs, padded(rows, dims), PhysicalParams())


def operators(dims, depth):
    """Operator trees over dims dimensions, at most depth levels deep."""
    leaves = st.one_of(st.integers(0, dims - 1).map(mul_x), st.integers(0, dims - 1).map(d_dx),
                       st.just(right_i()),
                       st.floats(-2.0, 2.0, allow_subnormal=False).map(scale))
    if depth == 1:
        return leaves
    sub = operators(dims, depth - 1)
    return st.one_of(leaves,
                     st.lists(sub, min_size=1, max_size=3).map(lambda ops: op_add(*ops)),
                     st.lists(sub, min_size=1, max_size=2).map(lambda ops: op_compose(*ops)),
                     st.tuples(sub, st.integers(0, 2)).map(lambda p: p[0] ** p[1]))


def assert_same_values(a, b, rel):
    """a and b agree at 20 random points, within rel of b's largest value.
    Pointwise, since the norm of an unmerged difference carries the rounding
    of its cancelling cross terms under a square root."""
    points = np.random.default_rng(6).uniform(-2.5, 2.5, size=(20, b.dims))
    za, zb = evaluate_points([a], points, 0.7), evaluate_points([b], points, 0.7)
    scale_b = max(float(np.max(np.abs(z))) for z in zb)
    assert max(float(np.max(np.abs(x - y))) for x, y in zip(za, zb)) <= rel * scale_b


def assert_one_point_bits(s, points, t):
    """evaluate(s, x, t) at each point has the bytes of evaluate_points([s],
    points, t) there: the same values, zeros of the same sign."""
    z0, z1 = evaluate_points([s], points, t)
    for p, x in enumerate(points):
        q = evaluate(s, x, t)
        want = np.array([z0[0, p].real, z0[0, p].imag, z1[0, p].real, z1[0, p].imag])
        assert np.array([q.x0, q.x1, q.x2, q.x3]).tobytes() == want.tobytes(), (x, t)


def complex_product_values(s, points, t):
    """(z0, z1) of one state at (points, dims) points, its complex products
    formed by numpy's complex multiply: amplitude by time phase, by each
    dimension's sum (the recurrence summed in order of n), then the Gaussian."""
    coords = s.params.alpha * np.asarray(points, dtype=float).T
    terms = (s.amps * np.exp(1j * (s.freqs * t)))[:, None]
    for c, xk in zip(s.coefs, coords):
        re, im = np.zeros((len(c), len(xk))), np.zeros((len(c), len(xk)))
        for n, h in enumerate(wavestate._hermite_rows(c.shape[1], xk)):
            re += c[:, n, None].real * h
            im += c[:, n, None].imag * h
        sums = np.empty(re.shape, dtype=complex)
        sums.real, sums.imag = re, im
        terms = terms * sums
    z = np.zeros((2, len(coords[0])), dtype=complex)
    np.add.at(z, s.slots, terms)
    return z * np.exp(-0.5 * sum(xk * xk for xk in coords))


@st.composite
def operator_cases(draw):
    dims = draw(st.integers(1, 3))
    op = draw(operators(dims, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return op, random_state(rng, dims, draw(st.integers(0, 4))), random_state(rng, dims, 3)


class TestNormalForm:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operator_cases())
    def test_matches_tree_walk(self, case):
        op, s, probe = case
        got, want = apply(op, s), tree_walk(op, s)
        points = np.random.default_rng(5).uniform(-2.0, 2.0, size=(6, s.dims))
        got_z, want_z = evaluate_points([got], points, 0.3), evaluate_points([want], points, 0.3)
        scale_z = max(1.0, *(float(np.max(np.abs(z))) for z in want_z))
        for g, w in zip(got_z, want_z):
            assert np.max(np.abs(g - w)) <= 1e-12 * scale_z
        gram_got = moment_gram([got, s, probe], [got, s, probe], 0.3)
        gram_want = moment_gram([want, s, probe], [want, s, probe], 0.3)
        assert np.max(np.abs(gram_got - gram_want)) <= 1e-12 * max(1.0, np.max(np.abs(gram_want)))

    def test_right_i_squared_is_minus_one(self):
        rng = np.random.default_rng(21)
        for dims in (1, 2, 3):
            s = random_state(rng, dims, 5)
            assert_same_values(apply(right_i() ** 2, s), -s, 1e-15)
            assert_same_values(apply(right_i(), apply(right_i(), s)), -s, 1e-15)

    def test_difference_real_factor_and_negative_power(self):
        s = psi_nm(QPair(2, 3, 0.4))
        assert_same_values(apply(mul_x() - d_dx(), s), apply(mul_x(), s) - apply(d_dx(), s), 1e-15)
        assert_same_values(apply(mul_x() * 2.0, s), 2.0 * apply(mul_x(), s), 1e-15)
        with pytest.raises(ValueError, match="operator powers must be non-negative"):
            mul_x() ** -1

    def test_ladder_commutator_on_random_states(self):
        rng = np.random.default_rng(22)
        for dims in (1, 2, 3):
            s = random_state(rng, dims, 5)
            for k in range(dims):
                lower, raise_ = ladder("lower", k), ladder("raise", k)
                comm = apply(lower, apply(raise_, s)) - apply(raise_, apply(lower, s))
                assert_same_values(comm, s, 1e-13)
                assert_same_values(apply(op_add(lower * raise_, -(raise_ * lower)), s), s, 1e-13)

    @pytest.mark.parametrize("op", [d_dx(1), mul_x(-1), op_add(scale(2.0), mul_x(3)),
                                    scale(0.0) * d_dx(2), op_compose(op_add(), mul_x(5))])
    @pytest.mark.parametrize("state", [psi_n(0), zero_state()])
    def test_dim_out_of_range_raises(self, op, state):
        with pytest.raises(ValueError):
            apply(op, state)
        with pytest.raises(ValueError):
            tree_walk(op, state)

    @pytest.mark.parametrize("op", [scale(math.inf), scale(1e200) * scale(1e200) * mul_x(),
                                    op_add(mul_x(), scale(math.nan))])
    def test_non_finite_coefficient_raises(self, op):
        with pytest.raises(ValueError):
            apply(op, psi_n(1))
        with pytest.raises(ValueError):
            tree_walk(op, psi_n(1))

    def test_patched_band_shift_takes_effect_after_caching(self, monkeypatch):
        op = ladder("raise")
        s = psi_nm(QPair(2, 3, 0.4))
        before = apply(op, s)
        assert "_terms" in vars(op)  # the symbolic form is cached on the operator
        band_shift = wavestate._band_shift
        monkeypatch.setattr(wavestate, "_band_shift", lambda c, upper_sign: -band_shift(c, upper_sign))
        assert_same_values(apply(op, s), -before, 1e-15)

    def test_memoized_operators_are_shared(self):
        assert hamiltonian(PhysicalParams(), 3) is hamiltonian(PhysicalParams(), 3)
        assert ladder("raise") is ladder("raise", 0)

    @pytest.mark.parametrize("op, offsets", [(hamiltonian(), [0]), (ladder("raise"), [1]), (ladder("lower"), [-1])])
    def test_band_table_keeps_only_the_bands_that_survive(self, op, offsets):
        # the +-2 bands of H and the lower (upper) band of raise (lower) cancel when the table is built
        for n in range(1, 13):
            apply(op, psi_n(n))
            (k0, parts, rest), = wavestate._band_table(op._terms, n + 1, wavestate._band_shift)
            assert (k0, rest) == (0, ()) and [r for r, _ in parts] == [0]
            assert [d for d, _ in parts[0][1]] == offsets

    def test_band_tables_through_the_degree_cap_stay_small(self):
        ops = [hamiltonian(), ladder("raise"), ladder("lower")]
        table = wavestate._band_table
        table.cache_clear()  # so every table below is built here
        largest = 0
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(DEGREE_CAP + 1):
                s = psi_n(n)
                for op in ops:
                    apply(op, s)
                    largest = max(largest, table.cache_info().currsize)
            del s
            gc.collect()
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        info = table.cache_info()
        assert info.misses == 3 * (DEGREE_CAP + 1) and info.hits == 0
        assert largest == info.maxsize < 3 * (DEGREE_CAP + 1)  # full, never past its bound
        assert kept < 5e6
        assert peak < 20e6  # each build's working arrays are freed with it, not left for the collector

    def test_fresh_operator_takes_the_cached_table(self):
        # operators built per call, equal in normal form to shared ones, build no table of their own
        s = psi_n(5)
        for shared, fresh in ((hamiltonian(), _hamiltonian.__wrapped__(PhysicalParams(), 1)),
                              (ladder("raise"), _ladder.__wrapped__("raise", 0)), (mul_x(), mul_x())):
            want = apply(shared, s)
            before = wavestate._band_table.cache_info()
            got = apply(fresh, s)
            after = wavestate._band_table.cache_info()
            assert fresh is not shared
            assert after.hits == before.hits + 1 and after.misses == before.misses
            assert after.currsize == before.currsize
            for column in ("slots", "amps", "freqs", "coefs"):
                assert np.array_equal(getattr(got, column), getattr(want, column))

    def test_hamiltonian_expectation_on_eigenstates_stays_exact(self):
        # exact for the 179 levels n <= DEGREE_CAP outside this list, as before the banded tables;
        # on these the coefficient route lands one ulp off n + 1/2
        inexact = {0, 4, 12, 15, 29, 38, 39, 40, 51, 63, 104, 116, 118, 121, 126, 131, 160, 174, 184, 192, 193, 194}
        for n in range(DEGREE_CAP + 1):
            e = expectation(hamiltonian(), psi_n(n))
            if n in inexact:
                assert abs(e - (n + 0.5)) == math.ulp(n + 0.5)
            else:
                assert e == n + 0.5


def apply_route(op, s, t):
    """<op s, s> and <(op s) i, s> by building op s: the oracle of the band-form route."""
    op_s = apply(op, s)
    return inner(op_s, s, t), inner(apply(right_i(), op_s), s, t)


def bound(op, s, t):
    """|<op s, s>| <= |op s| |s|: the scale that rounding in either route is relative to.
    op is first divided by its largest coefficient m, so that a tiny one cannot take
    the squares in the norm below the double range."""
    m = max((abs(c) for c, _, _ in op._terms), default=0.0) or 1.0
    return m * apply(scale(1.0 / m) * op, s).norm(t) * s.norm(t)


class TestBandForm:
    # expectation reads <op s, s> from per-dimension Gram factors; apply then inner is the oracle

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operator_cases(), st.floats(-2.0, 2.0))
    def test_matches_the_apply_route(self, case, t):
        op, s, _probe = case
        want, want_i = apply_route(op, s, t)
        scale_ = bound(op, s, t)
        assert abs(expectation(op, s, t, check_norm=False) - want) <= 1e-12 * scale_
        total, first, second = expectation_quaternionic(op, s, t, check_norm=False)
        assert abs(first - want) <= 1e-12 * scale_
        assert abs(second - want_i) <= 1e-12 * scale_
        assert total == first + second

    @pytest.mark.parametrize("seed", range(6))
    def test_odd_right_i_power_is_turned_by_slot(self, seed):
        # momentum carries one right-i factor: i in slot 0, -i in slot 1; a flipped turn negates these values
        rng = np.random.default_rng(40 + seed)
        dims = 1 + seed % 3
        s = random_state(rng, dims, 4)
        for op in (momentum(dims - 1), op_add(*(momentum(k) for k in range(dims))) * mul_x(0),
                   right_i() * mul_x(0) * d_dx(dims - 1) + mul_x(dims - 1)):
            want, want_i = apply_route(op, s, 0.3)
            scale_ = bound(op, s, 0.3)
            assert abs(want) >= 1e-3 * scale_
            assert abs(expectation(op, s, 0.3, check_norm=False) - want) <= 1e-12 * scale_
            assert abs(expectation_quaternionic(op, s, 0.3, check_norm=False)[2] - want_i) <= 1e-12 * scale_

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 50])
    def test_products_of_many_factors(self, k):
        # at most three factors of theta != 0, so at most 8 modes
        rng = random.Random(k)
        factors = [QPair(rng.randint(0, 6), rng.randint(0, 6), rng.uniform(0.1, 1.4) if j < 3 else 0.0)
                   for j in range(k)]
        rng.shuffle(factors)
        s = product_state(factors)
        ops = [hamiltonian(s.params, k),
               op_add(*(ladder("raise", j) * ladder("lower", j) for j in range(k))),
               mul_x(0) * mul_x(k - 1) + d_dx(k // 2) * d_dx(k // 2)]
        for op in ops:
            want, want_i = apply_route(op, s, 0.8)
            scale_ = bound(op, s, 0.8)
            assert abs(expectation(op, s, 0.8) - want) <= 1e-12 * scale_
            assert abs(expectation_quaternionic(op, s, 0.8)[2] - want_i) <= 1e-12 * scale_
        assert expectation(ops[0], s, 0.8) == pytest.approx(sum(energy_nm(f) for f in factors), rel=1e-12)

    @pytest.mark.parametrize("form", [expectation, expectation_quaternionic])
    def test_norm_check(self, form):
        s = 1.001 * psi_nm(QPair(2, 1, 0.4))
        with pytest.raises(ValueError, match=r"^state norm\^2 = 1\.00200\d* is not 1 within 1e-08; "
                                             r"pass check_norm=False to override$"):
            form(hamiltonian(), s, 0.2)
        got = form(hamiltonian(), s, 0.2, check_norm=False)
        want = inner(apply(hamiltonian(), s), s, 0.2)
        assert (got if form is expectation else got[1]) == pytest.approx(want, rel=1e-14)

    def test_zero_state(self):
        s = zero_state(2)
        assert expectation(hamiltonian(s.params, 2), s, check_norm=False) == 0.0
        with pytest.raises(ValueError, match="norm"):
            expectation(hamiltonian(s.params, 2), s)

    def test_builds_no_state(self, monkeypatch):
        # the form reads the state's own columns: no op s, no inner product, no right_i() per call
        for name in ("apply", "inner", "moment_gram", "right_i", "_merged", "_joined"):
            monkeypatch.setattr(wavestate, name, None)
        q = QPair(3, 1, 0.6)
        assert expectation(hamiltonian(), psi_nm(q), 0.5) == pytest.approx(energy_nm(q), rel=1e-14)
        total, first, second = expectation_quaternionic(hamiltonian(), psi_nm(q), 0.5)
        assert first == pytest.approx(energy_nm(q), rel=1e-14) and abs(second) <= 1e-14

    def test_residual_builds_no_right_i(self, monkeypatch):
        monkeypatch.setattr(wavestate, "right_i", None)
        monkeypatch.setattr(oscillator1d, "right_i", None)
        assert schrodinger_residual(psi_nm(QPair(3, 1, 0.6)), t=0.4) <= 1e-12


class TestCrossBlocks:
    # (X_0 + ... + X_19)^2 holds one block per pair j < k of dimensions, 190 cross
    # blocks beside its 20 one-dimension blocks, all read in the one pass
    @staticmethod
    def product(thetas):
        """A 20-factor solution product, thetas of its factors with theta != 0: 2^thetas modes."""
        rng = random.Random(20 + thetas)
        factors = [QPair(rng.randint(0, 3), rng.randint(0, 3), rng.uniform(0.2, 1.3) if j < thetas else 0.0)
                   for j in range(20)]
        rng.shuffle(factors)
        return product_state(factors)

    @staticmethod
    def square():
        xs = op_add(*(mul_x(k) for k in range(20)))
        return xs * xs

    @pytest.mark.parametrize("thetas, modes", [(1, 2), (5, 32)])
    def test_match_the_apply_route(self, thetas, modes):
        s, square = self.product(thetas), self.square()
        assert len(s.slots) == modes
        table = wavestate._band_table(square._terms, s.coefs.shape[2], wavestate._band_shift)
        assert (len(table), sum(bool(rest) for _, _, rest in table)) == (210, 190)
        want = inner(apply(square, s), s, 0.6)
        assert abs(expectation(square, s, 0.6, check_norm=False) - want) <= 1e-12 * abs(want)
        # on a product state the X_j X_k blocks add nothing (each term in one slot meets its
        # like in the other with the opposite sign), but X_j^2 X_k^2 adds <X_j^2> <X_k^2> per mode,
        # so dropping the cross blocks, or their right-i factor, moves these values
        op = (square + mul_x(2) ** 2 * mul_x(5) ** 2 + momentum(3) * mul_x(11)
              + right_i() * (0.5 * square + mul_x(0) ** 2 * mul_x(7) ** 2 + mul_x(0) * d_dx(7)))
        want, want_i = apply_route(op, s, 0.6)
        total, first, second = expectation_quaternionic(op, s, 0.6)
        assert abs(first - want) <= 1e-12 * abs(want)
        assert abs(second - want_i) <= 1e-12 * abs(want_i)

    def test_memory(self):
        # 190 running (32, 32) complex products and their real parts; about 6.5 MB
        s, square = self.product(5), self.square()
        expectation(square, s, check_norm=False)  # the band table is cached from here on
        assert traced_peak(lambda: expectation(square, s, check_norm=False)) <= 8e6


def algebra_products(seed):
    """The 4-D product states of the state-algebra benchmark for one seed:
    levels 0..6 and 6 over four factors in a seeded order, random angles."""
    rng = random.Random(f"state-algebra:{seed}")
    states = []
    for _ in range(16):
        levels = rng.sample((0, 1, 2, 3, 4, 5, 6, 6), 8)
        states.append(product_state([QPair(levels[2 * k], levels[2 * k + 1], rng.uniform(0.0, 0.5 * math.pi))
                                     for k in range(4)]))
        rng.randint(0, 9), rng.uniform(0.0, 0.5 * math.pi), rng.uniform(0.0, 2.0)  # the rest of an op
    return states


class TestColumnStorage:
    @pytest.mark.parametrize("dims, slots, amps, freqs, coefs", [
        pytest.param(1, [2], [1.0], [0.0], np.ones((1, 1, 1)), id="slot-2"),
        pytest.param(1, [0, 1], [1.0, math.nan], [0.0, 0.0], np.ones((1, 2, 1)), id="nan-amplitude"),
        pytest.param(1, [1], [1.0], [math.inf], np.ones((1, 1, 1)), id="infinite-frequency"),
        pytest.param(2, [0], [1.0], [0.0], np.ones((1, 1, 3)), id="one-dimension-of-two"),
        pytest.param(1, [0, 1], [1.0, 1.0], [0.0, 0.0], np.ones((1, 1, 3)), id="one-row-for-two-modes"),
        pytest.param(1, [0], [1.0], [0.0], np.ones((1, 1, 0)), id="empty-row"),
        pytest.param(1, [0], [1.0, 2.0], [0.0], np.ones((1, 1, 1)), id="two-amplitudes-one-mode"),
        pytest.param(0, [], [], [], np.zeros((0, 0, 1)), id="dims-0"),
    ])
    def test_constructor_rejects_invalid_columns(self, dims, slots, amps, freqs, coefs):
        with pytest.raises(ValueError):
            WaveState(dims, slots, amps, freqs, coefs)

    def test_constructor_copies_and_freezes_its_columns(self):
        slots, amps, freqs, coefs = np.array([1, 0]), np.array([1.0, 2j]), np.array([0.5, -1.5]), np.ones((1, 2, 2))
        s = WaveState(1, slots, amps, freqs, coefs)
        assert s.params == PhysicalParams()
        for given, kept in zip((slots, amps, freqs, coefs), (s.slots, s.amps, s.freqs, s.coefs)):
            assert given.flags.writeable and not kept.flags.writeable and not np.shares_memory(given, kept)
            np.testing.assert_array_equal(given, kept)
        assert (s.slots.dtype, s.amps.dtype, s.freqs.dtype, s.coefs.dtype) == (int, complex, float, complex)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_one_point_evaluates_like_many(self, dims):
        rng = np.random.default_rng(30 + dims)
        for _ in range(5):
            s = random_state(rng, dims, 6)
            xs = rng.uniform(-2.5, 2.5, size=(9, dims))
            z0, z1 = evaluate_points([s], xs, 0.4)
            for p, x in enumerate(xs):
                q = evaluate(s, x, 0.4)
                assert (q.x0, q.x1) == (z0[0, p].real, z0[0, p].imag)
                assert (q.x2, q.x3) == (z1[0, p].real, z1[0, p].imag)

    @pytest.mark.parametrize("dims, width", [(1, 8), (1, 201), (2, 9), (2, 57), (3, 30), (4, 8), (4, 21)])
    @pytest.mark.parametrize("t", [0.0, 1.3])
    def test_one_point_evaluates_like_many_at_any_width(self, dims, width, t):
        rng = np.random.default_rng(50 + 7 * dims + width)
        modes = 5
        coefs = rng.normal(size=(dims, modes, width)) + 1j * rng.normal(size=(dims, modes, width))
        s = WaveState(dims, rng.integers(2, size=modes), rng.normal(size=modes) + 1j * rng.normal(size=modes),
                      rng.choice((-1.5, 0.5, 2.0), size=modes), coefs)
        xs = rng.uniform(-4.0, 4.0, size=(11, dims))
        z0, z1 = evaluate_points([s], xs, t)
        for p, x in enumerate(xs):
            q = evaluate(s, x, t)
            assert (q.x0, q.x1, q.x2, q.x3) == (z0[0, p].real, z0[0, p].imag, z1[0, p].real, z1[0, p].imag)

    @pytest.mark.parametrize("x", [0.7, [0.7], np.array(0.7), np.float64(0.7), np.array([0.7])])
    def test_one_point_takes_any_spelling_of_x(self, x):
        s = psi_nm(QPair(4, 9, 0.3))
        z0, z1 = evaluate_points([s], [0.7], 0.2)
        q = evaluate(s, x, 0.2)
        assert (q.x0, q.x1, q.x2, q.x3) == (z0[0, 0].real, z0[0, 0].imag, z1[0, 0].real, z1[0, 0].imag)

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [1, 8, 201])
    @pytest.mark.parametrize("t", [-2.1, 0.0, 1.3, 1e4])
    def test_one_point_bits_of_complex_products(self, dims, width, t):
        # complex amplitudes and coefficients: where numpy's complex multiply, an FMA
        # on some machines, would round otherwise than separate real operations
        rng = np.random.default_rng(1000 * dims + width)
        modes = 3
        s = WaveState(dims, rng.integers(2, size=modes), rng.normal(size=modes) + 1j * rng.normal(size=modes),
                      rng.choice((-1.5, 0.0, 0.5, 2.0), size=modes),
                      rng.normal(size=(dims, modes, width)) + 1j * rng.normal(size=(dims, modes, width)))
        # out to |X| = 30, where the Gaussian underflows to 0 in two or more dimensions,
        # while the product of the per-dimension sums (up to ~1e132 each at width 201) stays finite
        far = 30.0 if width < 201 or dims <= 2 else {3: 20.0, 4: 10.0}[dims]
        edges = far * rng.choice((-1.0, 1.0), size=(3, dims))
        points = np.concatenate([rng.uniform(-4.0, 4.0, size=(6, dims)), edges, rng.uniform(-far, far, size=(3, dims))])
        assert_one_point_bits(s, points, t)
        if dims >= 2 and far == 30.0:
            assert not any(z.any() for z in evaluate_points([s], edges, t))

    def test_one_point_bits_after_right_i_and_on_conjugated_rows(self):
        rng = np.random.default_rng(41)
        points = rng.uniform(-3.0, 3.0, size=(9, 3))
        turned = apply(right_i(), random_state(rng, 3, 5))
        # theta != 0 in every factor: both slots hold modes, and slot-1 rows enter conjugated
        product = product_state([QPair(1, 2, 0.4), QPair(3, 0, 1.1), QPair(2, 2, 0.7)])
        for state in (turned, product):
            for t in (0.0, 0.9, -2.1):
                assert_one_point_bits(state, points, t)

    def test_one_point_takes_integer_x(self):
        assert_one_point_bits(psi_nm(QPair(3, 4, 0.5)), [1, np.int64(-2)], 0.3)
        assert_one_point_bits(product_state([QPair(1, 2, 0.4), QPair(0, 1, 0.3)]), [[1, np.int64(-2)]], 0.3)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_values_against_complex_multiplies(self, seed):
        # real coefficients (every built state): numpy's complex products give the same values;
        # complex ones: they round apart by a few units in the last place
        rng = np.random.default_rng(seed)
        points = rng.uniform(-4.0, 4.0, size=(15, 4))
        built = [psi_nm(QPair(5, 2, 0.8)), oscillator1d.build_via_ladder(QPair(4, 5, 1.2)),
                 product_state([QPair(1, 2, 0.4), QPair(3, 0, 1.1), QPair(2, 2, 0.7), QPair(0, 1, 0.2)])]
        for s in built:
            for t in (0.0, 0.7):
                for got, want in zip(evaluate_points([s], points[:, :s.dims], t),
                                     complex_product_values(s, points[:, :s.dims], t)):
                    assert np.array_equal(got[0], want)
        s = random_state(rng, 3, 6)
        for t in (0.0, 0.7):
            got, want = evaluate_points([s], points[:, :3], t), complex_product_values(s, points[:, :3], t)
            scale = max(float(np.max(np.abs(z))) for z in want)
            assert max(float(np.max(np.abs(g[0] - w))) for g, w in zip(got, want)) <= 64 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_or_t_is_named(self, bad):
        s, product = psi_nm(QPair(2, 3, 0.4)), product_state([QPair(1, 2, 0.4), QPair(0, 1, 0.3)])
        for call in (lambda: evaluate(s, bad, 0.3), lambda: evaluate(product, [0.5, bad], 0.3),
                     lambda: evaluate(product, [bad, 0.5], 0.3), lambda: evaluate_points([s], [0.5, bad], 0.3),
                     lambda: evaluate_points([product], [[0.5, 0.1], [0.2, bad]], 0.3)):
            with pytest.raises(ValueError, match="x must be finite"):
                call()
        for call in (lambda: evaluate(s, 0.5, bad), lambda: evaluate_points([s], [0.5], bad),
                     lambda: evaluate_points([], [0.5], bad)):
            with pytest.raises(ValueError, match="t must be finite"):
                call()

    def test_x_whose_square_overflows_is_named(self):
        s = psi_nm(QPair(2, 3, 0.4))
        for x in (1e200, -1e155):
            with pytest.raises(ValueError, match="x is too far out"):
                evaluate(s, x)
            with pytest.raises(ValueError, match="x is too far out"):
                evaluate_points([s], [0.0, x])
        # alpha scales x first: 1e150 is near enough at alpha = 1, too far at alpha = 1e5
        gaussian, wider = bare_gaussian(), bare_gaussian(PhysicalParams(mu=1e10))
        assert abs(evaluate(gaussian, 1e150)) == 0.0
        assert not evaluate_points([gaussian], [1e150])[0].any()
        with pytest.raises(ValueError, match="x is too far out"):
            evaluate(wider, 1e150)
        with pytest.raises(ValueError, match="x is too far out"):
            evaluate_points([wider], [1e150])

    def test_no_points_and_the_shape_of_x(self):
        s, product = psi_nm(QPair(2, 3, 0.4)), product_state([QPair(1, 2, 0.4), QPair(0, 1, 0.3)])
        for state, x in ((s, []), (product, []), (product, np.empty((0, 2)))):
            for z in evaluate_points([state], x, 0.3):
                assert z.shape == (1, 0) and z.dtype == complex
        for states in ([s], []):
            for x in (0.3, np.array(0.3), np.zeros((2, 1, 1))):
                with pytest.raises(ValueError, match=r"\(points,\) or \(points, dims\)"):
                    evaluate_points(states, x)

    @pytest.mark.parametrize("dims", [1, 3])
    def test_zero_state_evaluates_to_zero(self, dims):
        q = evaluate(zero_state(dims), [0.4] * dims, 0.9)
        assert (q.x0, q.x1, q.x2, q.x3) == (0.0, 0.0, 0.0, 0.0)
        for z in evaluate_points([zero_state(dims)], [[0.4] * dims] * 2):
            assert np.array_equal(z, np.zeros((1, 2)))

    def test_one_point_rejects_the_wrong_coordinate_count(self):
        with pytest.raises(ValueError, match="expected points of 2 coordinates, got 3"):
            evaluate(zero_state(2), [0.1, 0.2, 0.3])

    def test_many_points_of_no_states_or_the_wrong_width(self):
        for z in evaluate_points([], [0.1, 0.2, 0.3]):
            assert z.shape == (0, 3)
        with pytest.raises(ValueError, match="expected points of 2 coordinates, got 3"):
            evaluate_points([zero_state(2)], [[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hamiltonian_keeps_product_modes(self, seed):
        # H_k maps phi_n to (n + 1/2) phi_n: a scaled copy, merged into the mode it came from
        for s in algebra_products(seed):
            assert len(s.slots) == 16
            assert len(apply(hamiltonian(s.params, 4), s).slots) == 16

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operator_cases())
    def test_one_dimensional_apply_adds_no_modes(self, case):
        op, s, _probe = case
        if s.dims == 1:
            assert len(apply(op, s).slots) <= len(s.slots)

    def test_modes_rebuild_the_same_state(self):
        rng = np.random.default_rng(33)
        points = rng.uniform(-2.5, 2.5, size=(7, 3))
        for dims in (1, 2, 3):
            s = random_state(rng, dims, 5)
            for state in (s, apply(ladder("raise", dims - 1) * mul_x(0), s), s + s, time_derivative(s)):
                again = WaveState(state.dims, state.slots, state.amps, state.freqs, state.coefs, state.params)
                for a, b in zip((state.slots, state.amps, state.freqs, state.coefs),
                                (again.slots, again.amps, again.freqs, again.coefs)):
                    assert a.dtype == b.dtype and not b.flags.writeable
                    np.testing.assert_array_equal(a, b)
                for a, b in zip(evaluate_points([state], points[:, :dims], 0.6),
                                evaluate_points([again], points[:, :dims], 0.6)):
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec", [SplitSpec(2, {0}, {1}, 2, 1, 0.6),
                                      SplitSpec(3, {0, 1}, {0, 2}, 2, 3, 0.7),
                                      SplitSpec(4, {0, 1, 2, 3}, {3}, 1, 4, 0.9)])
    def test_cancelling_difference_has_zero_norm(self, spec):
        # time_derivative keeps phi_n where H makes (n + 1/2) phi_n; merged on normalized
        # rows the two cancel, so the norm is not the root of a cancelling sum (~1e-8)
        s = split_state(spec)
        residual = apply(right_i(), time_derivative(s)) - apply(hamiltonian(s.params, spec.dims), s)
        assert residual.norm(0.3) <= 1e-14

    def test_columns_are_read_only(self):
        s = psi_nm(QPair(2, 3, 0.4))
        for a in (s.slots, s.amps, s.freqs, s.coefs):
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(AttributeError):
            s.dims = 2


class TestSelfGram:
    def test_equals_two_list_call(self):
        rng = np.random.default_rng(23)
        for dims in (1, 2):
            states = [random_state(rng, dims, 3) for _ in range(6)] + [psi_nm(QPair(4, 7, 0.3))] * (dims == 1)
            twin = list(states)
            assert np.max(np.abs(moment_gram(states, states, 0.4) - moment_gram(states, twin, 0.4))) <= 1e-15
            rules = [make_rule("gauss_hermite", 16)] * dims
            assert np.max(np.abs(quad_gram(states, states, 0.4, rules) - quad_gram(states, twin, 0.4, rules))) <= 1e-15

    def test_empty_family(self):
        family: list = []
        assert moment_gram(family, family).shape == (0, 0)
        assert quad_gram(family, family).shape == (0, 0)


class TestCrossGram:
    # each side is stacked at its own width: the moment route contracts over the narrower
    # one, the quadrature route takes the block of the rule's Gram for the two widths
    # per dims, the narrow and the wide side's factor labels; every factor after the
    # first has theta = 0, so the Gram is the product of the factors' 1-D closed forms
    LABELS = {
        1: ([(QPair(k, k, 0.0),) for k in range(3)],
            [(QPair(0, 40, 0.3),), (QPair(2, 17, 1.1),), (QPair(40, 1, 0.7),), (QPair(1, 0, 0.4),)]),
        2: ([(QPair(0, 2, 0.5), QPair(1, 1, 0.0)), (QPair(2, 0, 0.9), QPair(0, 0, 0.0))],
            [(QPair(0, 25, 0.8), QPair(1, 1, 0.0)), (QPair(2, 3, 0.9), QPair(30, 30, 0.0)),
             (QPair(2, 0, 1.2), QPair(0, 0, 0.0))]),
    }

    @classmethod
    def _sides(cls, dims):
        narrow, wide = cls.LABELS[dims]
        if dims == 1:
            return [psi_n(f[0].n) for f in narrow], [psi_nm(f[0]) for f in wide]
        return [product_state(f) for f in narrow], [product_state(f) for f in wide]

    @staticmethod
    def _closed(p, q):
        return math.prod(math.cos(a.theta) * math.cos(b.theta) * (a.n == b.n)
                         + math.sin(a.theta) * math.sin(b.theta) * (a.m == b.m) for a, b in zip(p, q))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_unequal_widths_match_entries_and_closed_form(self, dims):
        narrow, wide = self._sides(dims)
        assert narrow[0].coefs.shape[2] < wide[0].coefs.shape[2]
        rules = [make_rule("gauss_hermite", 45)] * dims
        sides = zip((narrow, wide), self.LABELS[dims])
        for (a_states, a_labels), (b_states, b_labels) in itertools.permutations(sides):
            want = np.array([[self._closed(p, q) for q in b_labels] for p in a_labels])
            with warnings.catch_warnings():
                warnings.simplefilter("error", QuadratureOrderWarning)
                for gram, entry, given in ((moment_gram, inner, ()), (quad_gram, inner_quad, ()),
                                           (quad_gram, inner_quad, (rules,))):
                    got = gram(a_states, b_states, 0.7, *given)
                    pairwise = np.array([[entry(a, b, 0.7, *given) for b in b_states] for a in a_states])
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - pairwise)) <= 1e-13
                    assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("dims", [1, 2])
    def test_one_empty_side(self, dims):
        states = self._sides(dims)[1]
        for gram in (moment_gram, quad_gram):
            assert gram([], states).shape == (0, len(states))
            assert gram(states, []).shape == (len(states), 0)
        # given rules are checked against the non-empty side
        for a_states, b_states in (([], states), (states, [])):
            with pytest.raises(ValueError, match="quadrature rules"):
                quad_gram(a_states, b_states, 0.0, [make_rule("gauss_hermite", 8)] * (dims + 1))
            with pytest.raises(ValueError, match="gauss_hermite"):
                quad_gram(a_states, b_states, 0.0, [make_rule("gauss_legendre", 8)] * dims)

    def test_each_side_stacked_once_per_object(self, monkeypatch):
        calls = []
        stacked = wavestate._stacked
        monkeypatch.setattr(wavestate, "_stacked", lambda states: calls.append(len(states)) or stacked(states))
        narrow, wide = self._sides(1)
        for gram in (moment_gram, quad_gram):
            calls.clear()
            gram(wide, wide, 0.4)
            assert calls == [len(wide)]
            calls.clear()
            gram(narrow, wide, 0.4)
            assert calls == [len(narrow), len(wide)]

    def test_sides_must_match(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            moment_gram([psi_n(0)], [product_state([QPair(0, 0, 0.0)] * 2)])
        with pytest.raises(ValueError, match="physical parameters"):
            quad_gram([psi_n(0), psi_n(1)], [psi_n(0, PhysicalParams(mu=2.0))])


def dense_gram(a_states, b_states, t=0.0, rules=None):
    """The Gram kernel written out densely, as one product over whole sides: per
    dimension A_k B_k^H, or A_k G_k B_k^H with G_k the block of rules[k]'s Gram
    of the phi_n for the two sides' widths, each a matmul; their product over
    dimensions summed into states by np.add.at."""
    a_owner, a_slot, a_amp, a_freqs, a = wavestate._stacked(a_states)
    b_owner, b_slot, b_amp, b_freqs, b = wavestate._stacked(b_states)
    if t:
        a_amp, b_amp = a_amp * np.exp(1j * a_freqs * t), b_amp * np.exp(1j * b_freqs * t)
    scale = math.prod([1.0 / math.sqrt(a_states[0].params.alpha)] * len(a))
    prod = np.multiply.outer(a_amp * scale, (b_amp * scale).conj()) * np.equal.outer(a_slot, b_slot)
    for k, (ak, bk) in enumerate(zip(a, b)):
        if rules is None:
            w = min(ak.shape[1], bk.shape[1])
            prod *= ak[:, :w] @ bk[:, :w].conj().T
        else:
            na, nb = (int(np.nonzero(c)[1].max()) + 1 for c in (ak, bk))
            g = wavestate._rule_gram(rules[k], max(na, nb), wavestate._hermite_functions)
            prod *= ak[:, :na] @ g[:na, :nb] @ bk[:, :nb].conj().T
    out = np.zeros((len(a_states), len(b_states)))
    np.add.at(out, (a_owner[:, None], b_owner[None, :]), prod.real)
    return out


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGramKernel:
    # between two single-level sides the per-dimension factor is a gather of the
    # rule's Gram (of the identity on the moment route), the product is formed
    # over row tiles of the a side, and neither may change a bit of the result
    @staticmethod
    def families():
        rng = random.Random(22)
        ho1d = [psi_nm(QPair(rng.randint(0, 20), rng.randint(0, 20), rng.uniform(0.0, 1.5))) for _ in range(30)]
        split = [split_state(SplitSpec(3, frozenset(s0), frozenset(s1), rng.randint(0, 6), rng.randint(0, 6),
                                       rng.uniform(0.0, 1.5)))
                 for s0, s1 in [((0,), (1, 2)), ((0, 1, 2), (1,)), ((2,), (0, 1)), ((0, 1), (1, 2))] * 3]
        product = [product_state([QPair(rng.randint(0, 4), rng.randint(0, 4), rng.uniform(0.0, 1.5))
                                  for _ in range(4)]) for _ in range(8)]
        return {"ho1d": ho1d, "split": split, "product": product}

    @pytest.mark.parametrize("kind", ["ho1d", "split", "product"])
    @pytest.mark.parametrize("t", [0.0, 1.3])
    def test_single_level_gather_equals_the_dense_product(self, kind, t):
        states = self.families()[kind]
        assert all(wavestate._side([s]).levels is not None for s in states)
        others = states[::-2]  # a second side of another width and order
        rules = [make_rule("gauss_hermite", 25)] * states[0].dims
        for b_states in (states, others):
            assert np.array_equal(moment_gram(states, b_states, t), dense_gram(states, b_states, t))
            assert np.array_equal(quad_gram(states, b_states, t, rules), dense_gram(states, b_states, t, rules))

    def test_default_rule_gather_equals_the_dense_product(self):
        basis = [psi_n(n) for n in range(DEGREE_CAP + 1)]
        rules = [make_rule("gauss_hermite", DEGREE_CAP + 1)]  # quad_gram's choice, exact for degree 2 DEGREE_CAP
        assert np.array_equal(quad_gram(basis, basis), dense_gram(basis, basis, 0.0, rules))

    @pytest.mark.parametrize("kind", ["ho1d", "split", "product"])
    def test_mixed_sides_match_the_dense_product(self, kind):
        states = self.families()[kind]
        dims = states[0].dims
        # H and the ladders keep a built state single-level; X takes each row to two levels
        ops = [hamiltonian(dims=dims) + mul_x(0), mul_x(dims - 1), ladder("raise", 0) + mul_x(dims - 1)]
        applied = [apply(ops[i % 3], s) for i, s in enumerate(states[:6])]
        assert wavestate._side([apply(hamiltonian(dims=dims), states[0])]).levels is not None
        assert all(wavestate._side([s]).levels is None for s in applied)
        rules = [make_rule("gauss_hermite", 30)] * dims
        for a_states, b_states in ((applied, states), (states, applied), (applied, applied)):
            for got, want in ((moment_gram(a_states, b_states, 0.4), dense_gram(a_states, b_states, 0.4)),
                              (quad_gram(a_states, b_states, 0.4, rules),
                               dense_gram(a_states, b_states, 0.4, rules))):
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("dims", [1, 3])
    def test_single_level_rows_of_other_values(self, dims):
        # one nonzero coefficient a row, of any complex value: still a gather,
        # whose products round on their own
        rng = np.random.default_rng(60 + dims)
        states = []
        for _ in range(12):
            modes, width = rng.integers(1, 4), rng.integers(1, 9)
            coefs = np.zeros((dims, modes, width), dtype=complex)
            for k in range(dims):
                coefs[k, np.arange(modes), rng.integers(0, width, size=modes)] = (
                    rng.uniform(0.2, 2.0, size=modes) * np.exp(1j * rng.uniform(-3.0, 3.0, size=modes)))
            states.append(WaveState(dims, rng.integers(0, 2, size=modes), rng.normal(size=modes) + 1j,
                                    rng.normal(size=modes), coefs))
        assert wavestate._side(states).levels is not None
        rules = [make_rule("gauss_hermite", 10)] * dims
        for got, want in ((moment_gram(states, states, 0.8), dense_gram(states, states, 0.8)),
                          (quad_gram(states, states, 0.8, rules), dense_gram(states, states, 0.8, rules))):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_row_tiles_end_at_owners_and_stay_bounded(self, monkeypatch):
        owner = np.repeat(np.arange(7), [1, 3, 2, 6, 1, 1, 2])
        monkeypatch.setattr(wavestate, "_TILE_ELEMENTS", 4 * 10)  # 4 rows of 10 b modes
        tiles = wavestate._row_tiles(owner, 10)
        ends = {0, *np.flatnonzero(np.diff(owner)) + 1, len(owner)}
        assert tiles[0].start == 0 and tiles[-1].stop == len(owner)
        assert all(p.stop == q.start for p, q in zip(tiles, tiles[1:]))
        assert all(s.start in ends and s.stop in ends for s in tiles)
        # at most 4 rows, unless one owner alone holds more (the 6 rows of owner 3)
        assert [s.stop - s.start for s in tiles] == [4, 2, 6, 4]
        assert wavestate._row_tiles(owner, 1) == [slice(0, len(owner))]

    @pytest.mark.parametrize("kind", ["ho1d", "split", "product"])
    def test_tiles_change_no_bit(self, kind, monkeypatch):
        states = self.families()[kind]
        applied = [apply(mul_x(0), s) for s in states[:4]]
        results = []
        for elements in (1 << 40, 1):  # one tile; a tile per state
            monkeypatch.setattr(wavestate, "_TILE_ELEMENTS", elements)
            results.append([gram(a, b, 0.7) for gram in (moment_gram, quad_gram)
                            for a, b in ((states, states), (states, states[::-3]), (applied, states))])
        assert len(wavestate._row_tiles(wavestate._stacked(states)[0], 1)) == len(states)
        assert all(np.array_equal(x, y) for x, y in zip(*results))

    @pytest.mark.parametrize("applied", [False, True])
    def test_family_profile_is_read_only(self, applied):
        # every Gram of the family shares its side, levels and values included
        states = self.families()["ho1d"][:5]
        family = wavestate._Family([apply(mul_x(0), s) for s in states] if applied else states)
        assert family.side is family.side
        assert (family.side.levels is None) is applied
        assert not any(a.flags.writeable for a in family.side if a is not None)

    def test_order_warning_once_at_the_caller(self, monkeypatch):
        monkeypatch.setattr(wavestate, "_TILE_ELEMENTS", 1)  # many tiles, one warning
        states = self.families()["ho1d"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quad_gram(states, states, 0.0, [make_rule("gauss_hermite", 5)])
        assert [(w.category, w.filename) for w in caught] == [(QuadratureOrderWarning, __file__)]

    def test_basis_quad_gram_memory(self):
        # verify ladder's GH(201) Gram of phi_0 .. phi_200: gathers of the rule's
        # Gram in tiles, not two 201-wide complex matmuls and (201, 201) products
        basis = [psi_n(n) for n in range(DEGREE_CAP + 1)]
        quad_gram(basis, basis)  # the rule and its Gram are cached from here on
        assert traced_peak(lambda: quad_gram(basis, basis)) <= 2e6

    def test_large_family_memory(self):
        # 1000 states of two modes: the (1000, 1000) result is 8 MB; without
        # tiles each route held two (2000, 2000) complex products, 130 MB
        rng = random.Random(1000)
        family = [psi_nm(QPair(rng.randint(0, 20), rng.randint(0, 20), rng.uniform(0.1, 1.5))) for _ in range(1000)]
        for gram in (moment_gram, quad_gram):
            gram(family, family)
            assert traced_peak(lambda: gram(family, family)) <= 16e6


def trailing_widths(states, dims):
    """Per slot and dimension, the longest coefficient row of the states up to
    its last nonzero entry, row by row (0 in an empty slot)."""
    widths = [[0] * dims for _ in (0, 1)]
    for s in states:
        for k, c in enumerate(s.coefs):
            for slot, row in zip(s.slots.tolist(), c):
                if row.any():
                    widths[slot][k] = max(widths[slot][k], int(np.flatnonzero(row)[-1]) + 1)
    return widths


class TestGramOperand:
    # _side makes a Gram operand once per object (once per _Family); the row
    # lengths are computed only for quad_gram's rule orders
    @staticmethod
    def sides(dims):
        rng = random.Random(25 + dims)
        built = [product_state([QPair(rng.randint(0, 9), rng.randint(0, 3), rng.uniform(0.1, 1.4))
                                for _ in range(dims)]) for _ in range(6)]
        built.append(product_state([QPair(rng.randint(0, 5), 0, 0.0) for _ in range(dims)]))  # slot 0 alone
        wide = np.zeros((dims, 2, 12), dtype=complex)
        wide[:, 0, 11] = wide[:, 1, 1] = 1.0
        built.append(WaveState(dims, [0, 1], [0.6, 0.8], [-1.5, 2.5], wide))  # slot 0 the wider in every dimension
        applied = [apply(mul_x(i % dims), s) for i, s in enumerate(built)]
        return {"single-level": built, "applied": applied, "mixed": built[::2] + applied[1::2]}

    @pytest.mark.parametrize("dims", [1, 3])
    def test_slot_widths_follow_the_trailing_nonzero_rule(self, dims):
        sides = self.sides(dims)
        assert wavestate._side(sides["single-level"]).levels is not None
        assert wavestate._side(sides["applied"]).levels is None and wavestate._side(sides["mixed"]).levels is None
        widths = [wavestate._slot_widths(wavestate._side(states)) for states in sides.values()]
        assert widths == [trailing_widths(states, dims) for states in sides.values()]
        assert any(w[0] != w[1] for w in widths)  # the slots differ in width
        # one slot empty: its widths are 0
        slot0 = [psi_n(n) for n in (2, 5)]
        assert wavestate._slot_widths(wavestate._side(slot0)) == [[6], [0]]
        assert wavestate._slot_widths(wavestate._side([apply(mul_x(0), s) for s in slot0])) == [[7], [0]]

    @pytest.mark.parametrize("dims", [1, 3])
    def test_default_rule_order_is_the_trailing_rule_one(self, dims, monkeypatch):
        orders = []
        made = wavestate.make_rule
        monkeypatch.setattr(wavestate, "make_rule", lambda kind, order: orders.append(order) or made(kind, order))
        sides = self.sides(dims)
        for a_states, b_states in itertools.product(sides.values(), repeat=2):
            wa, wb = trailing_widths(a_states, dims), trailing_widths(b_states, dims)
            want = [max((wa[s][k] + wb[s][k] - 2 for s in (0, 1) if wa[s][k] and wb[s][k]), default=0) // 2 + 1
                    for k in range(dims)]
            orders.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", QuadratureOrderWarning)
                got = quad_gram(a_states, b_states, 0.6)
            assert orders == want
            rules = [made("gauss_hermite", order) for order in want]
            assert np.array_equal(got, quad_gram(a_states, b_states, 0.6, rules))

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_stacked_copies_each_state_in_order(self, dims):
        rng = np.random.default_rng(250 + dims)
        states = [random_state(rng, dims, int(rng.integers(1, 4))) for _ in range(5)]
        states.insert(2, product_state([QPair(7, 1, 0.3)] * dims))  # wider than the others
        assert len({s.coefs.shape[2] for s in states}) > 1
        owner, slots, amps, freqs, coefs = wavestate._stacked(states)
        assert np.array_equal(coefs, wavestate._joined([s.coefs for s in states]))
        assert np.array_equal(owner, np.repeat(np.arange(len(states)), [len(s.slots) for s in states]))
        for got, column in ((slots, "slots"), (amps, "amps"), (freqs, "freqs")):
            assert np.array_equal(got, np.concatenate([getattr(s, column) for s in states]))

    @pytest.mark.parametrize("applied", [False, True])
    def test_family_side_made_once_and_read_only(self, applied, monkeypatch):
        calls = []
        stacked = wavestate._stacked
        monkeypatch.setattr(wavestate, "_stacked", lambda states: calls.append(len(states)) or stacked(states))
        states = self.sides(1)["applied" if applied else "single-level"]
        family = wavestate._Family(states)
        for t in (0.0, 0.8):
            moment_gram(family, family, t)
            quad_gram(family, family, t)
            evaluate_points(family, [-0.5, 1.0], t)
        assert calls == [len(states)]
        side = family.side
        assert wavestate._side(family) is side and (side.levels is None) is applied
        fresh = wavestate._side(states)
        assert all(x is y is None or np.array_equal(x, y) for x, y in zip(side, fresh))
        for a in side:
            if a is not None:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0


class TestTimePhaseAndNorm:
    # a time t whose phase nu t overflows is refused, naming t, wherever a phase
    # is formed; a NaN norm fails the norm check
    @staticmethod
    def calls(s, t):
        family = wavestate._Family([s])
        small = psi_n(0)
        return {
            "expectation": lambda: expectation(hamiltonian(), s, t),
            "cartesian_energy": lambda: cartesian_energy(s, t),
            "expectation_quaternionic": lambda: expectation_quaternionic(hamiltonian(), s, t),
            "inner": lambda: inner(s, s, t),
            "inner_quad": lambda: inner_quad(s, s, t),
            "moment_gram cross": lambda: moment_gram([small], [s], t),
            "quad_gram family": lambda: quad_gram(family, family, t),
            "evaluate_points": lambda: evaluate_points([s], [0.5], t),
            "evaluate_points family": lambda: evaluate_points(family, [0.5], t),
            "evaluate": lambda: evaluate(s, 0.5, t),
        }

    @pytest.mark.parametrize("t", [1e308, -1e308, 6e307])
    def test_overflowing_phase_names_t(self, t):
        s = psi_nm(QPair(2, 3, 0.4))  # |nu| up to 3.5
        for name, call in self.calls(s, t).items():
            with pytest.raises(ValueError, match=r"^t = .* puts a time phase nu t past the float range"):
                call()

    def test_large_frequency_overflows_at_small_t(self):
        s = WaveState(1, [0], [1.0], [1e300], np.ones((1, 1, 1)))
        for call in (lambda: inner(s, s, 1e9), lambda: evaluate(s, 0.0, 1e9), lambda: evaluate_points([s], [0.0], 1e9),
                     lambda: expectation(hamiltonian(), s, 1e9, check_norm=False)):
            with pytest.raises(ValueError, match=r"^t = 1000000000\.0 "):
                call()
        assert inner(s, s, 1e5) == pytest.approx(1.0)

    def test_finite_phases_at_a_huge_t_still_work(self):
        s = psi_nm(QPair(1, 0, 0.5))  # |nu| <= 1.5: 1.5e308 is finite
        values = {name: call() for name, call in self.calls(s, 1e308).items()}
        assert values["inner"] == pytest.approx(1.0) and values["inner_quad"] == pytest.approx(1.0)
        assert values["expectation"] == pytest.approx(energy_nm(QPair(1, 0, 0.5)))
        assert all(np.isfinite(v).all() for name, v in values.items() if name.startswith("evaluate_points"))
        assert math.isfinite(abs(values["evaluate"]))

    def test_nan_norm_is_refused(self):
        # amplitudes 1e200 square past the float range: the norm reads NaN, not 1
        s = WaveState(1, [0, 0], [1e200, 1e200], [-0.5, -1.5], np.eye(2, dtype=complex)[None])
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (lambda: expectation(hamiltonian(), s), lambda: cartesian_energy(s),
                         lambda: expectation_quaternionic(hamiltonian(), s)):
                with pytest.raises(ValueError, match=r"norm\^2 = nan is not 1"):
                    call()

    def test_overflowing_state_raises_the_norm_error_not_a_warning(self):
        # no np.errstate here: numpy's default state warns on the overflow, and that
        # warning, raised as an error, must not come before the norm check's ValueError
        s = WaveState(1, [0, 0], [1e200, 1e200], [-0.5, -1.5], np.eye(2, dtype=complex)[None])
        for call in (lambda: expectation(hamiltonian(), s), lambda: cartesian_energy(s),
                     lambda: expectation_quaternionic(hamiltonian(), s)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match=r"norm\^2 = nan is not 1"):
                    call()

    @pytest.mark.parametrize("amp, value", [(1e200, "nan"), (1.2e154, "inf")])
    def test_non_finite_expectation_is_refused_without_the_norm_check(self, amp, value):
        # check_norm=False waives the norm check, not finiteness; at 1.2e154 the
        # squares are finite but their sum is not, where fsum raised OverflowError
        s = WaveState(1, [0, 0], [amp, amp], [-0.5, -1.5], np.eye(2, dtype=complex)[None])
        for call in (lambda: expectation(hamiltonian(), s, check_norm=False),
                     lambda: cartesian_energy(s, check_norm=False),
                     lambda: expectation_quaternionic(hamiltonian(), s, check_norm=False)):
            with pytest.raises(ValueError, match=rf"^expectation = {value} is not finite$"):
                call()
        with pytest.raises(ValueError, match=rf"^state norm\^2 = {value} is not 1"):
            expectation(hamiltonian(), s)

    def test_the_flag_leaves_a_normalized_state_bit_identical(self):
        s = product_state([QPair(3, 1, 0.4), QPair(0, 2, 1.1)])
        op = hamiltonian(s.params, 2) + mul_x(0) * d_dx(1)
        for t in (0.0, 0.7):
            assert expectation(op, s, t).hex() == expectation(op, s, t, check_norm=False).hex()
            assert cartesian_energy(s, t).hex() == cartesian_energy(s, t, check_norm=False).hex()
            on, off = expectation_quaternionic(op, s, t), expectation_quaternionic(op, s, t, check_norm=False)
            assert [v.hex() for v in on] == [v.hex() for v in off]
