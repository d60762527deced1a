import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatosc import wavestate
from quatosc.multidim import SplitSpec, product_state, split_state
from quatosc.oscillator1d import QPair, hamiltonian, ladder, psi_n, psi_nm
from quatosc.specfun import make_rule
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
        # every Gram of the family shares the stack, so none may write into it
        family = wavestate._Family([psi_nm(QPair(n, 2, 0.4)) for n in range(count)])
        assert family.stack is family.stack
        assert not any(a.flags.writeable for a in family.stack)


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
