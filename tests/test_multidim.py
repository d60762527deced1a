import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from quatosc import cli, multidim, oscillator1d
from quatosc.multidim import (
    QSphericalHarmonic,
    SplitSpec,
    angular_gram,
    cartesian_energy,
    default_radial_grid,
    full_spherical_energy,
    product_state,
    qsph_harm,
    radial_energy,
    radial_energy_expectation,
    radial_gram,
    radial_inner,
    radial_ode_residual,
    radial_state,
    split_state,
)
from quatosc.oscillator1d import (QPair, default_grid, energy_nm, hamiltonian, psi_n, psi_nm,
                                  schrodinger_residual)
from quatosc.quaternion import is_parallel
from quatosc.specfun import DEGREE_CAP, laguerre, make_rule, sph_harm
from quatosc.wavestate import (
    PhysicalParams,
    WaveState,
    _magnitude,
    apply,
    evaluate,
    evaluate_points,
    inner,
    inner_quad,
    right_i,
    time_derivative,
)

PI4 = math.pi ** -0.25


class TestProductState:
    def test_theta_zero_matches_complex_product(self):
        factors = [QPair(1, 0, 0.0), QPair(2, 0, 0.0)]
        s = product_state(factors)
        for x1 in (-1.5, 0.0, 0.8):
            for x2 in (-0.4, 1.2):
                got = evaluate(s, [x1, x2], 0.7).to_symplectic()
                f1 = evaluate(psi_n(1), x1, 0.7).to_symplectic().z0
                f2 = evaluate(psi_n(2), x2, 0.7).to_symplectic().z0
                assert abs(got.z0 - f1 * f2) <= 1e-13
                assert abs(got.z1) <= 1e-15

    @pytest.mark.parametrize("factors", [
        [QPair(0, 0, 0.4)],
        [QPair(0, 0, 0.4), QPair(0, 0, 1.0)],
        [QPair(1, 2, 0.7), QPair(0, 1, 0.2), QPair(2, 0, 1.3)],
    ])
    def test_unit_norm(self, factors):
        s = product_state(factors)
        assert inner(s, s, 0.6) == pytest.approx(1.0, abs=1e-10)

    def test_norm_by_quadrature(self):
        s = product_state([QPair(1, 1, 0.5), QPair(0, 2, 1.1)])
        rules = [make_rule("gauss_hermite", 32)] * 2
        assert inner_quad(s, s, 0.0, rules) == pytest.approx(1.0, abs=1e-10)

    def test_reordering_preserves_energy_and_norm(self):
        factors = [QPair(1, 2, math.pi / 4), QPair(0, 1, 0.3), QPair(2, 0, 1.1)]
        orders = [factors, factors[::-1], [factors[1], factors[2], factors[0]]]
        energies = []
        for fs in orders:
            s = product_state(fs)
            assert inner(s, s, 0.0) == pytest.approx(1.0, abs=1e-10)
            energies.append(cartesian_energy(s))
        assert max(energies) - min(energies) <= 1e-10

    def test_energy_is_sum_of_factors(self):
        factors = [QPair(1, 2, math.pi / 4)] * 3
        s = product_state(factors)
        want = sum(energy_nm(f) for f in factors)
        assert cartesian_energy(s) == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(6.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_state([])

    def test_thousand_factor_energy_from_gram_factors(self):
        # the form over per-dimension Gram factors builds no H s: 1000 blocks of 2 x 2 products
        factors = [QPair(1, 2, 0.4)] + [QPair(n % 4, 0, 0.0) for n in range(999)]
        s = product_state(factors)
        want = math.fsum(energy_nm(f) for f in factors)
        cartesian_energy(s)  # the band table of the 1000-dimensional H is built once
        tracemalloc.start()
        try:
            got = cartesian_energy(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s.slots) == 2
        assert got == pytest.approx(want, rel=1e-12)
        assert peak < 20e6

    def test_level_zero_factors_past_two_dimensions(self):
        # rows of width 1 in three or more dimensions: the merge takes its keys from
        # a strided view of them, which once raised ValueError
        factors = [QPair(0, 0, 0.5)] * 3
        s = product_state(factors)
        assert abs(inner(s, s, 0.3) - 1.0) <= 1e-14
        want = evaluate(psi_nm(factors[0]), 0.2, 0.3) * evaluate(psi_nm(factors[1]), -0.4, 0.3)
        want = want * evaluate(psi_nm(factors[2]), 0.9, 0.3)
        assert abs(evaluate(s, [0.2, -0.4, 0.9], 0.3) - want) <= 1e-15
        g = split_state(SplitSpec(3, {0, 1, 2}, {0, 1, 2}, 0, 0, 0.5))
        assert abs(inner(g + g, g + g, 0.3) - 4.0) <= 1e-14

    def test_solution_product_of_50_factors_stays_two_modes(self):
        # every factor after the first is complex (theta = 0) and holds one row, so
        # the product keeps the first factor's two rows and never grows to 2^50
        factors = [QPair(1, 2, 0.4)] + [QPair(k % 3, 4, 0.0) for k in range(49)]
        tracemalloc.start()
        try:
            s = product_state(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(s.slots.tolist()) == [0, 1]
        assert peak < 10e6
        assert abs(inner(s, s, 0.7) - 1.0) <= 1e-14
        rng = np.random.default_rng(50)
        for x in rng.uniform(-1.5, 1.5, (3, 50)):
            want = evaluate(psi_nm(factors[0]), x[0], 0.7)
            for q, xk in zip(factors[1:], x[1:]):
                want = want * evaluate(psi_nm(q), xk, 0.7)
            got = evaluate(s, x, 0.7)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_rows_are_the_row_by_row_product(self, monkeypatch):
        # the rows handed to the merge, against a plain walk over every combination of
        # factor rows (the last factor's row varying fastest): a slot-1 row so far
        # conjugates the next factor, with a sign flip for its slot-1 row
        columns = []
        monkeypatch.setattr(multidim, "_merged", lambda *c: columns.append(c))
        rng = random.Random(17)
        for _ in range(60):
            factors = [QPair(rng.randint(0, 5), rng.randint(0, 5), rng.choice([0.0, rng.uniform(-3.0, 3.0)]))
                       for _ in range(rng.randint(1, 7))]
            product_state(factors)
            dims, slots, amps, freqs, coefs, _ = columns.pop()
            states = [psi_nm(q) for q in factors]
            combos = list(itertools.product(*(range(len(s.slots)) for s in states)))
            assert (dims, len(slots)) == (len(factors), len(combos))
            for row, combo in enumerate(combos):
                slot, amp, freq = 0, 1.0, 0.0
                for k, (s, i) in enumerate(zip(states, combo)):
                    f = s.coefs[0, i].conj() if slot else s.coefs[0, i]
                    np.testing.assert_array_equal(coefs[k, row], np.pad(f, (0, coefs.shape[2] - len(f))))
                    a = s.amps[i].conj() if slot else s.amps[i]
                    amp *= -a if slot and s.slots[i] else a
                    freq += -s.freqs[i] if slot else s.freqs[i]
                    slot ^= int(s.slots[i])
                assert (slots[row], freqs[row]) == (slot, freq)
                assert abs(amps[row] - amp) <= 1e-15 * abs(amp)


class TestSplitState:
    def test_one_dimensional_case_reduces(self):
        spec = SplitSpec(1, frozenset({0}), frozenset({0}), 1, 2, 0.8)
        s = split_state(spec)
        ref = psi_nm(QPair(1, 2, 0.8))
        for x in np.linspace(-3, 3, 11):
            assert abs(evaluate(s, x, 0.5) - evaluate(ref, x, 0.5)) <= 1e-14

    def test_two_dimensional_example(self):
        spec = SplitSpec(2, frozenset({0}), frozenset({1}), 0, 0, math.pi / 4)
        s = split_state(spec)
        q = evaluate(s, [0.0, 0.0], 0.0)
        c = math.cos(math.pi / 4) / math.sqrt(math.pi)
        assert q.x0 == pytest.approx(c, abs=1e-14)
        assert q.x2 == pytest.approx(c, abs=1e-14)
        assert inner(s, s, 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_theta_zero_ignores_second_set(self):
        a = split_state(SplitSpec(3, frozenset({0, 1}), frozenset({2}), 2, 1, 0.0))
        b = split_state(SplitSpec(3, frozenset({0, 1}), frozenset({0, 2}), 2, 3, 0.0))
        for pt in ([0.3, -0.7, 1.1], [0.0, 0.5, -2.0]):
            assert abs(evaluate(a, pt, 0.4) - evaluate(b, pt, 0.4)) <= 1e-14
        # a zero sin(theta) gives no slot-1 row
        for s in (a, b):
            assert s.slots.tolist() == [0] and s.coefs.shape == (3, 1, 3)

    def test_union_must_cover(self):
        with pytest.raises(ValueError):
            SplitSpec(3, frozenset({0}), frozenset({1}), 0, 0, 0.1)

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError, match="dims must be >= 1, got 0"):
            SplitSpec(0, frozenset(), frozenset(), 0, 0, 0.1)

    def test_tiny_alpha_in_forty_dimensions(self):
        # amplitudes of 8.8e-181 and a scale (1/alpha)^40 = 1e360: neither their square
        # nor the scale fits a double, but the norm is 1
        s = split_state(SplitSpec(40, range(40), {0}, 1, 2, 0.5), PhysicalParams(mu=1e-9, omega=1e-9))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert abs(inner(s, s) - 1.0) <= 1e-12

    @pytest.mark.parametrize("spec, params", [
        (SplitSpec(2, {0}, {1}, 2, 1, 0.6), PhysicalParams()),
        (SplitSpec(2, {0, 1}, {1}, 0, 3, 0.4), PhysicalParams()),
        (SplitSpec(3, {0, 2}, {1}, 1, 2, 1.1), PhysicalParams(2.0, 3.0, 0.5)),
        (SplitSpec(3, {0, 1}, {0, 2}, 2, 3, 0.7), PhysicalParams()),
        (SplitSpec(4, {0, 1, 2, 3}, {3}, 1, 4, 0.9), PhysicalParams(0.5, 2.0, 1.5)),
    ])
    def test_solves_the_schrodinger_equation(self, spec, params):
        # the time phases carry the zero-point energy of the ground-padded axes
        s = split_state(spec, params)
        lhs = params.hbar * apply(right_i(), time_derivative(s))
        residual = lhs - apply(hamiltonian(params, spec.dims), s)
        points = np.random.default_rng(5).uniform(-2.5, 2.5, size=(20, spec.dims)) / params.alpha
        for t in (0.0, 0.3, 1.7):
            assert np.max(_magnitude(*evaluate_points([residual], points, t))) <= 1e-12

    def test_same_slot_function_keeps_one_phase(self):
        # both slot-0 functions are phi_0 x phi_0, so the overlap is 1 at every time
        a = split_state(SplitSpec(2, {0}, {1}, 0, 0, 0.0))
        b = split_state(SplitSpec(2, {0, 1}, set(), 0, 0, 0.0))
        for t in (0.0, 0.3, 1.7, 4.0):
            assert inner(a, b, t) == pytest.approx(1.0, abs=1e-14)

    def test_energy_counts_ground_padding(self):
        # slot-0 squeezes level n into its own dims, all others sit at 1/2
        spec = SplitSpec(2, frozenset({0}), frozenset({1}), 2, 1, math.pi / 3)
        s = split_state(spec)
        c2, s2 = math.cos(math.pi / 3) ** 2, math.sin(math.pi / 3) ** 2
        want = c2 * (2 + 1.0) + s2 * (1 + 1.0)
        assert cartesian_energy(s) == pytest.approx(want, abs=1e-10)


class TestMultiDimResidual:
    # schrodinger_residual in more dimensions: H = hamiltonian(params, dims), on the default tensor grid

    @pytest.mark.parametrize("spec, params", [
        (SplitSpec(2, {0}, {1}, 2, 1, 0.6), PhysicalParams()),
        (SplitSpec(2, {0, 1}, {1}, 0, 3, 0.4), PhysicalParams()),
        (SplitSpec(3, {0, 2}, {1}, 1, 2, 1.1), PhysicalParams(2.0, 3.0, 0.5)),
        (SplitSpec(3, {0, 1}, {0, 2}, 2, 3, 0.7), PhysicalParams()),
        (SplitSpec(4, {0, 1, 2, 3}, {3}, 1, 4, 0.9), PhysicalParams(0.5, 2.0, 1.5)),
    ])
    def test_split_states_solve_the_equation(self, spec, params):
        s = split_state(spec, params)
        for t in (0.0, 0.3, 1.7):
            assert schrodinger_residual(s, t=t) <= 1e-12

    @pytest.mark.parametrize("factors", [
        [(1, 2, 0.4), (0, 3, 0.0)],
        [(2, 1, 1.1), (1, 1, 0.0), (3, 0, 0.0)],
        [(0, 0, 0.3), (1, 2, 0.0), (2, 2, 0.0), (0, 5, 0.0)],
        [(2, 1, 0.7), (1, 0, 0.0), (3, 3, 0.0)],
    ])
    def test_products_with_complex_later_factors_solve_the_equation(self, factors):
        # every factor after the first is complex (theta = 0), so it commutes with right_i
        s = product_state([QPair(*f) for f in factors])
        for t in (0.0, 0.9):
            assert schrodinger_residual(s, t=t) <= 1e-12

    @pytest.mark.parametrize("factors", [
        [(0, 0, 0.0), (1, 2, 0.4)],
        [(1, 2, 0.4), (0, 3, 1.1)],
    ])
    def test_products_with_a_quaternionic_later_factor_do_not(self, factors):
        # a later factor with theta != 0 has a slot-1 part, which right_i does not
        # commute with: the product solves no equation hbar dPsi/dt i = H Psi
        s = product_state([QPair(*f) for f in factors])
        for t in (0.0, 0.9):
            assert schrodinger_residual(s, t=t) >= 0.1

    def test_wrong_frequency_detected(self):
        s = split_state(SplitSpec(2, {0}, {1}, 1, 0, 0.5))
        bad = WaveState(2, s.slots, s.amps, 1.1 * s.freqs, s.coefs, s.params)
        assert schrodinger_residual(bad, t=0.4) >= 0.01

    def test_default_grid_is_the_tensor_grid(self):
        g = default_grid(span=3.0, count=7, dims=3)
        assert g.shape == (343, 3)
        assert sorted(set(g[:, 2].tolist())) == pytest.approx(np.linspace(-3.0, 3.0, 7).tolist())
        assert schrodinger_residual(split_state(SplitSpec(3, {0}, {1, 2}, 1, 1, 0.2)), grid=g) <= 1e-12


class TestRadialState:
    def test_theta_zero_real_and_normalized(self):
        s = radial_state(2, 0, 1, 0.0)
        assert radial_inner(s, s) == pytest.approx(1.0, abs=1e-12)
        q = s.evaluate(1.3)
        assert (q.x1, q.x2, q.x3) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_unit_norm_sweep(self, l):
        for u in range(5):
            for v in range(5):
                s = radial_state(u, v, l, 0.7)
                assert radial_inner(s, s) == pytest.approx(1.0, abs=1e-10)

    def test_norm_by_half_line_quadrature(self):
        s = radial_state(3, 1, 2, 0.9)
        rule = make_rule("half_line", 40)
        vals = np.array([abs(s.evaluate(r)) ** 2 for r in rule.nodes])
        assert float(np.dot(rule.weights, vals)) == pytest.approx(1.0, abs=1e-10)

    def test_equal_slots_single_energy(self):
        s = radial_state(2, 2, 1, 1.1)
        assert radial_inner(s, s) == pytest.approx(1.0, abs=1e-12)
        e = radial_energy_expectation(s)
        assert e == pytest.approx(radial_energy(2, 1), abs=1e-10)

    def test_invalid_quantum_numbers(self):
        with pytest.raises(ValueError):
            radial_state(-1, 0, 0)


class TestRadialGram:
    def test_disjoint_identity(self):
        states = [radial_state(0, 1, 2, 0.6), radial_state(2, 3, 2, 0.6)]
        g = radial_gram(states)
        np.testing.assert_allclose(g.entries, np.eye(2), atol=1e-12)

    def test_shared_first_index(self):
        states = [radial_state(0, 1, 0, math.pi / 3), radial_state(0, 2, 0, math.pi / 3)]
        g = radial_gram(states)
        assert g.entries[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_single_state(self):
        g = radial_gram([radial_state(1, 1, 1, 0.4)])
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_sweep(self):
        for l in range(4):
            states = [radial_state(u, v, l, 0.8) for u in range(5) for v in range(5)]
            g = radial_gram(states)
            assert g.max_closed_form_deviation() <= 1e-10

    @pytest.mark.parametrize("l", [0, 2])
    def test_closed_form_through_degree_8(self, l):
        states = [radial_state(u, v, l, 0.8) for u in range(9) for v in range(9)]
        assert radial_gram(states).max_closed_form_deviation() <= 1e-12

    def test_against_quadrature(self):
        a = radial_state(1, 2, 1, 0.5)
        b = radial_state(1, 3, 1, 0.5)
        rule = make_rule("half_line", 40)

        def overlap(r):
            qa, qb = a.evaluate(r), b.evaluate(r)
            return (qa * qb.conj()).sc()

        quad = float(np.dot(rule.weights, [overlap(r) for r in rule.nodes]))
        assert radial_inner(a, b) == pytest.approx(quad, abs=1e-10)

    def test_mixed_l_rejected(self):
        with pytest.raises(ValueError):
            radial_gram([radial_state(0, 0, 0), radial_state(0, 0, 1)])
        with pytest.raises(ValueError):
            radial_inner(radial_state(0, 0, 0), radial_state(0, 0, 1))

    def test_parallelism_table(self):
        states = [radial_state(0, 1, 0, 0.6), radial_state(0, 1, 0, 0.6),
                  radial_state(2, 3, 0, 0.1)]
        g = radial_gram(states)
        assert bool(g.parallel[0, 1]) and bool(g.parallel[0, 0])
        assert bool(g.theta_equal[0, 1]) and not bool(g.theta_equal[0, 2])

    @pytest.mark.parametrize("l", [40, 150, 200])
    def test_parallelism_table_at_large_l(self, l):
        # rho^l N_u at the sample radii falls far below the absolute tolerance from
        # l ~ 40, where every pair once read parallel; at most one label has u = v,
        # since two such states at one angle are real multiples of each other
        labels = [(0, 1), (1, 0), (2, 3), (3, 5), (4, 4), (5, 2), (1, 4), (6, 0), (0, 6), (3, 1)]
        g = radial_gram([radial_state(u, v, l, 0.8) for u, v in labels])
        assert g.parallel.tolist() == np.eye(len(labels), dtype=bool).tolist()
        twins = radial_gram([radial_state(2, 2, l, 0.8), radial_state(5, 5, l, 0.8)])
        assert twins.parallel.all()


def mp_radial(u, l, rho):
    """Oracle: N_u rho^l exp(-rho^2/2) L_u^(l+1/2)(rho^2) in mpmath at 50 digits."""
    with mpmath.workdps(50):
        rho = mpmath.mpf(rho)
        norm = mpmath.sqrt(2 * mpmath.factorial(u) / mpmath.gamma(u + l + mpmath.mpf(3) / 2))
        return norm * rho**l * mpmath.exp(-rho * rho / 2) * mpmath.laguerre(u, l + mpmath.mpf(1) / 2, rho * rho)


def mp_grid(u, l):
    """23 radii from 0.25 to 3 past the classical turning point sqrt(4u + 2l + 3)."""
    return np.linspace(0.25, math.sqrt(4.0 * u + 2.0 * l + 3.0) + 3.0, 23)


class TestRadialThroughDegreeCap:
    # every label the library accepts is verified: values against mpmath,
    # norms and energies on the exact half-line rule

    @pytest.mark.parametrize("u", [30, 100, 200])
    @pytest.mark.parametrize("l", [0, 2, 6])
    def test_components_match_mpmath(self, u, l):
        theta, v = 0.3, 2
        rho = mp_grid(u, l)
        z0, z1 = radial_state(u, v, l, theta).components(rho)
        np.testing.assert_allclose(z0, [math.cos(theta) * float(mp_radial(u, l, r)) for r in rho], rtol=1e-10, atol=0)
        np.testing.assert_allclose(z1, [math.sin(theta) * float(mp_radial(v, l, r)) for r in rho], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("u", [30, 100, 200])
    @pytest.mark.parametrize("l", [0, 2, 6])
    def test_sample_matches_mpmath(self, u, l, tmp_path):
        theta, v = 0.3, 2
        rho = mp_grid(u, l)
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"kind": "radial", "u": u, "v": v, "l": l, "theta": theta}) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["sample", "--states", str(path), "--grid", f"0.25:{float(rho[-1])!r}:23"])
        assert code == 0
        rows = np.array(json.loads(out.getvalue())["results"]["rows"])
        np.testing.assert_allclose(rows[:, 0], rho, rtol=1e-15)
        np.testing.assert_allclose(rows[:, 1], [math.cos(theta) * float(mp_radial(u, l, r)) for r in rho], rtol=1e-10, atol=0)
        np.testing.assert_allclose(rows[:, 3], [math.sin(theta) * float(mp_radial(v, l, r)) for r in rho], rtol=1e-10, atol=0)
        assert not rows[:, 2].any() and not rows[:, 4].any()

    @pytest.mark.parametrize("l", [0, 2, 6, 150])
    def test_gram_is_identity_through_the_cap(self, l):
        states = [radial_state(u, u, l, 0.0) for u in range(DEGREE_CAP + 1)]
        np.testing.assert_allclose(radial_gram(states).entries, np.eye(DEGREE_CAP + 1), rtol=0, atol=1e-12)

    def test_components_on_a_large_grid_hold_no_intermediate_rows(self):
        # the level pass keeps two running Laguerre rows, not one per degree up to u = 200
        rho = np.linspace(0.0, 20.0, 20_000)
        s = radial_state(DEGREE_CAP, 3, 2, 0.5)
        tracemalloc.start()
        try:
            s.components(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * rho.nbytes

    @pytest.mark.parametrize("l", [0, 6, 150, 200])
    def test_radial_values_are_the_single_level_products(self, l):
        # the level pass changes no bit of R_u = N_u rho^l exp(-rho^2/2) L_u(rho^2)
        levels = [0, 1, 7, 50, 149, 199, 200]
        for rho in (make_rule("half_line", 200 + l // 2 + 1).nodes, np.array([0.3, 1.1, 2.9])):
            rows = multidim._radial_values(levels, l, rho)
            for u, row in zip(levels, rows):
                want = multidim._envelope([u], l, rho)[0] * multidim.laguerre(u, l + 0.5, rho * rho)
                assert np.array_equal(row, want)

    @pytest.mark.parametrize("l", [0, 2, 150, 200])
    def test_mixed_gram_at_the_cap_keeps_its_identity(self, l):
        # distinct levels in each slot and one angle: the closed form is the identity
        states = [radial_state(200 - k, 7 * k % 201, l, 0.8) for k in range(0, 200, 9)]
        g = radial_gram(states)
        assert np.array_equal(g.closed_form, np.eye(len(states)))
        assert g.max_identity_deviation() <= 1e-12

    @pytest.mark.parametrize("v, l, theta", [(200, 3, 0.0), (150, 0, 0.6), (199, 6, 1.1)])
    def test_energy_expectation_at_the_cap(self, v, l, theta):
        s = radial_state(200, v, l, theta)
        assert abs(radial_energy_expectation(s) - full_spherical_energy(200, v, l, theta)) <= 1e-10

    @pytest.mark.parametrize("field", ["u", "v", "l"])
    def test_labels_above_cap_rejected(self, field):
        labels = {"u": 0, "v": 0, "l": 0, field: DEGREE_CAP + 1}
        with pytest.raises(ValueError, match="degree cap"):
            radial_state(labels["u"], labels["v"], labels["l"])


class TestRadialEnergy:
    @pytest.mark.parametrize("u, l", [(1.5, 2), (True, 0), (500, 2), (0, 201), (-1, 0), (0, 2.0)])
    def test_labels_are_checked(self, u, l):
        with pytest.raises(ValueError):
            radial_energy(u, l)

    def test_frozen_values(self):
        assert radial_energy(0, 0) == pytest.approx(1.5, abs=0)
        assert radial_energy(1, 2) == pytest.approx(5.5, abs=0)

    def test_units(self):
        p = PhysicalParams(omega=2.0, hbar=3.0)
        assert radial_energy(1, 0, p) == pytest.approx(3.5 * 6.0, abs=1e-12)

    def test_residual_identifies_energy(self):
        # the residual vanishes at the true energy and at no integer shift
        state = radial_state(1, 1, 2, 0.0)
        true = radial_energy(1, 2)
        for shift in (-2.0, -1.0, 0.0, 1.0, 2.0):
            res = radial_ode_residual(state, (true + shift, true + shift))
            if shift == 0.0:
                assert res <= 1e-9
            else:
                assert res >= 0.05


class TestRadialOdeResidual:
    @pytest.mark.parametrize("uvl", [(0, 0, 0), (1, 2, 1), (3, 1, 2), (2, 4, 3)])
    def test_solutions_satisfy_equation(self, uvl):
        u, v, l = uvl
        assert radial_ode_residual(radial_state(u, v, l, 0.6)) <= 1e-9

    def test_energy_offset_scales_with_state(self):
        state = radial_state(1, 2, 1, 0.8)
        grid = default_radial_grid()
        peak = max(abs(state.evaluate(r)) for r in grid)
        off = radial_ode_residual(
            state, (radial_energy(1, 1) + 1.0, radial_energy(2, 1) + 1.0), grid)
        assert off >= 0.1 * peak

    def test_matches_finite_differences(self):
        # independent check of the symbolic derivatives on a single slot
        state = radial_state(2, 0, 1, 0.0)
        eps = radial_energy(2, 1)
        h = 1e-5
        worst = 0.0
        for r in np.linspace(0.8, 3.0, 7):
            f = lambda rr: state.evaluate(rr).x0
            d1 = (f(r + h) - f(r - h)) / (2 * h)
            d2 = (f(r + h) - 2 * f(r) + f(r - h)) / h**2
            fd = abs(-0.5 * d2 - d1 / r
                     + (0.5 * r * r + 1.0 / (r * r) - eps) * f(r))
            worst = max(worst, fd)
        assert radial_ode_residual(state, grid=np.linspace(0.8, 3.0, 7)) == pytest.approx(0.0, abs=1e-9)
        assert worst <= 1e-5

    def test_positive_grid_required(self):
        with pytest.raises(ValueError):
            radial_ode_residual(radial_state(0, 0, 0), grid=[0.0, 1.0])

    # a NaN or infinite radius or energy once read as a residual of 0, even at a wrong energy
    @pytest.mark.parametrize("energies, grid, match", [
        ((100.0, 100.0), [math.nan], "radius must be finite, got nan"),
        (None, [1.0, math.inf], "radius must be finite, got inf"),
        (None, [-math.inf, 1.0], "radius must be finite, got -inf"),
        ((math.nan, math.nan), None, "energy must be finite, got nan"),
        ((radial_energy(1, 1), math.inf), None, "energy must be finite, got inf"),
    ])
    def test_non_finite_input_is_refused(self, energies, grid, match):
        with pytest.raises(ValueError, match=match):
            radial_ode_residual(radial_state(1, 2, 1, 0.6), energies, grid)


class TestQSphericalHarmonic:
    def test_theta_zero_is_plain_harmonic(self):
        state = qsph_harm(QSphericalHarmonic(2, 1, -1, 0.0))
        z0, z1 = state.components(0.7, 1.9)
        assert abs(complex(z0) - sph_harm(2, 1, 0.7, 1.9)) <= 1e-15
        assert abs(complex(z1)) <= 1e-16

    def test_monopole_is_constant(self):
        spec = QSphericalHarmonic(0, 0, 0, 0.9)
        state = qsph_harm(spec)
        want0 = math.cos(0.9) / (2 * math.sqrt(math.pi))
        want1 = math.sin(0.9) / (2 * math.sqrt(math.pi))
        for th, ph in [(0.1, 0.0), (1.2, 2.5), (2.9, 4.0)]:
            q = state.evaluate(th, ph)
            assert q.x0 == pytest.approx(want0, abs=1e-14)
            assert q.x2 == pytest.approx(want1, abs=1e-14)

    @pytest.mark.parametrize("l", range(7))
    def test_unit_norm(self, l):
        spec = QSphericalHarmonic(l, min(1, l), -min(1, l), 0.6)
        g = angular_gram([spec])
        assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_conjugate_switch_changes_values_not_norm(self):
        spec = QSphericalHarmonic(2, 0, 2, 0.7)
        plain = qsph_harm(spec, conjugate_slot1=False)
        conj = qsph_harm(spec, conjugate_slot1=True)
        z1p = complex(plain.components(0.8, 1.1)[1])
        z1c = complex(conj.components(0.8, 1.1)[1])
        assert abs(z1p - z1c) > 1e-3
        gp = angular_gram([spec], conjugate_slot1=False)
        gc = angular_gram([spec], conjugate_slot1=True)
        assert gp.entries[0, 0] == pytest.approx(gc.entries[0, 0], abs=1e-12)

    def test_index_ranges(self):
        with pytest.raises(ValueError):
            QSphericalHarmonic(1, 2, 0, 0.0)
        with pytest.raises(ValueError):
            QSphericalHarmonic(1, 0, -2, 0.0)

    def test_degree_cap(self):
        QSphericalHarmonic(DEGREE_CAP, -DEGREE_CAP, DEGREE_CAP, 0.3)
        for l in (DEGREE_CAP + 1, 10**6):
            with pytest.raises(ValueError, match="degree cap"):
                QSphericalHarmonic(l, 0, 0, 0.3)


class TestLabels:
    # a level is an integer (numpy's too) in 0..DEGREE_CAP, an azimuthal index an
    # integer with |m| <= l and theta finite; anything else raises ValueError where
    # the label is made or read, not a TypeError, an IndexError or a wrong state
    # (True as a level once indexed as a mask: psi_n(True) was phi_0 + phi_1)
    @pytest.mark.parametrize("make", [
        lambda: psi_n(True), lambda: psi_n(1.5), lambda: laguerre(True, 0.5, 0.3),
        lambda: psi_nm(QPair(True, 2, 0.3)), lambda: psi_nm(QPair(1.5, 2, 0.3)), lambda: QPair(2, 2.0, 0.3),
        lambda: split_state(SplitSpec(1, {0}, {0}, True, 2, 0.3)),
        lambda: product_state([QPair(1, 2, 0.3), QPair(0, True, 0.0)]),
        lambda: radial_state(1.5, 0, 1), lambda: radial_state(0, 1, True),
        lambda: QSphericalHarmonic(1.5, 0, 0), lambda: sph_harm(1.5, 0, 0.3, 0.2),
        lambda: laguerre(1.5, 0.5, 0.3), lambda: laguerre([0, True], 0.5, 0.3),
    ], ids=["psi_n-bool", "psi_n-float", "laguerre-bool", "qpair-bool", "qpair-float", "qpair-float-m",
            "split-bool", "product-bool", "radial-float", "radial-bool-l", "spherical-float",
            "sph_harm-float", "laguerre-float", "laguerre-bool-in-list"])
    def test_level_must_be_an_integer(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: QSphericalHarmonic(1, 0.5, 0, 0.3), lambda: QSphericalHarmonic(1, 0, True, 0.3),
        lambda: sph_harm(2, 0.5, 0.3, 0.2),
    ], ids=["m1-float", "m2-bool", "sph_harm-m-float"])
    def test_azimuthal_index_must_be_an_integer(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda th: SplitSpec(1, {0}, {0}, 1, 2, th), lambda th: radial_state(0, 1, 2, th),
        lambda th: QSphericalHarmonic(1, 0, 1, th), lambda th: QPair(1, 0, th),
    ], ids=["split", "radial", "spherical", "qpair"])
    def test_theta_must_be_finite(self, make, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            make(theta)

    # every field of each label type and of PhysicalParams: a wrong value raises
    # ValueError where it is given, not a TypeError or an OverflowError, or (for
    # a huge dims) a range built to its length
    @pytest.mark.parametrize("wrong", [None, True, "x", [0], 10**400, math.nan, math.inf, -math.inf],
                             ids=["none", "bool", "str", "list", "int-1e400", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("valid", [
        QPair(1, 2, 0.3), SplitSpec(3, {0, 1}, {2}, 1, 2, 0.3), radial_state(1, 2, 3, 0.3),
        QSphericalHarmonic(2, -1, 1, 0.3), PhysicalParams(2.0, 0.5, 1.5),
    ], ids=["qpair", "split", "radial", "spherical", "params"])
    def test_every_field_refuses_a_wrong_value(self, valid, wrong):
        for f in dataclasses.fields(valid):
            with pytest.raises(ValueError):
                dataclasses.replace(valid, **{f.name: wrong})

    def test_theta_and_params_are_stored_as_floats(self):
        for theta in (1, np.float32(0.5), np.int64(-2), np.float64(0.25)):
            for label in (QPair(1, 2, theta), SplitSpec(1, {0}, {0}, 1, 2, theta), radial_state(1, 2, 3, theta),
                          QSphericalHarmonic(2, -1, 1, theta)):
                assert type(label.theta) is float and label.theta == float(theta)
        params = PhysicalParams(2, np.float32(0.5), np.int64(3))
        assert [type(v) for v in (params.mu, params.omega, params.hbar)] == [float] * 3
        assert params == PhysicalParams(2.0, 0.5, 3.0)

    def test_numpy_integers_are_levels(self):
        n, l, m = np.int64(3), np.int32(2), np.int16(-1)
        assert inner(psi_n(n), psi_n(3)) == 1.0
        assert psi_nm(QPair(n, l, 0.4)).coefs.shape == psi_nm(QPair(3, 2, 0.4)).coefs.shape
        assert angular_gram([QSphericalHarmonic(l, m, 0, 0.3)]).entries[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sph_harm(l, m, 0.3, 0.2) == sph_harm(2, -1, 0.3, 0.2)


class TestParallelTable:
    # on a family of each kind, sized as the benchmark's, the symplectic table is
    # symmetric and is is_parallel pair by pair at each of the 5 sample points

    @staticmethod
    def _families():
        rng = random.Random(11)
        angles = [0.3, 0.3, 1.2]
        ho1d = [QPair(rng.randint(0, 20), rng.randint(0, 20), rng.choice(angles)) for _ in range(20)]
        ho1d += ho1d[:3]  # repeated states are parallel
        radial = [radial_state(rng.randint(0, 5), rng.randint(0, 5), 2, rng.choice(angles)) for _ in range(24)]
        specs = []
        for k in range(30):
            l = k % 7
            specs.append(QSphericalHarmonic(l, rng.randint(-l, l), rng.randint(-l, l), rng.choice(angles)))
        xs, = oscillator1d._sample_points((-3.0, 3.0))
        radii, = oscillator1d._sample_points((0.3, 3.0))
        polar, azimuth = oscillator1d._sample_points((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi))
        return [(oscillator1d.gram(ho1d), [[evaluate(psi_nm(q), x) for x in xs] for q in ho1d]),
                (radial_gram(radial), [[s.evaluate(r) for r in radii] for s in radial]),
                (angular_gram(specs), [[qsph_harm(s).evaluate(th, ph) for th, ph in zip(polar, azimuth)]
                                       for s in specs])]

    def test_table_is_symmetric_and_pairwise(self):
        for g, values in self._families():
            assert np.array_equal(g.parallel, g.parallel.T)
            want = [[all(is_parallel(p, q) for p, q in zip(a, b)) for b in values] for a in values]
            assert g.parallel.tolist() == want
            assert 0 < g.parallel.sum() < g.parallel.size


def _sum_over_every_sphere_node(specs, n_polar, n_azimuth, conjugate):
    """Reference Gram: the slot-diagonal product summed over the full tensor-product grid."""
    gl, az = make_rule("gauss_legendre", n_polar), make_rule("uniform_periodic", n_azimuth)
    polar, azimuth = np.meshgrid(np.arccos(gl.nodes), az.nodes, indexing="ij")
    w = np.outer(gl.weights, az.weights)
    z = [qsph_harm(s, conjugate).components(polar, azimuth) for s in specs]
    return np.array([[sum(np.sum(w * a * np.conj(b)).real for a, b in zip(za, zb)) for zb in z]
                     for za in z])


class TestAngularGram:
    def test_different_l_orthogonal(self):
        g = angular_gram([QSphericalHarmonic(1, 0, 1, 0.5), QSphericalHarmonic(2, 0, 1, 0.5)])
        assert abs(g.entries[0, 1]) <= 1e-10

    def test_shared_first_index(self):
        g = angular_gram([QSphericalHarmonic(1, 0, 1, math.pi / 3),
                          QSphericalHarmonic(1, 0, -1, math.pi / 3)])
        assert g.entries[0, 1] == pytest.approx(0.25, abs=1e-10)

    def test_self_overlap(self):
        g = angular_gram([QSphericalHarmonic(3, 2, -1, 1.0)])
        assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_pattern_small_l(self):
        specs = [QSphericalHarmonic(l, m1, m2, 0.6)
                 for l in range(3) for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)]
        g = angular_gram(specs)
        assert g.max_closed_form_deviation() <= 1e-9

    def test_parallelism_table(self):
        specs = [QSphericalHarmonic(1, 0, 1, 0.5), QSphericalHarmonic(1, 0, 1, 0.5),
                 QSphericalHarmonic(2, 0, 1, 0.9)]
        g = angular_gram(specs)
        assert bool(g.parallel[0, 1]) and bool(g.parallel[1, 1])
        assert bool(g.theta_equal[0, 1]) and not bool(g.theta_equal[0, 2])

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("n_polar, n_azimuth, top", [
        (64, 128, [QSphericalHarmonic(8, -8, -7, 0.4)]),
        (9, 18, [QSphericalHarmonic(8, -8, -7, 0.4)]),
        # |m| up to the degree cap on 100 azimuth nodes, where frequencies a multiple
        # of 100 apart alias: a phase row off by one frequency changes the entries
        (DEGREE_CAP + 1, 100, [QSphericalHarmonic(DEGREE_CAP, -DEGREE_CAP, DEGREE_CAP, 0.4),
                               QSphericalHarmonic(DEGREE_CAP, DEGREE_CAP - 1, -DEGREE_CAP, 1.1),
                               QSphericalHarmonic(150, -150, 0, 2.0), QSphericalHarmonic(100, 100, -1, 0.9)]),
    ], ids=["64-128", "9-18", "201-100"])
    def test_matches_sum_over_every_sphere_node(self, conjugate, n_polar, n_azimuth, top):
        rng = np.random.default_rng(n_polar + conjugate)
        specs = []
        for _ in range(12):
            l = int(rng.integers(0, 9))
            m1, m2 = (int(m) for m in rng.integers(-l, l + 1, size=2))
            specs.append(QSphericalHarmonic(l, m1, m2, float(rng.uniform(0.0, math.pi))))
        specs += top
        want = _sum_over_every_sphere_node(specs, n_polar, n_azimuth, conjugate)
        g = angular_gram(specs, n_polar, n_azimuth, conjugate_slot1=conjugate)
        np.testing.assert_allclose(g.entries, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_mixed_family_matches_sum_over_every_sphere_node(self, conjugate):
        # l = 0..30: orders shared across degrees and slots, negative m, |m| = l
        rng = np.random.default_rng(30)
        specs = [QSphericalHarmonic(l, -min(l, 2), min(l, 3), 0.6) for l in range(31)]
        for l in range(31):
            m1, m2 = (int(m) for m in rng.integers(-l, l + 1, size=2))
            specs.append(QSphericalHarmonic(l, m1, m2, float(rng.uniform(0.0, math.pi))))
        specs += [QSphericalHarmonic(30, -30, 30, 0.2), QSphericalHarmonic(29, 29, -29, 0.2)]
        want = _sum_over_every_sphere_node(specs, 64, 128, conjugate)
        g = angular_gram(specs, 64, 128, conjugate_slot1=conjugate)
        np.testing.assert_allclose(g.entries, want, rtol=0, atol=1e-14)
        assert g.max_closed_form_deviation() <= 1e-12

    def test_coarse_azimuth_rule_aliases(self):
        # on 2 azimuth nodes exp(-2i phi) sums to 2 pi, not 0: Y_1^-1 and Y_1^1 overlap
        specs = [QSphericalHarmonic(1, -1, -1, 0.5), QSphericalHarmonic(1, 1, 1, 0.5)]
        g = angular_gram(specs, n_polar=64, n_azimuth=2)
        assert g.entries[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert g.max_closed_form_deviation() > 0.5

    @staticmethod
    def _family_to(l_max):
        """Degrees 0..l_max in about eight steps, l_max - 1 and l_max; per degree
        m = +-l in opposite slots, m = 0 and m = l - 1, so |k| = 2 l_max occurs."""
        specs = []
        for l in sorted({*range(0, l_max + 1, max(1, l_max // 8)), max(l_max - 1, 0), l_max}):
            for m1, m2 in sorted({(l, -l), (-l, l), (0, min(l, 1)), (max(l - 1, 0), l)}):
                specs.append(QSphericalHarmonic(l, m1, m2, 0.3 + 0.1 * (l % 5)))
        return specs

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("l_max", [0, 1, 6, 63, 64, 120, 200])
    def test_default_rule_is_exact(self, l_max, conjugate):
        specs = self._family_to(l_max)
        assert multidim.angular_order(specs) == l_max + 1
        g = angular_gram(specs, conjugate_slot1=conjugate)
        assert g.max_closed_form_deviation() <= 1e-12
        want = angular_gram(specs, l_max + 1, 2 * l_max + 2, conjugate_slot1=conjugate)
        assert np.array_equal(g.entries, want.entries)

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("l_max", [1, 6, 64])
    def test_rule_one_order_short_misses(self, l_max, conjugate):
        g = angular_gram(self._family_to(l_max), l_max, 2 * l_max, conjugate_slot1=conjugate)
        assert g.max_closed_form_deviation() > 1e-6

    def test_too_coarse_rule_still_fails_verify(self, monkeypatch):
        # a planted defect: the sphere order one short of exact
        order = multidim.angular_order
        monkeypatch.setattr(multidim, "angular_order", lambda specs: order(specs) - 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "angular"])
        assert code == 3
        checks = {c["name"]: c for c in json.loads(out.getvalue())["results"]["checks"]}
        assert checks["angular_gram_matches_closed_form"]["passed"] is False


class TestFullSphericalEnergy:
    def test_equal_slots_any_angle(self):
        for theta in (0.0, 0.4, math.pi / 2):
            assert full_spherical_energy(2, 2, 1, theta) == pytest.approx(radial_energy(2, 1), abs=1e-13)

    def test_theta_zero_reduces(self):
        assert full_spherical_energy(3, 1, 2, 0.0) == pytest.approx(radial_energy(3, 2), abs=1e-13)

    def test_equal_mixture_frozen(self):
        assert full_spherical_energy(0, 1, 0, math.pi / 4) == pytest.approx(2.5, abs=1e-13)

    def test_matches_radial_expectation(self):
        for (u, v, l, theta) in [(0, 1, 0, math.pi / 4), (2, 0, 1, 0.3), (1, 3, 2, 1.2)]:
            s = radial_state(u, v, l, theta)
            assert radial_energy_expectation(s) == pytest.approx(
                full_spherical_energy(u, v, l, theta), abs=1e-10)

    def test_matches_radial_expectation_at_high_degree(self):
        s = radial_state(8, 7, 2, 0.6)
        assert abs(radial_energy_expectation(s) - full_spherical_energy(8, 7, 2, 0.6)) <= 1e-10

    def test_azimuthal_numbers_do_not_enter(self):
        # the energy depends on (u, v, l, theta) only; the angular factor is
        # normalized for every admissible azimuthal pair
        for m1, m2 in [(-2, 2), (0, 1), (2, 2)]:
            g = angular_gram([QSphericalHarmonic(2, m1, m2, 0.8)])
            assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-10)
