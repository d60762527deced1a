import math

import numpy as np
import pytest

from quatosc import oscillator1d
from quatosc.oscillator1d import (
    QPair,
    build_via_ladder,
    default_grid,
    energy_nm,
    energy_nm_correction_form,
    gram,
    hamiltonian,
    ladder,
    momentum,
    psi_n,
    psi_nm,
    schrodinger_residual,
)
from quatosc.specfun import make_rule
from quatosc.wavestate import (
    PhysicalParams,
    WaveState,
    apply,
    evaluate,
    expectation,
    inner,
    inner_quad,
)

PI4 = math.pi ** -0.25
THETAS = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
GRID = np.linspace(-6.0, 6.0, 41)


def sup_difference(a, b, t=0.0, grid=GRID):
    return max(abs(evaluate(a, x, t) - evaluate(b, x, t)) for x in grid)


class TestPsiN:
    @pytest.mark.parametrize("n", range(11))
    def test_normalized(self, n):
        s = psi_n(n)
        assert inner(s, s, 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_node_at_origin(self):
        assert abs(evaluate(psi_n(1), 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_energy(self, n):
        assert expectation(hamiltonian(), psi_n(n), 0.0) == pytest.approx(n + 0.5, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            psi_n(-1)


class TestPsiNM:
    def test_theta_zero_reduces_to_complex_state(self):
        a = psi_nm(QPair(3, 1, 0.0))
        b = psi_n(3)
        assert sup_difference(a, b, t=0.8) <= 1e-14

    def test_pure_slot1_value(self):
        q = evaluate(psi_nm(QPair(0, 0, math.pi / 2)), 0.0, 0.0)
        assert q.x2 == pytest.approx(PI4, abs=1e-15)
        assert abs(q.x0) <= 1e-16
        assert (q.x1, q.x3) == (0.0, 0.0)

    @pytest.mark.parametrize("n, m", [(3, 1), (0, 7), (5, 5)])
    def test_theta_zero_holds_the_complex_state_columns(self, n, m):
        # a zero sin(theta) gives no slot-1 row: psi_nm(n, m, 0) is psi_n(n), column for column
        a, b = psi_nm(QPair(n, m, 0.0)), psi_n(n)
        for name in ("slots", "amps", "freqs", "coefs"):
            assert getattr(a, name).dtype == getattr(b, name).dtype
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.slots.tolist() == [0] and a.coefs.shape == (1, 1, n + 1)

    @pytest.mark.parametrize("theta", THETAS)
    def test_normalized(self, theta):
        s = psi_nm(QPair(2, 4, theta))
        assert inner(s, s, 1.7) == pytest.approx(1.0, abs=1e-12)


class TestEnergy:
    @pytest.mark.parametrize("n, m", [(300, 0), (0, 201), (-1, 0), (1.5, 0), (0, True)])
    def test_labels_past_the_degree_cap_are_refused(self, n, m):
        # energy_nm would otherwise price a label that psi_nm refuses
        with pytest.raises(ValueError):
            QPair(n, m, 0.2)
        QPair(200, 200, 0.2)

    def test_zero_point(self):
        for theta in THETAS:
            assert energy_nm(QPair(0, 0, theta)) == pytest.approx(0.5, abs=1e-15)

    def test_pure_slot1_limit(self):
        assert energy_nm(QPair(1, 2, math.pi / 2)) == pytest.approx(2.5, abs=1e-14)

    def test_equal_mixture(self):
        q = QPair(1, 2, math.pi / 4)
        e = energy_nm(q)
        assert e == pytest.approx(2.0, abs=1e-14)
        assert expectation(hamiltonian(), psi_nm(q), 0.0) == pytest.approx(e, abs=1e-10)

    def test_both_forms_agree(self):
        for n in range(9):
            for m in range(9):
                for theta in THETAS:
                    q = QPair(n, m, theta)
                    assert abs(energy_nm(q) - energy_nm_correction_form(q)) <= 1e-14

    def test_expectation_matches_closed_form_sweep(self):
        h = hamiltonian()
        for n in range(9):
            for m in range(9):
                for theta in THETAS:
                    q = QPair(n, m, theta)
                    e = expectation(h, psi_nm(q), 0.0)
                    assert abs(e - energy_nm(q)) <= 1e-10

    def test_scales_with_units(self):
        p = PhysicalParams(omega=3.0, hbar=2.0)
        assert energy_nm(QPair(1, 1, 0.2), p) == pytest.approx(1.5 * 6.0, abs=1e-12)


class TestGram:
    def test_parallel_table_keeps_a_state_that_vanishes_at_every_point(self):
        # values are scaled to each state's peak magnitude; a zero peak leaves them as
        # they are (zero, parallel to every state) with no division by zero
        z0 = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]], dtype=complex)
        g = oscillator1d._family_gram([QPair(0, 0, 0.3), QPair(1, 1, 0.3)], np.eye(2), [(0, 0), (1, 1)],
                                      (z0, np.zeros_like(z0)))
        assert g.parallel.all()

    def test_sample_points_drawn_once(self):
        # one read-only draw per process, the same values as a fresh seeded stream
        ranges = ((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi))
        points = oscillator1d._sample_points(*ranges)
        assert isinstance(points, tuple) and oscillator1d._sample_points(*ranges) is points
        rng = np.random.default_rng(oscillator1d._SAMPLE_SEED)
        for p, (low, high) in zip(points, ranges):
            assert not p.flags.writeable
            np.testing.assert_array_equal(p, rng.uniform(low, high, size=oscillator1d._SAMPLE_COUNT))

    def test_sample_stream_literals_are_the_seeded_stream(self):
        # the literals spare every command the numpy.random import, not a bit of the draws
        stream = np.random.default_rng(oscillator1d._SAMPLE_SEED).random(10)
        assert np.array_equal(oscillator1d._SAMPLE_STREAM, stream)
        for ranges in (((-3.0, 3.0),), ((0.3, 3.0),), ((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi))):
            rng = np.random.default_rng(oscillator1d._SAMPLE_SEED)
            for p, (low, high) in zip(oscillator1d._sample_points(*ranges), ranges, strict=True):
                assert np.array_equal(p, rng.uniform(low, high, size=oscillator1d._SAMPLE_COUNT))

    def test_disjoint_pairs_identity(self):
        pairs = [QPair(0, 1, 0.6), QPair(2, 3, 0.6)]
        g = gram(pairs, 0.0)
        np.testing.assert_allclose(g.entries, np.eye(2), atol=1e-12)

    def test_shared_first_index(self):
        pairs = [QPair(0, 1, math.pi / 3), QPair(0, 2, math.pi / 3)]
        g = gram(pairs, 0.0)
        assert g.entries[0, 1] == pytest.approx(0.25, abs=1e-12)
        assert g.closed_form[0, 1] == pytest.approx(0.25, abs=1e-15)

    def test_single_pair(self):
        g = gram([QPair(4, 2, 1.0)], 0.3)
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_unit_diagonal(self):
        pairs = [QPair(n, m, 0.5 + 0.1 * n) for n in range(3) for m in range(3)]
        g = gram(pairs, 0.4)
        np.testing.assert_allclose(g.entries, g.entries.T, atol=1e-13)
        np.testing.assert_allclose(np.diag(g.entries), 1.0, atol=1e-10)

    def test_time_invariance(self):
        pairs = [QPair(0, 1, 0.9), QPair(1, 1, 0.9), QPair(2, 0, 0.9)]
        g0 = gram(pairs, 0.0)
        g1 = gram(pairs, 1.7)
        np.testing.assert_allclose(g0.entries, g1.entries, atol=1e-12)

    def test_closed_form_with_mixed_angles(self):
        pairs = [QPair(1, 2, 0.3), QPair(1, 3, 1.1), QPair(0, 2, 0.8)]
        g = gram(pairs, 0.6)
        assert g.max_closed_form_deviation() <= 1e-12

    def test_against_quadrature_oracle(self):
        pairs = [QPair(0, 1, 0.4), QPair(0, 2, 0.4), QPair(1, 1, 0.9)]
        g = gram(pairs, 0.5)
        rules = [make_rule("gauss_hermite", 64)]
        for i, qa in enumerate(pairs):
            for j, qb in enumerate(pairs):
                quad = inner_quad(psi_nm(qa), psi_nm(qb), 0.5, rules)
                assert abs(g.entries[i, j] - quad) <= 1e-10

    def test_parallelism_table(self):
        pairs = [QPair(0, 1, 0.7), QPair(0, 1, 0.7), QPair(2, 3, 0.2)]
        g = gram(pairs, 0.0)
        # identical states are pointwise parallel; equal angles are flagged
        assert bool(g.parallel[0, 0]) and bool(g.parallel[0, 1])
        assert bool(g.theta_equal[0, 1]) and not bool(g.theta_equal[0, 2])


class TestLadder:
    def test_lowering_annihilates_ground(self):
        out = apply(ladder("lower"), psi_n(0))
        assert out.norm() <= 1e-14

    def test_raising_bare_gaussian(self):
        # the bare Gaussian exp(-X^2/2) = pi^(1/4) phi_0
        s = WaveState(1, [0], [1.0 + 0j], [0.0], [[[math.pi ** 0.25]]], PhysicalParams())
        out = apply(ladder("raise"), s)
        for x in np.linspace(-2.5, 2.5, 11):
            want = math.sqrt(2.0) * x * math.exp(-0.5 * x * x)
            assert evaluate(out, x).x0 == pytest.approx(want, abs=1e-14)

    def test_ladder_maps_between_levels(self):
        # spatial profiles at t = 0; the raised state keeps its seed's
        # time frequency, so only the spatial parts coincide
        for n in range(6):
            up = apply(ladder("raise"), psi_n(n))
            assert sup_difference(up, math.sqrt(n + 1.0) * psi_n(n + 1)) <= 1e-13
        for n in range(1, 6):
            down = apply(ladder("lower"), psi_n(n))
            assert sup_difference(down, math.sqrt(float(n)) * psi_n(n - 1)) <= 1e-13

    def test_commutator_is_identity(self):
        lower, raise_ = ladder("lower"), ladder("raise")
        for n in range(21):
            s = psi_n(n)
            comm = apply(lower, apply(raise_, s)) - apply(raise_, apply(lower, s))
            assert (comm - s).norm() <= 1e-10

    def test_momentum_squared_is_energy_partner(self):
        # <P^2> = <X^2> on eigenfunctions (virial split)
        p2 = momentum() * momentum()
        for n in range(5):
            s = psi_n(n)
            val = inner(apply(p2, s), s, 0.0)
            assert val == pytest.approx(n + 0.5, abs=1e-11)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ladder("sideways")


class TestBuildViaLadder:
    def test_trivial_levels(self):
        q = QPair(0, 0, 0.8)
        assert sup_difference(build_via_ladder(q), psi_nm(q), t=0.5) <= 1e-14

    def test_mixed_levels(self):
        q = QPair(3, 1, 0.7)
        assert sup_difference(build_via_ladder(q), psi_nm(q), t=0.9) <= 1e-10

    def test_unit_norm(self):
        s = build_via_ladder(QPair(5, 4, 1.2))
        assert inner(s, s, 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,m", [(0, 6), (6, 0), (4, 5)])
    def test_sweep(self, n, m):
        q = QPair(n, m, 0.35)
        assert sup_difference(build_via_ladder(q), psi_nm(q)) <= 1e-10

    def test_top_of_degree_cap(self):
        q = QPair(200, 199, 0.7)
        assert sup_difference(build_via_ladder(q), psi_nm(q), t=0.4) <= 1e-10


class TestSchrodingerResidual:
    @pytest.mark.parametrize("q", [QPair(0, 0, 0.0), QPair(1, 2, 0.7), QPair(4, 3, math.pi / 2)])
    def test_solutions_have_tiny_residual(self, q):
        assert schrodinger_residual(psi_nm(q), t=1.1) <= 1e-10

    def test_linearity(self):
        s = 2.0 * psi_n(1)
        assert schrodinger_residual(s, t=0.3) <= 1e-10

    def test_wrong_frequency_detected(self):
        # PI4 exp(-X^2/2) = phi_0
        bad = WaveState(1, [0], [PI4], [-1.6], [[[math.pi ** 0.25]]], PhysicalParams())
        assert schrodinger_residual(bad, t=0.0) >= 0.05

    def test_default_grid_span(self):
        g = default_grid()
        assert len(g) == 41
        assert g[0] == pytest.approx(-6.0) and g[-1] == pytest.approx(6.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            schrodinger_residual(psi_n(0), grid=[])
