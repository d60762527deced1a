import math

import mpmath
import numpy as np
import pytest
from scipy.special import binom, eval_genlaguerre, eval_hermite, roots_genlaguerre, sph_harm_y

from monomial_refs import gaussian_moment, hermite, hermite_coeffs, hermite_norm_const, laguerre_coeffs, radial_moment
from quatosc.specfun import (
    DEGREE_CAP,
    _legendre_rows,
    laguerre,
    laguerre_norm_const,
    make_rule,
    sph_harm,
)

GRID = np.linspace(-3.0, 3.0, 25)


def laguerre_series(u, alpha, x):
    """Oracle: explicit series sum_i (-1)^i C(u+alpha, u-i) x^i / i!."""
    return sum((-1.0) ** i * binom(u + alpha, u - i) * x**i / math.factorial(i)
               for i in range(u + 1))


class TestHermite:
    def test_base_case(self):
        assert hermite(0, 1.7) == 1.0

    def test_degree_two_at_one(self):
        # recurrence oracle: H_2(x) = 4x^2 - 2
        assert hermite(2, 1.0) == pytest.approx(2.0, abs=0)

    def test_odd_parity_at_zero(self):
        assert hermite(3, 0.0) == 0.0
        assert hermite(7, 0.0) == 0.0

    @pytest.mark.parametrize("n", range(0, 26, 5))
    def test_against_scipy(self, n):
        np.testing.assert_allclose(hermite(n, GRID), eval_hermite(n, GRID), rtol=1e-12)

    def test_coeffs_match_values(self):
        for n in range(12):
            vals = np.polynomial.polynomial.polyval(GRID, np.asarray(hermite_coeffs(n)))
            np.testing.assert_allclose(vals, hermite(n, GRID), rtol=1e-12, atol=1e-10)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            hermite(DEGREE_CAP + 1, 0.0)
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    def test_orthogonality_by_moments(self):
        # integral H_n H_n' e^{-x^2} = delta 2^n n! sqrt(pi); deviations are
        # measured on the scale of the normalized product, sqrt(h_n h_n')
        def h(n):
            return 2.0**n * math.factorial(n) * math.sqrt(math.pi)

        for n in range(16):
            for np_ in range(16):
                prod = np.convolve(hermite_coeffs(n), hermite_coeffs(np_))
                val = math.fsum(c * gaussian_moment(k) for k, c in enumerate(prod))
                want = h(n) if n == np_ else 0.0
                assert abs(val - want) / math.sqrt(h(n) * h(np_)) <= 1e-10


class TestLaguerre:
    def test_base_case(self):
        assert laguerre(0, 0.5, 3.0) == 1.0

    def test_linear_case(self):
        # series oracle: L_1^{(a)}(x) = 1 + a - x
        assert laguerre(1, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert laguerre(1, 0.5, 1.0) == pytest.approx(laguerre_series(1, 0.5, 1.0), abs=1e-15)

    def test_value_at_zero(self):
        assert laguerre(2, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert laguerre(2, 0.0, 0.0) == pytest.approx(laguerre_series(2, 0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("u", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5])
    def test_against_series_and_scipy(self, u, alpha):
        x = np.linspace(0.0, 8.0, 17)
        series = np.array([laguerre_series(u, alpha, xi) for xi in x])
        np.testing.assert_allclose(laguerre(u, alpha, x), series, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(laguerre(u, alpha, x), eval_genlaguerre(u, alpha, x),
                                   rtol=1e-10, atol=1e-10)

    def test_coeffs_match_values(self):
        x = np.linspace(0.0, 6.0, 13)
        for u in range(8):
            vals = np.polynomial.polynomial.polyval(x, np.asarray(laguerre_coeffs(u, 1.5)))
            np.testing.assert_allclose(vals, laguerre(u, 1.5, x), rtol=1e-10, atol=1e-10)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 0.5)

    @pytest.mark.parametrize("l", [0, 2, 6, 150])
    def test_level_rows_equal_single_level_calls(self, l):
        # one upward pass yields every asked-for degree, bit for bit its own call
        rng = np.random.default_rng(l)
        x = np.concatenate([make_rule("half_line", 120).nodes ** 2, rng.uniform(0.0, 400.0, 50)])
        for _ in range(10):
            levels = sorted(rng.choice(DEGREE_CAP + 1, size=rng.integers(1, 40), replace=False).tolist())
            rows = laguerre(levels, l + 0.5, x)
            assert rows.shape == (len(levels), len(x))
            for u, row in zip(levels, rows):
                assert np.array_equal(row, laguerre(u, l + 0.5, x))
        assert laguerre([3, 0, 3], 0.5, 1.7).tolist() == [laguerre(3, 0.5, 1.7), 1.0, laguerre(3, 0.5, 1.7)]

    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_orthogonality_half_line(self, l):
        # weight x^(l+1/2) e^{-x} via the half-line rule with x = r^2
        alpha = l + 0.5
        rule = make_rule("half_line", 40)
        for u in range(11):
            for up in range(11):
                f = 2.0 * laguerre(u, alpha, rule.nodes**2) * laguerre(up, alpha, rule.nodes**2) \
                    * rule.nodes ** (2 * l) * np.exp(-rule.nodes**2)
                val = float(np.dot(rule.weights, f))
                want = math.gamma(u + alpha + 1.0) / math.factorial(u) if u == up else 0.0
                scale = math.gamma(u + alpha + 1.0) / math.factorial(u)
                assert abs(val - want) / scale <= 1e-9


class TestSphHarm:
    def test_constant_mode(self):
        assert sph_harm(0, 0, 0.3, 1.2) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-15)
        assert abs(sph_harm(0, 0, 0.3, 1.2).imag) == 0.0

    def test_polar_axis_value(self):
        assert sph_harm(1, 0, 0.0, 0.0).real == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)), abs=1e-15)

    def test_conjugation_symmetry(self):
        for l in range(5):
            for m in range(-l, l + 1):
                for th, ph in [(0.4, 0.9), (1.3, 2.2), (2.8, 5.0)]:
                    lhs = np.conj(sph_harm(l, m, th, ph))
                    rhs = (-1.0) ** m * sph_harm(l, -m, th, ph)
                    assert abs(lhs - rhs) <= 1e-13

    def test_against_scipy(self):
        th = np.linspace(0.05, math.pi - 0.05, 9)
        ph = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
        for l in range(9):
            for m in range(-l, l + 1):
                ours = sph_harm(l, m, th[:, None], ph[None, :])
                ref = sph_harm_y(l, m, th[:, None], ph[None, :])
                np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("l", [40, 100, 150, 200])
    def test_against_scipy_at_high_degree(self, l):
        # both poles and interior polar angles, each order the degree pass treats apart
        th = np.concatenate([[0.0, math.pi], np.linspace(0.05, math.pi - 0.05, 19)])
        ph = np.linspace(0.0, 2 * math.pi, 7, endpoint=False)
        for m in sorted({0, 1, l // 2, l - 1, l} | {-1, -(l // 2), -(l - 1), -l}):
            ours = sph_harm(l, m, th[:, None], ph[None, :])
            ref = sph_harm_y(l, m, th[:, None], ph[None, :])
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)

    def test_out_of_range_m(self):
        with pytest.raises(ValueError):
            sph_harm(2, 3, 0.1, 0.1)
        with pytest.raises(ValueError):
            sph_harm(-1, 0, 0.1, 0.1)

    def test_degree_above_cap_rejected(self):
        with pytest.raises(ValueError, match="degree cap"):
            sph_harm(DEGREE_CAP + 1, 0, 0.1, 0.1)

    @pytest.mark.parametrize("m", [0, 1, 7, 150])
    def test_legendre_rows_equal_one_degree_passes(self, m):
        # one pass over several degrees gives each row bit for bit as a pass to that degree alone
        polar = np.concatenate([[0.0, math.pi], np.linspace(0.1, 3.0, 11)])
        x, s = np.cos(polar), np.sin(polar)
        degrees = sorted({m, m + 1, m + 2, m + 5, 160, 199, DEGREE_CAP})
        rows = _legendre_rows(m, degrees, x, s)
        assert rows.shape == (len(degrees), len(x))
        for l, row in zip(degrees, rows):
            np.testing.assert_array_equal(row, _legendre_rows(m, [l], x, s)[0])
            np.testing.assert_array_equal(row, sph_harm(l, m, polar, 0.0).real)

    @pytest.mark.parametrize("polar", [1e-8, math.pi - 1e-8, 1e-4])
    def test_accurate_next_to_the_poles(self, polar):
        # sin(polar) is passed in, not formed as sqrt(1 - cos^2), which rounds to 0 at pi - 1e-8
        ours = sph_harm(200, 1, polar, 0.3)
        ref = complex(sph_harm_y(200, 1, polar, 0.3))
        assert ref != 0
        assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_orthonormality_by_quadrature(self):
        gl = make_rule("gauss_legendre", 64)
        az = make_rule("uniform_periodic", 128)
        polar = np.arccos(gl.nodes)[:, None]
        azim = az.nodes[None, :]
        w = (gl.weights[:, None] * az.weights[None, :]).ravel()
        pairs = [(l, m) for l in range(9) for m in range(-l, l + 1)]
        vals = np.stack([np.broadcast_to(sph_harm(l, m, polar, azim), (64, 128)).ravel()
                         for l, m in pairs])
        overlaps = (vals * w) @ vals.conj().T
        np.testing.assert_allclose(overlaps, np.eye(len(pairs)), atol=1e-10)


class TestNormConstants:
    def test_ground_constant(self):
        assert hermite_norm_const(0) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_first_excited(self):
        assert hermite_norm_const(1) == pytest.approx(math.pi ** -0.25 / math.sqrt(2.0), abs=1e-15)

    def test_defining_identity(self):
        for n in range(21):
            a = hermite_norm_const(n)
            assert a * a * 2.0**n * math.factorial(n) * math.sqrt(math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_by_quadrature(self):
        # integral of (A_n H_n e^{-x^2/2})^2 dx = 1 in natural units
        rule = make_rule("gauss_hermite", 64)
        for n in range(6):
            f = (hermite_norm_const(n) * hermite(n, rule.nodes)) ** 2
            assert float(np.dot(rule.weights, f)) == pytest.approx(1.0, abs=1e-12)

    def test_laguerre_constant_frozen(self):
        assert laguerre_norm_const(0, 0) == pytest.approx(math.sqrt(4.0 / math.sqrt(math.pi)), abs=1e-15)

    @pytest.mark.parametrize("u, l", [(1.5, 2), (True, 0), (500, 2), (0, 201), (-1, 0), (2, False)])
    def test_laguerre_constant_checks_its_labels(self, u, l):
        with pytest.raises(ValueError):
            laguerre_norm_const(u, l)

    def test_laguerre_constant_positive(self):
        for u in range(6):
            for l in range(5):
                assert laguerre_norm_const(u, l) > 0.0

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_radial_normalization_by_quadrature(self, l):
        rule = make_rule("half_line", 40)
        for u in range(5):
            nu = laguerre_norm_const(u, l)
            f = (nu * laguerre(u, l + 0.5, rule.nodes**2)) ** 2 * rule.nodes ** (2 * l) * np.exp(-rule.nodes**2)
            assert float(np.dot(rule.weights, f)) == pytest.approx(1.0, abs=1e-11)


class TestMoments:
    def test_zeroth(self):
        assert gaussian_moment(0) == pytest.approx(math.sqrt(math.pi), abs=0)

    def test_odd_vanish(self):
        assert gaussian_moment(1) == 0.0
        assert gaussian_moment(17) == 0.0

    def test_second(self):
        assert gaussian_moment(2) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-16)

    def test_even_match_gamma(self):
        for k in range(0, 41, 2):
            assert gaussian_moment(k) == pytest.approx(math.gamma((k + 1) / 2.0), rel=1e-13)

    def test_against_quadrature(self):
        rule = make_rule("gauss_hermite", 32)
        for k in range(13):
            want = gaussian_moment(k)
            got = float(np.dot(rule.weights, rule.nodes**k))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_radial_frozen(self):
        assert radial_moment(0) == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-15)
        assert radial_moment(1) == pytest.approx(3.0 * math.sqrt(math.pi) / 8.0, rel=1e-15)

    def test_radial_consistency(self):
        for k in range(21):
            assert radial_moment(k) == pytest.approx(0.5 * gaussian_moment(2 * k + 2), rel=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_moment(-1)
        with pytest.raises(ValueError):
            radial_moment(-1)


class TestMakeRule:
    def test_gauss_hermite_moment(self):
        rule = make_rule("gauss_hermite", 64)
        got = float(np.dot(rule.weights, rule.nodes**10))
        assert abs(got - gaussian_moment(10)) <= 1e-12

    def test_gauss_legendre_parabola(self):
        rule = make_rule("gauss_legendre", 32)
        assert rule.integrate(lambda x: x**2) == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_uniform_periodic_fourier_mode(self):
        rule = make_rule("uniform_periodic", 16)
        val = np.dot(rule.weights, np.exp(3j * rule.nodes))
        assert abs(val) <= 1e-13

    def test_half_line_moment(self):
        rule = make_rule("half_line", 24)
        got = float(np.dot(rule.weights, rule.nodes**4 * np.exp(-rule.nodes**2)))
        assert got == pytest.approx(radial_moment(2), rel=1e-13)

    @pytest.mark.parametrize("order", [5, 40, 150])
    def test_half_line_against_scipy(self, order):
        # the rule lives in r = sqrt(s) and its weights leave exp(-s) with the
        # integrand: w_r = exp(s) w_s / 2 for scipy's weights w_s.  At order 150
        # scipy's weight at s = 531 is itself off by 1.1e-12 against the
        # 60-digit Christoffel sum (test below), hence 2e-12 for the weights
        s, w = roots_genlaguerre(order, 0.5)
        rule = make_rule("half_line", order)
        np.testing.assert_allclose(rule.nodes**2, s, rtol=1e-13, atol=0)
        np.testing.assert_allclose(rule.weights, 0.5 * w * np.exp(s), rtol=2e-12, atol=0)

    def test_half_line_weights_against_mpmath_at_order_150(self):
        # exp(s) / (2 sum_k psi_k(s)^2) at this rule's nodes, psi_k orthonormal
        # for s^(1/2) exp(-s), from the recurrence at 60 digits
        order = 150
        rule = make_rule("half_line", order)
        with mpmath.workdps(60):
            want = []
            for r in rule.nodes:
                s = mpmath.mpf(float(r)) ** 2
                prev, cur = mpmath.mpf(0), 1 / mpmath.sqrt(mpmath.gamma(1.5))
                total = cur * cur
                for k in range(order - 1):
                    prev, cur = cur, ((s - 2 * k - 1.5) * cur - mpmath.sqrt(k * (k + 0.5)) * prev) \
                        / mpmath.sqrt((k + 1) * (k + 1.5))
                    total += cur * cur
                want.append(float(mpmath.exp(s) / (2 * total)))
        np.testing.assert_allclose(rule.weights, want, rtol=1e-12, atol=0)

    def test_half_line_exact_moments_at_order_205(self):
        # integral of s^k exp(-s) s^(1/2) ds / 2 = Gamma(k + 3/2) / 2 for every k the
        # rule integrates exactly, k <= 2 * 205 - 1; summed in mpmath, where
        # s^409 exp(-s) stays representable
        order = 205
        rule = make_rule("half_line", order)
        with mpmath.workdps(50):
            s = [mpmath.mpf(float(r)) ** 2 for r in rule.nodes]
            w = [mpmath.mpf(float(x)) * mpmath.exp(-si) for x, si in zip(rule.weights, s)]
            worst = max(abs(mpmath.fsum(wi * si**k for wi, si in zip(w, s)) / (mpmath.gamma(k + 1.5) / 2) - 1)
                        for k in range(2 * order))
        assert worst <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            make_rule("gauss_hermite", 0)
        with pytest.raises(ValueError):
            make_rule("chebyshev", 8)

    @pytest.mark.parametrize("kind", ["gauss_hermite", "gauss_legendre", "half_line"])
    def test_gaussian_rules_have_positive_weights(self, kind):
        rule = make_rule(kind, 20)
        assert len(rule.nodes) == len(rule.weights) == 20
        assert np.all(rule.weights > 0)

    def test_exactness_boundary(self):
        # k nodes integrate the degree 2k-1 monomial exactly (it is odd, so zero)
        rule = make_rule("gauss_hermite", 8)
        assert abs(float(np.dot(rule.weights, rule.nodes**15))) <= 1e-12
        got = float(np.dot(rule.weights, rule.nodes**14))
        assert got == pytest.approx(gaussian_moment(14), rel=1e-12)
