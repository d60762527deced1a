import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatosc.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    SymplecticPair,
    _parallel,
    conj,
    is_parallel,
    mul,
    right_mul_i,
    sc,
)


def left_matrix(q: Quaternion) -> np.ndarray:
    """Oracle: 4x4 real matrix of left multiplication by q."""
    a0, a1, a2, a3 = q.x0, q.x1, q.x2, q.x3
    return np.array([
        [a0, -a1, -a2, -a3],
        [a1, a0, -a3, a2],
        [a2, a3, a0, -a1],
        [a3, -a2, a1, a0],
    ])


def as_vector(q: Quaternion) -> np.ndarray:
    return np.array([q.x0, q.x1, q.x2, q.x3])


def oracle_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    return Quaternion(*(left_matrix(a) @ as_vector(b)))


# natural-scale components keep the absolute tolerances of the algebra
# identities meaningful (triple products stay O(10))
finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


class TestMul:
    def test_i_times_j_is_k(self):
        assert mul(I, J) == K
        assert mul(J, I) == -K

    def test_identity_element(self):
        q = Quaternion(0.3, -1.2, 4.0, 0.7)
        assert mul(q, ONE) == q
        assert mul(ONE, q) == q

    def test_one_plus_j_times_i(self):
        # oracle: matrix representation of left multiplication
        got = mul(ONE + J, I)
        assert got == oracle_mul(ONE + J, I)
        assert got == I - K

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_matches_matrix_oracle(self, a, b):
        got = as_vector(mul(a, b))
        want = left_matrix(a) @ as_vector(b)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_norm_multiplicative(self, p, q):
        assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-12

    @given(quaternions, quaternions, quaternions)
    @settings(max_examples=100)
    def test_associative(self, p, q, r):
        assert abs((p * q) * r - p * (q * r)) <= 1e-12

    def test_real_scalar_on_either_side(self):
        q = Quaternion(0.3, -1.2, 4.0, 0.7)
        assert 2.0 * q == q * 2.0 == Quaternion(0.6, -2.4, 8.0, 1.4)
        assert 3 * q == q * 3


class TestConj:
    def test_imaginary_negation(self):
        assert conj(I) == -I

    def test_real_fixed_point(self):
        assert conj(ONE) == ONE

    def test_product_reversal(self):
        # conj(i*j) = conj(j)*conj(i); both expand to -k componentwise
        assert conj(mul(I, J)) == mul(conj(J), conj(I))
        assert conj(mul(I, J)) == -K

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_antiautomorphism(self, p, q):
        lhs = as_vector(conj(p * q))
        rhs = as_vector(conj(q) * conj(p))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSc:
    def test_component_read(self):
        assert sc(Quaternion(3.0, 2.0, -1.0, 0.0)) == 3.0

    def test_pure_imaginary_product(self):
        assert sc(mul(I, J)) == 0.0

    def test_norm_square(self):
        p = Quaternion(1.5, -0.5, 2.0, 3.0)
        # componentwise expansion: p*conj(p) has scalar part sum of squares
        assert sc(p * conj(p)) == pytest.approx(1.5**2 + 0.5**2 + 2.0**2 + 3.0**2, abs=1e-14)

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_cyclic(self, p, q):
        assert abs(sc(p * q) - sc(q * p)) <= 1e-13

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_conj_symmetry(self, p, q):
        assert abs(sc(p * conj(q)) - sc(q * conj(p))) <= 1e-14


class TestRightMulI:
    def test_one(self):
        assert right_mul_i(ONE) == I

    def test_j_gives_minus_k(self):
        assert right_mul_i(J) == -K

    def test_symplectic_example(self):
        q = Quaternion.from_symplectic(1 + 1j, 2 + 0j)
        z0, z1 = right_mul_i(q).to_symplectic()
        # componentwise Hamilton product oracle
        assert right_mul_i(q) == oracle_mul(q, I)
        assert z0 == -1 + 1j
        assert z1 == -2j

    @given(quaternions)
    @settings(max_examples=100)
    def test_fourth_power_identity(self, q):
        out = q
        for _ in range(4):
            out = right_mul_i(out)
        assert out == q

    @given(quaternions)
    @settings(max_examples=100)
    def test_symplectic_law(self, q):
        z0, z1 = q.to_symplectic()
        w0, w1 = right_mul_i(q).to_symplectic()
        assert w0 == 1j * z0
        assert w1 == -1j * z1

    @given(quaternions)
    @settings(max_examples=100)
    def test_matches_hamilton_product(self, q):
        assert right_mul_i(q) == q * I


class TestSymplectic:
    def test_round_trip(self):
        q = Quaternion(0.1, -2.0, 3.5, 4.25)
        z0, z1 = q.to_symplectic()
        assert Quaternion.from_symplectic(z0, z1) == q

    def test_pair_fields(self):
        pair = Quaternion(1.0, 2.0, 3.0, 4.0).to_symplectic()
        assert pair == SymplecticPair(1 + 2j, 3 + 4j)

    def test_reassembly_componentwise(self):
        # q = z0 + z1*j assembled through the Hamilton product
        q = Quaternion(0.5, -1.5, 2.5, -3.5)
        z0, z1 = q.to_symplectic()
        rebuilt = Quaternion(z0.real, z0.imag, 0, 0) + Quaternion(z1.real, z1.imag, 0, 0) * J
        assert rebuilt == q


class TestIsParallel:
    def test_self_parallel(self):
        p = ONE + I + J
        assert is_parallel(p, p, 1e-12)

    def test_distinct_units_not_parallel(self):
        # i*conj(j) = -i*j = -k, purely imaginary
        assert not is_parallel(I, J, 1e-12)

    def test_real_multiple_parallel(self):
        p = Quaternion(2.0, 2.0, 0.0, 0.0)
        q = Quaternion(1.0, 1.0, 0.0, 0.0)
        assert (p * conj(q)).to_symplectic() == SymplecticPair(4 + 0j, 0j)
        assert is_parallel(p, q, 0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_parallel(ONE, ONE, -1.0)

    @pytest.mark.parametrize("pairs", ["random", "parallel"])
    def test_array_rule_matches_pairwise(self, pairs):
        rng = np.random.default_rng(5)
        p = rng.uniform(-2.0, 2.0, size=(4, 40))
        if pairs == "random":
            q = rng.uniform(-2.0, 2.0, size=(4, 40))
        else:
            # real multiples, with rounding left in the imaginary part of p*conj(q)
            q = p * rng.uniform(-3.0, 3.0, size=40)
        for tol in (0.0, 1e-15, 1e-10):
            table = _parallel(p[:, :, None], q[:, None, :], tol)
            want = [[is_parallel(Quaternion(*p[:, i]), Quaternion(*q[:, j]), tol) for j in range(40)]
                    for i in range(40)]
            assert table.tolist() == want


def test_components_must_be_finite():
    with pytest.raises(ValueError):
        Quaternion(math.inf, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Quaternion(0.0, math.nan, 0.0, 0.0)
