"""Exact arithmetic: ring axioms, realizations, zeta factorizations."""

import pytest
from hypothesis import given, strategies as st

from ncmilnor import ring
from ncmilnor.ring import (
    L,
    ONE,
    ZERO,
    KeyedClass,
    LefschetzPoly,
    UVPoly,
    ZetaFactorization,
    e_polynomial,
    euler_realization,
    zeta_equal,
)

polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=9).map(LefschetzPoly)
zetas = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=-3, max_value=3)),
    max_size=5,
).map(ZetaFactorization)


def _dense_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def dense_equal(a, b):
    """Oracle for zeta equality that does not use the normal form: move the
    negative-exponent factors across the equality, expand both sides as dense
    polynomials in t and compare their coefficients.  Cost grows with the
    orders and exponents, so only the small ``zetas`` inputs are fed to it."""
    sides = [[1], [1]]
    for side, z in enumerate((a, b)):
        for order, exponent in z:
            target = side if exponent > 0 else 1 - side
            for _ in range(abs(exponent)):
                sides[target] = _dense_mul(sides[target], [1] + [0] * (order - 1) + [-1])
    return sides[0] == sides[1]


class TestLefschetzArith:
    def test_binomial_square(self):
        assert (L - ONE) * (L - ONE) == LefschetzPoly((1, -2, 1))

    def test_additive_identity(self):
        p = LefschetzPoly((3, 0, -7))
        assert p + ZERO == p

    def test_cancellation(self):
        p = L + ONE
        assert p - p == ZERO
        assert (p - p).is_zero

    def test_normal_form_no_trailing_zeros(self):
        assert LefschetzPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert LefschetzPoly((0, 0)).coeffs == ()

    def test_checked_constructor_keeps_the_normal_form(self):
        for coeffs in ([1, 2, 0, 0], (1, 2), [0, 0], ()):
            p = LefschetzPoly.from_checked(coeffs)
            assert p == LefschetzPoly(coeffs)
            assert type(p.coeffs) is tuple and p.coeffs == LefschetzPoly(coeffs).coeffs

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LefschetzPoly.monomial(-1)
        with pytest.raises(ValueError):
            L ** -1

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 13])
    def test_power_product_count(self, monkeypatch, n):
        # binary powering needs bit_length(n) + popcount(n) - 2 products
        p = L - ONE
        repeated = ONE
        for _ in range(n):
            repeated = repeated * p
        calls = []
        real = ring._mul

        def counting(a, b):
            calls.append(None)
            return real(a, b)

        monkeypatch.setattr(ring, "_mul", counting)
        assert p**n == repeated
        assert len(calls) == max(0, n.bit_length() + bin(n).count("1") - 2)

    @given(polys, st.integers(min_value=0, max_value=9))
    def test_power_is_repeated_product(self, a, n):
        repeated = ONE
        for _ in range(n):
            repeated = repeated * a
        assert a**n == repeated

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_associative_and_distributive(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_units(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a * ZERO == ZERO

    def test_text_form(self):
        assert str(ZERO) == "0"
        assert str(L - ONE) == "-1 + 1*L"
        assert str(LefschetzPoly((2, 0, -3))) == "2 + -3*L^2"


class TestRealizations:
    def test_euler_examples(self):
        assert euler_realization((L - ONE) ** 2) == 0
        assert euler_realization(L + ONE) == 2
        assert euler_realization(L**2 + L + ONE) == 3

    def test_e_polynomial_examples(self):
        assert e_polynomial(L) == UVPoly({(1, 1): 1})
        assert e_polynomial(L - ONE) == UVPoly({(1, 1): 1, (0, 0): -1})
        assert e_polynomial(ONE) == UVPoly({(0, 0): 1})

    def test_uv_text_form(self):
        assert str(UVPoly({})) == "0"
        assert str(e_polynomial(L - ONE)) == "-1 + 1*uv"
        assert str(UVPoly({(2, 3): 4, (1, 0): 1, (0, 1): -2})) == "-2*v + 1*u + 4*u^2v^3"

    @given(polys, polys)
    def test_euler_is_ring_hom(self, a, b):
        assert euler_realization(a + b) == euler_realization(a) + euler_realization(b)
        assert euler_realization(a * b) == euler_realization(a) * euler_realization(b)

    @given(polys, polys)
    def test_e_polynomial_is_ring_hom(self, a, b):
        assert e_polynomial(a + b) == e_polynomial(a) + e_polynomial(b)
        assert e_polynomial(a * b) == e_polynomial(a) * e_polynomial(b)

    @given(polys)
    def test_e_polynomial_specializes_to_euler(self, a):
        assert e_polynomial(a).evaluate(1, 1) == euler_realization(a)

    @given(polys)
    def test_e_polynomial_symmetric(self, a):
        assert e_polynomial(a).is_symmetric()


class TestKeyedClass:
    def test_disjoint_keys(self):
        assert KeyedClass({1: L}) + KeyedClass({2: ONE}) == KeyedClass({1: L, 2: ONE})

    def test_cancellation_empties(self):
        difference = KeyedClass({1: L}) - KeyedClass({1: L})
        assert difference == KeyedClass()
        assert difference.entries == {}

    def test_identity(self):
        assert KeyedClass() + KeyedClass({3: L - ONE}) == KeyedClass({3: L - ONE})

    def test_zero_entries_dropped(self):
        assert KeyedClass({2: ZERO, 3: L}).entries == {3: L}

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            KeyedClass({0: L})

    def test_text_form(self):
        assert str(KeyedClass({2: L - ONE, 1: ONE})) == "{1: 1, 2: -1 + 1*L}"

    def test_truth_is_nonemptiness(self):
        assert KeyedClass({1: L})
        assert not KeyedClass()
        assert not KeyedClass({1: L}) - KeyedClass({1: L})


class TestZeta:
    def test_normalize_merges(self):
        assert ZetaFactorization([(2, 1), (2, 1)]).factors == ((2, 2),)

    def test_normalize_cancels(self):
        assert ZetaFactorization([(3, 1), (3, -1)]).factors == ()

    def test_normalize_sorts(self):
        assert ZetaFactorization([(6, -1), (2, 1)]).factors == ((2, 1), (6, -1))

    def test_degree_is_the_sum_of_order_times_exponent(self):
        assert ZetaFactorization().degree == 0
        assert ZetaFactorization([(2, 3), (5, -1)]).degree == 1
        # merging and cancelling factors keeps the sum
        assert ZetaFactorization([(2, 1), (2, 1), (3, -2), (3, 2)]).degree == 4

    def test_equal_distinguishes_expansions(self):
        # (1 - t^2) expands to 1 - t^2, while (1 - t)^2 is 1 - 2t + t^2
        a, b = ZetaFactorization([(2, 1)]), ZetaFactorization([(1, 2)])
        assert not zeta_equal(a, b)
        assert not dense_equal(a, b)

    def test_equal_after_normalize(self):
        a = ZetaFactorization([(2, 1)])
        b = ZetaFactorization([(2, 1), (5, 0)])
        assert zeta_equal(a, b)
        assert a == b

    def test_order_independence(self):
        assert zeta_equal(
            ZetaFactorization([(1, 1), (2, 1)]), ZetaFactorization([(2, 1), (1, 1)])
        )

    def test_cyclotomic_identity(self):
        # (1-t^2) = (1-t)(1+t) is NOT of the shape (1-t^N)^e, so the products
        # (1-t^2)(1-t^3) and (1-t)(1-t^6) differ even though degrees match.
        a = ZetaFactorization([(2, 1), (3, 1)])
        b = ZetaFactorization([(1, 1), (6, 1)])
        assert not zeta_equal(a, b)
        assert not dense_equal(a, b)

    def test_negative_exponents_cross_multiplied(self):
        # (1-t^2)/(1-t^2) == 1
        a = ZetaFactorization([(2, 1), (2, -1)])
        assert zeta_equal(a, ZetaFactorization())
        assert dense_equal(a, ZetaFactorization())
        # (1-t)^2 (1-t^2)^-1 is (1-t)/(1+t), not 1
        b = ZetaFactorization([(1, 2), (2, -1)])
        assert not zeta_equal(b, ZetaFactorization())
        assert not dense_equal(b, ZetaFactorization())

    @given(zetas)
    def test_equal_reflexive_and_stable_under_normalize(self, z):
        assert zeta_equal(z, z)
        assert ZetaFactorization(z.factors) == z

    @given(zetas, zetas)
    def test_equal_symmetric(self, a, b):
        assert zeta_equal(a, b) == zeta_equal(b, a)

    @given(zetas, zetas)
    def test_normal_form_decides_equality(self, a, b):
        # for factorizations into (1-t^N) powers the normal form is canonical
        assert dense_equal(a, b) == (a == b)

    def test_text_form(self):
        assert str(ZetaFactorization([(6, -1), (2, 1), (3, 1)])) == "(1-t^2)^1 (1-t^3)^1 (1-t^6)^-1"
        assert str(ZetaFactorization()) == "1"
