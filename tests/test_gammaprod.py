import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import GammaProduct, PoleError, gamma_ratio, log_gamma_approx, pochhammer
from mopexact.gammaprod import rising_row

rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7]))
small_ints = st.integers(-6, 8)


class TestPochhammer:
    def test_half_cubed(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_empty_product(self):
        assert pochhammer(Fraction(-7, 3), 0) == 1
        assert pochhammer(Fraction(123), 0) == 1

    def test_zero_in_chain(self):
        assert pochhammer(-3, 5) == 0

    def test_negative_order(self):
        # (a)_{-m} = 1 / ((a-1)...(a-m))
        assert pochhammer(Fraction(5, 3), -1) == Fraction(3, 2)
        assert pochhammer(Fraction(7, 2), -2) == Fraction(4, 15)

    def test_negative_order_zero_factor(self):
        with pytest.raises(ZeroDivisionError):
            pochhammer(2, -3)

    @given(a=st.one_of(rationals, st.fractions(-20, 20, max_denominator=60)), n=st.integers(-8, 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_fraction_product(self, a, n):
        # the integer-numerator kernel against the factor-by-factor definition
        if n >= 0:
            expected = Fraction(1)
            for j in range(n):
                expected *= a + j
            assert pochhammer(a, n) == expected
            return
        factors = [a - j for j in range(1, -n + 1)]
        if 0 in factors:
            with pytest.raises(ZeroDivisionError):
                pochhammer(a, n)
            return
        expected = Fraction(1)
        for factor in factors:
            expected /= factor
        result = pochhammer(a, n)
        assert isinstance(result, Fraction) and result == expected

    @given(a=rationals, m=small_ints, n=small_ints)
    @settings(max_examples=200, deadline=None)
    def test_addition_law(self, a, m, n):
        # (a)_{m+n} = (a)_m (a+m)_n whenever both sides are defined
        try:
            lhs = pochhammer(a, m + n)
            rhs = pochhammer(a, m) * pochhammer(a + m, n)
        except ZeroDivisionError:
            return
        assert lhs == rhs


@given(a=st.one_of(rationals, st.fractions(-20, 20, max_denominator=60)), length=st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_rising_row_matches_pochhammer(a, length):
    row = rising_row(a, length)
    assert row == [pochhammer(a, j) for j in range(length)]
    assert all(isinstance(v, Fraction) for v in row)


class TestGammaRatio:
    def test_matches_pochhammer(self):
        assert gamma_ratio(Fraction(1, 2), 2) == Fraction(3, 4)
        assert gamma_ratio(Fraction(9, 7), 0) == 1
        assert gamma_ratio(Fraction(5, 3), -1) == Fraction(3, 2)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            gamma_ratio(0, 3)
        with pytest.raises(PoleError):
            gamma_ratio(2, -5)


class TestGammaProduct:
    def test_empty_is_one(self):
        rational, residual = GammaProduct.one().reduce()
        assert rational == 1 and residual.is_one()

    def test_simple_cancellation(self):
        product = GammaProduct.gamma(Fraction(5, 2)) * GammaProduct.gamma(Fraction(1, 2), -1)
        assert product.reduce() == (Fraction(3, 4), GammaProduct.one())

    def test_no_partner_stays(self):
        product = GammaProduct.gamma(Fraction(1, 3))
        rational, residual = product.reduce()
        assert rational == 1
        assert residual.factors == ((Fraction(1, 3), 1),)

    def test_offset_class_collapse(self):
        # Gamma(a+b+|n|) / Gamma(a+b+2+j) at a=1/2, b=1/4, |n|=3, j=0
        top = Fraction(1, 2) + Fraction(1, 4) + 3
        bottom = Fraction(1, 2) + Fraction(1, 4) + 2
        product = GammaProduct.gamma(top) * GammaProduct.gamma(bottom, -1)
        assert product.reduce() == (Fraction(11, 4), GammaProduct.one())

    def test_integer_class_factorials(self):
        product = GammaProduct.gamma(5) * GammaProduct.gamma(3, -1)
        assert product.reduce() == (Fraction(12), GammaProduct.one())

    def test_pole_positive_exponent(self):
        with pytest.raises(PoleError):
            (GammaProduct.gamma(0) * GammaProduct.gamma(Fraction(1, 2))).reduce()
        with pytest.raises(PoleError):
            GammaProduct.gamma(-3).reduce()

    def test_reciprocal_pole_vanishes(self):
        assert GammaProduct.gamma(-2, -1).reduce() == (Fraction(0), GammaProduct.one())

    @given(st.lists(st.tuples(rationals.filter(lambda a: a > -1), st.integers(-3, 3)),
                    min_size=0, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_reduce_idempotent(self, factors):
        product = GammaProduct.from_factors(factors)
        try:
            rational, reduced = product.reduce()
        except PoleError:
            return
        if rational == 0:
            return
        again, final = reduced.reduce()
        assert again == 1 and final.factors == reduced.factors

    def test_reduced_equal_across_forms(self):
        left = GammaProduct.gamma(Fraction(7, 2))
        right = GammaProduct.gamma(Fraction(3, 2))
        assert not left.reduced_equal(right)
        # Gamma(7/2) == (3/2)(5/2) Gamma(3/2) is not structural equality
        assert (left / right).reduce()[0] == Fraction(15, 4)


class TestLogGamma:
    def test_at_one(self):
        assert float(log_gamma_approx(1, 15)) == 0.0

    def test_factorial_point(self):
        value = log_gamma_approx(5, 12)
        assert abs(float(value) - math.log(24)) < 1e-12

    def test_half(self):
        value = log_gamma_approx(Fraction(1, 2), 12)
        assert abs(float(value) - 0.5 * math.log(math.pi)) < 1e-12

    def test_functional_equation(self):
        x = Fraction(7, 3)
        lhs = float(log_gamma_approx(x + 1, 15))
        rhs = math.log(float(x)) + float(log_gamma_approx(x, 15))
        assert abs(lhs - rhs) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_approx(0, 10)
        with pytest.raises(ValueError):
            log_gamma_approx(Fraction(-1, 2), 10)

    def test_float_value_of_product(self):
        product = GammaProduct.gamma(5) * GammaProduct.gamma(3, -1)
        assert abs(product.float_value() - 12.0) < 1e-12
