import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopexact import Basis, GammaProduct, PoleError, ScaledPolynomial, TypeIVector, WeightSystem, pochhammer
from mopexact.gammaprod import as_fraction, is_nonpositive_integer, ratio_row, rising_product
from conftest import (
    inverse, newton_row, ratio_row_reference, reduced_equal, rising_product_reference, rising_row, times,
)

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


@given(st.lists(st.integers(-10**12, 10**12), max_size=24))
@settings(max_examples=100, deadline=None)
def test_newton_row_inverts_the_binomial_expansion(coefficients):
    # values r(x) = sum_l C(x, l) c_l at x = 0..m difference back to c_l, in the list handed in
    values = [sum(math.comb(x, l) * c for l, c in enumerate(coefficients)) for x in range(len(coefficients))]
    assert newton_row(values) is values and values == coefficients


def kernel_outcome(kernel, *args):
    """What a row kernel gives: its result with the type of its first field, or the message of its PoleError."""
    try:
        result = kernel(*args)
    except PoleError as error:
        return "PoleError", str(error)
    return result, type(result[0])


@st.composite
def ratio_rows(draw):
    """ratio_row arguments: parameters m q + r over q, r = 0 often, so a factor vanishes in mid-row, on either side."""
    q = draw(st.sampled_from([1, 2, 3, 6]))
    parameter = st.builds(lambda m, r: m * q + r, st.integers(-6, 6), st.sampled_from([0, 0, *range(1, q)]))
    return (draw(st.lists(parameter, max_size=3)), draw(st.lists(parameter, max_size=3)), draw(st.integers(0, 8)), q)


@given(ratio_rows())
@example(([3], [2], 0, 2))  # length 0: an empty row, not the leading 1
@example(([3], [2], 1, 2))  # length 1: the leading 1 alone
@example(([-4, 3], [1], 6, 2))  # a zero numerator factor at k = 2 (-4 + 2k) ends the row with zeros
@example(([1], [-2], 5, 2))  # a zero denominator factor at k = 1: PoleError
@example(([-2], [-4], 5, 2))  # the numerator vanishes first (k = 1), so the later zero denominator is never reached
@example(([], [-3, -5], 4, 2))  # negative denominator factors: the row is turned over a positive denominator
@settings(max_examples=400, deadline=None)
def test_ratio_row_matches_the_reference(args):
    assert kernel_outcome(ratio_row, *args) == kernel_outcome(ratio_row_reference, *args)


pairs = st.lists(st.tuples(st.integers(-12, 12), st.integers(-4, 6)), max_size=3)


@given(st.sampled_from([1, 2, 3, 5]), pairs, pairs, st.integers(-30, 30), st.integers(-30, 30))
@example(2, [(3, -2)], [(5, -3)], 1, 1)  # negative n on both sides
@example(2, [(2, -1)], [], 1, 1)  # (p/q)_{-1} with p = q: a zero divisor, PoleError
@example(2, [], [(2, -1)], 1, 1)  # the same factor below: the product is 0
@example(3, [(-6, 4)], [(1, 2)], 5, 7)  # a zero factor in the chain of an up
@example(3, [(1, 2)], [(-3, 2)], 5, 7)  # a zero factor in the chain of a down: PoleError
@example(1, [], [], 4, 0)  # a zero bottom
@settings(max_examples=400, deadline=None)
def test_rising_product_matches_the_reference(q, ups, downs, top, bottom):
    args = q, ups, downs, top, bottom
    assert kernel_outcome(rising_product, *args) == kernel_outcome(rising_product_reference, *args)


def gamma_ratio(a, m: int) -> Fraction:
    """Gamma(a+m)/Gamma(a) as an exact rational; equals pochhammer(a, m).

    Unlike :func:`pochhammer`, this guards both gamma arguments: a and a+m
    must avoid the poles at the nonpositive integers.
    """
    a = as_fraction(a)
    if is_nonpositive_integer(a) or is_nonpositive_integer(a + m):
        raise PoleError(f"gamma pole in Gamma({a + m})/Gamma({a})")
    return pochhammer(a, m)


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
        product = times(GammaProduct.gamma(Fraction(5, 2)), GammaProduct.gamma(Fraction(1, 2), -1))
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
        product = times(GammaProduct.gamma(top), GammaProduct.gamma(bottom, -1))
        assert product.reduce() == (Fraction(11, 4), GammaProduct.one())

    def test_integer_class_factorials(self):
        product = times(GammaProduct.gamma(5), GammaProduct.gamma(3, -1))
        assert product.reduce() == (Fraction(12), GammaProduct.one())

    def test_pole_positive_exponent(self):
        with pytest.raises(PoleError):
            times(GammaProduct.gamma(0), GammaProduct.gamma(Fraction(1, 2))).reduce()
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
        assert not reduced_equal(left, right)
        # Gamma(7/2) == (3/2)(5/2) Gamma(3/2) is not structural equality
        assert times(left, inverse(right)).reduce()[0] == Fraction(15, 4)


def test_empty_product_is_one_object():
    assert GammaProduct.one() is GammaProduct.one() and GammaProduct.one() == GammaProduct()
    assert hash(GammaProduct.one()) == hash(GammaProduct())


def _warm(value):
    """value with its caches filled, so its __dict__ holds more than its fields."""
    if isinstance(value, ScaledPolynomial):
        value.coefficients
    elif isinstance(value, WeightSystem):
        value.integer_parameters
    return value


_RISING = Basis.shifted_rising(3, 2)

#: Per value class: a value with its caches filled, the same value built apart from other inputs, a value
#: that differs, and a field.
VALUE_CLASSES = {
    "GammaProduct": (GammaProduct.from_factors([("1/2", 2), ("1/3", -1)]),
                     GammaProduct.from_factors([("1/3", -1), ("1/2", 1), (Fraction(1, 2), 1)]), GammaProduct.gamma("1/2"),
                     "factors"),
    "Basis": (Basis.shifted_rising(18, 12), Basis.shifted_rising(3, 2), Basis.shifted_rising(1, 2), "shift"),
    "ScaledPolynomial": (_warm(ScaledPolynomial(_RISING, (Fraction(2, 6), -1))), ScaledPolynomial(_RISING, row=([1, -3], 3)),
                         _warm(ScaledPolynomial(_RISING, (Fraction(1, 3), 1))), "row"),
    "TypeIVector": (TypeIVector((_warm(ScaledPolynomial(_RISING, (1,))), ScaledPolynomial(Basis.monomial(), ()))),
                    TypeIVector((ScaledPolynomial(_RISING, (1,)), ScaledPolynomial(Basis.monomial(), ()))),
                    TypeIVector((ScaledPolynomial(_RISING, (1,)),)), "components"),
    "WeightSystem": (_warm(WeightSystem.hahn(("1/2", "1/3"), "1/4", 4)), WeightSystem.hahn((Fraction(1, 2), "2/6"), "1/4", 4),
                     WeightSystem.hahn(("1/2", "1/3"), "1/5", 4), "beta"),
}


@pytest.mark.parametrize("value, same, other, field", VALUE_CLASSES.values(), ids=VALUE_CLASSES)
def test_value_classes_compare_and_hash_by_their_fields(value, same, other, field):
    assert value is not same and value == same and hash(value) == hash(same)
    assert value != other and {value, same, other} == {value, other}
    assert value.__eq__(getattr(value, field)) is NotImplemented  # only its own class compares
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    assert value == same
