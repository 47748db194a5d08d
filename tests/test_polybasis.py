import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import Basis, ScaledPolynomial, pochhammer
from mopexact.gammaprod import ratio_row
from mopexact.polybasis import values_at
from conftest import element_monomial_coefficients, element_value, lattice_table, lattice_values, monomial_coefficients

rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 5]))

BASES = [
    Basis.monomial(),
    Basis.falling_factorial(),
    Basis.shifted_rising(3, 2),
]


#: All three basis kinds, with random shifts for the shifted one.
any_basis = st.one_of(
    st.just(Basis.monomial()),
    st.just(Basis.falling_factorial()),
    st.builds(lambda s: Basis.shifted_rising(*s.as_integer_ratio()), rationals),
)


def test_shift_is_kept_as_the_reduced_pair():
    # the verify path passes shifts over a weight system's common denominator
    assert Basis.shifted_rising(18, 12) == Basis.shifted_rising(3, 2)
    assert Basis.shifted_rising(18, 12).shift == (3, 2)
    assert lattice_table(Basis.shifted_rising(18, 12), 2, 1)[2] == ((15, 35), 4)


@given(basis=any_basis, degree=st.integers(0, 7), N=st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_lattice_table_matches_element_value(basis, degree, N):
    table = lattice_table(basis, degree, N)
    assert len(table) == degree + 1
    q = basis.shift[1] if basis.shift is not None else 1
    for k, (nums, den) in enumerate(table):
        # integers over q^k: 1 for monomials and falling factorials
        assert all(type(v) is int for v in nums) and den == q**k
        assert tuple(Fraction(v, den) for v in nums) == tuple(element_value(basis, k, x) for x in range(N + 1))


@given(basis=any_basis, coeffs=st.lists(rationals, max_size=7), N=st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_lattice_values_match_rational_value(basis, coeffs, N):
    poly = ScaledPolynomial(basis, tuple(coeffs))
    nums, den = lattice_values(poly, N)
    assert all(type(v) is int for v in nums) and den > 0 and math.gcd(den, *nums) == 1
    assert tuple(Fraction(v, den) for v in nums) == tuple(poly.rational_value(x) for x in range(N + 1))


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind.value)
def test_integer_rows_at_a_single_lattice_point(basis):
    # N = 0: every row is the one value at x = 0
    for k, (nums, den) in enumerate(lattice_table(basis, 4, 0)):
        assert len(nums) == 1 and Fraction(nums[0], den) == element_value(basis, k, 0)
    poly = ScaledPolynomial(basis, (Fraction(2, 3), Fraction(-1, 5), Fraction(7)))
    nums, den = lattice_values(poly, 0)
    assert len(nums) == 1 and Fraction(nums[0], den) == poly.rational_value(0)
    assert lattice_values(ScaledPolynomial(basis, ()), 0) == ((0,), 1)


@given(a=st.one_of(rationals, st.fractions(-20, 20, max_denominator=60)), length=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_rising_over_factorial_matches_pochhammer(a, length):
    p, q = a.as_integer_ratio()
    nums, den = ratio_row([p], [q], length, q)  # (a)_k / (1)_k
    # the row is left unreduced: its denominator is q^m m! with m = length - 1, unless it stops at a zero factor
    m = max(length - 1, 0)
    assert all(type(v) is int for v in nums)
    assert den == q**m * math.factorial(m) if all(p + j * q for j in range(m)) else den > 0
    assert [Fraction(v, den) for v in nums] == [pochhammer(a, k) / math.factorial(k) for k in range(length)]


@given(basis=any_basis, nums=st.lists(st.integers(-50, 50), max_size=7), den=st.integers(1, 30),
       points=st.lists(st.one_of(rationals, st.fractions(-20, 20, max_denominator=60), st.integers(-20, 20)), max_size=5))
@settings(max_examples=150, deadline=None)
def test_values_at_matches_element_value_sums(basis, nums, den, points):
    values = values_at(basis, (nums, den), points)
    assert all(type(v) is int and type(d) is int for v, d in values)
    assert [Fraction(v, d) for v, d in values] == [
        sum((Fraction(c, den) * element_value(basis, k, x) for k, c in enumerate(nums)), Fraction(0)) for x in points]


@given(x=rationals, k=st.integers(0, 6), basis=st.sampled_from(BASES))
@settings(max_examples=150, deadline=None)
def test_monomial_expansion_matches_direct_value(x, k, basis):
    direct = element_value(basis, k, x)
    expanded = sum(c * x**j for j, c in enumerate(element_monomial_coefficients(basis, k)))
    assert direct == expanded
    assert ScaledPolynomial(basis, (0,) * k + (1,)).rational_value(x) == direct


@given(basis=any_basis, coeffs=st.lists(rationals, max_size=8),
       x=st.one_of(rationals, st.fractions(-20, 20, max_denominator=60), st.integers(-30, 30)))
@settings(max_examples=200, deadline=None)
def test_rational_value_matches_the_pochhammer_sum(basis, coeffs, x):
    # the integer nested evaluation against sum_k c_k basis_k(x), each element a Pochhammer symbol
    poly = ScaledPolynomial(basis, tuple(coeffs))
    expected = sum((c * element_value(basis, k, x) for k, c in enumerate(coeffs)), Fraction(0))
    value = poly.rational_value(x)
    assert type(value) is Fraction and value == expected
    assert poly.rational_value(str(Fraction(x))) == expected


@given(coeffs=st.lists(rationals, max_size=9))
@settings(max_examples=50, deadline=None)
def test_monomial_coefficients_identity_on_monomial_basis(coeffs):
    poly = ScaledPolynomial(Basis.monomial(), tuple(coeffs))
    assert monomial_coefficients(poly) == poly.coefficients


def test_falling_factorial_values():
    basis = Basis.falling_factorial()
    assert element_value(basis, 3, 2) == 0          # (-2)(-1)(0)
    assert element_value(basis, 2, Fraction(1, 2)) == Fraction(-1, 4)
    poly = ScaledPolynomial(basis, (0, 0, 0, 1))
    assert poly.rational_value(2) == 0 and poly.rational_value(Fraction(-1, 2)) == Fraction(15, 8)


def test_constant_polynomial():
    poly = ScaledPolynomial(Basis.monomial(), (Fraction(7, 3),))
    assert poly.rational_value(Fraction(123, 7)) == Fraction(7, 3)
    assert ScaledPolynomial(Basis.monomial(), ()).rational_value(5) == 0


def test_root_evaluation():
    poly = ScaledPolynomial(Basis.monomial(), (Fraction(-3, 2), Fraction(1)))
    assert poly.rational_value(Fraction(3, 2)) == 0


def test_degree_and_zero():
    zero = ScaledPolynomial(Basis.monomial(), ())
    assert zero.degree == -1
    padded = ScaledPolynomial(Basis.monomial(), (Fraction(1), Fraction(0)))
    assert padded.degree == 0


def test_leading_monomial_coefficient_falling_basis():
    # (-x)_2 = x^2 - x, so coefficients (0, 0, 1) lead with +1
    poly = ScaledPolynomial(Basis.falling_factorial(), (Fraction(0), Fraction(0), Fraction(1)))
    assert Fraction(*poly.leading_monomial_coefficient()) == 1


@given(basis=any_basis, coefficients=st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=8))
@settings(max_examples=150, deadline=None)
def test_leading_monomial_coefficient_matches_full_conversion(basis, coefficients):
    # the conversion route it replaced: the top nonzero entry of the full monomial expansion
    poly = ScaledPolynomial(basis, tuple(coefficients))
    expected = next((c for c in reversed(monomial_coefficients(poly)) if c != 0), Fraction(0))
    assert Fraction(*poly.leading_monomial_coefficient()) == expected
