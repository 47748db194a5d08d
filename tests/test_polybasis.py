from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import Basis, GammaProduct, ScaledPolynomial, eval_polynomial
from mopexact.polybasis import lattice_table

rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 5]))

BASES = [
    Basis.monomial(),
    Basis.falling_factorial(),
    Basis.shifted_rising(Fraction(3, 2), 0),
    Basis.backward_pochhammer(Fraction(1, 4), 5),
]


#: All four basis kinds, with random shifts for the two shifted kinds.
any_basis = st.one_of(
    st.just(Basis.monomial()),
    st.just(Basis.falling_factorial()),
    st.builds(Basis.shifted_rising, rationals, st.integers(0, 2)),
    st.builds(Basis.backward_pochhammer, rationals, st.integers(0, 10)),
)


@given(basis=any_basis, degree=st.integers(0, 7), N=st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_lattice_table_matches_element_value(basis, degree, N):
    table = lattice_table(basis, degree, N)
    assert len(table) == degree + 1
    for k, row in enumerate(table):
        assert row == tuple(basis.element_value(k, x) for x in range(N + 1))


@given(basis=any_basis, coeffs=st.lists(rationals, max_size=7), N=st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_lattice_values_match_rational_value(basis, coeffs, N):
    poly = ScaledPolynomial(basis, tuple(coeffs))
    values = poly.lattice_values(N)
    assert values == tuple(poly.rational_value(x) for x in range(N + 1))
    assert poly.lattice_values(N) is values  # computed once per polynomial object


@given(x=rationals, k=st.integers(0, 6), basis=st.sampled_from(BASES))
@settings(max_examples=150, deadline=None)
def test_monomial_expansion_matches_direct_value(x, k, basis):
    direct = basis.element_value(k, x)
    expanded = sum(c * x**j for j, c in enumerate(basis.element_monomial_coefficients(k)))
    assert direct == expanded


def test_falling_factorial_values():
    basis = Basis.falling_factorial()
    assert basis.element_value(3, 2) == 0          # (-2)(-1)(0)
    assert basis.element_value(2, Fraction(1, 2)) == Fraction(-1, 4)


def test_constant_polynomial():
    poly = ScaledPolynomial(Basis.monomial(), (Fraction(7, 3),))
    assert eval_polynomial(poly, Fraction(123, 7)) == (Fraction(7, 3), GammaProduct.one())


def test_root_evaluation():
    poly = ScaledPolynomial(Basis.monomial(), (Fraction(-3, 2), Fraction(1)))
    assert eval_polynomial(poly, Fraction(3, 2)) == (Fraction(0), GammaProduct.one())


def test_scale_reduction_in_eval():
    scale = GammaProduct.gamma(Fraction(5, 2)) * GammaProduct.gamma(Fraction(1, 2), -1)
    poly = ScaledPolynomial(Basis.monomial(), (Fraction(2),), scale)
    assert eval_polynomial(poly, 0) == (Fraction(3, 2), GammaProduct.one())


def test_degree_and_zero():
    zero = ScaledPolynomial(Basis.monomial(), ())
    assert zero.degree == -1 and zero.is_zero()
    padded = ScaledPolynomial(Basis.monomial(), (Fraction(1), Fraction(0)))
    assert padded.degree == 0


def test_leading_monomial_coefficient_falling_basis():
    # (-x)_2 = x^2 - x, so coefficients (0, 0, 1) lead with +1
    poly = ScaledPolynomial(Basis.falling_factorial(), (Fraction(0), Fraction(0), Fraction(1)))
    assert poly.leading_monomial_coefficient() == 1
