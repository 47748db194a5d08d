from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import (
    Basis,
    PreconditionError,
    ScaledPolynomial,
    SingularSystemError,
    TypeIVector,
    check_biorthogonality,
    check_discrete_mellin_inversion,
    check_hahn_summation_identity,
    check_mellin_type2,
    check_type1_orthogonality,
    check_type2_orthogonality,
    moment,
    oracle_solve_type1,
    oracle_solve_type2,
    pochhammer,
)
from mopexact import GammaProduct, WeightSystem, families, oracle
from mopexact.gammaprod import scaled_values_equal
from mopexact.linalg import interpolate, solve_linear_system
from mopexact.driver import compositions
from conftest import hahn_ws, jacobi_pineiro_ws, laguerre_ws

F = Fraction


def hahn_moment_brute(ws, i: int, l: int, j: int) -> Fraction:
    """sum_x (x+alpha_i+1)_l (beta+N-x+1)_j w_i(x), point by point."""
    total = Fraction(0)
    for x in range(ws.N + 1):
        total += (
            pochhammer(Fraction(x) + ws.alpha[i] + 1, l)
            * pochhammer(ws.beta + ws.N - x + 1, j)
            * ws.hahn_weight(i, x)
        )
    return total


def hahn_power_normalization(ws, n, vec) -> Fraction:
    """sum_x x^(|n|-1) sum_i A_i(x) w_i(x): the power-basis normalization row (target 1)."""
    return sum(
        (Fraction(x) ** (sum(n) - 1) * comp.rational_value(x) * ws.hahn_weight(i, x)
         for i, comp in enumerate(vec.components) if comp.coefficients
         for x in range(ws.N + 1)),
        Fraction(0),
    )


class TestLinalg:
    def test_solve_exact(self):
        x = solve_linear_system([[F(1, 2), F(1, 3)], [F(1, 5), F(1)]], [F(1), F(0)])
        assert x == [F(30, 13), F(-6, 13)]

    def test_singular(self):
        with pytest.raises(SingularSystemError):
            solve_linear_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5,
                    unique_by=lambda t: t[0]))
    @settings(max_examples=100, deadline=None)
    def test_interpolation_reproduces_values(self, pts):
        coeffs = interpolate(pts)
        for x, y in pts:
            assert sum(c * F(x) ** k for k, c in enumerate(coeffs)) == y


class TestMoments:
    def test_laguerre_mass(self):
        value = moment(laguerre_ws(1), 0, Basis.monomial(), 0)
        assert value.rational == 1
        assert value.gamma.factors == ((F(3, 2), 1),)

    def test_jp_first_moment(self):
        value = moment(jacobi_pineiro_ws(1), 0, Basis.monomial(), 1)
        assert value.rational == F(3, 2) / F(11, 4)  # (alpha+1)_1 / (alpha+beta+2)_1

    def test_hahn_closed_equals_brute(self):
        for N in range(0, 9):
            ws = hahn_ws(2, N)
            for i in range(2):
                for l in range(5):
                    for j in range(5):
                        assert oracle.hahn_moment_closed(ws, i, l, j) == \
                            hahn_moment_brute(ws, i, l, j)

    @given(
        alpha=st.builds(F, st.integers(-4, 30), st.just(5)),
        beta=st.builds(F, st.integers(-6, 30), st.just(7)),
        length=st.integers(0, 14),
    )
    @settings(max_examples=80, deadline=None)
    def test_moment_rows_match_closed_forms(self, alpha, beta, length):
        # int x^(alpha+j) e^-x = Gamma(alpha+j+1);
        # int_0^1 x^(alpha+j) (1-x)^beta = Gamma(alpha+j+1) Gamma(beta+1) / Gamma(alpha+beta+j+2)
        for ws in (WeightSystem.laguerre((alpha,)), WeightSystem.jacobi_pineiro((alpha,), beta)):
            row = oracle._moment_row(ws, 0, length)
            assert len(row) == length
            for j, value in enumerate(row):
                if ws.beta is None:
                    closed = GammaProduct.gamma(alpha + j + 1)
                    assert value == pochhammer(alpha + 1, j)
                else:
                    closed = GammaProduct.from_factors(
                        [(alpha + j + 1, 1), (beta + 1, 1), (alpha + beta + j + 2, -1)]
                    )
                    assert value == pochhammer(alpha + 1, j) / pochhammer(alpha + beta + 2, j)
                mv = moment(ws, 0, Basis.monomial(), j)
                assert mv.rational == value
                assert scaled_values_equal(mv.rational, mv.gamma, F(1), closed)

    def test_continuous_non_monomial_rejected(self):
        with pytest.raises(PreconditionError):
            moment(laguerre_ws(1), 0, Basis.falling_factorial(), 1)

    def test_hahn_any_basis_via_lattice_sum(self):
        ws = hahn_ws(2, 5)
        backward = Basis.backward_pochhammer(ws.beta, ws.N)
        shifted = Basis.shifted_rising(ws.alpha[0] + 1, 0)
        value = moment(ws, 0, backward, 2)
        assert value.gamma.is_one()
        assert value.rational == hahn_moment_brute(ws, 0, 0, 2)
        assert moment(ws, 0, shifted, 3).rational == hahn_moment_brute(ws, 0, 3, 0)


class TestType2Reports:
    def test_vacuous_zero_index(self):
        ws = laguerre_ws(2)
        report = check_type2_orthogonality(ws, (0, 0), families.type2(ws, (0, 0)))
        assert report.passed and not report.residuals

    def test_full_grid_residuals_exactly_zero(self):
        for n in compositions(4):
            p, total = len(n), sum(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                report = check_type2_orthogonality(ws, n, families.type2(ws, n))
                assert report.passed
                assert all(v == 0 for v in report.residuals.values())

    def test_perturbation_breaks_orthogonality(self):
        ws = jacobi_pineiro_ws(2)
        poly = families.type2(ws, (1, 1))
        bumped = ScaledPolynomial(
            poly.basis, (poly.coefficients[0] + 1,) + poly.coefficients[1:], poly.scale
        )
        report = check_type2_orthogonality(ws, (1, 1), bumped)
        assert not report.passed
        assert any(v != 0 for v in report.residuals.values())


class TestType1Reports:
    def test_hahn_normalization_target(self):
        ws = hahn_ws(2, 4)
        report = check_type1_orthogonality(ws, (1, 1), families.type1(ws, (1, 1)))
        assert report.normalization_target == F(-1) ** (2 - 1)
        assert report.passed

    def test_zero_vector_fails_normalization(self):
        ws = laguerre_ws(1)
        zero = TypeIVector((ScaledPolynomial(Basis.monomial(), (F(0),),
                                             families.type1_scale(ws, 0, 1)),))
        report = check_type1_orthogonality(ws, (1,), zero)
        assert not report.passed and report.normalization == 0

    def test_power_and_backward_rows_agree_for_hahn(self):
        # the backward lattice rows and the plain power rows define the same
        # conditions; the triangular change of basis makes both targets hold
        for n in compositions(3):
            p, total = len(n), sum(n)
            ws = hahn_ws(p, total + 3)
            vec = families.type1(ws, n)
            assert check_type1_orthogonality(ws, n, vec).passed
            assert hahn_power_normalization(ws, n, vec) == 1


class TestBiorthogonality:
    CASES = [
        ((1, 1), (1, 1), True),    # componentwise <= : 0
        ((1, 1), (2, 1), True),    # |m| = |n| + 1 : 1
        ((1, 0), (2, 2), True),    # |m| > |n| + 1 : 0
    ]

    def test_three_cases_all_families(self):
        for n, m, _ in self.CASES:
            for ws in (laguerre_ws(2), jacobi_pineiro_ws(2), hahn_ws(2, 6)):
                assert check_biorthogonality(ws, n, m)

    def test_uncovered_pair_rejected(self):
        with pytest.raises(PreconditionError):
            check_biorthogonality(laguerre_ws(2), (2, 0), (0, 2))


class TestOracleSolvers:
    def test_1x1_laguerre(self):
        poly = oracle_solve_type2(laguerre_ws(1), (1,))
        assert poly.coefficients == (F(-3, 2), F(1))

    def test_zero_index(self):
        assert oracle_solve_type2(jacobi_pineiro_ws(1), (0,)).coefficients == (F(1),)

    def test_1x1_hahn_type1(self):
        vec = oracle_solve_type1(hahn_ws(1, 2), (1,))
        assert vec.components[0].coefficients == (F(32, 165),)

    def test_full_grid_match(self):
        for n in compositions(4):
            p, total = len(n), sum(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 1)):
                assert families.type2(ws, n).coefficients == oracle_solve_type2(ws, n).coefficients
                ours = families.type1(ws, n)
                theirs = oracle_solve_type1(ws, n)
                for a, b in zip(ours.components, theirs.components):
                    assert a.coefficients == b.coefficients


class TestMellin:
    def test_laguerre_explicit_point(self):
        # s = 1: transform cofactors are Gamma(2) - (3/2) Gamma(1) = -1/2 on
        # both routes
        ws = laguerre_ws(1)
        poly = families.type2(ws, (1,))
        assert sum(c * pochhammer(F(1), k) for k, c in enumerate(poly.coefficients)) == F(-1, 2)
        assert F(-1) * pochhammer(ws.alpha[0] + 1 - 1, 1) == F(-1, 2)
        assert check_mellin_type2(ws, (1,), 1)

    def test_jp_vanishes_at_prescribed_zero(self):
        ws = jacobi_pineiro_ws(2)
        assert check_mellin_type2(ws, (1, 1), ws.alpha[0] + 1)

    def test_hahn_random_argument(self):
        assert check_mellin_type2(hahn_ws(2, 4), (1, 1), F(1, 7))

    def test_zero_points_count_and_vanishing(self):
        for n in compositions(3):
            p, total = len(n), sum(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                zeros = oracle.mellin_zero_points(ws, n)
                assert len(zeros) == total
                poly = families.type2(ws, n)
                for s in zeros:
                    assert check_mellin_type2(ws, n, s, poly)

    def test_perturbed_polynomial_fails(self):
        ws = laguerre_ws(1)
        poly = families.type2(ws, (1,))
        bumped = ScaledPolynomial(poly.basis, (poly.coefficients[0] + 1, poly.coefficients[1]))
        assert not check_mellin_type2(ws, (1,), F(1, 7), bumped)


class TestDiscreteInversion:
    def test_indicator(self):
        ws = hahn_ws(1, 3)
        assert check_discrete_mellin_inversion(ws, [1, 0, 0, 0])

    def test_weighted_type2_values(self):
        ws = hahn_ws(2, 5)
        values = list(families.hahn_type2_weighted_series(ws, (2, 1)))
        assert check_discrete_mellin_inversion(ws, values)

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_lattice_data(self, N, data):
        values = data.draw(st.lists(
            st.builds(F, st.integers(-30, 30), st.integers(1, 9)),
            min_size=N + 1, max_size=N + 1,
        ))
        ws = hahn_ws(1, N)
        assert check_discrete_mellin_inversion(ws, values)


class TestHahnSummation:
    def test_normalization_row(self):
        ws = hahn_ws(2, 4)
        assert check_hahn_summation_identity(ws, (1, 1), 1)

    def test_vanishing_row(self):
        ws = hahn_ws(2, 4)
        assert check_hahn_summation_identity(ws, (1, 1), 0)

    def test_three_weights_all_rows(self):
        ws = hahn_ws(3, 5)
        for j in range(3):
            assert check_hahn_summation_identity(ws, (1, 1, 1), j)
