import math
from fractions import Fraction

import pytest

from mopexact import (
    AdmissibilityError,
    BasisKind,
    PreconditionError,
    eval_polynomial,
    hahn_jp_coefficient_relation,
    hahn_type1,
    hahn_type1_p2_kdf,
    hahn_type2,
    hahn_type2_weighted_series,
    jacobi_pineiro_type1,
    jacobi_pineiro_type2,
    laguerre1_type1,
    laguerre1_type2,
    pochhammer,
)
from mopexact import families, oracle
from conftest import hahn_ws, jacobi_pineiro_ws, laguerre_ws

F = Fraction


class TestLaguerreType2:
    def test_degree_one(self):
        # solves the 1x1 orthogonality system: x - (alpha+1)
        poly = laguerre1_type2(laguerre_ws(1), (1,))
        assert poly.coefficients == (F(-3, 2), F(1))

    def test_zero_index(self):
        poly = laguerre1_type2(laguerre_ws(2), (0, 0))
        assert poly.coefficients == (F(1),)

    def test_two_weights(self):
        # frozen from the exact moment-system solve
        poly = laguerre1_type2(laguerre_ws(2), (1, 1))
        assert poly.coefficients == (F(2), F(-23, 6), F(1))
        assert poly.coefficients == oracle.oracle_solve_type2(laguerre_ws(2), (1, 1)).coefficients

    def test_family_guard(self):
        with pytest.raises(AdmissibilityError):
            laguerre1_type2(jacobi_pineiro_ws(1), (1,))


class TestLaguerreType1:
    def test_single_weight_constant(self):
        vec = laguerre1_type1(laguerre_ws(1), (1,))
        comp = vec.components[0]
        assert comp.coefficients == (F(1),)
        assert comp.scale.factors == ((F(3, 2), -1),)

    def test_two_constants_annihilate_degree_zero(self):
        # frozen from the moment-reduction solve: (6, -6) against 1/Gamma scales
        vec = laguerre1_type1(laguerre_ws(2), (1, 1))
        assert vec.components[0].coefficients == (F(6),)
        assert vec.components[1].coefficients == (F(-6),)
        report = oracle.check_type1_orthogonality(laguerre_ws(2), (1, 1), vec)
        assert report.passed

    def test_mixed_degrees_match_oracle(self):
        ws = laguerre_ws(2)
        vec = laguerre1_type1(ws, (2, 1))
        assert vec.components[0].coefficients == (F(-6), F(4, 7))
        assert vec.components[1].coefficients == (F(36, 7),)
        solved = oracle.oracle_solve_type1(ws, (2, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients
            assert ours.scale.factors == theirs.scale.factors


class TestJacobiPineiroType2:
    def test_degree_one(self):
        # x - (alpha+1)/(alpha+beta+2)
        poly = jacobi_pineiro_type2(jacobi_pineiro_ws(1), (1,))
        assert poly.coefficients == (F(-6, 11), F(1))

    def test_zero_index(self):
        assert jacobi_pineiro_type2(jacobi_pineiro_ws(2), (0, 0)).coefficients == (F(1),)

    def test_two_weights(self):
        poly = jacobi_pineiro_type2(jacobi_pineiro_ws(2), (1, 1))
        assert poly.coefficients == (F(32, 215), F(-202, 215), F(1))
        assert poly.coefficients == oracle.oracle_solve_type2(jacobi_pineiro_ws(2), (1, 1)).coefficients


class TestJacobiPineiroType1:
    def test_single_weight_normalization(self):
        vec = jacobi_pineiro_type1(jacobi_pineiro_ws(1), (1,))
        comp = vec.components[0]
        assert comp.coefficients == (F(7, 4),)  # alpha + beta + 1
        assert comp.scale.factors == ((F(5, 4), -1), (F(3, 2), -1), (F(7, 4), 1))
        report = oracle.check_type1_orthogonality(jacobi_pineiro_ws(1), (1,), vec)
        assert report.normalization == 1 and report.passed

    def test_two_weights_match_oracle(self):
        ws = jacobi_pineiro_ws(2)
        vec = jacobi_pineiro_type1(ws, (1, 1))
        assert vec.components[0].coefficients == (F(341, 8),)
        assert vec.components[1].coefficients == (F(-341, 8),)
        solved = oracle.oracle_solve_type1(ws, (1, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients

    def test_degree_slots(self):
        vec = jacobi_pineiro_type1(jacobi_pineiro_ws(2), (3, 1))
        assert len(vec.components[0].coefficients) == 3
        assert vec.components[0].coefficients[-1] != 0
        assert len(vec.components[1].coefficients) == 1


class TestHahnType2:
    def test_degree_one(self):
        # x - N (alpha+1)/(alpha+beta+2) in the falling basis
        poly = hahn_type2(hahn_ws(1, 3), (1,))
        assert poly.basis.kind is BasisKind.FALLING_FACTORIAL
        assert poly.coefficients == (F(-18, 11), F(-1))
        assert poly.monomial_coefficients() == (F(-18, 11), F(1))

    def test_zero_index(self):
        assert hahn_type2(hahn_ws(2, 4), (0, 0)).coefficients == (F(1),)

    def test_two_weights(self):
        ws = hahn_ws(2, 4)
        poly = hahn_type2(ws, (1, 1))
        assert poly.coefficients == (F(384, 215), F(606, 215), F(1))
        assert poly.coefficients == oracle.oracle_solve_type2(ws, (1, 1)).coefficients

    def test_monic_after_basis_change(self):
        for n, N in (((2,), 5), ((1, 1), 4), ((2, 1), 6), ((1, 1, 1), 7)):
            ws = hahn_ws(len(n), N)
            assert hahn_type2(ws, n).leading_monomial_coefficient() == 1


class TestHahnType1:
    def test_single_weight_constant(self):
        # N! / (alpha+beta+2)_N via the lattice total mass
        vec = hahn_type1(hahn_ws(1, 2), (1,))
        assert vec.components[0].coefficients == (F(32, 165),)
        assert vec.components[0].scale.is_one()

    def test_two_weights_match_oracle_and_double_series(self):
        ws = hahn_ws(2, 3)
        vec = hahn_type1(ws, (1, 1))
        assert vec.components[0].coefficients == (F(1984, 1425),)
        assert vec.components[1].coefficients == (F(-1728, 1075),)
        solved = oracle.oracle_solve_type1(ws, (1, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients
        for i in range(2):
            for x in range(ws.N + 1):
                assert hahn_type1_p2_kdf(ws, (1, 1), i, x) == vec.components[i].rational_value(x)

    def test_leading_constant_sign_structure(self):
        # the order-zero coefficient is the full prefactor, sign (-1)^(|n|-1)
        for n, N in (((1,), 4), ((2,), 5), ((1, 1), 4), ((2, 1), 6)):
            ws = hahn_ws(len(n), N)
            vec = hahn_type1(ws, n)
            total = sum(n)
            for i in range(len(n)):
                expected = F(-1) ** (total - 1) * math.factorial(N + 1 - total)
                for k in range(len(n)):
                    expected *= pochhammer(ws.alpha[k] + ws.beta + total, n[k])
                    if k != i:
                        expected /= pochhammer(ws.alpha[k] - ws.alpha[i], n[k])
                expected /= math.factorial(n[i] - 1)
                expected /= pochhammer(ws.beta + 1, total - 1)
                expected /= pochhammer(ws.alpha[i] + ws.beta + total, N + 2 - total)
                assert vec.components[i].coefficients[0] == expected


class TestHahnDoubleSeries:
    def test_requires_two_weights(self):
        with pytest.raises(PreconditionError):
            hahn_type1_p2_kdf(hahn_ws(1, 3), (1,), 0, 0)

    def test_matches_general_formula_deeper(self):
        ws = hahn_ws(2, 5)
        assert hahn_type1_p2_kdf(ws, (2, 1), 1, 1) == F(2363904, 2037805)
        vec = hahn_type1(ws, (2, 1))
        assert vec.components[1].rational_value(1) == F(2363904, 2037805)

    def test_single_term_structure(self):
        # n = (1,1): the first summation index is pinned at zero
        ws = hahn_ws(2, 3)
        value = hahn_type1_p2_kdf(ws, (1, 1), 0, 2)
        assert isinstance(value, F)


class TestHahnWeightedSeries:
    def test_at_zero_is_prefactor(self):
        ws = hahn_ws(2, 4)
        n = (1, 1)
        value = hahn_type2_weighted_series(ws, n)[0]
        poly = hahn_type2(ws, n)
        assert value == poly.rational_value(0) * pochhammer(ws.beta + 1, ws.N) / math.factorial(ws.N)

    def test_zero_index_weight_factor(self):
        ws = hahn_ws(1, 3)
        for x in range(4):
            value = hahn_type2_weighted_series(ws, (0,))[x]
            assert value == pochhammer(ws.beta + 1, ws.N - x) / math.factorial(ws.N - x)

    def test_cross_check_against_direct_values(self):
        ws = hahn_ws(2, 4)
        n = (1, 1)
        poly = hahn_type2(ws, n)
        x = 2
        expected = poly.rational_value(x) * pochhammer(ws.beta + 1, ws.N - x) / math.factorial(ws.N - x)
        assert hahn_type2_weighted_series(ws, n)[x] == expected

    def test_every_lattice_point_matches_direct_values(self):
        for n, N in (((1,), 3), ((2, 1), 5), ((1, 2, 1), 7), ((0, 3), 4)):
            ws = hahn_ws(len(n), N)
            values = hahn_type2(ws, n).lattice_values(N)
            series = hahn_type2_weighted_series(ws, n)
            assert series == tuple(v * f for v, f in zip(values, ws.beta_factors))


class TestHahnJacobiPineiroRelation:
    def test_single_weight(self):
        assert hahn_jp_coefficient_relation(hahn_ws(1, 3), (1,))
        # spot value: Q[0] = N!/(N-1)! * P[0] = 3 * (-6/11)
        assert hahn_type2(hahn_ws(1, 3), (1,)).coefficients[0] == F(-18, 11)

    def test_two_weights(self):
        assert hahn_jp_coefficient_relation(hahn_ws(2, 4), (1, 1))

    def test_top_coefficient_consistent_with_monicity(self):
        ws = hahn_ws(2, 5)
        q = hahn_type2(ws, (2, 1)).coefficients
        assert q[-1] == F(-1) ** 3


class TestTypeDispatch:
    def test_mixed_zero_component_routed_to_zero(self):
        ws = laguerre_ws(2)
        vec = families.type1(ws, (2, 0))
        assert vec.components[1].coefficients == ()
        report = oracle.check_type1_orthogonality(ws, (2, 0), vec)
        assert report.passed

    def test_eval_polynomial_root(self):
        poly = hahn_type2(hahn_ws(1, 3), (1,))
        value, residual = eval_polynomial(poly, F(18, 11))
        assert value == 0 and residual.is_one()


class TestDegenerateNormalizationBoundary:
    """alpha_i + beta + |n| = 0, reachable only at |n| = 1 with alpha_i + beta = -1."""

    ALPHA, BETA = (F(-1, 2),), F(-1, 2)

    def test_hahn_corner_cancels_rationally(self):
        from mopexact import WeightSystem
        ws = WeightSystem.hahn(self.ALPHA, self.BETA, 3)
        vec = hahn_type1(ws, (1,))
        # N! / (alpha+beta+2)_N with alpha+beta+2 = 1
        assert vec.components[0].coefficients == (F(1),)
        solved = oracle.oracle_solve_type1(ws, (1,))
        assert solved.components[0].coefficients == vec.components[0].coefficients
        assert oracle.check_type1_orthogonality(ws, (1,), vec).passed

    def test_jp_corner_refuses_loudly(self):
        from mopexact import PoleError, WeightSystem
        ws = WeightSystem.jacobi_pineiro(self.ALPHA, self.BETA)
        with pytest.raises(PoleError):
            jacobi_pineiro_type1(ws, (1,))
        with pytest.raises(PoleError):
            oracle.oracle_solve_type1(ws, (1,))

    def test_off_corner_negative_exponents_work(self):
        from mopexact import WeightSystem
        ws = WeightSystem.jacobi_pineiro((F(-1, 2), F(-1, 3)), F(-1, 2))
        vec = jacobi_pineiro_type1(ws, (1, 1))  # |n| = 2 clears the corner
        solved = oracle.oracle_solve_type1(ws, (1, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients
        assert oracle.check_type1_orthogonality(ws, (1, 1), vec).passed


class TestStructuralInvariants:
    GRID = [((1,), 1), ((2,), 2), ((1, 1), 2), ((2, 1), 3), ((1, 1, 1), 3), ((2, 2), 4)]

    def test_type2_monic_all_families(self):
        for n, total in self.GRID:
            p = len(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                poly = families.type2(ws, n)
                assert poly.leading_monomial_coefficient() == 1
                assert poly.degree == total

    def test_type1_degree_bounds(self):
        for n, total in self.GRID:
            p = len(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                vec = families.type1(ws, n)
                for ni, comp in zip(n, vec.components):
                    assert len(comp.coefficients) == ni
                    if ni:
                        assert comp.coefficients[-1] != 0
