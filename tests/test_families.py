import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mopexact import (
    AdmissibilityError,
    Basis,
    BasisKind,
    PreconditionError,
    ScaledPolynomial,
    hahn_jp_coefficient_relation,
    hahn_type1_p2_kdf,
    pochhammer,
    type1,
    type2,
)
from mopexact import families, oracle
from mopexact.driver import apply_fault
from mopexact.gammaprod import row_product
from mopexact.hyper import kdf
from conftest import (
    admissible_systems, hahn_corner_systems, hahn_type2_weighted_series, hahn_ws, jacobi_pineiro_ws, laguerre_ws,
    monomial_coefficients, row_values,
)

F = Fraction


def kdf_per_point(ws, n, i, x) -> Fraction:
    """Component i at one lattice point x through a full double series (the per-point route)."""
    other = 1 - i
    a_i, a_hat = ws.alpha[i], ws.alpha[other]
    n_i, n_hat = n[i], n[other]
    beta, N = ws.beta, ws.N
    tot = n_i + n_hat

    prefactor = F(-1) ** (n_i - 1)
    prefactor *= math.factorial(N + 1 - tot) * math.factorial(tot - 2)
    prefactor /= math.factorial(n_i - 1) * math.factorial(n_hat - 1)
    prefactor /= pochhammer(beta + 1, tot - 1)
    prefactor /= pochhammer(a_i + beta + tot + n_i, N + 1 - tot)
    prefactor *= pochhammer(a_hat + beta + n_hat + 1, tot - 1)
    prefactor /= pochhammer(a_i - a_hat - n_hat + 1, tot - 1)

    series = kdf(
        joint_num=(-n_i + 1, F(-N)),
        left_num=(a_hat - a_i - n_i + 1,),
        right_num=(a_i + beta + tot, a_i - a_hat - n_hat + 1, F(-x)),
        joint_den=(F(-tot + 2), a_hat + beta + n_hat + 1),
        left_den=(),
        right_den=(a_i + 1, F(-N)),
        x=1, y=1,
    )
    return prefactor * series


class TestLaguerreType2:
    def test_degree_one(self):
        # solves the 1x1 orthogonality system: x - (alpha+1)
        poly = type2(laguerre_ws(1), (1,))
        assert poly.coefficients == (F(-3, 2), F(1))

    def test_zero_index(self):
        poly = type2(laguerre_ws(2), (0, 0))
        assert poly.coefficients == (F(1),)

    def test_two_weights(self):
        # frozen from the exact moment-system solve
        poly = type2(laguerre_ws(2), (1, 1))
        assert poly.coefficients == (F(2), F(-23, 6), F(1))
        assert poly.coefficients == oracle.oracle_solve_type2(laguerre_ws(2), (1, 1)).coefficients


class TestLaguerreType1:
    def test_single_weight_constant(self):
        vec = type1(laguerre_ws(1), (1,))
        comp = vec.components[0]
        assert comp.coefficients == (F(1),)
        assert families.type1_scale(laguerre_ws(1), 0, 1).factors == ((F(3, 2), -1),)

    def test_two_constants_annihilate_degree_zero(self):
        # frozen from the moment-reduction solve: (6, -6) against 1/Gamma scales
        vec = type1(laguerre_ws(2), (1, 1))
        assert vec.components[0].coefficients == (F(6),)
        assert vec.components[1].coefficients == (F(-6),)
        report = oracle.check_type1_orthogonality(laguerre_ws(2), (1, 1), vec)
        assert report.passed

    def test_mixed_degrees_match_oracle(self):
        ws = laguerre_ws(2)
        vec = type1(ws, (2, 1))
        assert vec.components[0].coefficients == (F(-6), F(4, 7))
        assert vec.components[1].coefficients == (F(36, 7),)
        solved = oracle.oracle_solve_type1(ws, (2, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients


class TestJacobiPineiroType2:
    def test_degree_one(self):
        # x - (alpha+1)/(alpha+beta+2)
        poly = type2(jacobi_pineiro_ws(1), (1,))
        assert poly.coefficients == (F(-6, 11), F(1))

    def test_zero_index(self):
        assert type2(jacobi_pineiro_ws(2), (0, 0)).coefficients == (F(1),)

    def test_two_weights(self):
        poly = type2(jacobi_pineiro_ws(2), (1, 1))
        assert poly.coefficients == (F(32, 215), F(-202, 215), F(1))
        assert poly.coefficients == oracle.oracle_solve_type2(jacobi_pineiro_ws(2), (1, 1)).coefficients


class TestJacobiPineiroType1:
    def test_single_weight_normalization(self):
        vec = type1(jacobi_pineiro_ws(1), (1,))
        comp = vec.components[0]
        assert comp.coefficients == (F(7, 4),)  # alpha + beta + 1
        assert families.type1_scale(jacobi_pineiro_ws(1), 0, 1).factors == ((F(5, 4), -1), (F(3, 2), -1), (F(7, 4), 1))
        report = oracle.check_type1_orthogonality(jacobi_pineiro_ws(1), (1,), vec)
        assert F(*report.normalization) == 1 and report.passed

    def test_two_weights_match_oracle(self):
        ws = jacobi_pineiro_ws(2)
        vec = type1(ws, (1, 1))
        assert vec.components[0].coefficients == (F(341, 8),)
        assert vec.components[1].coefficients == (F(-341, 8),)
        solved = oracle.oracle_solve_type1(ws, (1, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients

    def test_degree_slots(self):
        vec = type1(jacobi_pineiro_ws(2), (3, 1))
        assert len(vec.components[0].coefficients) == 3
        assert vec.components[0].coefficients[-1] != 0
        assert len(vec.components[1].coefficients) == 1


class TestHahnType2:
    def test_degree_one(self):
        # x - N (alpha+1)/(alpha+beta+2) in the falling basis
        poly = type2(hahn_ws(1, 3), (1,))
        assert poly.basis.kind is BasisKind.FALLING_FACTORIAL
        assert poly.coefficients == (F(-18, 11), F(-1))
        assert monomial_coefficients(poly) == (F(-18, 11), F(1))

    def test_zero_index(self):
        assert type2(hahn_ws(2, 4), (0, 0)).coefficients == (F(1),)

    def test_two_weights(self):
        ws = hahn_ws(2, 4)
        poly = type2(ws, (1, 1))
        assert poly.coefficients == (F(384, 215), F(606, 215), F(1))
        assert poly.coefficients == oracle.oracle_solve_type2(ws, (1, 1)).coefficients

    def test_monic_after_basis_change(self):
        for n, N in (((2,), 5), ((1, 1), 4), ((2, 1), 6), ((1, 1, 1), 7)):
            ws = hahn_ws(len(n), N)
            assert F(*type2(ws, n).leading_monomial_coefficient()) == 1


class TestHahnType1:
    def test_single_weight_constant(self):
        # N! / (alpha+beta+2)_N via the lattice total mass
        vec = type1(hahn_ws(1, 2), (1,))
        assert vec.components[0].coefficients == (F(32, 165),)
        assert families.type1_scale(hahn_ws(1, 2), 0, 1).is_one()

    def test_two_weights_match_oracle_and_double_series(self):
        ws = hahn_ws(2, 3)
        vec = type1(ws, (1, 1))
        assert vec.components[0].coefficients == (F(1984, 1425),)
        assert vec.components[1].coefficients == (F(-1728, 1075),)
        solved = oracle.oracle_solve_type1(ws, (1, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients
        for i in range(2):
            row = row_values(*hahn_type1_p2_kdf(ws, (1, 1), i))
            for x in range(ws.N + 1):
                assert row[x] == vec.components[i].rational_value(x)

    def test_leading_constant_sign_structure(self):
        # the order-zero coefficient is the full prefactor, sign (-1)^(|n|-1)
        for n, N in (((1,), 4), ((2,), 5), ((1, 1), 4), ((2, 1), 6)):
            ws = hahn_ws(len(n), N)
            vec = type1(ws, n)
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
            hahn_type1_p2_kdf(hahn_ws(1, 3), (1,), 0)

    @pytest.mark.parametrize("i", [2, -1, 1.0])
    def test_component_index_is_0_or_1(self, i):
        with pytest.raises(PreconditionError, match="components 0 and 1"):
            hahn_type1_p2_kdf(hahn_ws(2, 6), (1, 1), i)

    def test_matches_general_formula_deeper(self):
        ws = hahn_ws(2, 5)
        assert row_values(*hahn_type1_p2_kdf(ws, (2, 1), 1))[1] == F(2363904, 2037805)
        vec = type1(ws, (2, 1))
        assert vec.components[1].rational_value(1) == F(2363904, 2037805)

    @given(admissible_systems(family="hahn", p=2))
    @settings(max_examples=25, deadline=None)
    def test_row_matches_per_point_series(self, system):
        ws, n = system
        assume(min(n) >= 1)
        vec = type1(ws, n)
        for i in range(2):
            row = row_values(*hahn_type1_p2_kdf(ws, n, i))
            assert row == tuple(kdf_per_point(ws, n, i, x) for x in range(ws.N + 1))
            assert row == tuple(vec.components[i].rational_value(x) for x in range(ws.N + 1))

    def test_single_term_structure(self):
        # n = (1,1): the first summation index is pinned at zero
        ws = hahn_ws(2, 3)
        value = row_values(*hahn_type1_p2_kdf(ws, (1, 1), 0))[2]
        assert isinstance(value, F)


class TestHahnWeightedSeries:
    def test_at_zero_is_prefactor(self):
        ws = hahn_ws(2, 4)
        n = (1, 1)
        value = row_values(*hahn_type2_weighted_series(ws, n))[0]
        poly = type2(ws, n)
        assert value == poly.rational_value(0) * pochhammer(ws.beta + 1, ws.N) / math.factorial(ws.N)

    def test_zero_index_weight_factor(self):
        ws = hahn_ws(1, 3)
        for x in range(4):
            value = row_values(*hahn_type2_weighted_series(ws, (0,)))[x]
            assert value == pochhammer(ws.beta + 1, ws.N - x) / math.factorial(ws.N - x)

    def test_cross_check_against_direct_values(self):
        ws = hahn_ws(2, 4)
        n = (1, 1)
        poly = type2(ws, n)
        x = 2
        expected = poly.rational_value(x) * pochhammer(ws.beta + 1, ws.N - x) / math.factorial(ws.N - x)
        assert row_values(*hahn_type2_weighted_series(ws, n))[x] == expected

    def test_every_lattice_point_matches_direct_values(self):
        for n, N in (((1,), 3), ((2, 1), 5), ((1, 2, 1), 7), ((0, 3), 4)):
            ws = hahn_ws(len(n), N)
            values, den = type2(ws, n).lattice_values(N)
            factors, factor_den = ws.beta_factors
            series = row_values(*hahn_type2_weighted_series(ws, n))
            assert series == tuple(F(v * f, den * factor_den) for v, f in zip(values, factors))

    @given(st.one_of(admissible_systems(family="hahn"), hahn_corner_systems()))
    @settings(max_examples=60, deadline=None)
    def test_newton_comparison_matches_the_expanded_values(self, system):
        # the Newton coefficients of the generated weighted row against the series terms give the verdict of
        # the series expanded into lattice values, on the generated polynomial and under every single bump
        ws, n = system
        poly = type2(ws, n)
        expanded = row_values(*hahn_type2_weighted_series(ws, n))
        for fault in [None] + [f"t2:{k}" for k in range(sum(n) + 1)]:
            bumped, _ = apply_fault(poly, None, fault)
            verdict = row_values(*row_product(bumped.lattice_values(ws.N), ws.beta_factors)) == expanded
            assert families.hahn_weighted_series_relation(ws, n, bumped) == verdict == (fault is None), fault

    @pytest.mark.parametrize("ws", [laguerre_ws(2), jacobi_pineiro_ws(2)], ids=["laguerre", "jacobi-pineiro"])
    def test_newton_comparison_is_hahn_only(self, ws):
        with pytest.raises(AdmissibilityError):
            families.hahn_weighted_series_relation(ws, (1, 1), type2(ws, (1, 1)))


class TestHahnJacobiPineiroRelation:
    def test_single_weight(self):
        ws = hahn_ws(1, 3)
        assert hahn_jp_coefficient_relation(ws, (1,), type2(ws, (1,)))
        # spot value: Q[0] = N!/(N-1)! * P[0] = 3 * (-6/11)
        assert type2(hahn_ws(1, 3), (1,)).coefficients[0] == F(-18, 11)

    def test_two_weights(self):
        ws = hahn_ws(2, 4)
        assert hahn_jp_coefficient_relation(ws, (1, 1), type2(ws, (1, 1)))

    def test_top_coefficient_consistent_with_monicity(self):
        ws = hahn_ws(2, 5)
        q = type2(ws, (2, 1)).coefficients
        assert q[-1] == F(-1) ** 3

    def test_rows_of_another_length_fail(self):
        # the rows are compared zero-padded: a missing coefficient is a mismatch, a degree above |n| is refused
        ws, n = hahn_ws(2, 6), (1, 1)
        nums, den = type2(ws, n).row
        assert hahn_jp_coefficient_relation(ws, n, ScaledPolynomial(Basis.falling_factorial(), row=([*nums, 0], den)))
        with pytest.raises(PreconditionError, match="degree <= 2, not 3"):
            hahn_jp_coefficient_relation(ws, n, ScaledPolynomial(Basis.falling_factorial(), row=([*nums, 5], den)))
        assert not hahn_jp_coefficient_relation(ws, n, ScaledPolynomial(Basis.falling_factorial(), row=(nums[:2], den)))

    def test_another_basis_is_refused(self):
        ws, n = hahn_ws(2, 6), (1, 1)
        with pytest.raises(PreconditionError, match="falling-factorial basis"):
            hahn_jp_coefficient_relation(ws, n, ScaledPolynomial(Basis.monomial(), row=type2(ws, n).row))


class TestTypeDispatch:
    def test_mixed_zero_component_routed_to_zero(self):
        ws = laguerre_ws(2)
        vec = families.type1(ws, (2, 0))
        assert vec.components[1].coefficients == ()
        report = oracle.check_type1_orthogonality(ws, (2, 0), vec)
        assert report.passed

    def test_eval_polynomial_root(self):
        poly = type2(hahn_ws(1, 3), (1,))
        assert poly.rational_value(F(18, 11)) == 0


class TestDegenerateNormalizationBoundary:
    """alpha_i + beta + |n| = 0, reachable only at |n| = 1 with alpha_i + beta = -1."""

    ALPHA, BETA = (F(-1, 2),), F(-1, 2)

    def test_hahn_corner_cancels_rationally(self):
        from mopexact import WeightSystem
        ws = WeightSystem.hahn(self.ALPHA, self.BETA, 3)
        vec = type1(ws, (1,))
        # N! / (alpha+beta+2)_N with alpha+beta+2 = 1
        assert vec.components[0].coefficients == (F(1),)
        solved = oracle.oracle_solve_type1(ws, (1,))
        assert solved.components[0].coefficients == vec.components[0].coefficients
        assert oracle.check_type1_orthogonality(ws, (1,), vec).passed

    def test_jp_corner_refuses_loudly(self):
        from mopexact import PoleError, WeightSystem
        ws = WeightSystem.jacobi_pineiro(self.ALPHA, self.BETA)
        with pytest.raises(PoleError):
            type1(ws, (1,))
        with pytest.raises(PoleError):
            oracle.oracle_solve_type1(ws, (1,))

    def test_off_corner_negative_exponents_work(self):
        from mopexact import WeightSystem
        ws = WeightSystem.jacobi_pineiro((F(-1, 2), F(-1, 3)), F(-1, 2))
        vec = type1(ws, (1, 1))  # |n| = 2 clears the corner
        solved = oracle.oracle_solve_type1(ws, (1, 1))
        for ours, theirs in zip(vec.components, solved.components):
            assert ours.coefficients == theirs.coefficients
        assert oracle.check_type1_orthogonality(ws, (1, 1), vec).passed

    @pytest.mark.parametrize("N", [None, 3])
    def test_idle_weight_on_the_corner(self, N):
        # n_1 = 0 with alpha_1 + beta + 1 = 0: the idle weight's factors are a
        # removable 0/0 that the generator must drop, not divide by
        from mopexact import WeightSystem
        alpha = (F(-1, 2), F(1, 3))
        if N is None:
            ws = WeightSystem.jacobi_pineiro(alpha, self.BETA)
        else:
            ws = WeightSystem.hahn(alpha, self.BETA, N)
        poly = families.type2(ws, (0, 1))
        assert poly.coefficients == oracle.oracle_solve_type2(ws, (0, 1)).coefficients
        assert oracle.check_type2_orthogonality(ws, (0, 1), poly).passed
        if N is None:
            assert poly.coefficients == (F(-8, 11), F(1))


class TestStructuralInvariants:
    GRID = [((1,), 1), ((2,), 2), ((1, 1), 2), ((2, 1), 3), ((1, 1, 1), 3), ((2, 2), 4)]

    def test_type2_monic_all_families(self):
        for n, total in self.GRID:
            p = len(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                poly = families.type2(ws, n)
                assert F(*poly.leading_monomial_coefficient()) == 1
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
