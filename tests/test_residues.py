import math
from fractions import Fraction

import pytest

from mopexact import (
    AdmissibilityError,
    GammaProduct,
    PreconditionError,
    interpolation_recover_p,
    pochhammer,
    recovered_constant_closed_form,
    type1_linear_form_residues,
    type2_residue_coefficient,
    verify_ir_lemma,
    verify_type2_series_equivalence,
)
from mopexact import families, residues
from mopexact.driver import CONTINUOUS_SAMPLE_POINTS, compositions
from mopexact.weights import Family
from conftest import hahn_ws, jacobi_pineiro_ws, laguerre_ws

F = Fraction


class TestPoleEnumeration:
    def test_count_is_total_degree(self):
        for n in compositions(4):
            ws = laguerre_ws(len(n))
            assert len(residues.enumerate_poles(ws, n)) == sum(n)

    def test_locations(self):
        ws = laguerre_ws(2)
        poles = residues.enumerate_poles(ws, (2, 1))
        assert [(p.weight_index, p.location) for p in poles] == [
            (0, F(1, 2)), (0, F(3, 2)), (1, F(1, 3)),
        ]


class TestType1LinearForm:
    def test_laguerre_single_pole(self):
        # one residue: component = x^alpha / Gamma(alpha+1)
        ws = laguerre_ws(1)
        value = type1_linear_form_residues(ws, (1,), F(2, 3))
        comp = value.components[0]
        assert comp.coefficient == 1
        assert comp.residual.factors == ((F(3, 2), -1),)

    def test_matches_direct_decomposition_jp(self):
        ws = jacobi_pineiro_ws(2)
        a = type1_linear_form_residues(ws, (1, 1), F(1, 2))
        b = residues.type1_direct_decomposition(ws, (1, 1), F(1, 2))
        assert residues.linear_form_values_equal(a, b)

    def test_matches_direct_decomposition_hahn(self):
        ws = hahn_ws(2, 5)
        vec = families.hahn_type1(ws, (2, 1))
        a = type1_linear_form_residues(ws, (2, 1), 3)
        for i in range(2):
            expected = vec.components[i].rational_value(3) * pochhammer(ws.alpha[i] + 1, 3)
            assert a.components[i].coefficient == expected
            assert a.components[i].residual.is_one()

    def test_full_grid_all_families(self):
        for n in compositions(4):
            p, total = len(n), sum(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                if ws.family is Family.HAHN:
                    points = range(ws.N + 1)
                else:
                    points = CONTINUOUS_SAMPLE_POINTS[ws.family]
                for x in points:
                    assert residues.linear_form_values_equal(
                        type1_linear_form_residues(ws, n, x),
                        residues.type1_direct_decomposition(ws, n, x),
                    ), (ws.family, n, x)


    @pytest.mark.parametrize("ws, x", [
        (hahn_ws(1, 3), F(18, 11)), (hahn_ws(1, 3), 5), (hahn_ws(1, 3), -1), (laguerre_ws(1), -1),
    ])
    def test_both_routes_reject_the_same_points(self, ws, x):
        for route in (type1_linear_form_residues, residues.type1_direct_decomposition):
            with pytest.raises(AdmissibilityError):
                route(ws, (2,), x)


class TestType2Residues:
    def test_laguerre_order_zero(self):
        # residue 0 carries prod (alpha_i + 1)_{n_i} times the global sign
        ws = laguerre_ws(2)
        value, residual = type2_residue_coefficient(ws, (1, 1), 0)
        assert residual.is_one()
        assert value == pochhammer(F(3, 2), 1) * pochhammer(F(4, 3), 1)

    def test_jp_order_zero_matches_series(self):
        ws = jacobi_pineiro_ws(2)
        r_val, r_gamma = type2_residue_coefficient(ws, (1, 1), 0)
        s_val, s_gamma = residues.type2_series_coefficient(ws, (1, 1), 0)
        assert r_val == s_val and r_gamma.factors == s_gamma.factors

    def test_hahn_pole_set_is_finite(self):
        ws = hahn_ws(1, 4)
        with pytest.raises(AdmissibilityError):
            type2_residue_coefficient(ws, (1,), 5)

    def test_series_equivalence_laguerre(self):
        assert verify_type2_series_equivalence(laguerre_ws(2), (1, 1), 6)

    def test_series_equivalence_hahn(self):
        assert verify_type2_series_equivalence(hahn_ws(2, 4), (1, 1), 4)

    def test_series_equivalence_grid(self):
        for n in compositions(4):
            p, total = len(n), sum(n)
            assert verify_type2_series_equivalence(laguerre_ws(p), n, 6)
            assert verify_type2_series_equivalence(jacobi_pineiro_ws(p), n, 6)
            assert verify_type2_series_equivalence(hahn_ws(p, total + 2), n, total + 2)

    def test_hahn_full_pole_sum_reproduces_weighted_values(self):
        # summing all N+1 residues against (-x)_k gives the weighted lattice
        # values themselves, not only the expansion coefficients
        beta_unit = GammaProduct.gamma(F(1, 4) + 1, -1)
        for n, N in (((1,), 3), ((1, 1), 4), ((2, 1), 6)):
            ws = hahn_ws(len(n), N)
            for x in range(N + 1):
                acc = F(0)
                for k in range(N + 1):
                    value, residual = type2_residue_coefficient(ws, n, k)
                    normalized, leftover = (residual * beta_unit).reduce()
                    assert leftover.is_one()
                    acc += value * normalized * pochhammer(F(-x), k)
                assert acc == families.hahn_type2_weighted_series(ws, n, x)


class TestInterpolationRecovery:
    def test_laguerre_constant(self):
        ws = laguerre_ws(2)
        coeffs = interpolation_recover_p(ws, (1, 1), families.laguerre1_type1(ws, (1, 1)))
        assert coeffs[0] == F(-1) ** (2 - 1)
        assert all(c == 0 for c in coeffs[1:])

    def test_jp_constant(self):
        ws = jacobi_pineiro_ws(2)
        n = (2, 1)
        coeffs = interpolation_recover_p(ws, n, families.jacobi_pineiro_type1(ws, n))
        expected = recovered_constant_closed_form(ws, n)
        manual = F(-1) ** 2 / pochhammer(ws.beta + 1, 2)
        for i, a in enumerate(ws.alpha):
            manual *= pochhammer(a + ws.beta + 3, n[i])
        assert coeffs[0] == expected == manual
        assert all(c == 0 for c in coeffs[1:])

    def test_hahn_constant(self):
        ws = hahn_ws(3, 6)
        n = (1, 1, 1)
        coeffs = interpolation_recover_p(ws, n, families.hahn_type1(ws, n))
        expected = recovered_constant_closed_form(ws, n)
        manual = F(-1) ** 2 * math.factorial(ws.N - 3 + 1) / pochhammer(ws.beta + 1, 2)
        for i, a in enumerate(ws.alpha):
            manual *= pochhammer(a + ws.beta + 3, n[i])
        assert coeffs[0] == expected == manual
        assert all(c == 0 for c in coeffs[1:])

    def test_degree_one_vectors_recover_their_constant(self):
        # the closed forms are only argued for |n| >= 2; at |n| = 1 we record
        # that the recovery still returns the same constants
        for ws in (laguerre_ws(1), jacobi_pineiro_ws(1), hahn_ws(1, 3)):
            coeffs = interpolation_recover_p(ws, (1,), families.type1(ws, (1,)))
            assert coeffs == (recovered_constant_closed_form(ws, (1,)),)

    def test_perturbed_vector_is_not_constant(self):
        ws = laguerre_ws(2)
        vec = families.laguerre1_type1(ws, (2, 1))
        comp = vec.components[0]
        bumped = comp.coefficients[0] + 1, comp.coefficients[1]
        from mopexact.polybasis import ScaledPolynomial, TypeIVector
        vec = TypeIVector((ScaledPolynomial(comp.basis, bumped, comp.scale), vec.components[1]))
        coeffs = interpolation_recover_p(ws, (2, 1), vec)
        assert any(c != 0 for c in coeffs[1:])


class TestConstancyLemma:
    def test_constant_passes(self):
        assert verify_ir_lemma(jacobi_pineiro_ws(2), (1, 1), [F(7)])

    def test_linear_fails_on_two_nodes(self):
        assert not verify_ir_lemma(jacobi_pineiro_ws(2), (1, 1), [F(0), F(1)])

    def test_vanishing_at_all_but_one_node_fails(self):
        # q(t) = prod (alpha_i - t)_{n_i} / (alpha_1 - t) + 5 vanishes at every
        # node except alpha_1 where it does not
        ws = laguerre_ws(2)
        n = (2, 1)
        # build prod(alpha_i - t)_{n_i} / (alpha_1 - t) as exact coefficients
        factors = []
        for i in range(2):
            for k in range(n[i]):
                factors.append(ws.alpha[i] + k)
        coeffs = [F(1)]
        for root in factors[1:]:  # drop the (alpha_1 - t) factor
            out = [F(0)] * (len(coeffs) + 1)
            for j, c in enumerate(coeffs):
                out[j] += c * root
                out[j + 1] -= c
            coeffs = out
        coeffs[0] += 5
        assert not verify_ir_lemma(ws, n, coeffs)

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            verify_ir_lemma(laguerre_ws(1), (1,), [F(1), F(2)])


class TestFloatTailSanity:
    def test_partial_residue_sums_converge_laguerre(self):
        ws = laguerre_ws(2)
        n = (2, 1)
        poly = families.laguerre1_type2(ws, n)
        for x in (F(1, 2), F(3, 2), F(3)):
            target = float(poly.rational_value(x)) * math.exp(-float(x))
            acc = 0.0
            for k in range(61):
                value, _ = type2_residue_coefficient(ws, n, k)
                acc += float(value) * float(x) ** k
            assert abs(acc - target) <= 1e-10 * max(abs(target), 1e-30)

    def test_partial_residue_sums_converge_jp(self):
        ws = jacobi_pineiro_ws(2)
        n = (1, 1)
        poly = families.jacobi_pineiro_type2(ws, n)
        for x in (F(1, 3), F(1, 2)):
            target = float(poly.rational_value(x)) * (1 - float(x)) ** float(ws.beta)
            acc = 0.0
            for k in range(61):
                value, _ = type2_residue_coefficient(ws, n, k)
                acc += float(value) * float(x) ** k
            assert abs(acc - target) <= 1e-10 * max(abs(target), 1e-30)
