import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mopexact import AdmissibilityError, Family, WeightSystem, pochhammer
from conftest import STANDARD_ALPHAS, STANDARD_BETA, beta_factors, hahn_weight, hahn_ws, weight_table


class TestAdmissibility:
    def test_alpha_must_exceed_minus_one(self):
        with pytest.raises(AdmissibilityError):
            WeightSystem.laguerre((Fraction(-3, 2),))

    def test_integer_alpha_difference_rejected(self):
        with pytest.raises(AdmissibilityError):
            WeightSystem.laguerre((Fraction(1, 2), Fraction(3, 2)))

    def test_beta_required_for_jacobi_pineiro(self):
        with pytest.raises(AdmissibilityError):
            WeightSystem(Family.JACOBI_PINEIRO, (Fraction(1, 2),))

    def test_lattice_size_required_for_hahn(self):
        with pytest.raises(AdmissibilityError):
            WeightSystem(Family.HAHN, (Fraction(1, 2),), Fraction(1, 4))

    def test_laguerre_takes_no_beta(self):
        with pytest.raises(AdmissibilityError):
            WeightSystem(Family.LAGUERRE_FIRST_KIND, (Fraction(1, 2),), Fraction(1, 4))

    def test_index_length_checked(self):
        ws = hahn_ws(2, 5)
        with pytest.raises(AdmissibilityError):
            ws.validate_index((1,))

    def test_hahn_total_degree_bound(self):
        ws = hahn_ws(2, 3)
        with pytest.raises(AdmissibilityError):
            ws.validate_index((2, 2))
        ws.validate_index((2, 1))

    @pytest.mark.parametrize("N", [2.5, "3", True, False, Fraction(3), None, -1])
    def test_lattice_size_must_be_a_nonnegative_int(self, N):
        # a float, a string, a bool or a Fraction is refused, not read as an int or failed on later
        with pytest.raises(AdmissibilityError):
            WeightSystem.hahn(["1/2"], "1/3", N)

    @pytest.mark.parametrize("n", [(True, 1), (1, False), (2.0, 1), ("2", 1), (1, Fraction(1)), (1, None)])
    def test_index_entries_must_be_ints(self, n):
        # a bool, a float, a string or a Fraction entry is refused, not read as an int or failed on later
        for ws in (hahn_ws(2, 5), WeightSystem.laguerre(STANDARD_ALPHAS[:2])):
            for type_one in (False, True):
                with pytest.raises(AdmissibilityError, match="entries of type int"):
                    ws.validate_index(n, type_one=type_one)

    def test_type_one_needs_positive_total(self):
        ws = hahn_ws(1, 3)
        with pytest.raises(AdmissibilityError):
            ws.validate_index((0,), type_one=True)


class TestHahnWeights:
    def test_rational_values(self):
        ws = hahn_ws(1, 2)
        a, b = STANDARD_ALPHAS[0], STANDARD_BETA
        assert hahn_weight(ws, 0, 0) == pochhammer(b + 1, 2) / 2
        assert hahn_weight(ws, 0, 2) == pochhammer(a + 1, 2) / 2

    def test_total_mass_closed_form(self):
        # sum_x w_i(x) = (alpha_i + beta + 2)_N / N!
        for N in range(0, 7):
            ws = hahn_ws(2, N)
            for i in range(2):
                mass = sum(hahn_weight(ws, i, x) for x in range(N + 1))
                expected = pochhammer(ws.alpha[i] + ws.beta + 2, N) / math.factorial(N)
                assert mass == expected

    def test_off_lattice_rejected(self):
        ws = hahn_ws(1, 2)
        with pytest.raises(AdmissibilityError):
            hahn_weight(ws, 0, 3)
        for x in (Fraction(1, 2), -1):
            with pytest.raises(AdmissibilityError):
                hahn_weight(ws, 0, x)

    @given(
        alpha=st.lists(st.fractions(Fraction(-9, 10), 4, max_denominator=12), min_size=1, max_size=3),
        beta=st.fractions(Fraction(-9, 10), 4, max_denominator=12),
        N=st.integers(0, 10),
    )
    @example(alpha=[Fraction(1, 2)], beta=Fraction(1, 4), N=0)
    @settings(max_examples=100, deadline=None)
    def test_weight_table_matches_closed_form(self, alpha, beta, N):
        try:
            ws = WeightSystem.hahn(alpha, beta, N)
        except AdmissibilityError:
            assume(False)
        assert len(weight_table(ws)) == ws.p
        for a, (nums, den) in zip(ws.alpha, weight_table(ws)):
            assert all(type(v) is int for v in nums) and den > 0 and math.gcd(den, *nums) == 1
            assert tuple(Fraction(v, den) for v in nums) == tuple(
                pochhammer(a + 1, x) / math.factorial(x)
                * pochhammer(beta + 1, N - x) / math.factorial(N - x)
                for x in range(N + 1)
            )
        nums, den = beta_factors(ws)
        assert tuple(Fraction(v, den) for v in nums) == tuple(
            pochhammer(beta + 1, N - x) / math.factorial(N - x) for x in range(N + 1)
        )

    def test_weight_table_only_for_hahn(self):
        with pytest.raises(AdmissibilityError):
            weight_table(WeightSystem.laguerre(STANDARD_ALPHAS[:1]))
