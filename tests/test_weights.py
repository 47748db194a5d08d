import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mopexact import AdmissibilityError, Family, WeightSystem, driver, pochhammer, weights
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


class TestExponentParsing:
    """driver.weight_system parses each exponent string once per process; the Fractions, the weight systems and
    the errors are those of Fraction(text), and admissibility compares numerators with denominators."""

    TEXTS = ["1/2", "-6/7", "13/9", " 5/11 ", "0.25", "-0", "7", "2e-1", "-999999/1000000"]

    @staticmethod
    def instance(family, alpha, beta="1/4"):
        instance = {"family": family, "alpha": alpha, "n": [1] * len(alpha)}
        if family != "laguerre1":
            instance["beta"] = beta
        if family == "hahn":
            instance["N"] = 5
        return instance

    @pytest.mark.parametrize("family", ["laguerre1", "jacobi-pineiro", "hahn"])
    @pytest.mark.parametrize("text", TEXTS)
    def test_same_weight_system_as_fraction_parsing(self, family, text):
        for _ in range(2):  # parsed, then read from the cache
            ws = driver.weight_system(self.instance(family, [text, "1/3"], beta=text))
            beta = None if family == "laguerre1" else Fraction(text)
            N = 5 if family == "hahn" else None
            expected = WeightSystem(Family(family), (Fraction(text), Fraction(1, 3)), beta, N)
            assert ws == expected and ws.alpha == expected.alpha and ws.beta == expected.beta
            assert all(type(a) is Fraction for a in ws.alpha)

    @pytest.mark.parametrize("text", ["1/0", "x", "", "1/2/3", "--1", "1 /2"])
    @pytest.mark.parametrize("slot", ["alpha", "beta"])
    def test_bad_strings_raise_what_fraction_raises(self, text, slot):
        with pytest.raises(Exception) as expected:
            Fraction(text)
        alpha, beta = ([text], "1/4") if slot == "alpha" else (["1/2"], text)
        instance = self.instance("jacobi-pineiro", alpha, beta)
        for _ in range(2):  # an error is not kept: the second call raises it again
            with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
                driver.weight_system(instance)

    @pytest.mark.parametrize("text", ["-1", "-2/2", "-1.0", "-7/6", "-1000001/1000000"])
    def test_alpha_and_beta_at_or_below_minus_one_are_refused(self, text):
        with pytest.raises(AdmissibilityError, match="alpha .* must exceed -1"):
            driver.weight_system(self.instance("laguerre1", [text]))
        with pytest.raises(AdmissibilityError, match="beta .* must exceed -1"):
            driver.weight_system(self.instance("jacobi-pineiro", ["1/2"], beta=text))

    @pytest.mark.parametrize("text", ["-6/7", "-999999/1000000", "-1/2", "0"])
    def test_alpha_and_beta_above_minus_one_are_accepted(self, text):
        assert driver.weight_system(self.instance("laguerre1", [text])).alpha == (Fraction(text),)
        assert driver.weight_system(self.instance("hahn", ["1/2"], beta=text)).beta == Fraction(text)

    def test_the_cache_stays_bounded(self):
        bound = driver._exponent.cache_info().maxsize
        assert bound is not None
        for k in range(bound + 50):
            driver.weight_system(self.instance("laguerre1", [f"{k}/{2 * k + 1}"]))
        assert driver._exponent.cache_info().currsize <= bound

    def test_family_names_are_the_members(self):
        assert (weights.LAGUERRE, weights.JACOBI_PINEIRO, weights.HAHN) == tuple(Family)


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
