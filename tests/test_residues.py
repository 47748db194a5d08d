import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import (
    AdmissibilityError,
    GammaProduct,
    PreconditionError,
    ScaledPolynomial,
    TypeIVector,
    WeightSystem,
    check_residue_duality,
    check_type1_orthogonality,
    pochhammer,
    recovered_constant_closed_form,
    verify_type2_series_equivalence,
)
from mopexact import families, residues
from mopexact.driver import apply_fault, compositions, iter_instances, run_instance, weight_system
from mopexact.gammaprod import as_fraction
from mopexact.polybasis import values_at
from mopexact.weights import Family, MultiIndex, total_degree
from conftest import (
    admissible_systems, hahn_corner_systems, hahn_type2_weighted_series, hahn_ws, instance_of, interpolation_recover_p,
    hypergeometric_row, integer_parameter_systems, jacobi_pineiro_ws, laguerre_ws, lattice_values, pair_values,
    recovered_node_values, row_values, sample_points, scaled_values_equal, series_rows_relation, series_term, times,
)

F = Fraction


# --- test-only helpers and references ---------------------------------------


@dataclass(frozen=True)
class ResiduePole:
    """A pole of a type I integrand: t = alpha_i + offset.

    Every pole is simple (order 1): non-integer alpha differences keep the
    denominator factors from colliding.
    """

    weight_index: int
    offset: int
    location: Fraction
    order: int = 1


def enumerate_poles(ws: WeightSystem, n: MultiIndex) -> list[ResiduePole]:
    """The |n| simple poles t = alpha_i + k, k = 0..n_i-1."""
    ws.validate_index(n, type_one=True)
    return [
        ResiduePole(i, k, ws.alpha[i] + k)
        for i in range(ws.p)
        for k in range(n[i])
    ]


def verify_ir_lemma(ws: WeightSystem, n: MultiIndex, p_coeffs) -> bool:
    """Constructive form of the constancy lemma for integrand numerators.

    A polynomial of degree <= |n|-1 orthogonal (through the pole-sum
    pairing) to every polynomial of degree <= |n|-2 takes equal values at
    all |n| zeros of prod_i (alpha_i - t)_{n_i}; having degree below the
    node count it is then constant.  Returns True iff the given polynomial
    takes one single value on that node set.
    """
    ws.validate_index(n, type_one=True)
    coeffs = [as_fraction(c) for c in p_coeffs]
    degree = max((k for k, c in enumerate(coeffs) if c != 0), default=-1)
    if degree > total_degree(n) - 1:
        raise PreconditionError(f"degree {degree} exceeds |n|-1 = {total_degree(n) - 1}")
    values = set()
    for pole in enumerate_poles(ws, n):
        values.add(sum((c * pole.location**k for k, c in enumerate(coeffs)), Fraction(0)))
    return len(values) <= 1


def reference_residue_coefficient(ws: WeightSystem, n: MultiIndex, k: int) -> tuple[Fraction, GammaProduct]:
    """The per-order residue formula, one pochhammer per factor and the Hahn gammas reduced per k."""
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    sign = Fraction(-1) ** total
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        value = sign * Fraction(-1) ** k / math.factorial(k)
        for i in range(ws.p):
            value *= pochhammer(alpha[i] + 1 + k, n[i])
        return value, GammaProduct.one()
    if ws.family is Family.JACOBI_PINEIRO:
        value = sign * Fraction(-1) ** k / math.factorial(k)
        value *= pochhammer(beta + total + 1 - k, k)
        for i in range(ws.p):
            value *= pochhammer(alpha[i] + 1 + k, n[i]) / pochhammer(alpha[i] + beta + total + 1, n[i])
        return value, GammaProduct.one()
    value = sign / (math.factorial(k) * math.factorial(ws.N - total))
    for i in range(ws.p):
        value *= pochhammer(alpha[i] + 1 + k, n[i]) / pochhammer(alpha[i] + beta + total + 1, n[i])
    gammas = GammaProduct.from_factors([
        (beta + total + 1, 1), (beta + ws.N + 1 - k, 1), (beta + total + 1 - k, -1),
    ])
    extra, residual = gammas.reduce()
    return value * extra, residual


def reference_series_coefficient(ws: WeightSystem, n: MultiIndex, k: int) -> tuple[Fraction, GammaProduct]:
    """The per-order series formula: the full prefactor times one series_term."""
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    sign = Fraction(-1) ** total
    shifted = [a + ni + 1 for a, ni in zip(alpha, n)]
    plain = [a + 1 for a in alpha]
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        prefactor = sign
        for i in range(ws.p):
            prefactor *= pochhammer(alpha[i] + 1, n[i])
        return prefactor * series_term(shifted, plain, -1, k), GammaProduct.one()
    prefactor = sign
    for i in range(ws.p):
        prefactor *= pochhammer(alpha[i] + 1, n[i]) / pochhammer(alpha[i] + beta + total + 1, n[i])
    if ws.family is Family.JACOBI_PINEIRO:
        return prefactor * series_term([-beta - total, *shifted], plain, 1, k), GammaProduct.one()
    prefactor *= pochhammer(beta + 1, ws.N) / math.factorial(ws.N - total)
    value = prefactor * series_term(
        [-beta - total, *shifted], [-beta - Fraction(ws.N), *plain], 1, k
    )
    return value, GammaProduct.gamma(beta + 1)


def pole_weight(ws: WeightSystem, n: MultiIndex, i: int, k: int) -> Fraction:
    """The residue denominator (-1)^k / (k! (n_i-1-k)! prod_{j!=i} (a_j-a_i-k)_{n_j}), one pochhammer per j."""
    value = Fraction(-1) ** k / (math.factorial(k) * math.factorial(n[i] - 1 - k))
    for j in range(ws.p):
        if j != i and n[j] > 0:
            value /= pochhammer(ws.alpha[j] - ws.alpha[i] - k, n[j])
    return value


def pole_sum(ws: WeightSystem, i: int, terms: list[Fraction], x: Fraction) -> Fraction:
    """Component i of the residue route at x: the terms against their x-dependent factors, for Hahn
    t_k (x+alpha_i+1)_k (alpha_i+1)_x, the residue's (alpha_i+1+k)_x times (alpha_i+1)_k."""
    if ws.family is Family.HAHN:
        shift, m = ws.alpha[i] + 1, x.numerator
        return sum((t * pochhammer(x + shift, k) * pochhammer(shift, m) for k, t in enumerate(terms)), Fraction(0))
    return sum((t * x**k for k, t in enumerate(terms)), Fraction(0))


def row_gamma(ws: WeightSystem) -> GammaProduct:
    """The gamma both type II rows are against: Gamma(beta+1) for Hahn, none otherwise."""
    return GammaProduct.gamma(ws.beta + 1) if ws.family is Family.HAHN else GammaProduct.one()


def residue_row(ws: WeightSystem, n: MultiIndex, k_max: int) -> tuple[list[Fraction], GammaProduct]:
    """The residues k <= k_max of residues._type2_residue_factors (first entry and term ratio) as Fractions, and
    their gamma."""
    return hypergeometric_row(*residues._type2_residue_factors(ws, n), k_max + 1), row_gamma(ws)


def series_row(ws: WeightSystem, n: MultiIndex, k_max: int) -> tuple[list[Fraction], GammaProduct]:
    """The series terms k <= k_max the series route compares (families._type2_series) as Fractions, and its gamma."""
    (top, bottom), nums, den = families._type2_series(ws, n, k_max + 1)
    return [Fraction(top * v, bottom * den) for v in nums], row_gamma(ws)


def term_fractions(row) -> list[Fraction]:
    """A pole-terms row of residues._type1_pole_terms (integers over one denominator) as Fractions."""
    nums, den = row
    return [Fraction(v, den) for v in nums]


def direct_value(ws: WeightSystem, i: int, comp, x: Fraction) -> Fraction:
    """Component i of the direct route at x: A_i(x), times (alpha_i+1)_x for Hahn."""
    if ws.family is not Family.HAHN:
        return comp.rational_value(x)
    nums, den = lattice_values(comp, ws.N)
    return Fraction(nums[x.numerator], den) * pochhammer(ws.alpha[i] + 1, x.numerator)


class TestPoleEnumeration:
    def test_count_is_total_degree(self):
        for n in compositions(4):
            ws = laguerre_ws(len(n))
            assert len(enumerate_poles(ws, n)) == sum(n)

    def test_locations(self):
        ws = laguerre_ws(2)
        poles = enumerate_poles(ws, (2, 1))
        assert [(p.weight_index, p.location) for p in poles] == [
            (0, F(1, 2)), (0, F(3, 2)), (1, F(1, 3)),
        ]


class TestType1LinearForm:
    def test_laguerre_single_pole(self):
        # one residue: component = x^alpha / Gamma(alpha+1)
        ws = laguerre_ws(1)
        [terms] = residues._type1_pole_terms(ws, (1,))
        assert pole_sum(ws, 0, term_fractions(terms), F(2, 3)) == 1
        assert families.type1_scale(ws, 0, 1).factors == ((F(3, 2), -1),)

    def test_matches_direct_decomposition_jp(self):
        ws = jacobi_pineiro_ws(2)
        assert check_residue_duality(ws, (1, 1), families.type1(ws, (1, 1)))

    def test_matches_direct_decomposition_hahn(self):
        ws = hahn_ws(2, 5)
        vec = families.type1(ws, (2, 1))
        for i, terms in enumerate(residues._type1_pole_terms(ws, (2, 1))):
            expected = vec.components[i].rational_value(3) * pochhammer(ws.alpha[i] + 1, 3)
            assert pole_sum(ws, i, term_fractions(terms), F(3)) == expected

    def test_full_grid_all_families(self):
        for n in compositions(4):
            p, total = len(n), sum(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                vec = families.type1(ws, n)
                assert check_residue_duality(ws, n, vec), (ws.family, n)

    @pytest.mark.parametrize("ws, n", [(laguerre_ws(1), (7,)), (jacobi_pineiro_ws(1), (6,))],
                             ids=["laguerre", "jacobi-pineiro"])
    def test_rows_see_what_the_sample_points_missed(self, ws, n):
        # prod (x - p) over the five points the duality once sampled vanishes at every one of them, so adding it
        # to the vector left every sampled value, and the old verdict, unchanged; the coefficient rows differ
        vec = families.type1(ws, n)
        vanishing = [F(1)]
        for point in sample_points(ws):
            vanishing = [a - point * b for a, b in zip([F(0), *vanishing], [*vanishing, F(0)])]
        [comp] = vec.components
        shifted = TypeIVector((ScaledPolynomial(comp.basis, [c + v for c, v in
                                                             zip(comp.coefficients, [*vanishing, F(0)])]),))
        assert [shifted.components[0].rational_value(x) for x in sample_points(ws)] == [
            comp.rational_value(x) for x in sample_points(ws)]
        assert check_residue_duality(ws, n, vec)
        assert not check_residue_duality(ws, n, shifted)
        assert not check_type1_orthogonality(ws, n, shifted).passed

    @pytest.mark.parametrize("ws, x", [
        (hahn_ws(1, 3), F(18, 11)), (hahn_ws(1, 3), 5), (hahn_ws(1, 3), -1), (laguerre_ws(1), -1),
    ])
    def test_both_routes_reject_the_same_points(self, ws, x):
        # the duality compares rows and reads no point; the direct values refuse a point off the family's domain
        vec = families.type1(ws, (2,))
        assert check_residue_duality(ws, (2,), vec)
        with pytest.raises(AdmissibilityError):
            residues.type1_direct_values(ws, (2,), vec, x)


class TestType2Residues:
    def test_laguerre_order_zero(self):
        # residue 0 carries prod (alpha_i + 1)_{n_i} times the global sign
        ws = laguerre_ws(2)
        [value], residual = residue_row(ws, (1, 1), 0)
        assert residual.is_one()
        assert value == pochhammer(F(3, 2), 1) * pochhammer(F(4, 3), 1)

    def test_jp_order_zero_matches_series(self):
        ws = jacobi_pineiro_ws(2)
        [r_val], r_gamma = residue_row(ws, (1, 1), 0)
        [s_val], s_gamma = series_row(ws, (1, 1), 0)
        assert r_val == s_val and r_gamma.factors == s_gamma.factors

    def test_series_equivalence_laguerre(self):
        assert verify_type2_series_equivalence(laguerre_ws(2), (1, 1), 6)

    def test_series_equivalence_hahn(self):
        assert verify_type2_series_equivalence(hahn_ws(2, 4), (1, 1), 4)

    def test_series_row_is_kept_per_length(self):
        # one weight system keeps one series row per (n, length): a shorter order reads its own row
        ws = hahn_ws(2, 6)
        row = families._type2_series(ws, (1, 1), 7)
        assert families._type2_series(ws, (1, 1), 7) is row and len(row[1]) == 7
        assert len(families._type2_series(ws, (1, 1), 3)[1]) == 3
        assert verify_type2_series_equivalence(ws, (1, 1), 2) and verify_type2_series_equivalence(ws, (1, 1), 6)

    def test_hahn_instance_builds_one_series_row(self, monkeypatch):
        # the weighted series reads one row of |n|+1 terms, and it and the series certificate read one factor list
        calls, factor_lists = [], []
        series, factors = families._type2_series, families._type2_series_factors
        monkeypatch.setattr(families, "_type2_series", lambda *args: calls.append(args[1:]) or series(*args))
        monkeypatch.setattr(families, "_type2_series_factors",
                            lambda ws, n: factor_lists.append(factors(ws, n)) or factor_lists[-1])
        assert run_instance(instance_of(hahn_ws(2, 5), (2, 1)))["pass"]
        assert calls == [((2, 1), 4)]
        assert len(factor_lists) == 2 and factor_lists[0] is factor_lists[1]

    @pytest.mark.parametrize("ws", [laguerre_ws(2), jacobi_pineiro_ws(2), hahn_ws(2, 4)])
    def test_negative_order_rejected(self, ws):
        with pytest.raises(PreconditionError):
            verify_type2_series_equivalence(ws, (1, 1), -1)

    def test_series_equivalence_grid(self):
        for n in compositions(4):
            p, total = len(n), sum(n)
            assert verify_type2_series_equivalence(laguerre_ws(p), n, 6)
            assert verify_type2_series_equivalence(jacobi_pineiro_ws(p), n, 6)
            assert verify_type2_series_equivalence(hahn_ws(p, total + 2), n, total + 2)

    @pytest.mark.parametrize("beta", [F(0), F(2)])
    def test_integer_beta_rows_end_in_zeros(self, beta):
        # -beta-|n| is a nonpositive integer, so the series terminates, and the
        # Hahn residue's 1/Gamma(beta+|n|+1-k) vanishes for k > beta+|n|
        n, k_max = (1, 1), 7
        for ws in (
            WeightSystem.jacobi_pineiro(laguerre_ws(2).alpha, beta),
            WeightSystem.hahn(laguerre_ws(2).alpha, beta, k_max),
        ):
            residue, r_gamma = residue_row(ws, n, k_max)
            series, s_gamma = series_row(ws, n, k_max)
            for k in range(k_max + 1):
                value, gamma = reference_residue_coefficient(ws, n, k)
                assert scaled_values_equal(residue[k], r_gamma, value, gamma), (ws.family, k)
                assert (series[k], s_gamma) == reference_series_coefficient(ws, n, k), (ws.family, k)
            assert residue[k_max] == series[k_max] == 0
            assert verify_type2_series_equivalence(ws, n, k_max)

    def test_hahn_full_pole_sum_reproduces_weighted_values(self):
        # summing all N+1 residues against (-x)_k gives the weighted lattice
        # values themselves, not only the expansion coefficients
        beta_unit = GammaProduct.gamma(F(1, 4) + 1, -1)
        for n, N in (((1,), 3), ((1, 1), 4), ((2, 1), 6)):
            ws = hahn_ws(len(n), N)
            row, residual = residue_row(ws, n, N)
            for x in range(N + 1):
                acc = F(0)
                for k, value in enumerate(row):
                    normalized, leftover = times(residual, beta_unit).reduce()
                    assert leftover.is_one()
                    acc += value * normalized * pochhammer(F(-x), k)
                assert acc == row_values(*hahn_type2_weighted_series(ws, n))[x]


class TestRandomAdmissibleSystems:
    """Properties over random admissible systems of all three families, |n| <= 4."""

    @given(admissible_systems())
    @settings(max_examples=60, deadline=None)
    def test_residue_duality_holds_and_breaks_under_a_fault(self, system):
        ws, n = system
        vec = families.type1(ws, n)
        assert check_residue_duality(ws, n, vec)
        for i, ni in enumerate(n):
            for k in range(ni):
                _, bumped = apply_fault(None, vec, f"t1:{i}:{k}")
                assert not check_residue_duality(ws, n, bumped), (i, k)

    @given(st.one_of(admissible_systems(), hahn_corner_systems()))
    @settings(max_examples=60, deadline=None)
    def test_integer_rows_match_the_per_point_route(self, system):
        # the duality's rows and pole weights against the per-point route they
        # replaced, unperturbed and under every t1 fault
        ws, n = system
        vec = families.type1(ws, n)
        points = [ws.check_point(x) for x in sample_points(ws)]
        poles = residues._type1_pole_terms(ws, n)
        for i, ni in enumerate(n):
            assert pair_values(residues._pole_weights(ws, n, i)) == [pole_weight(ws, n, i, k) for k in range(ni)]
        faults = [None] + [f"t1:{i}:{k}" for i, ni in enumerate(n) for k in range(ni)]
        for fault in faults:
            _, faulty = apply_fault(None, vec, fault)
            verdict = True
            for i, (terms, comp) in enumerate(zip(poles, faulty.components)):
                basis = families.type1_basis(ws, i)
                # both rows' values times the factor (alpha_i+1)_x the Hahn rows leave out
                factors = [pochhammer(ws.alpha[i] + 1, x.numerator) if ws.family is Family.HAHN else 1 for x in points]
                pole_row, direct_row = ([v * f for v, f in zip(pair_values(values_at(basis, row, points)), factors)]
                                        for row in (terms, comp.row))
                reference_poles = [pole_sum(ws, i, term_fractions(terms), x) for x in points]
                reference_direct = [direct_value(ws, i, comp, x) for x in points]
                assert (pole_row, direct_row) == (reference_poles, reference_direct), (fault, i)
                verdict &= reference_poles == reference_direct  # both against the canonical scale
            assert check_residue_duality(ws, n, faulty) == verdict == (fault is None), fault

    @given(admissible_systems())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_per_order_formulas(self, system):
        ws, n = system
        k_max = ws.N if ws.family is Family.HAHN else max(6, sum(n))
        residue, r_gamma = residue_row(ws, n, k_max)
        series, s_gamma = series_row(ws, n, k_max)
        for k in range(k_max + 1):
            value, gamma = reference_residue_coefficient(ws, n, k)
            assert scaled_values_equal(residue[k], r_gamma, value, gamma), k
            assert (series[k], s_gamma) == reference_series_coefficient(ws, n, k), k
        assert verify_type2_series_equivalence(ws, n, k_max)


class TestTermRatioCertificate:
    """The series equivalence is certified by a first entry and a term ratio; the row comparison it replaced is
    conftest.series_rows_relation."""

    @staticmethod
    def assert_certificate_equals_the_rows(ws, n):
        for k_max in sorted({0, 1, sum(n), max(6, sum(n)), ws.N or 0, max(6, ws.N or 0)}):
            assert verify_type2_series_equivalence(ws, n, k_max) == series_rows_relation(ws, n, k_max) is True, k_max

    def test_certificate_equals_the_rows_on_the_grids(self):
        for instance in iter_instances(["hahn"], 6, 14) + iter_instances(["laguerre1", "jacobi-pineiro"], 6, 0):
            self.assert_certificate_equals_the_rows(weight_system(instance), tuple(instance["n"]))

    @given(st.one_of(integer_parameter_systems(), admissible_systems(), hahn_corner_systems()))
    @settings(max_examples=80, deadline=None)
    def test_certificate_equals_the_rows_on_drawn_systems(self, system):
        self.assert_certificate_equals_the_rows(*system)

    @pytest.mark.parametrize("ws, n", [(laguerre_ws(2), (1, 2)), (jacobi_pineiro_ws(3), (2, 1, 1)), (hahn_ws(2, 6), (2, 1))],
                             ids=["laguerre", "jacobi-pineiro", "hahn"])
    def test_a_mutated_factor_turns_the_certificate_red(self, ws, n, monkeypatch):
        # one route with its first entry or one factor moved by one, or its sign flipped: its rows differ from the other
        # route's at some k <= k_max, and the certificate is red
        k_max = 6
        prefactor, z, ups, downs = families._type2_series_factors(ws, n)
        first, res_ups, res_downs = residues._type2_residue_factors(ws, n)

        def bumped(values, i):  # entry i moved by one: a parameter over Q, or the constant of a linear factor
            return [(v + 1 if isinstance(v, int) else (v[0] + 1, v[1])) if j == i else v for j, v in enumerate(values)]

        series = [((prefactor[0] + 1, prefactor[1]), z, ups, downs), (prefactor, -z, ups, downs)]
        series += [(prefactor, z, bumped(ups, i), downs) for i in range(len(ups))]
        series += [(prefactor, z, ups, bumped(downs, i)) for i in range(len(downs))]
        residue = [((first[0] + 1, first[1]), res_ups, res_downs), (first, [*res_ups, (-1, 0)], res_downs)]
        residue += [(first, bumped(res_ups, i), res_downs) for i in range(len(res_ups))]
        residue += [(first, res_ups, bumped(res_downs, i)) for i in range(len(res_downs))]
        mutants = [(families, "_type2_series_factors", m) for m in series]
        mutants += [(residues, "_type2_residue_factors", m) for m in residue]
        for module, name, mutant in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, lambda ws, n: mutant)
                fresh = WeightSystem(ws.family, ws.alpha, ws.beta, ws.N)  # nothing kept from another mutant
                (top, bottom), nums, den = families._type2_series(fresh, n, k_max + 1)
                series_values = [F(top * v, bottom * den) for v in nums]
                residue_values = hypergeometric_row(*residues._type2_residue_factors(ws, n), k_max + 1)
                assert series_values != residue_values, (name, mutant)
                assert not verify_type2_series_equivalence(ws, n, k_max), (name, mutant)


class TestInterpolationRecovery:
    @given(st.one_of(admissible_systems(), hahn_corner_systems()))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_is_the_reduced_pair_of_the_fraction_form(self, system):
        # against the Fraction product the integer pair replaced
        ws, n = system
        total = sum(n)
        expected = F(-1) ** (total - 1)
        if ws.family is not Family.LAGUERRE_FIRST_KIND:
            for a, ni in zip(ws.alpha, n):
                expected *= pochhammer(a + ws.beta + total, ni)
            expected /= pochhammer(ws.beta + 1, total - 1)
        if ws.family is Family.HAHN:
            expected *= math.factorial(ws.N - total + 1)
        top, bottom = recovered_constant_closed_form(ws, n)
        assert type(top) is int and bottom > 0 and math.gcd(top, bottom) == 1
        assert F(top, bottom) == expected

    def test_laguerre_constant(self):
        ws = laguerre_ws(2)
        coeffs = interpolation_recover_p(ws, (1, 1), families.type1(ws, (1, 1)))
        assert coeffs[0] == F(-1) ** (2 - 1)
        assert all(c == 0 for c in coeffs[1:])

    def test_jp_constant(self):
        ws = jacobi_pineiro_ws(2)
        n = (2, 1)
        coeffs = interpolation_recover_p(ws, n, families.type1(ws, n))
        expected = F(*recovered_constant_closed_form(ws, n))
        manual = F(-1) ** 2 / pochhammer(ws.beta + 1, 2)
        for i, a in enumerate(ws.alpha):
            manual *= pochhammer(a + ws.beta + 3, n[i])
        assert coeffs[0] == expected == manual
        assert all(c == 0 for c in coeffs[1:])

    def test_hahn_constant(self):
        ws = hahn_ws(3, 6)
        n = (1, 1, 1)
        coeffs = interpolation_recover_p(ws, n, families.type1(ws, n))
        expected = F(*recovered_constant_closed_form(ws, n))
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
            assert coeffs == (F(*recovered_constant_closed_form(ws, (1,))),)

    def test_perturbed_vector_is_not_constant(self):
        ws = laguerre_ws(2)
        vec = families.type1(ws, (2, 1))
        comp = vec.components[0]
        bumped = comp.coefficients[0] + 1, comp.coefficients[1]
        from mopexact.polybasis import ScaledPolynomial, TypeIVector
        vec = TypeIVector((ScaledPolynomial(comp.basis, bumped), vec.components[1]))
        coeffs = interpolation_recover_p(ws, (2, 1), vec)
        assert any(c != 0 for c in coeffs[1:])

    @given(admissible_systems().filter(lambda system: sum(system[1]) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_node_verdict_equals_interpolation_verdict(self, system):
        # the check run_instance makes (every node value is the closed form)
        # against the interpolant it replaced ((c, 0, ..., 0)), unperturbed and
        # under every single-coefficient +1 fault
        ws, n = system
        expected = F(*recovered_constant_closed_form(ws, n))
        vec = families.type1(ws, n)
        faults = [None] + [f"t1:{i}:{k}" for i, ni in enumerate(n) for k in range(ni)]
        for fault in faults:
            _, faulty = apply_fault(None, vec, fault)
            nodes = recovered_node_values(ws, n, faulty)
            assert [t for t, _ in nodes] == [a + k for a, ni in zip(ws.alpha, n) for k in range(ni)]
            by_node = all(value == expected for _, value in nodes)
            by_interpolation = interpolation_recover_p(ws, n, faulty) == (expected,) + (F(0),) * (sum(n) - 1)
            assert by_node == by_interpolation == (fault is None), fault


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
        poly = families.type2(ws, n)
        row, _ = residue_row(ws, n, 60)
        for x in (F(1, 2), F(3, 2), F(3)):
            target = float(poly.rational_value(x)) * math.exp(-float(x))
            acc = 0.0
            for k, value in enumerate(row):
                acc += float(value) * float(x) ** k
            assert abs(acc - target) <= 1e-10 * max(abs(target), 1e-30)

    def test_partial_residue_sums_converge_jp(self):
        ws = jacobi_pineiro_ws(2)
        n = (1, 1)
        poly = families.type2(ws, n)
        row, _ = residue_row(ws, n, 60)
        for x in (F(1, 3), F(1, 2)):
            target = float(poly.rational_value(x)) * (1 - float(x)) ** float(ws.beta)
            acc = 0.0
            for k, value in enumerate(row):
                acc += float(value) * float(x) ** k
            assert abs(acc - target) <= 1e-10 * max(abs(target), 1e-30)
