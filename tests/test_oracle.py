import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import (
    Basis,
    BasisKind,
    PreconditionError,
    ScaledPolynomial,
    SingularSystemError,
    TypeIVector,
    check_discrete_mellin_inversion,
    check_hahn_summation_identity,
    check_mellin_type2,
    check_type1_orthogonality,
    check_type2_orthogonality,
    oracle_solve_type1,
    oracle_solve_type2,
    pochhammer,
)
from mopexact import (
    AdmissibilityError, Family, GammaProduct, PoleError, WeightSystem, families, oracle, residues,
)
from mopexact.weights import total_degree
from mopexact.driver import apply_fault, compositions
from mopexact.gammaprod import pair, row_sum
from conftest import (
    admissible_systems, backward_rows, element_value, hahn_corner_systems, hahn_type2_weighted_series, hahn_weight,
    hahn_ws, interpolate, jacobi_pineiro_ws, laguerre_ws, lattice_table, lattice_values, prime_offset, rising_row,
    row_product, row_values, scaled_values_equal, solve_linear_system, times, weight_table,
)

F = Fraction


def lattice_sum(*vectors) -> Fraction:
    """The Fraction pairing the integer rows replaced: sum over x of the product of the entries."""
    return sum(map(math.prod, zip(*vectors, strict=True)), Fraction(0))


def entries(row) -> tuple[Fraction, ...]:
    nums, den = row
    return tuple(F(v, den) for v in nums)


def integer_row(values) -> tuple[tuple[int, ...], int]:
    """Fractions as one integer row over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def moment_fractions(ws, length: int) -> list[tuple[Fraction, ...]]:
    """The integer moment rows of every weight read as Fractions."""
    return [entries(row) for row in ws.moment_rows(length)]


def moment_gamma(ws, i: int) -> GammaProduct:
    """The gamma factor the integer moment rows of weight i are taken against."""
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        return GammaProduct.gamma(ws.alpha[i] + 1)
    if ws.family is Family.JACOBI_PINEIRO:
        return GammaProduct.from_factors([
            (ws.alpha[i] + 1, 1), (ws.beta + 1, 1), (ws.alpha[i] + ws.beta + 2, -1),
        ])
    return GammaProduct.one()


def scale_reduction(ws, i: int, total: int) -> Fraction:
    """Rational value of the canonical type I scale at |n| = total times moment-gamma, by reducing the product."""
    rational, leftover = times(families.type1_scale(ws, i, total), moment_gamma(ws, i)).reduce()
    if not leftover.is_one():
        raise AssertionError(f"scale x moment gamma did not reduce to a rational: {leftover}")
    return rational


def hahn_linear_form(ws, vec):
    """Values of sum_i A_i(x) * w_i(x) at x = 0..N over one denominator; the canonical Hahn scales are empty."""
    terms = [row_product(lattice_values(comp, ws.N), weight_table(ws)[i])
             for i, comp in enumerate(vec.components) if comp.row[0]]
    return row_sum(terms, ws.N + 1)


def power_pairing(coefficients, moments, j: int) -> Fraction:
    """sum_k c_k m_{j+k} over Fractions: a monomial-basis polynomial times x^j against one moment row."""
    return sum(map(operator.mul, coefficients, moments[j:]), Fraction(0))


@dataclass(frozen=True)
class MomentValue:
    """Exact weight moment: rational part times a formal gamma factor."""

    rational: Fraction
    gamma: GammaProduct


def moment(ws, i: int, basis: Basis, j: int) -> MomentValue:
    """Exact moment of the j-th basis element against weight i.

    Continuous families support the monomial basis; the Hahn lattice sums
    any basis exactly.
    """
    if not 0 <= i < ws.p:
        raise AdmissibilityError(f"weight index {i} out of range")
    if ws.family is Family.HAHN:
        value = pair(lattice_table(basis, j, ws.N)[j], weight_table(ws)[i])
        return MomentValue(value, GammaProduct.one())
    if basis.kind is not BasisKind.MONOMIAL:
        raise PreconditionError("continuous families take moments in the monomial basis")
    return MomentValue(moment_fractions(ws, j + 1)[i][j], moment_gamma(ws, i))


def check_biorthogonality(ws, n, m, poly, vec) -> bool:
    """Pairing of the degree-n type II polynomial poly with the index-m type I vector vec.

    The defining conditions force 0 when m <= n componentwise, 1 when
    |m| = |n| + 1, and 0 when |m| > |n| + 1; other index pairs are not
    covered and raise PreconditionError.
    """
    ws.validate_index(n)
    ws.validate_index(m, type_one=True)
    if all(mi <= ni for mi, ni in zip(m, n)):
        expected = Fraction(0)
    elif total_degree(m) == total_degree(n) + 1:
        expected = Fraction(1)
    elif total_degree(m) > total_degree(n) + 1:
        expected = Fraction(0)
    else:
        raise PreconditionError(f"pairing of n = {n} with m = {m} is not determined")
    if ws.family is Family.HAHN:
        return pair(lattice_values(poly, ws.N), hahn_linear_form(ws, vec)) == expected
    total = Fraction(0)
    width = max(len(comp.coefficients) for comp in vec.components)
    moments = moment_fractions(ws, width + len(poly.coefficients) - 1)
    for i, comp in enumerate(vec.components):
        if not comp.coefficients:
            continue
        factor = scale_reduction(ws, i, total_degree(m))
        for k, ck in enumerate(comp.coefficients):
            total += factor * ck * power_pairing(poly.coefficients, moments[i], k)
    return total == expected


def hahn_moment_brute(ws, i: int, l: int, j: int) -> Fraction:
    """sum_x (x+alpha_i+1)_l (beta+N-x+1)_j w_i(x), point by point."""
    total = Fraction(0)
    for x in range(ws.N + 1):
        total += (
            pochhammer(Fraction(x) + ws.alpha[i] + 1, l)
            * pochhammer(ws.beta + ws.N - x + 1, j)
            * hahn_weight(ws, i, x)
        )
    return total


def hahn_moment_closed(ws, i: int, l: int, j: int) -> Fraction:
    """sum_x (x+alpha_i+1)_l (beta+N-x+1)_j w_i(x) in closed form.

    The lattice sum collapses through the Chu-Vandermonde convolution to
    (beta+1)_j (alpha_i+1)_l (alpha_i+beta+2+j+l)_N / N!.
    """
    return (
        pochhammer(ws.beta + 1, j) * pochhammer(ws.alpha[i] + 1, l)
        * pochhammer(ws.alpha[i] + ws.beta + 2 + j + l, ws.N)
        / math.factorial(ws.N)
    )


def hahn_backward_pairings(ws, n, vec) -> list[Fraction]:
    """sum_x (beta+N+1-x)_j sum_i A_i(x) w_i(x) for j < |n|: the type I rows in the backward lattice form."""
    form = entries(hahn_linear_form(ws, vec))
    return [lattice_sum(row, form) for row in backward_rows(ws, sum(n) - 1)]


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
                        assert hahn_moment_closed(ws, i, l, j) == \
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
            nums, den = ws.moment_rows(length)[0]
            assert all(isinstance(v, int) for v in nums) and isinstance(den, int) and den > 0
            row = [F(v, den) for v in nums]
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
        shifted = Basis.shifted_rising(*(ws.alpha[0] + 1).as_integer_ratio())
        assert pair(integer_row(backward_rows(ws, 2)[2]), weight_table(ws)[0]) == hahn_moment_brute(ws, 0, 0, 2)
        value = moment(ws, 0, shifted, 3)
        assert value.gamma.is_one()
        assert value.rational == hahn_moment_brute(ws, 0, 3, 0)


class TestIntegerPairing:
    @given(admissible_systems(family="hahn"))
    @settings(max_examples=25, deadline=None)
    def test_pair_equals_fraction_sum(self, system):
        ws, n = system
        total = sum(n)
        values = lattice_values(families.type2(ws, n), ws.N)
        form = hahn_linear_form(ws, families.type1(ws, n))
        backward = [integer_row(row) for row in backward_rows(ws, total)]
        bases = [Basis.monomial(), Basis.falling_factorial()]
        for i, weight in enumerate(weight_table(ws)):
            weighted = row_product(values, weight)
            for basis in bases + [Basis.shifted_rising(*(ws.alpha[i] + 1).as_integer_ratio())]:
                for row in lattice_table(basis, total, ws.N) + backward:
                    assert pair(row, weight) == lattice_sum(entries(row), entries(weight))
                    assert pair(row, weighted) == lattice_sum(entries(row), entries(values), entries(weight))
                    assert pair(row, form) == lattice_sum(entries(row), entries(form))

    def test_linear_form_matches_fraction_terms(self):
        ws = hahn_ws(3, 6)
        vec = families.type1(ws, (2, 1, 2))
        expected = [F(0)] * (ws.N + 1)
        for comp, weight in zip(vec.components, weight_table(ws)):
            expected = [e + v * w for e, v, w in zip(expected, entries(lattice_values(comp, ws.N)), entries(weight))]
        assert entries(hahn_linear_form(ws, vec)) == tuple(expected)


class TestHahnPairings:
    @given(st.one_of(admissible_systems(family="hahn"), hahn_corner_systems()))
    @settings(max_examples=40, deadline=None)
    def test_conditions_equal_lattice_sums(self, system):
        # every closed-form condition, constant included, is its Fraction lattice sum over x = 0..N:
        # type II row (i, j) pairs (x+alpha_i+1)_j (-x)_k and type I column (i, k) with its scale
        # pairs (x+alpha_i+1)_k (-x)_j, the top row j = |n|-1 times (-1)^(|n|-1)
        ws, n = system
        total, falling = sum(n), Basis.falling_factorial()

        def lattice(i, a, b):
            basis = families.type1_basis(ws, i)
            return sum((element_value(basis, a, x) * element_value(falling, b, x) * hahn_weight(ws, i, x)
                        for x in range(ws.N + 1)), F(0))

        conditions = oracle._type2_conditions(ws, n)
        assert list(conditions) == [(i, j) for i in range(ws.p) for j in range(n[i])]
        for (i, j), row in conditions.items():
            assert entries(row) == tuple(lattice(i, j, k) for k in range(total + 1)), (i, j)
        matrix, scales = oracle._type1_conditions(ws, n)
        unknowns = [(i, k) for i in range(ws.p) for k in range(n[i])]
        assert len(matrix) == total and len(scales) == len(unknowns)
        for column, (top, bottom), (i, k) in zip(zip(*matrix, strict=True), scales, unknowns):
            expected = [lattice(i, k, j) for j in range(total)]
            expected[-1] *= (-1) ** (total - 1)
            assert [F(v * top, bottom) for v in column] == expected, (i, k)


class TestType2Reports:
    def test_report_passes_on_zero_residuals_and_its_target(self):
        # type II: no normalization row, so the residuals alone decide
        assert oracle.OrthogonalityReport({(0, 1): F(0)}, None).passed
        assert not oracle.OrthogonalityReport({(0, 1): F(1, 3)}, None).passed
        # type I: the normalization row is an unreduced pair that must equal 1
        assert oracle.OrthogonalityReport({(None, 0): 0}, (-3, -3)).passed
        assert not oracle.OrthogonalityReport({(None, 0): 0}, (6, -3)).passed
        assert not oracle.OrthogonalityReport({(None, 0): F(1, 2)}, (1, 1)).passed
        report = oracle.OrthogonalityReport({}, (1, 1))
        with pytest.raises(AttributeError):
            report.normalization = (2, 1)
        assert report == oracle.OrthogonalityReport({}, (1, 1)) and report.passed

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
        bumped = ScaledPolynomial(poly.basis, (poly.coefficients[0] + 1,) + poly.coefficients[1:])
        report = check_type2_orthogonality(ws, (1, 1), bumped)
        assert not report.passed
        assert any(v != 0 for v in report.residuals.values())

    def test_hahn_oracle_evaluates_no_lattice(self, monkeypatch):
        # both checks and both solves of a Hahn instance read closed-form pairings: no module of the package binds a
        # lattice table (it is a test reference), and no basis element is evaluated, on the lattice or elsewhere
        ws, n = WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 5), (2, 1)
        poly, vec = families.type2(ws, n), families.type1(ws, n)
        assert [name for name, module in list(sys.modules.items())
                if name.startswith("mopexact") and hasattr(module, "lattice_table")] == []
        assert not hasattr(ScaledPolynomial, "lattice_values")
        steps, step_factor = [], Basis._step_factor
        monkeypatch.setattr(Basis, "_step_factor", lambda basis, m: steps.append(m) or step_factor(basis, m))
        assert check_type2_orthogonality(ws, n, poly).passed and check_type1_orthogonality(ws, n, vec).passed
        assert oracle_solve_type2(ws, n) == poly and oracle_solve_type1(ws, n) == vec
        assert steps == []


class TestType1Reports:
    def test_hahn_normalization_target(self):
        ws = hahn_ws(2, 4)
        report = check_type1_orthogonality(ws, (1, 1), families.type1(ws, (1, 1)))
        assert F(*report.normalization) == 1
        assert report.passed

    def test_zero_vector_fails_normalization(self):
        ws = laguerre_ws(1)
        zero = TypeIVector((ScaledPolynomial(Basis.monomial(), (F(0),)),))
        report = check_type1_orthogonality(ws, (1,), zero)
        assert not report.passed and F(*report.normalization) == 0

    def test_power_and_backward_rows_agree_for_hahn(self):
        # the backward lattice rows and the plain power rows define the same
        # conditions; the triangular change of basis makes both targets hold
        for n in compositions(3):
            p, total = len(n), sum(n)
            ws = hahn_ws(p, total + 3)
            target = [F(0)] * (total - 1) + [F(-1) ** (total - 1)]
            for vec in (families.type1(ws, n), oracle_solve_type1(ws, n)):
                assert check_type1_orthogonality(ws, n, vec).passed
                assert hahn_backward_pairings(ws, n, vec) == target

    @given(st.one_of(admissible_systems(family="hahn"), hahn_corner_systems()))
    @settings(max_examples=40, deadline=None)
    def test_power_rows_give_the_backward_verdict_under_faults(self, system):
        # the report is the Fraction pairing with (-x)_j, the top row times (-1)^(|n|-1), its verdict
        # is the backward rows' verdict, and the residue duality turns red exactly under a fault
        ws, n = system
        total = sum(n)
        target = [F(0)] * (total - 1) + [F(-1) ** (total - 1)]
        vec = families.type1(ws, n)
        for fault in [None] + [f"t1:{i}:{k}" for i, ni in enumerate(n) for k in range(ni)]:
            _, faulty = apply_fault(None, vec, fault)
            report = check_type1_orthogonality(ws, n, faulty)
            form = entries(hahn_linear_form(ws, faulty))
            *rows, top = [lattice_sum([pochhammer(F(-x), j) for x in range(ws.N + 1)], form) for j in range(total)]
            normalization = (-1) ** (total - 1) * top
            assert report.residuals == {(None, j): value for j, value in enumerate(rows)}, fault
            assert F(*report.normalization) == normalization, fault
            assert report.passed == (hahn_backward_pairings(ws, n, faulty) == target) == (fault is None), fault
            assert residues.check_residue_duality(ws, n, faulty) == (fault is None), fault


class TestBiorthogonality:
    CASES = [
        ((1, 1), (1, 1), True),    # componentwise <= : 0
        ((1, 1), (2, 1), True),    # |m| = |n| + 1 : 1
        ((1, 0), (2, 2), True),    # |m| > |n| + 1 : 0
    ]

    def test_three_cases_all_families(self):
        for n, m, _ in self.CASES:
            for ws in (laguerre_ws(2), jacobi_pineiro_ws(2), hahn_ws(2, 6)):
                assert check_biorthogonality(ws, n, m, families.type2(ws, n), families.type1(ws, m))

    def test_uncovered_pair_rejected(self):
        with pytest.raises(PreconditionError):
            ws = laguerre_ws(2)
            check_biorthogonality(ws, (2, 0), (0, 2), families.type2(ws, (2, 0)), families.type1(ws, (0, 2)))


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

    @given(admissible_systems())
    @settings(max_examples=40, deadline=None)
    def test_random_systems_match(self, system):
        ws, n = system
        assert families.type2(ws, n).coefficients == oracle_solve_type2(ws, n).coefficients
        ours = families.type1(ws, n)
        theirs = oracle_solve_type1(ws, n)
        for a, b in zip(ours.components, theirs.components):
            assert a.coefficients == b.coefficients


def jacobi_pineiro_mellin_lhs(coefficients, s: Fraction, beta: Fraction, total: int) -> Fraction:
    """sum_k c_k (s)_k (s+beta+1+k)_{|n|-k} over Fractions, (s+beta+1+k)_{|n|-k} built backwards.

    The left side the integer Mellin check replaced, kept as its reference.
    """
    tail = pochhammer(s + beta + len(coefficients), total + 1 - len(coefficients))
    rising = rising_row(s, len(coefficients))
    lhs = Fraction(0)
    for k in reversed(range(len(coefficients))):
        lhs += coefficients[k] * rising[k] * tail
        tail *= s + beta + k
    return lhs


def hahn_lattice_transform(ws, poly, s: Fraction) -> Fraction:
    """sum_x Q(x) (beta+1)_{N-x}/(N-x)! (s)_x/x! over the lattice, term by term."""
    return sum((poly.rational_value(x) * pochhammer(ws.beta + 1, ws.N - x) / math.factorial(ws.N - x)
                * pochhammer(s, x) / math.factorial(x) for x in range(ws.N + 1)), F(0))


def hahn_shared_factor(ws, total: int, s: Fraction) -> Fraction:
    """(s+beta+|n|+1)_{N-|n|} / (N-|n|)!, the factor of both Hahn Mellin sides that the check cancels."""
    return pochhammer(s + total + ws.beta + 1, ws.N - total) / math.factorial(ws.N - total)


def reference_mellin_sides(ws, n, poly, s: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of check_mellin_type2 at s, over Fractions and per point, for every family.

    The Hahn sides are the lattice transform and its closed form over their shared factor.  The
    transform over that factor is a polynomial of degree <= |n| in s (Chu-Vandermonde); where the
    factor vanishes, it is interpolated from s = 1..|n|+1, where the factor is positive.
    """
    total = sum(n)
    rhs = F(-1) ** total
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        rhs *= pochhammer(ws.beta + 1, total)
        for a, ni in zip(ws.alpha, n):
            rhs /= pochhammer(a + ws.beta + total + 1, ni)
    for a, ni in zip(ws.alpha, n):
        rhs *= pochhammer(a + 1 - s, ni)
    if ws.family is Family.HAHN:
        shared = hahn_shared_factor(ws, total, s)
        if shared:
            lhs = hahn_lattice_transform(ws, poly, s) / shared
        else:
            reduced = interpolate([(t, hahn_lattice_transform(ws, poly, F(t)) / hahn_shared_factor(ws, total, F(t)))
                                   for t in range(1, total + 2)])
            lhs = sum((c * s**k for k, c in enumerate(reduced)), F(0))
    elif ws.family is Family.JACOBI_PINEIRO:
        lhs = jacobi_pineiro_mellin_lhs(poly.coefficients, s, ws.beta, total)
    else:
        lhs = sum((c * pochhammer(s, k) for k, c in enumerate(poly.coefficients)), F(0))
    return lhs, rhs


continuous_systems = st.sampled_from(["laguerre", "jacobi-pineiro"]).flatmap(
    lambda family: admissible_systems(family=family)
)


class TestContinuousPairings:
    @given(continuous_systems, st.data())
    @settings(max_examples=40, deadline=None)
    def test_pairings_equal_fraction_reference(self, system, data):
        # reference moments over Fractions: (alpha+1)_j, over (alpha+beta+2)_j for Jacobi-Pineiro
        ws, n = system
        total = sum(n)

        def reference_moments(length):
            rows = []
            for a in ws.alpha:
                row = rising_row(a + 1, length)
                if ws.family is Family.JACOBI_PINEIRO:
                    row = [m / d for m, d in zip(row, rising_row(a + ws.beta + 2, length))]
                rows.append(row)
            return rows

        poly = families.type2(ws, n)
        vec = families.type1(ws, n)
        index = data.draw(st.integers(0, total))
        component = data.draw(st.sampled_from([i for i, ni in enumerate(n) if ni]))
        fault = f"t1:{component}:{data.draw(st.integers(0, n[component] - 1))}"
        for p in (poly, apply_fault(poly, vec, f"t2:{index}")[0]):
            moments = reference_moments(max(n) + len(p.coefficients) - 1)
            assert check_type2_orthogonality(ws, n, p).residuals == {
                (i, j): power_pairing(p.coefficients, moments[i], j) for i in range(ws.p) for j in range(n[i])
            }
        for v in (vec, apply_fault(poly, vec, fault)[1]):
            moments = reference_moments(total + max(n) - 1)
            *rows, normalization = [
                sum((scale_reduction(ws, i, total) * power_pairing(c.coefficients, moments[i], j)
                     for i, c in enumerate(v.components) if c.coefficients), F(0))
                for j in range(total)
            ]
            report = check_type1_orthogonality(ws, n, v)
            assert report.residuals == {(None, j): value for j, value in enumerate(rows)}
            assert F(*report.normalization) == normalization


@pytest.mark.parametrize("ws", [laguerre_ws(2), jacobi_pineiro_ws(2)], ids=["laguerre", "jacobi-pineiro"])
def test_continuous_checks_refuse_a_non_monomial_basis(ws):
    # the continuous checks read poly.row as monomial coefficients; the same row in another basis is refused
    n = (1, 1)
    falling = ScaledPolynomial(Basis.falling_factorial(), row=families.type2(ws, n).row)
    rising = TypeIVector(tuple(ScaledPolynomial(Basis.shifted_rising(3, 2), row=comp.row)
                               for comp in families.type1(ws, n).components))
    for check in (
        lambda: check_type2_orthogonality(ws, n, falling),
        lambda: check_mellin_type2(ws, n, falling, [(1, 2)]),
        lambda: check_type1_orthogonality(ws, n, rising),
        lambda: residues.check_residue_duality(ws, n, rising),
        lambda: residues.type1_direct_values(ws, n, rising, F(1, 2)),
    ):
        with pytest.raises(PreconditionError, match="monomial basis"):
            check()
    assert_type1_check_refuses_a_long_component(ws, n)


def assert_type1_check_refuses_a_long_component(ws, n):
    # a component of degree n_i has no unknown in the type I system; it is refused, not truncated
    vec = families.type1(ws, n)
    nums, den = vec.components[1].row
    long = TypeIVector((vec.components[0], ScaledPolynomial(vec.components[1].basis, row=([*nums, 1], den))))
    with pytest.raises(PreconditionError, match=r"component 1 has degree 1, above n_i - 1 = 0"):
        check_type1_orthogonality(ws, n, long)
    padded = TypeIVector((vec.components[0], ScaledPolynomial(vec.components[1].basis, row=([*nums, 0], den))))
    assert check_type1_orthogonality(ws, n, padded).passed  # trailing zeros are the same polynomial


def test_hahn_checks_refuse_another_basis():
    # the Hahn checks read poly.row against falling factorials and each component against its shifted rising basis
    ws, n = hahn_ws(2, 4), (1, 1)
    monomial = ScaledPolynomial(Basis.monomial(), row=families.type2(ws, n).row)
    with pytest.raises(PreconditionError, match="falling-factorial basis"):
        check_type2_orthogonality(ws, n, monomial)
    vec = families.type1(ws, n)
    swapped = TypeIVector((vec.components[0], ScaledPolynomial(vec.components[0].basis, row=vec.components[1].row)))
    with pytest.raises(PreconditionError, match=r"component 1 lives in the shifted rising basis"):
        check_type1_orthogonality(ws, n, swapped)
    with pytest.raises(ValueError):  # one component per weight, or the components do not line up with n
        check_type1_orthogonality(ws, n, TypeIVector(vec.components[:1]))
    assert_type1_check_refuses_a_long_component(ws, n)


class TestMellin:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_jacobi_pineiro_lhs_built_backwards(self, data):
        # s and beta have coprime denominators, so s + beta + m never vanishes
        total = data.draw(st.integers(0, 8))
        length = data.draw(st.integers(0, total + 2))
        coefficients = data.draw(st.lists(st.fractions(-5, 5, max_denominator=9), min_size=length, max_size=length))
        s = data.draw(st.builds(F, st.integers(1, 40), st.sampled_from([11, 13])))
        beta = data.draw(prime_offset(7))
        expected = sum(
            (c * pochhammer(s, k) * pochhammer(s + k + beta + 1, total - k) for k, c in enumerate(coefficients)),
            F(0),
        )
        assert jacobi_pineiro_mellin_lhs(coefficients, s, beta, total) == expected

    @given(continuous_systems, st.data())
    @settings(max_examples=80, deadline=None)
    def test_integer_sides_match_fraction_sides(self, system, data):
        # random monomial coefficients with c_0 moved so that the Fraction sides
        # agree at s: the integer check must pass there and fail after c_0 + 1
        ws, n = system
        total = sum(n)
        s = data.draw(st.builds(F, st.integers(1, 40), st.sampled_from([11, 13])))
        coefficients = data.draw(st.lists(st.fractions(-5, 5, max_denominator=9), min_size=total + 1,
                                          max_size=total + 1))
        lhs, rhs = reference_mellin_sides(ws, n, ScaledPolynomial(Basis.monomial(), coefficients), s)
        weight, _ = reference_mellin_sides(ws, n, ScaledPolynomial(Basis.monomial(), (F(1),)), s)
        coefficients[0] += (rhs - lhs) / weight
        poly = ScaledPolynomial(Basis.monomial(), coefficients)
        assert reference_mellin_sides(ws, n, poly, s)[0] == rhs
        assert check_mellin_type2(ws, n, poly, [s.as_integer_ratio()])
        coefficients[0] += 1
        assert not check_mellin_type2(ws, n, ScaledPolynomial(Basis.monomial(), coefficients), [s.as_integer_ratio()])

    @given(admissible_systems())
    @settings(max_examples=40, deadline=None)
    def test_every_type2_fault_matches_fraction_route(self, system):
        ws, n = system
        poly = families.type2(ws, n)
        points = [(1, 7), (4, 11), (9, 13)] + oracle.mellin_zero_points(ws, n)
        for fault in [None] + [f"t2:{k}" for k in range(len(poly.coefficients))]:
            bumped, _ = apply_fault(poly, None, fault)
            expected = all(lhs == rhs for lhs, rhs in (reference_mellin_sides(ws, n, bumped, F(*s)) for s in points))
            assert check_mellin_type2(ws, n, bumped, points) == expected == (fault is None), fault

    @pytest.mark.parametrize("coefficients", [(), (F(1), F(0), F(1))])
    def test_coefficient_count_outside_the_degree_rejected(self, coefficients):
        # the integer left side is nested from an index K <= |n|
        for ws in (laguerre_ws(1), jacobi_pineiro_ws(1)):
            with pytest.raises(PreconditionError):
                check_mellin_type2(ws, (1,), ScaledPolynomial(Basis.monomial(), coefficients), [(1, 7)])

    def test_laguerre_explicit_point(self):
        # s = 1: transform cofactors are Gamma(2) - (3/2) Gamma(1) = -1/2 on
        # both routes
        ws = laguerre_ws(1)
        poly = families.type2(ws, (1,))
        assert sum(c * pochhammer(F(1), k) for k, c in enumerate(poly.coefficients)) == F(-1, 2)
        assert F(-1) * pochhammer(ws.alpha[0] + 1 - 1, 1) == F(-1, 2)
        assert check_mellin_type2(ws, (1,), poly, [(1, 1)])

    def test_jp_vanishes_at_prescribed_zero(self):
        ws = jacobi_pineiro_ws(2)
        assert check_mellin_type2(ws, (1, 1), families.type2(ws, (1, 1)), [(ws.alpha[0] + 1).as_integer_ratio()])

    def test_hahn_random_argument(self):
        ws = hahn_ws(2, 4)
        assert check_mellin_type2(ws, (1, 1), families.type2(ws, (1, 1)), [(1, 7)])

    def test_zero_points_count_and_vanishing(self):
        for n in compositions(3):
            p, total = len(n), sum(n)
            for ws in (laguerre_ws(p), jacobi_pineiro_ws(p), hahn_ws(p, total + 2)):
                zeros = oracle.mellin_zero_points(ws, n)
                assert len(zeros) == total and all(b > 0 for _, b in zeros)
                assert [F(*s) for s in zeros] == [a + k for a, ni in zip(ws.alpha, n) for k in range(1, ni + 1)]
                poly = families.type2(ws, n)
                for s in zeros:
                    assert check_mellin_type2(ws, n, poly, [s])

    @pytest.mark.parametrize("point", [(-4, 2), (0, 3), (0, 1), (-3, 1), (-12, 4)])
    def test_pole_raises_in_any_form(self, point):
        # s = a/b is a pole exactly when it is a nonpositive integer, whether or not the pair is reduced
        for ws in (laguerre_ws(1), jacobi_pineiro_ws(1), hahn_ws(1, 3)):
            with pytest.raises(PoleError):
                check_mellin_type2(ws, (1,), families.type2(ws, (1,)), [point])

    @pytest.mark.parametrize("point", [(1, 0), (0, 0), (-3, 0), (1, -7), (-4, -2)])
    def test_nonpositive_denominator_is_a_precondition_error(self, point):
        for ws in (laguerre_ws(1), jacobi_pineiro_ws(1), hahn_ws(1, 3)):
            with pytest.raises(PreconditionError, match="positive denominator"):
                check_mellin_type2(ws, (1,), families.type2(ws, (1,)), [point])

    @given(admissible_systems(), st.integers(-20, 40), st.sampled_from([1, 2, 7, 11]), st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_unreduced_pairs_give_the_reduced_verdict(self, system, a, b, m, data):
        ws, n = system
        if a <= 0 and a % b == 0:
            a = b  # s = 1 instead of a pole
        poly = families.type2(ws, n)
        bumped, _ = apply_fault(poly, None, f"t2:{data.draw(st.integers(0, sum(n)))}")
        for p in (poly, bumped):
            lhs, rhs = reference_mellin_sides(ws, n, p, F(a, b))
            unreduced, reduced = ((a * m, b * m),), (F(a, b).as_integer_ratio(),)
            assert check_mellin_type2(ws, n, p, unreduced) == check_mellin_type2(ws, n, p, reduced) == (lhs == rhs)

    def test_perturbed_polynomial_fails(self):
        ws = laguerre_ws(1)
        poly = families.type2(ws, (1,))
        bumped = ScaledPolynomial(poly.basis, (poly.coefficients[0] + 1, poly.coefficients[1]))
        assert not check_mellin_type2(ws, (1,), bumped, [(1, 7)])

    @given(admissible_systems(family="hahn"))
    @settings(max_examples=30, deadline=None)
    def test_cancelled_factor_zeros_match_fraction_route(self, system):
        ws, n = system
        total = sum(n)
        zeros = [(-(ws.beta + total + 1 + m)).as_integer_ratio() for m in range(ws.N - total)]
        poly = families.type2(ws, n)
        for fault in [None] + [f"t2:{k}" for k in range(total + 1)]:
            bumped, _ = apply_fault(poly, None, fault)
            for s in zeros:
                lhs, rhs = reference_mellin_sides(ws, n, bumped, F(*s))
                assert check_mellin_type2(ws, n, bumped, [s]) == (lhs == rhs) == (fault is None), (fault, s)

    def test_empty_point_list_is_a_precondition_error(self):
        # no transform argument compares nothing: refused, not passed, for any polynomial, whether the empty
        # points come as a list, an exhausted iterator or an empty generator; a nonempty generator reads as its list
        for ws in (laguerre_ws(1), jacobi_pineiro_ws(1), hahn_ws(1, 3)):
            poly = families.type2(ws, (1,))
            for p in (poly, apply_fault(poly, None, "t2:0")[0]):
                for points in ([], iter(()), (s for s in [])):
                    with pytest.raises(PreconditionError, match="at least one transform argument"):
                        check_mellin_type2(ws, (1,), p, points)
                assert check_mellin_type2(ws, (1,), p, (s for s in [(1, 7), (3, 11)])) == (p is poly)

    @pytest.mark.parametrize("ws", [laguerre_ws(2), jacobi_pineiro_ws(2), hahn_ws(2, 5)],
                             ids=["laguerre", "jacobi-pineiro", "hahn"])
    def test_a_zero_row_still_validates_every_argument(self, ws):
        # on a passing polynomial the difference row is zero and no argument is evaluated, yet each one is
        # validated in order: a later zero denominator or pole raises, and no argument at all is refused
        n = (1, 1)
        poly = families.type2(ws, n)
        assert not any(oracle._mellin_difference(ws, n, families.type2_row(ws, n, poly)))
        assert check_mellin_type2(ws, n, poly, [(1, 7), (3, 11)])
        with pytest.raises(PreconditionError, match="positive denominator"):
            check_mellin_type2(ws, n, poly, [(1, 7), (3, 0)])
        with pytest.raises(PoleError):
            check_mellin_type2(ws, n, poly, [(1, 7), (-2, 1)])
        for points in ([], iter(()), (s for s in [])):
            with pytest.raises(PreconditionError, match="at least one transform argument"):
                check_mellin_type2(ws, n, poly, points)

    @pytest.mark.parametrize("ws", [laguerre_ws(2), jacobi_pineiro_ws(2), hahn_ws(2, 5)],
                             ids=["laguerre", "jacobi-pineiro", "hahn"])
    def test_arguments_are_read_in_order(self, ws):
        # the first failing argument returns False before a later pole or a later zero denominator is seen;
        # an earlier one raises
        n = (1, 1)
        bumped, _ = apply_fault(families.type2(ws, n), None, "t2:0")
        failing, pole, undefined = (1, 7), (0, 1), (1, 0)
        assert not check_mellin_type2(ws, n, bumped, [failing])
        assert not check_mellin_type2(ws, n, bumped, [failing, pole])
        with pytest.raises(PoleError):
            check_mellin_type2(ws, n, bumped, [pole, failing])
        assert not check_mellin_type2(ws, n, bumped, [failing, undefined])
        with pytest.raises(PreconditionError, match="positive denominator"):
            check_mellin_type2(ws, n, bumped, [undefined, failing])

    @given(st.one_of(admissible_systems(), hahn_corner_systems()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_difference_row_vanishes_exactly_on_the_generated_polynomial(self, system, data):
        # with no transform argument: the s-row of both sides' difference is zero for the generated polynomial
        # and nonzero under every single bump; read at random arguments, every zero, an unreduced pair and, for
        # Hahn, the zeros of the cancelled factor, it gives the Fraction route's verdict at each of them
        ws, n = system
        total = sum(n)
        poly = families.type2(ws, n)
        points = data.draw(st.lists(st.tuples(st.integers(1, 9), st.sampled_from((7, 11, 13))), min_size=1,
                                    max_size=5))
        a, b = points[0]
        points += [(a * 3, b * 3), *oracle.mellin_zero_points(ws, n)]
        if ws.family is Family.HAHN:
            points += [(-(ws.beta + total + 1 + m)).as_integer_ratio() for m in range(ws.N - total)]
        for fault in [None] + [f"t2:{k}" for k in range(total + 1)]:
            bumped, _ = apply_fault(poly, None, fault)
            difference = oracle._mellin_difference(ws, n, families.type2_row(ws, n, bumped))
            assert len(difference) == total + 1 and any(difference) == (fault is not None), fault
            verdicts = [operator.eq(*reference_mellin_sides(ws, n, bumped, F(*s))) for s in points]
            assert [check_mellin_type2(ws, n, bumped, [s]) for s in points] == verdicts, fault
            assert check_mellin_type2(ws, n, bumped, points) == all(verdicts) == (fault is None), fault

    def test_zeros_of_the_cancelled_factor_are_not_vacuous(self):
        # at s = -(beta+|n|+1+m), m < N-|n|, the lattice transform and its closed form both vanish for every
        # polynomial; over their shared factor the clean polynomial passes there and every t2 bump fails
        ws, n = WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 5), (1, 1)
        poly = families.type2(ws, n)
        zeros = [(-(ws.beta + sum(n) + 1 + m)).as_integer_ratio() for m in range(ws.N - sum(n))]
        assert zeros == [(-13, 4), (-17, 4), (-21, 4)]
        for s in zeros:
            assert hahn_shared_factor(ws, sum(n), F(*s)) == 0
            lhs, rhs = reference_mellin_sides(ws, n, poly, F(*s))
            assert lhs == rhs and check_mellin_type2(ws, n, poly, [s])
            for k in range(sum(n) + 1):
                bumped, _ = apply_fault(poly, None, f"t2:{k}")
                assert hahn_lattice_transform(ws, bumped, F(*s)) == 0
                lhs, rhs = reference_mellin_sides(ws, n, bumped, F(*s))
                assert lhs != rhs and not check_mellin_type2(ws, n, bumped, [s]), (s, k)


class TestDiscreteInversion:
    def test_indicator(self):
        ws = hahn_ws(1, 3)
        assert check_discrete_mellin_inversion(ws, [1, 0, 0, 0])

    def test_weighted_type2_values(self):
        ws = hahn_ws(2, 5)
        values = list(row_values(*hahn_type2_weighted_series(ws, (2, 1))))
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
        assert check_hahn_summation_identity(ws, (1, 1))[1]

    def test_vanishing_row(self):
        ws = hahn_ws(2, 4)
        assert check_hahn_summation_identity(ws, (1, 1))[0]

    def test_three_weights_all_rows(self):
        ws = hahn_ws(3, 5)
        rows = check_hahn_summation_identity(ws, (1, 1, 1))
        assert len(rows) == 3
        for j in range(3):
            assert rows[j]
