"""run_instance compares integer pairs by cross-multiplication, and builds few Fractions.

Polynomials carry one reduced integer row, the residue route and the Hahn
cross checks return integer pairs, and every check compares them without a
Fraction per entry.  The reference below is the Fraction form run_instance
had: each rewritten comparison reads the same routes as Fractions and
compares Fraction lists.  The residue duality is still read there as values
at sample points, and the weighted series as values on the lattice, where
run_instance compares coefficient rows and Newton coefficients.  Both must
give the same record on drawn systems,
on the Hahn corner and on systems with idle weights, unperturbed and under
every single-coefficient fault.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import GammaProduct, WeightSystem, families, oracle, residues
from mopexact.driver import apply_fault, instance_key, run_instance, weight_system
from mopexact.gammaprod import row_product
from mopexact.polybasis import Basis, BasisKind, ScaledPolynomial, values_at
from mopexact.weights import Family, total_degree
from conftest import (
    admissible_systems, backward_rows, hahn_corner_systems, hahn_type2_weighted_series, instance_of, pair_values,
    row_values, sample_points, weight_table,
)

F = Fraction


def faults(n) -> list:
    return [None] + [f"t2:{k}" for k in range(sum(n) + 1)] + [
        f"t1:{i}:{k}" for i, ni in enumerate(n) for k in range(ni)]


# --- the Fraction form of every rewritten comparison -------------------------


def moments(ws, i, length) -> list[Fraction]:
    return list(row_values(*ws.moment_rows(length)[i]))


def type2_residuals(ws, n, poly) -> list[Fraction]:
    """<x^j B, w_i> for j < n_i, summed over Fractions."""
    if ws.family is Family.HAHN:
        values = row_values(*poly.lattice_values(ws.N))
        return [sum((F(x) ** j * values[x] * row_values(*weight_table(ws)[i])[x] for x in range(ws.N + 1)), F(0))
                for i in range(ws.p) for j in range(n[i])]
    c = poly.coefficients
    return [sum((ck * m for ck, m in zip(c, moments(ws, i, max(n) + len(c))[j:])), F(0))
            for i in range(ws.p) for j in range(n[i])]


def type1_rows(ws, n, vec) -> list[Fraction]:
    """Rows j < |n| of the type I conditions over Fractions; the last is the normalization."""
    total = total_degree(n)
    if ws.family is Family.HAHN:
        form = [sum((row_values(*comp.lattice_values(ws.N))[x] * row_values(*weight_table(ws)[i])[x]
                     for i, comp in enumerate(vec.components) if comp.coefficients), F(0))
                for x in range(ws.N + 1)]
        return [sum((v * f for v, f in zip(row, form)), F(0)) for row in backward_rows(ws, total - 1)]
    rows = [F(0)] * total
    for i, comp in enumerate(vec.components):
        if not comp.coefficients:
            continue
        scale = F(*oracle._moment_scale(ws, i, total))
        m = moments(ws, i, total + len(comp.coefficients))
        for j in range(total):
            rows[j] += scale * sum((c * m[j + k] for k, c in enumerate(comp.coefficients)), F(0))
    return rows


def jp_relation(ws, n, poly) -> bool:
    p = families.type2(WeightSystem.jacobi_pineiro(ws.alpha, ws.beta), n).coefficients
    total, N = total_degree(n), ws.N
    return all(poly.coefficients[k] == F(-1) ** k * math.factorial(N - k) / math.factorial(N - total) * p[k]
               for k in range(total + 1))


def reference_checks(instance: dict, fault, seed: int = 0) -> dict:
    """run_instance's checks with every rewritten comparison made over Fractions."""
    ws, n = weight_system(instance), tuple(instance["n"])
    total = total_degree(n)
    poly, vec = apply_fault(families.type2(ws, n), families.type1(ws, n), fault)
    checks = {}
    k = poly.degree
    falling = poly.basis.kind is BasisKind.FALLING_FACTORIAL and k % 2
    checks["type2_monic"] = (-1 if falling else 1) * poly.coefficients[k] == 1
    checks["type2_orthogonality"] = all(v == 0 for v in type2_residuals(ws, n, poly))
    checks["type2_oracle_match"] = poly.coefficients == oracle.oracle_solve_type2(ws, n).coefficients
    *rows, normalization = type1_rows(ws, n, vec)
    target = F(-1) ** (total - 1) if ws.family is Family.HAHN else F(1)
    checks["type1_orthogonality"] = all(v == 0 for v in rows) and normalization == target
    checks["type1_oracle_match"] = all(
        a.coefficients == b.coefficients for a, b in zip(vec.components, oracle.oracle_solve_type1(ws, n).components))

    points = [ws.check_point(x) for x in sample_points(ws)]  # the values the rows once were compared at
    duality = True
    for i, (terms, comp) in enumerate(zip(residues._type1_pole_terms(ws, n), vec.components)):
        basis = families.type1_basis(ws, i)
        duality &= pair_values(values_at(basis, terms, points)) == pair_values(values_at(basis, comp.row, points))
    checks["residue_duality"] = duality
    k_max = ws.N if ws.family is Family.HAHN else max(6, total)
    (top, bottom), nums, den = families._type2_series(ws, n, k_max + 1)
    checks["series_equivalence"] = (pair_values(residues._type2_residue_row(ws, n, k_max))
                                    == [F(top * v, bottom * den) for v in nums])
    if total >= 2:
        expected = F(*residues.recovered_constant_closed_form(ws, n))
        checks["recovered_constant"] = all(F(*value) == expected for _, value in residues.recovered_nodes(ws, n, vec))

    rng = random.Random(f"{seed}:{instance_key(instance)}:mellin")
    samples = [F(rng.randint(1, 9), rng.choice((7, 11, 13))) for _ in range(5)]
    checks["mellin_random"] = oracle.check_mellin_type2(ws, n, poly, [s.as_integer_ratio() for s in samples])
    zeros = [ws.alpha[i] + k for i in range(ws.p) for k in range(1, n[i] + 1)]
    checks["mellin_zeros"] = oracle.check_mellin_type2(ws, n, poly, [s.as_integer_ratio() for s in zeros])

    if ws.family is Family.HAHN:
        checks["jp_coefficient_relation"] = jp_relation(ws, n, poly)
        checks["weighted_series"] = row_values(*hahn_type2_weighted_series(ws, n)) == row_values(
            *row_product(poly.lattice_values(ws.N), ws.beta_factors))
        checks["summation_identity"] = all(oracle.check_hahn_summation_identity(ws, n))
        if ws.p == 2 and min(n) >= 1:
            checks["kdf_cross_formula"] = all(
                row_values(*families.hahn_type1_p2_kdf(ws, n, i)) == row_values(*vec.components[i].lattice_values(ws.N))
                for i in range(2))
    return {name: bool(ok) for name, ok in sorted(checks.items())}


def assert_records_match(ws, n):
    instance = instance_of(ws, n)
    for fault in faults(n):
        if fault and fault.startswith("t1:") and not n[int(fault.split(":")[1])]:
            continue
        assert run_instance(instance, fault)["checks"] == reference_checks(instance, fault), fault


@st.composite
def idle_weight_systems(draw):
    """Admissible systems with p >= 2 and at least one idle weight (n_i = 0)."""
    p = draw(st.integers(2, 3))
    ws, n = draw(admissible_systems(max_total=5, p=p))
    n = list(n)
    n[draw(st.integers(0, p - 1))] = 0
    if not any(n):
        n[draw(st.integers(0, p - 1))] = 1
    return ws, tuple(n)


class TestCrossMultipliedVerdicts:
    @given(admissible_systems(max_total=5))
    @settings(max_examples=30, deadline=None)
    def test_drawn_systems(self, system):
        assert_records_match(*system)

    @given(hahn_corner_systems())
    @settings(max_examples=15, deadline=None)
    def test_hahn_corner(self, system):
        assert_records_match(*system)

    @given(idle_weight_systems())
    @settings(max_examples=20, deadline=None)
    def test_idle_weights(self, system):
        assert_records_match(*system)


# --- the integer row of a polynomial --------------------------------------------


def test_row_is_reduced_and_compares_exactly():
    poly = ScaledPolynomial(Basis.monomial(), (F(2, 6), F(-4, 9), 0))
    assert poly.row == ((3, -4, 0), 9)
    same = ScaledPolynomial(Basis.monomial(), row=([-6, 8, 0], -18))
    assert same == poly and same.row == poly.row and same.coefficients == (F(1, 3), F(-4, 9), F(0))
    assert ScaledPolynomial(Basis.monomial(), (F(1, 3), F(-4, 9), F(1))).row != poly.row
    assert ScaledPolynomial(Basis.monomial(), ()).row == ((), 1)


def test_generated_rows_match_their_coefficients():
    ws = WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 6)
    for poly in (families.type2(ws, (2, 1)), *families.type1(ws, (2, 1)).components):
        nums, den = poly.row
        assert den > 0 and math.gcd(den, *nums) == 1
        assert poly.coefficients == tuple(F(v, den) for v in nums)


# --- Fractions built per run_instance ---------------------------------------------


@pytest.fixture
def fractions_built():
    """A one-entry list counting every Fraction constructed while the test runs."""
    original = vars(Fraction)["__new__"]
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        yield count
    finally:
        Fraction.__new__ = original


#: The instance and the most Fractions one run_instance call may build.  The Fraction hand-offs
#: between the integer rows built 160, 202, 197 and 195; the solves' results, the Mellin
#: arguments and the closed-form constants as Fractions still 39, 61, 55 and 45, and the Hahn
#: basis shifts as Fractions 3, 4, 8 and 6.  What is left is parsing the instance (3, 4, 4 and 3).
FRACTION_BUDGET = [
    ({"family": "laguerre1", "alpha": ["1/2", "1/3", "1/5"], "n": [3, 3, 2]}, 10),
    ({"family": "jacobi-pineiro", "alpha": ["1/2", "1/3", "1/5"], "beta": "1/4", "n": [3, 3, 2]}, 10),
    ({"family": "hahn", "alpha": ["1/2", "1/3", "1/5"], "beta": "1/4", "n": [2, 1, 2], "N": 8}, 4),
    ({"family": "hahn", "alpha": ["1/2", "1/3"], "beta": "1/4", "n": [2, 2], "N": 8}, 3),
]


@pytest.mark.parametrize("instance, budget", FRACTION_BUDGET, ids=[instance_key(i) for i, _ in FRACTION_BUDGET])
def test_fractions_per_instance(instance, budget, fractions_built):
    count = fractions_built[0]
    assert run_instance(instance)["pass"]
    assert fractions_built[0] - count <= budget


@pytest.fixture
def gamma_products_built(monkeypatch):
    """A one-entry list counting every GammaProduct constructed while the test runs."""
    original = GammaProduct.__init__
    count = [0]

    def counted(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(GammaProduct, "__init__", counted)
    return count


@pytest.mark.parametrize("instance", [i for i, _ in FRACTION_BUDGET], ids=[instance_key(i) for i, _ in FRACTION_BUDGET])
def test_no_gamma_product_per_instance(instance, gamma_products_built):
    # a type I scale is built only where the output edge prints or rounds it
    assert run_instance(instance)["pass"]
    assert gamma_products_built[0] == 0
    GammaProduct.gamma(F(1, 3))  # the counter sees a construction
    assert gamma_products_built[0] == 1
