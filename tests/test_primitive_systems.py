"""The oracle's primitive integer systems against Fraction-row builds of the same conditions.

``oracle_solve_type1`` and ``oracle_solve_type2`` hand the solve integer rows
with their content divided out and fold the factors they took back into the
solution.  The references here build each condition as a row of Fractions
(the plain pairing values), solve that, and must give the same polynomials
in the same bases, or raise the same error class.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import AdmissibilityError, PoleError, PreconditionError, SingularSystemError, WeightSystem
from mopexact import families, oracle
from mopexact.gammaprod import pair, row_product
from mopexact.polybasis import Basis, ScaledPolynomial, TypeIVector, lattice_table
from mopexact.weights import Family, total_degree
from conftest import (
    admissible_systems, backward_rows, hahn_corner_systems, row_values, solve_linear_system, weight_table,
)

F = Fraction


def outcome(function, *args):
    """The value, or the error class, of one call."""
    try:
        return function(*args)
    except (AdmissibilityError, PoleError, PreconditionError, SingularSystemError, ZeroDivisionError) as exc:
        return type(exc)


def type1_reference(ws, n) -> TypeIVector:
    """Type I rows as Fractions: the backward rows (beta+N+1-x)_j paired with each weighted column for Hahn,
    against (-1)^(|n|-1), the moments times the moment scale otherwise, against 1, the normalization on the last row."""
    ws.validate_index(n, type_one=True)
    total = total_degree(n)
    unknowns = [(i, k) for i in range(ws.p) for k in range(n[i])]
    rows, rhs = [], []
    if ws.family is Family.HAHN:
        tables = [lattice_table(families.type1_basis(ws, i), n[i] - 1, ws.N) for i in range(ws.p)]
        columns = [row_product(tables[i][k], weight_table(ws)[i]) for i, k in unknowns]
        for row in backward_rows(ws, total - 1):
            rows.append([sum(map(operator.mul, row, row_values(*column)), F(0)) for column in columns])
        target = F(-1) ** (total - 1)
    else:
        moments = ws.moment_rows(total + max(n) - 1)
        scales = {i: F(*oracle._moment_scale(ws, i, total)) for i in range(ws.p) if n[i]}
        for j in range(total):
            rows.append([scales[i] * F(moments[i][0][j + k], moments[i][1]) for i, k in unknowns])
        target = F(1)
    rhs = [F(0)] * (total - 1) + [target]
    solution = iter(solve_linear_system(rows, rhs))
    return TypeIVector(tuple(
        ScaledPolynomial(families.type1_basis(ws, i), tuple(next(solution) for _ in range(n[i])))
        for i in range(ws.p)
    ))


def type2_reference(ws, n) -> ScaledPolynomial:
    """Type II rows as Fractions: <x^j basis_k, w_i> for k <= |n|, the last column moved to the right."""
    ws.validate_index(n)
    total = total_degree(n)
    hahn = ws.family is Family.HAHN
    basis = Basis.falling_factorial() if hahn else Basis.monomial()
    lead = F(-1) ** total if hahn else F(1)
    if total == 0:
        return ScaledPolynomial(basis, (F(1),))
    conditions = []
    if hahn:
        falling = lattice_table(basis, total, ws.N)
        powers = lattice_table(Basis.monomial(), max(n) - 1, ws.N)
        for i in range(ws.p):
            weighted = [row_product(row, weight_table(ws)[i]) for row in falling]
            conditions += ([pair(powers[j], row) for row in weighted] for j in range(n[i]))
    else:
        for (nums, den), ni in zip(ws.moment_rows(max(n) + total), n):
            conditions += ([F(v, den) for v in nums[j:j + total + 1]] for j in range(ni))
    solution = solve_linear_system([row[:total] for row in conditions], [-lead * row[total] for row in conditions])
    return ScaledPolynomial(basis, tuple(solution) + (lead,))


@st.composite
def idle_weight_systems(draw):
    """Three-weight systems with one or two idle weights (n_i = 0), |n| from 0 to 5."""
    ws, n = draw(admissible_systems(max_total=5, p=3))
    idle = draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))
    return ws, tuple(0 if i in idle else ni for i, ni in enumerate(n))


SYSTEMS = st.one_of(admissible_systems(max_total=5), hahn_corner_systems(), idle_weight_systems())


@given(SYSTEMS)
@settings(max_examples=120, deadline=None)
def test_type1_solve_matches_fraction_rows(system):
    ws, n = system
    solved, expected = outcome(oracle.oracle_solve_type1, ws, n), outcome(type1_reference, ws, n)
    assert solved == expected
    if isinstance(expected, TypeIVector):
        for got, want in zip(solved.components, expected.components):
            assert (got.basis, got.coefficients) == (want.basis, want.coefficients)


@given(SYSTEMS)
@settings(max_examples=120, deadline=None)
def test_type2_solve_matches_fraction_rows(system):
    ws, n = system
    solved, expected = outcome(oracle.oracle_solve_type2, ws, n), outcome(type2_reference, ws, n)
    assert solved == expected
    if isinstance(expected, ScaledPolynomial):
        assert (solved.basis, solved.coefficients) == (expected.basis, expected.coefficients)


#: Beyond the |n| <= 8 of the verify grids; each oracle solve takes milliseconds on primitive rows.
HIGH_DEGREE = [
    (WeightSystem.laguerre((F(1, 2), F(4, 3), F(1, 5))), (8, 8, 8)),
    (WeightSystem.jacobi_pineiro((F(1, 2), F(4, 3), F(1, 5)), F(1, 7)), (8, 8, 8)),
    (WeightSystem.hahn((F(1, 2), F(4, 3), F(1, 5)), F(1, 7), 24), (6, 6, 6)),
]


@pytest.mark.parametrize("ws, n", HIGH_DEGREE, ids=[ws.family.value for ws, _ in HIGH_DEGREE])
def test_generators_and_oracle_agree_at_high_degree(ws, n):
    solved, generated = oracle.oracle_solve_type2(ws, n), families.type2(ws, n)
    assert (solved.basis, solved.coefficients) == (generated.basis, generated.coefficients)
    solved, generated = oracle.oracle_solve_type1(ws, n), families.type1(ws, n)
    assert solved == generated  # bases and coefficients
