import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import SingularSystemError
from mopexact.linalg import _eliminate, bareiss, determinant
from conftest import solve_linear_system

F = Fraction

nonzero = st.builds(F, st.integers(-40, 40).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 12]))
#: Entries with many zeros, so pivots are missing often and rows must swap.
entries = st.one_of(st.just(F(0)), nonzero)


def _height(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator)


def gauss_reference(matrix, rhs) -> list[Fraction]:
    """Fraction Gaussian elimination with height pivoting: the solver Bareiss replaced."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    b = [Fraction(v) for v in rhs]
    for col in range(n):
        candidates = [r for r in range(col, n) if a[r][col] != 0]
        if not candidates:
            raise SingularSystemError(f"no pivot in column {col}")
        pivot_row = min(candidates, key=lambda r: _height(a[r][col]))
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for c in range(row + 1, n):
            acc -= a[row][c] * x[c]
        x[row] = acc / a[row][row]
    return x


def determinant_reference(matrix) -> Fraction:
    """det(A) by Fraction elimination: the product of the pivots, negated once per row swap."""
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        pivot_row = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row], det = a[pivot_row], a[col], -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


@st.composite
def systems(draw):
    n = draw(st.integers(1, 8))
    matrix = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        matrix[0][0] = F(0)  # the first column's pivot must come from a row swap
    return matrix, draw(st.lists(entries, min_size=n, max_size=n))


@given(systems())
@settings(max_examples=100, deadline=None)
def test_bareiss_matches_fraction_gauss(system):
    matrix, rhs = system
    try:
        expected = gauss_reference(matrix, rhs)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            solve_linear_system(matrix, rhs)
        return
    solution = solve_linear_system(matrix, rhs)
    assert solution == expected
    assert all(isinstance(v, Fraction) for v in solution)
    for row, b in zip(matrix, rhs):
        assert sum(a * v for a, v in zip(row, solution)) == b


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_integer_rows_match_their_fraction_copies(n, data):
    # an int system as it is, and as Fractions with each row and its right-hand side divided by a drawn positive integer
    ints = st.one_of(st.just(0), st.integers(-1000, 1000))
    matrix = [data.draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(n)]
    rhs = data.draw(st.lists(ints, min_size=n, max_size=n))
    divisors = data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    fractions = [[F(v, d) for v in row] for row, d in zip(matrix, divisors)]
    fraction_rhs = [F(b, d) for b, d in zip(rhs, divisors)]
    try:
        expected = solve_linear_system(fractions, fraction_rhs)
    except SingularSystemError as exc:
        with pytest.raises(SingularSystemError, match=str(exc)):
            solve_linear_system(matrix, rhs)
        return
    assert solve_linear_system(matrix, rhs) == expected
    assert expected == gauss_reference(matrix, rhs)


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_row_swap_nonsingular(n, data):
    # a permuted diagonal with a zero corner: nonsingular, and column 0 needs a swap
    values = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    matrix = [[F(0)] * n for _ in range(n)]
    for r, c in enumerate(perm):
        matrix[r][c] = values[r]
    rhs = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert solve_linear_system(matrix, rhs) == gauss_reference(matrix, rhs)


@given(systems(), st.data())
@settings(max_examples=30, deadline=None)
def test_dependent_row_is_singular(system, data):
    matrix, rhs = system
    n = len(matrix)
    source, target = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    factor = data.draw(entries)
    if source != target:
        matrix[target] = [factor * v for v in matrix[source]]
    else:
        matrix[target] = [F(0)] * n
    with pytest.raises(SingularSystemError, match="no pivot in column"):
        solve_linear_system(matrix, rhs)


def test_zero_column_names_it():
    with pytest.raises(SingularSystemError, match="no pivot in column 1"):
        solve_linear_system([[F(1), F(0)], [F(3), F(0)]], [F(1), F(2)])


def test_empty_system():
    assert solve_linear_system([], []) == []


def test_shape_checked():
    with pytest.raises(ValueError):
        solve_linear_system([[F(1), F(2)]], [F(1)])


@st.composite
def integer_systems(draw):
    n = draw(st.integers(1, 8))
    ints = st.one_of(st.just(0), st.integers(-1000, 1000))
    matrix = [draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        matrix[0][0] = 0  # the first column's pivot must come from a row swap
    return matrix, draw(st.lists(ints, min_size=n, max_size=n))


@given(integer_systems())
@settings(max_examples=100, deadline=None)
def test_integer_core_matches_fraction_gauss(system):
    matrix, rhs = system
    try:
        expected = gauss_reference(matrix, rhs)
    except SingularSystemError as exc:
        with pytest.raises(SingularSystemError, match=str(exc)):
            bareiss(matrix, rhs)
        return
    num, det = bareiss(matrix, rhs)
    assert all(type(v) is int for v in num) and type(det) is int
    assert det == determinant_reference(matrix)
    assert [Fraction(v, det) for v in num] == expected == solve_linear_system(matrix, rhs)


def test_integer_core_pivot_swap_makes_det_negative():
    # det [[0, 2], [3, 1]] = -6 and x = (1, 2); the numerators are Cramer's det(A_i)
    assert bareiss([[0, 2], [3, 1]], [4, 5]) == ([-6, -12], -6)


def test_pivot_is_the_first_candidate_of_smallest_magnitude():
    # column 0: the first nonzero candidate is 6 (row 1), the smallest -2 (row 2) ahead of 2 (row 3)
    matrix = [[0, 1, 3, 2], [6, 4, 1, 1], [-2, 5, 7, 3], [2, 1, 1, 9]]
    a = [list(row) for row in matrix]
    det = _eliminate(a, 4)
    assert a[0] == matrix[2]
    assert det == determinant_reference(matrix) == determinant(matrix)
    # column 1 then holds the minors -38 (row 1), -2 (row 0) and -12 (row 3) in that order: row 0's comes second
    assert a[1][:2] == [0, -2]


def test_integer_core_names_the_singular_column():
    # column 1 is twice column 0
    with pytest.raises(SingularSystemError, match="no pivot in column 1"):
        bareiss([[1, 2, 0], [2, 4, 1], [0, 0, 1]], [1, 2, 3])


def test_integer_core_empty_system():
    assert bareiss([], []) == ([], 1)


@given(systems())
@settings(max_examples=100, deadline=None)
def test_determinant_is_bareiss_elimination(system):
    # the drawn rows over their common denominators: the integer system solve_linear_system hands in
    matrix, rhs = system
    scales = [math.lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(matrix, rhs)]
    matrix = [[int(v * s) for v in row] for row, s in zip(matrix, scales)]
    rhs = [int(b * s) for b, s in zip(rhs, scales)]
    try:
        _, det = bareiss(matrix, rhs)
    except SingularSystemError as exc:
        with pytest.raises(SingularSystemError, match=f"^{re.escape(str(exc))}$"):
            determinant(matrix)
        assert determinant_reference(matrix) == 0
        return
    assert determinant(matrix) == det == determinant_reference(matrix)


def test_determinant_of_the_empty_matrix_is_one():
    assert determinant([]) == 1


def test_determinant_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        determinant([[1, 2]])


@pytest.mark.parametrize("solve", [bareiss, solve_linear_system])
@pytest.mark.parametrize("matrix, rhs", [([[1, 2]], [1]), ([[1], [2]], [1]), ([[1], [2]], [1, 2]),
                                         ([[1, 0], [0, 1]], [1])])
def test_non_square_systems_raise_value_error(solve, matrix, rhs):
    with pytest.raises(ValueError, match="square"):
        solve(matrix, rhs)
