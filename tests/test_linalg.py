from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import SingularSystemError
from mopexact.linalg import solve_linear_system

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
