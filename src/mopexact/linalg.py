"""Exact dense linear solves, fraction-free (Bareiss 1968).

Every elimination step divides exactly by the previous pivot, and back
substitution runs in integers against the last pivot, the determinant up to
the sign of the row swaps.  :func:`bareiss` solves integer systems into
integer numerators over the determinant and builds no Fraction; the oracle
reads that pair.  :func:`solve_linear_system` scales rational rows to
integers and returns Fractions.  The pivots carry the rows' common factors,
so the oracle hands in primitive rows.  Any nonzero pivot is exact; we take
the one of smallest magnitude.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularSystemError


def _size(matrix, rhs) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")
    return n


def bareiss(matrix, rhs) -> tuple[list[int], int]:
    """Solve A x = b for integer A and b: (numerators, det) with x = numerators / det and det = det(A).

    So the numerators are Cramer's det(A_i), A with column i replaced by b."""
    n = _size(matrix, rhs)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    prev, sign = 1, 1
    for col in range(n):
        candidates = [r for r in range(col, n) if a[r][col]]
        if not candidates:
            raise SingularSystemError(f"no pivot in column {col}")
        pivot_row = min(candidates, key=lambda r: abs(a[r][col]))
        if pivot_row != col:
            a[col], a[pivot_row], sign = a[pivot_row], a[col], -sign
        pivot = a[col]
        p = pivot[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // prev for x, y in zip(row[col + 1:], pivot[col + 1:])]
        prev = p
    # prev is now the determinant of the row-swapped system, so prev * x is integral (Cramer)
    num = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = prev * row[n] - sum(row[c] * num[c] for c in range(r + 1, n))
        num[r] = acc // row[r]
    return ([-v for v in num], -prev) if sign < 0 else (num, prev)


def solve_linear_system(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly for rational A and b: :func:`bareiss` on rows scaled to integers."""
    _size(matrix, rhs)
    scales = [math.lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(matrix, rhs)]
    num, det = bareiss([[v.numerator * (s // v.denominator) for v in row] for row, s in zip(matrix, scales)],
                       [b.numerator * (s // b.denominator) for b, s in zip(rhs, scales)])
    return [Fraction(v, det) for v in num]
