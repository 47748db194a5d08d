"""Exact dense linear solves over the rationals.

Linear systems are solved fraction-free (Bareiss 1968): every elimination
step divides exactly by the previous pivot, and back substitution runs in
integers against the last pivot, the determinant of the scaled system.  An
integer row is taken as it is, a row with Fractions is scaled by its
denominators' lcm, and only the results are built as Fractions.  The pivots
carry the rows' common factors, so the oracle hands in primitive rows.  Any
nonsingular pivot is exact; we take the nonzero entry of smallest magnitude.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularSystemError


def solve_linear_system(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly by fraction-free Gaussian elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")
    a = []
    for row, b in zip(matrix, rhs):
        entries = (*row, b)
        scale = math.lcm(*(v.denominator for v in entries))
        a.append([v.numerator * (scale // v.denominator) for v in entries] if scale > 1
                 else [v.numerator for v in entries])
    prev = 1
    for col in range(n):
        candidates = [r for r in range(col, n) if a[r][col]]
        if not candidates:
            raise SingularSystemError(f"no pivot in column {col}")
        pivot_row = min(candidates, key=lambda r: abs(a[r][col]))
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col]
        p = pivot[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // prev for x, y in zip(row[col + 1:], pivot[col + 1:])]
        prev = p
    # prev is now the determinant of the scaled system, so det * x is integral (Cramer)
    num = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = prev * row[n] - sum(row[c] * num[c] for c in range(r + 1, n))
        num[r] = acc // row[r]
    return [Fraction(v, prev) for v in num]

