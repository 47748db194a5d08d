"""Exact dense linear solves and interpolation over the rationals.

Linear systems are solved fraction-free (Bareiss 1968): each row is scaled
to integers, every elimination step divides exactly by the previous pivot,
and back substitution runs in integers against the last pivot, which is the
determinant of the scaled system.  Arithmetic is exact, so any nonsingular
pivoting strategy is correct; we pivot on the nonzero entry of smallest
magnitude.
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
        entries = [Fraction(v) for v in (*row, b)]
        scale = math.lcm(*(v.denominator for v in entries))
        a.append([v.numerator * (scale // v.denominator) for v in entries])
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


def interpolate(points) -> tuple[Fraction, ...]:
    """Monomial coefficients of the unique polynomial through the given points.

    Newton's divided differences over exact rationals; nodes must be
    distinct.  Returns len(points) coefficients (degree <= len(points) - 1).
    """
    nodes = [Fraction(x) for x, _ in points]
    values = [Fraction(y) for _, y in points]
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    n = len(nodes)
    divided = list(values)
    for level in range(1, n):
        for j in range(n - 1, level - 1, -1):
            divided[j] = (divided[j] - divided[j - 1]) / (nodes[j] - nodes[j - level])
    coeffs = [Fraction(0)] * n
    for level in range(n - 1, -1, -1):
        # multiply accumulated polynomial by (x - nodes[level]) and add divided[level]
        carry = [Fraction(0)] * n
        for j in range(n - 1):
            carry[j + 1] += coeffs[j]
            carry[j] -= nodes[level] * coeffs[j]
        coeffs = carry
        coeffs[0] += divided[level]
    return tuple(coeffs)
