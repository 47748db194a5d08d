"""Polynomial values in the bases the explicit formulas are written in.

Three bases appear: plain monomials x^k, falling factorials (-x)_k, and shifted rising factorials
(x + alpha_i + 1)_k, one per weight.  A ScaledPolynomial is a basis and one
reduced integer coefficient row.  The gamma prefactor of a type I closed
form depends only on the family, the weight and |n|
(:func:`mopexact.families.type1_scale`), so it is not stored here; its
Fraction coefficients are built only when read.
Every value is computed through the basis's one-step factor
(:meth:`Basis._step_factor`), nested in integers at rational points
(:func:`values_at`).  Only the output edge evaluates a polynomial: no check
on the verify path tabulates one on the Hahn lattice or samples it at a point.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cached_property

from .gammaprod import Frozen, as_fraction, reduced_row


class BasisKind(enum.Enum):
    MONOMIAL = "monomial"
    FALLING_FACTORIAL = "falling-factorial"
    SHIFTED_RISING = "shifted-rising"


class Basis(Frozen):
    """Basis tag plus the shift its elements need, as a reduced integer pair (p, q), q > 0, for s = p/q.

    MONOMIAL: x^k.  FALLING_FACTORIAL: (-x)_k.  SHIFTED_RISING with shift s:
    (x + s)_k; the generators use s = alpha_i + 1.
    """

    _fields = ("kind", "shift")

    def __init__(self, kind: BasisKind, shift: tuple[int, int] | None = None):
        self.__dict__.update(kind=kind, shift=shift)

    @staticmethod
    def monomial() -> "Basis":
        return Basis(BasisKind.MONOMIAL)

    @staticmethod
    def falling_factorial() -> "Basis":
        return Basis(BasisKind.FALLING_FACTORIAL)

    @staticmethod
    def shifted_rising(p: int, q: int) -> "Basis":
        """Shift s = p/q, integers with q > 0."""
        g = math.gcd(p, q)
        return Basis(BasisKind.SHIFTED_RISING, (p // g, q // g))

    def _step_factor(self, m: int) -> tuple[int, int, int]:
        """Integers (const, slope, q) with basis_{m+1}(x) = basis_m(x) * (const + slope * x) / q.

        q is the shift's denominator (1 without a shift), so const is its numerator plus m q."""
        if self.kind is BasisKind.MONOMIAL:
            return 0, 1, 1
        if self.kind is BasisKind.FALLING_FACTORIAL:
            return m, -1, 1
        p, q = self.shift
        return p + m * q, q, q


def values_at(basis: Basis, row, points) -> list[tuple[int, int]]:
    """sum_k nums[k] basis_k(x) / den at every exact rational x in points, one integer pair per point.

    Nested from the top index K: with basis_{k+1} = basis_k (const_k + slope_k x) / q_k
    (:meth:`Basis._step_factor`) and x = a/b, acc_K = nums[K] and
    acc_k = nums[k] (q_k b)...(q_(K-1) b) + (const_k b + slope_k a) acc_(k+1); the value is acc_0
    over den times prod_k q_k b.  The step factors are built once for all points, and an int point
    is read as it is, without a Fraction."""
    nums, den = row
    steps = [basis._step_factor(k) for k in range(len(nums) - 2, -1, -1)]
    values = []
    for a, b in ((x, 1) if isinstance(x, int) else as_fraction(x).as_integer_ratio() for x in points):
        acc, power = nums[-1] if nums else 0, 1
        for c, (const, slope, q) in zip(nums[-2::-1], steps):
            power *= q * b
            acc = c * power + (const * b + slope * a) * acc
        values.append((acc, den * power))
    return values


class ScaledPolynomial(Frozen):
    """sum_k c_k * basis_k(x), exact, with c_k = row[0][k] / row[1].

    The row is reduced (no factor common to the positive denominator and all
    numerators), so two rows are equal exactly when the coefficients are.  It
    is given as ``row=`` or built from positional exact rationals; the Fraction
    :attr:`coefficients` are built on first read.  A type I component is read
    against the canonical gamma scale of its family, weight and |n|, which
    only the output edge builds (:func:`mopexact.families.type1_scale`).
    """

    _fields = ("basis", "row")

    def __init__(self, basis: Basis, coefficients=(), *, row=None):
        if row is None:  # exact rationals over their denominators' lcm
            values = [as_fraction(c) for c in coefficients]
            den = math.lcm(*(v.denominator for v in values))
            row = [v.numerator * (den // v.denominator) for v in values], den
        self.__dict__.update(basis=basis, row=reduced_row(*row))

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        nums, den = self.row
        return tuple(Fraction(v, den) for v in nums)

    @property
    def degree(self) -> int:
        """Largest index with nonzero coefficient; -1 for the zero polynomial."""
        nums = self.row[0]
        for k in range(len(nums) - 1, -1, -1):
            if nums[k]:
                return k
        return -1

    def rational_value(self, x) -> Fraction:
        """The value at the exact rational x, nested in integers (:func:`values_at`)."""
        return Fraction(*values_at(self.basis, self.row, [x])[0])

    def leading_monomial_coefficient(self) -> tuple[int, int]:
        """Top nonzero coefficient times the leading sign of its basis element, (-1)^k for (-x)_k,
        as the integer pair (numerator, positive denominator); (0, 1) for the zero polynomial."""
        k = self.degree
        if k < 0:
            return 0, 1
        nums, den = self.row
        return -nums[k] if self.basis.kind is BasisKind.FALLING_FACTORIAL and k % 2 else nums[k], den


class TypeIVector(Frozen):
    """One polynomial per weight; component i has degree <= n_i - 1 (:func:`mopexact.families.type1_rows`).

    Components with n_i = 0 are the zero polynomial (empty coefficient
    list): their weight contributes nothing to the linear form.
    """

    _fields = ("components",)

    def __init__(self, components: tuple[ScaledPolynomial, ...]):
        self.__dict__["components"] = components
