"""Polynomial values in the bases the explicit formulas are written in.

Four bases appear: plain monomials x^k, falling factorials (-x)_k, shifted
rising factorials (x + alpha_i + 1)_k tied to a weight index, and the
descending lattice products (beta + N - x + 1)_k used for the discrete
orthogonality rows.  A ScaledPolynomial is a coefficient list in one of
these bases together with a formal GammaProduct scale, so transcendental
prefactors stay symbolic until they cancel against weight moments.

On the Hahn lattice {0, ..., N} a basis is tabulated by its one-step
recurrence (:func:`lattice_table`); a polynomial's values there are kept on
the polynomial object and last only as long as it.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AdmissibilityError
from .gammaprod import GammaProduct, as_fraction, pochhammer


class BasisKind(enum.Enum):
    MONOMIAL = "monomial"
    FALLING_FACTORIAL = "falling-factorial"
    SHIFTED_RISING = "shifted-rising"
    BACKWARD_POCHHAMMER = "backward-pochhammer"


@dataclass(frozen=True)
class Basis:
    """Basis tag plus the shift its elements need.

    MONOMIAL: x^k.  FALLING_FACTORIAL: (-x)_k.  SHIFTED_RISING with shift s:
    (x + s)_k; the generators use s = alpha_i + 1 and record which weight the
    shift came from.  BACKWARD_POCHHAMMER with shift s: (s - x)_k; the
    discrete orthogonality rows use s = beta + N + 1.
    """

    kind: BasisKind
    shift: Fraction | None = None
    weight_index: int | None = None

    @staticmethod
    def monomial() -> "Basis":
        return Basis(BasisKind.MONOMIAL)

    @staticmethod
    def falling_factorial() -> "Basis":
        return Basis(BasisKind.FALLING_FACTORIAL)

    @staticmethod
    def shifted_rising(shift, weight_index: int) -> "Basis":
        return Basis(BasisKind.SHIFTED_RISING, as_fraction(shift), weight_index)

    @staticmethod
    def backward_pochhammer(beta, N: int) -> "Basis":
        return Basis(BasisKind.BACKWARD_POCHHAMMER, as_fraction(beta) + N + 1)

    def element_value(self, k: int, x) -> Fraction:
        x = as_fraction(x)
        if self.kind is BasisKind.MONOMIAL:
            return x**k
        if self.kind is BasisKind.FALLING_FACTORIAL:
            return pochhammer(-x, k)
        if self.kind is BasisKind.SHIFTED_RISING:
            return pochhammer(x + self.shift, k)
        return pochhammer(self.shift - x, k)

    def _step_factor(self, m: int) -> tuple[Fraction, Fraction]:
        """(const, slope) with basis_{m+1}(x) = basis_m(x) * (const + slope * x)."""
        if self.kind is BasisKind.MONOMIAL:
            return Fraction(0), Fraction(1)
        if self.kind is BasisKind.FALLING_FACTORIAL:
            return Fraction(m), Fraction(-1)
        if self.kind is BasisKind.SHIFTED_RISING:
            return self.shift + m, Fraction(1)
        return self.shift + m, Fraction(-1)

    def element_monomial_coefficients(self, k: int) -> tuple[Fraction, ...]:
        """The k-th basis element expanded in powers of x (length k+1)."""
        if self.kind is BasisKind.MONOMIAL:
            return tuple(Fraction(0) for _ in range(k)) + (Fraction(1),)
        coeffs = [Fraction(1)]
        for m in range(k):
            coeffs = _multiply_linear(coeffs, *self._step_factor(m))
        return tuple(coeffs)


def lattice_table(basis: Basis, degree: int, N: int) -> list[tuple[Fraction, ...]]:
    """Rows k = 0..degree of basis_k(x) at x = 0..N, by the one-step recurrence."""
    rows = [(Fraction(1),) * (N + 1)]
    for m in range(degree):
        const, slope = basis._step_factor(m)
        rows.append(tuple(value * (const + slope * x) for x, value in enumerate(rows[-1])))
    return rows


def _multiply_linear(coeffs, const: Fraction, slope: Fraction) -> list[Fraction]:
    out = [Fraction(0)] * (len(coeffs) + 1)
    for j, c in enumerate(coeffs):
        out[j] += c * const
        out[j + 1] += c * slope
    return out


@dataclass(frozen=True)
class ScaledPolynomial:
    """scale * sum_k coefficients[k] * basis_k(x), all parts exact."""

    basis: Basis
    coefficients: tuple[Fraction, ...]
    scale: GammaProduct = field(default_factory=GammaProduct.one)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(as_fraction(c) for c in self.coefficients))
        # lattice size N -> values on {0..N}; not a field, so eq and hash ignore it
        object.__setattr__(self, "_lattice_values", {})

    @property
    def degree(self) -> int:
        """Largest index with nonzero coefficient; -1 for the zero polynomial."""
        for k in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[k] != 0:
                return k
        return -1

    def is_zero(self) -> bool:
        return self.degree < 0

    def rational_value(self, x) -> Fraction:
        """Value of the coefficient part only, ignoring the scale."""
        return sum((c * self.basis.element_value(k, x) for k, c in enumerate(self.coefficients)),
                   Fraction(0))

    def lattice_values(self, N: int) -> tuple[Fraction, ...]:
        """rational_value at x = 0..N, computed once per N and kept on this object."""
        if N not in self._lattice_values:
            table = lattice_table(self.basis, len(self.coefficients) - 1, N)
            self._lattice_values[N] = tuple(
                sum(map(operator.mul, self.coefficients, column), Fraction(0)) for column in zip(*table)
            )
        return self._lattice_values[N]

    def monomial_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient list in the monomial basis (scale untouched)."""
        if not self.coefficients:
            return ()
        out = [Fraction(0)] * len(self.coefficients)
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            for j, e in enumerate(self.basis.element_monomial_coefficients(k)):
                out[j] += c * e
        return tuple(out)

    def leading_monomial_coefficient(self) -> Fraction:
        mono = self.monomial_coefficients()
        for c in reversed(mono):
            if c != 0:
                return c
        return Fraction(0)


def eval_polynomial(poly: ScaledPolynomial, x) -> tuple[Fraction, GammaProduct]:
    """Exact value split as rational part times a residual gamma product.

    The residual is empty whenever the scale reduces to a rational.
    Propagates PoleError from the scale reduction.
    """
    rational, residual = poly.scale.reduce()
    return poly.rational_value(x) * rational, residual


@dataclass(frozen=True)
class TypeIVector:
    """One polynomial per weight; component i has degree <= n_i - 1.

    Components with n_i = 0 are the zero polynomial (empty coefficient
    list): their weight contributes nothing to the linear form.
    """

    components: tuple[ScaledPolynomial, ...]

    def __post_init__(self):
        for comp in self.components:
            if comp.basis.kind is BasisKind.BACKWARD_POCHHAMMER:
                raise AdmissibilityError("type I components never use the backward basis")

    @property
    def p(self) -> int:
        return len(self.components)
