"""Exact Pochhammer and gamma-product arithmetic over the rationals.

Every quantity this package verifies reduces to a rational number once the
gamma factors appearing in it are cancelled against each other, so we never
evaluate a gamma function numerically on the verification path.  Rationals
are plain ``fractions.Fraction`` values, and the transcendental leftovers of
a formula are carried formally as a :class:`GammaProduct` (a multiset of
``Gamma(argument)**exponent`` factors).  ``reduce()`` performs the
cancellations: arguments that differ by an integer collapse onto a single
anchored factor via rising factorials, leaving an exact rational times a
fully normalized product.

The one floating-point entry point, :func:`log_gamma_approx`, exists for
data export and sanity checks only; nothing on the exact path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import PoleError

#: The universal exact scalar type of the package.
Rational = Fraction


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_nonpositive_integer(x) -> bool:
    x = as_fraction(x)
    return x.denominator == 1 and x.numerator <= 0


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exactly.

    (a)_0 is the empty product 1.  Negative n extends through
    (a)_n = 1 / ((a-1)(a-2)...(a+n)) and raises ZeroDivisionError when that
    chain contains a zero factor.

    With a = p/q it multiplies the integers p + j q and reduces once.  Values
    on the Hahn lattice come from tables kept on the weight system and the
    polynomials instead (:mod:`mopexact.weights`, :mod:`mopexact.polybasis`).
    """
    a = as_fraction(a)
    p, q = a.numerator, a.denominator
    if n >= 0:
        num = 1
        for j in range(n):
            num *= p + j * q
        return Fraction(num, q**n)
    den = 1
    for j in range(1, -n + 1):
        factor = p - j * q
        if factor == 0:
            raise ZeroDivisionError(f"pochhammer({a}, {n}) hits a zero factor")
        den *= factor
    return Fraction(q**-n, den)


def gamma_ratio(a, m: int) -> Fraction:
    """Gamma(a+m)/Gamma(a) as an exact rational; equals pochhammer(a, m).

    Unlike :func:`pochhammer`, this guards both gamma arguments: a and a+m
    must avoid the poles at the nonpositive integers.
    """
    a = as_fraction(a)
    if is_nonpositive_integer(a) or is_nonpositive_integer(a + m):
        raise PoleError(f"gamma pole in Gamma({a + m})/Gamma({a})")
    return pochhammer(a, m)


@dataclass(frozen=True)
class GammaProduct:
    """Formal product prod_t Gamma(argument_t)**exponent_t, arguments rational.

    The empty product is the scalar 1.  Construction merges repeated
    arguments; call :meth:`reduce` for the canonical form in which no two
    factors have arguments differing by an integer.
    """

    factors: tuple[tuple[Fraction, int], ...] = ()

    @staticmethod
    def one() -> "GammaProduct":
        return GammaProduct()

    @staticmethod
    def gamma(argument, exponent: int = 1) -> "GammaProduct":
        return GammaProduct.from_factors([(argument, exponent)])

    @staticmethod
    def from_factors(pairs) -> "GammaProduct":
        merged: dict[Fraction, int] = {}
        for argument, exponent in pairs:
            argument = as_fraction(argument)
            merged[argument] = merged.get(argument, 0) + exponent
        kept = tuple(sorted((a, e) for a, e in merged.items() if e != 0))
        return GammaProduct(kept)

    def __mul__(self, other: "GammaProduct") -> "GammaProduct":
        return GammaProduct.from_factors(self.factors + other.factors)

    def __pow__(self, k: int) -> "GammaProduct":
        return GammaProduct.from_factors((a, e * k) for a, e in self.factors)

    def __truediv__(self, other: "GammaProduct") -> "GammaProduct":
        return self * other**-1

    def is_one(self) -> bool:
        return not self.factors

    def reduce(self) -> tuple[Fraction, "GammaProduct"]:
        """Cancel integer-offset factors; return (rational, normalized product).

        Arguments in the same integer-offset class are rewritten against the
        smallest argument of the class (the anchor), turning offsets into
        exact Pochhammer factors.  Classes whose exponents cancel disappear
        entirely; integer-argument factors become factorials.  A factor
        Gamma(m) with m a nonpositive integer and positive net exponent is a
        pole and raises PoleError; with negative exponent the reciprocal
        vanishes and the whole product reduces to 0.
        """
        classes: dict[Fraction, list[tuple[Fraction, int]]] = {}
        for argument, exponent in self.factors:
            key = argument - math.floor(argument)
            classes.setdefault(key, []).append((argument, exponent))

        rational = Fraction(1)
        residual: list[tuple[Fraction, int]] = []
        vanishes = False
        for key in sorted(classes):
            group = classes[key]
            if key == 0:
                for argument, exponent in group:
                    if argument >= 1:
                        rational *= Fraction(math.factorial(int(argument) - 1)) ** exponent
                    elif exponent > 0:
                        raise PoleError(f"Gamma({argument}) pole in {self}")
                    else:
                        vanishes = True
                continue
            anchor = min(argument for argument, _ in group)
            net = 0
            for argument, exponent in group:
                offset = int(argument - anchor)
                rational *= pochhammer(anchor, offset) ** exponent
                net += exponent
            if net != 0:
                residual.append((anchor, net))
        if vanishes:
            return Fraction(0), GammaProduct.one()
        return rational, GammaProduct(tuple(sorted(residual)))

    def reduced_equal(self, other: "GammaProduct") -> bool:
        r1, h1 = self.reduce()
        r2, h2 = other.reduce()
        return r1 == r2 and h1.factors == h2.factors

    def log_value(self, digits: int = 17):
        """Sum of exponent * log Gamma(argument) as an mpmath float (float path)."""
        with mpmath.workdps(digits + 10):
            total = mpmath.mpf(0)
            for argument, exponent in self.factors:
                total += exponent * log_gamma_approx(argument, digits)
            return +total

    def float_value(self, digits: int = 17) -> float:
        if self.is_one():
            return 1.0
        return float(mpmath.exp(self.log_value(digits)))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"Gamma({a})^{e}" if e != 1 else f"Gamma({a})" for a, e in self.factors)


def scaled_values_equal(r1: Fraction, g1: GammaProduct, r2: Fraction, g2: GammaProduct) -> bool:
    """Whether r1*g1 == r2*g2 exactly.

    Requires the gamma mismatch g1/g2 to reduce to a rational; gamma factors
    never vanish, so two zero rational parts are equal regardless of them.
    """
    if r1 == 0 or r2 == 0:
        return r1 == r2
    quotient, leftover = (g1 / g2).reduce()
    if not leftover.is_one():
        return False
    return r1 * quotient == r2


def log_gamma_approx(x, digits: int):
    """log Gamma(x) for x > 0, to the requested number of correct decimal digits.

    Float path only: backs data export and convergence sanity checks, never
    the exact verification ops.  Delegates to mpmath's arbitrary-precision
    log-gamma, which implements the usual asymptotic expansion with argument
    shifting.
    """
    if digits <= 0:
        raise ValueError("digits must be positive")
    x = Fraction(x) if not isinstance(x, Fraction) else x
    if x <= 0:
        raise ValueError(f"log_gamma_approx requires x > 0, got {x}")
    with mpmath.workdps(digits + 10):
        value = mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator)
        return +value
