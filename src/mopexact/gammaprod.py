"""Exact Pochhammer and gamma-product arithmetic over the rationals, and the integer-row layer.

Every quantity this package verifies reduces to a rational number once the
gamma factors appearing in it are cancelled against each other, so no gamma
function is evaluated numerically on the verification path.  The
transcendental leftovers of a formula are carried formally as a
:class:`GammaProduct` (a multiset of ``Gamma(argument)**exponent`` factors).
``reduce()`` collapses arguments that differ by an integer onto one anchored
factor via rising factorials, leaving an exact rational times a normalized
product; only the identity prefactors of :mod:`mopexact.hyper` reduce one.
The verify path builds no product: a polynomial is a basis and one integer
row, and the gamma scale a type I component is read against depends only on
its family, weight and |n|, so the output edge (``coeffs``, ``eval``,
``plot-data``) builds it where it prints or rounds it
(:func:`mopexact.families.type1_scale`).

The verify path computes in one format, defined here.  A rational is an
integer pair (numerator, nonzero denominator) and a sequence of rationals
(moments, pairings, series terms) an integer row (:data:`LatticeRow`):
integer numerators over one denominator, positive once built.  Only
:func:`reduced_row` reduces a row, after which equal values mean equal rows;
other rows and pairs are compared cross-multiplied (:func:`same`).
Pochhammer parameters are integers over one denominator: :func:`rising` is
the one kernel (:func:`pochhammer` reduces it to a Fraction),
:func:`rising_product` multiplies out a prefactor and reduces it once, and
:func:`ratio_row` builds a series row by its term ratio.  No other module
defines a row kernel.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import PoleError

#: An integer row: entry k is Fraction(nums[k], den).
LatticeRow = tuple[tuple[int, ...], int]


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


def rising(p: int, q: int, n: int) -> tuple[int, int]:
    """(p/q)_n for q > 0 as the unreduced integers prod_{j<n} (p + jq) and q^n.

    For n < 0 they are q^-n and prod_{1<=j<=-n} (p - jq), which is 0 when that chain holds a zero factor."""
    if n >= 0:
        return math.prod(range(p, p + n * q, q)), q**n
    return q**-n, math.prod(range(p - q, p + (n - 1) * q, -q))


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) as a Fraction: :func:`rising` reduced once.

    (a)_0 is the empty product 1.  Negative n extends through
    (a)_n = 1 / ((a-1)(a-2)...(a+n)) and raises ZeroDivisionError when that
    chain contains a zero factor.  The verify path multiplies integer pairs instead.
    """
    a = as_fraction(a)
    num, den = rising(a.numerator, a.denominator, n)
    if den == 0:
        raise ZeroDivisionError(f"pochhammer({a}, {n}) hits a zero factor")
    return Fraction(num, den)


def rising_product(q: int, ups=(), downs=(), top: int = 1, bottom: int = 1) -> tuple[int, int]:
    """top/bottom * prod (p/q)_n over the (p, n) pairs of ups / the same over downs, all over one q.

    Multiplied out in integers and reduced once to (numerator, positive denominator);
    a vanishing divisor raises PoleError."""
    for p, n in ups:
        num, den = rising(p, q, n)
        top, bottom = top * num, bottom * den
    for p, n in downs:
        num, den = rising(p, q, n)
        top, bottom = top * den, bottom * num
    if bottom == 0:
        raise PoleError("a Pochhammer divisor vanishes")
    g = math.gcd(top, bottom)
    return (top // g, bottom // g) if bottom > 0 else (-top // g, -bottom // g)


def ratio_row(ups, downs, length: int, q: int) -> tuple[list[int], int]:
    """prod_u (u/q)_k / prod_d (d/q)_k at k = 0..length-1 as one integer row over one positive denominator.

    The parameters are integers over one denominator q > 0.  Each entry is
    the one before times the term ratio: p steps by (p + kq) / q, the integers
    p + kq multiply the numerator (for u) or the denominator (for d) and the
    surplus q's the other side; the later denominator factors, multiplied
    from the end, put every entry over the last denominator.  A zero numerator
    factor ends the row with zeros over the denominator reached there; a zero
    denominator factor under a nonzero numerator raises PoleError.
    """
    extra = len(downs) - len(ups)
    up_q, down_q = q ** max(extra, 0), q ** max(-extra, 0)
    nums, bottoms = [1], []
    for k in range(length - 1):
        top = up_q
        for p in ups:
            top *= p + k * q
        if top == 0:
            break
        bottom = down_q
        for p in downs:
            bottom *= p + k * q
        if bottom == 0:
            raise PoleError(f"denominator pochhammer vanishes in term {k + 1}")
        nums.append(nums[-1] * top)
        bottoms.append(bottom)
    den = 1
    for k in range(len(bottoms) - 1, -1, -1):
        den *= bottoms[k]
        nums[k] *= den
    nums = nums[:length] + [0] * (length - len(nums))
    return ([-v for v in nums], -den) if den < 0 else (nums, den)


def reduced_row(nums, den: int) -> LatticeRow:
    """The row nums / den (den nonzero) with the common gcd of numerators and denominator divided out, den > 0."""
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def row_sum(rows, length: int) -> tuple[list[int], int]:
    """Entrywise sum of integer rows over the lcm of their denominators."""
    den = math.lcm(*(d for _, d in rows))
    scaled = [(den // d, nums) for nums, d in rows]
    return [sum(up * nums[x] for up, nums in scaled) for x in range(length)], den


def pair(row: LatticeRow, other: LatticeRow) -> Fraction | int:
    """A type II residual: the sum of the products of two integer rows' values, a coefficient and a condition row.

    The integer numerators are multiplied and summed, then divided once; an exact zero stays the int 0."""
    total = sum(map(operator.mul, row[0], other[0]))
    return Fraction(total, row[1] * other[1]) if total else 0


def primitive(row) -> list[int]:
    """An integer row divided by its content, the gcd of its entries; a zero row stays as it is."""
    content = math.gcd(*row) or 1
    return [v // content for v in row]


def same(left, right) -> bool:
    """Whether two lists of integer pairs (numerator, nonzero denominator) agree entry by entry, cross-multiplied."""
    return len(left) == len(right) and all(a * d == c * b for (a, b), (c, d) in zip(left, right))


class Frozen:
    """Base of the package's value classes: immutable, and equal to and hashed like another object of its
    class with the same values of the fields named in ``_fields``.  ``__init__`` stores the fields in
    ``__dict__``; the other entries there are caches, which comparison and hashing ignore."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")


class GammaProduct(Frozen):
    """Formal product prod_t Gamma(argument_t)**exponent_t, arguments rational.

    The empty product is the scalar 1.  Construction merges repeated
    arguments; call :meth:`reduce` for the canonical form in which no two
    factors have arguments differing by an integer.
    """

    _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[Fraction, int], ...] = ()):
        self.__dict__["factors"] = factors

    @staticmethod
    def one() -> "GammaProduct":
        """The empty product, one module-level object."""
        return ONE

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
            return Fraction(0), ONE
        return rational, GammaProduct(tuple(sorted(residual)))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"Gamma({a})^{e}" if e != 1 else f"Gamma({a})" for a, e in self.factors)


ONE = GammaProduct()
