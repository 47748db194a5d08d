"""Weight systems and multi-indices for the three polynomial families.

A weight system bundles the family tag with its parameters: p exponents
alpha_i (all families), the shared exponent beta (Jacobi-Pineiro and Hahn)
and the lattice size N (Hahn, support {0, ..., N}).  Admissibility requires
alpha_i > -1, beta > -1 and pairwise non-integer alpha differences, which
keeps the linear systems defining both polynomial types uniquely solvable.

Hahn weights are normalized so that their lattice values are exact
rationals: w_i(x) = (alpha_i+1)_x / x! * (beta+1)_{N-x} / (N-x)!.  The
gamma-function denominators of the conventional normalization cancel
against the type I scales during pairing and never need to be evaluated.
No weight value is tabulated: Chu-Vandermonde sums every Hahn pairing in
closed form (:mod:`mopexact.oracle`).  The continuous moments
(:meth:`WeightSystem.moment_rows`) are reduced integer rows
(:mod:`mopexact.gammaprod`), built on first use and kept on the weight
system.  Every Pochhammer argument they and the checks build is an
integer over the one denominator Q of :attr:`WeightSystem.integer_parameters`,
formed by integer adds.  N is an int: a bool, a float or a string is refused.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from fractions import Fraction

from .errors import AdmissibilityError, PoleError
from .gammaprod import Frozen, LatticeRow, as_fraction, ratio_row, reduced_row
from .gammaprod import pochhammer  # noqa: F401  (perfbench traces this binding)


class Family(enum.Enum):
    LAGUERRE_FIRST_KIND = "laguerre1"
    JACOBI_PINEIRO = "jacobi-pineiro"
    HAHN = "hahn"


#: A multi-index: one nonnegative polynomial degree per weight.
MultiIndex = tuple[int, ...]


def total_degree(n: MultiIndex) -> int:
    return sum(n)


class WeightSystem(Frozen):
    _fields = ("family", "alpha", "beta", "N")

    def __init__(self, family: Family, alpha, beta=None, N: int | None = None):
        self.__dict__.update(family=family, alpha=tuple(map(as_fraction, alpha)),
                             beta=None if beta is None else as_fraction(beta), N=N)
        if not self.alpha:
            raise AdmissibilityError("need at least one weight")
        for a in self.alpha:
            if a <= -1:
                raise AdmissibilityError(f"alpha = {a} must exceed -1")
        for i, a in enumerate(self.alpha):
            for j, b in enumerate(self.alpha[i + 1:], i + 1):
                if (a.numerator * b.denominator - b.numerator * a.denominator) % (a.denominator * b.denominator) == 0:
                    raise AdmissibilityError(
                        f"alpha[{i}] - alpha[{j}] = {self.alpha[i] - self.alpha[j]} is an integer"
                    )
        if self.family is Family.LAGUERRE_FIRST_KIND:
            if self.beta is not None or self.N is not None:
                raise AdmissibilityError("Laguerre weights take no beta or N")
        else:
            if self.beta is None or self.beta <= -1:
                raise AdmissibilityError(f"beta = {self.beta} must exceed -1")
        if self.family is Family.HAHN:
            if type(self.N) is not int or self.N < 0:
                raise AdmissibilityError(f"Hahn weights need an integer lattice size N >= 0, not {self.N!r}")
        elif self.N is not None:
            raise AdmissibilityError(f"{self.family.value} weights take no N")

    @staticmethod
    def laguerre(alpha) -> "WeightSystem":
        return WeightSystem(Family.LAGUERRE_FIRST_KIND, tuple(alpha))

    @staticmethod
    def jacobi_pineiro(alpha, beta) -> "WeightSystem":
        return WeightSystem(Family.JACOBI_PINEIRO, tuple(alpha), as_fraction(beta))

    @staticmethod
    def hahn(alpha, beta, N: int) -> "WeightSystem":
        return WeightSystem(Family.HAHN, tuple(alpha), as_fraction(beta), N)

    @property
    def p(self) -> int:
        return len(self.alpha)

    def validate_index(self, n, *, type_one: bool = False) -> MultiIndex:
        """n as the tuple every public entry point reads, a list too, or AdmissibilityError unless n has p nonnegative
        entries of type int, so no bool (|n| <= N for Hahn, |n| >= 1 for type I); PoleError on the Jacobi-Pineiro type I
        corner alpha_i + beta + |n| = 0, n_i >= 1 (only at |n| = 1, as alpha_i, beta > -1), where the coefficient
        vanishes against a gamma pole of its scale and exists only as a limit (the Hahn analogue cancels rationally).
        The tuple admitted last per type is kept: the checks of one instance admit it again by one identity test."""
        slot = "_type1_index" if type_one else "_type2_index"
        if self.__dict__.get(slot) is n:
            return n
        n = tuple(n)
        if len(n) != self.p:
            raise AdmissibilityError(f"multi-index {n} does not match p = {self.p}")
        for v in n:  # a plain loop: cheaper than min(n) alone, and it refuses a bool too
            if type(v) is not int or v < 0:
                raise AdmissibilityError(f"multi-index {n!r} needs nonnegative entries of type int")
        total = total_degree(n)
        if self.family is Family.HAHN and total > self.N:
            raise AdmissibilityError(f"|n| = {total} exceeds the lattice size N = {self.N}")
        if type_one and total < 1:
            raise AdmissibilityError("type I polynomials need |n| >= 1")
        if type_one and total == 1 and self.family is Family.JACOBI_PINEIRO:
            q, alpha, beta = self.integer_parameters
            for i, (a, ni) in enumerate(zip(alpha, n)):
                if ni and a + beta + q == 0:
                    raise PoleError(f"degenerate type I normalization: alpha_{i} + beta + |n| = 0")
        self.__dict__[slot] = n
        return n

    def check_point(self, x) -> Fraction | int:
        """x as a type I evaluation point, an int kept and anything else as a Fraction: an integer in [0, N] for
        Hahn, any x > 0 (the x**alpha_i factors) otherwise, else AdmissibilityError.  Jacobi-Pineiro points x > 1
        lie outside its support: there the left-out weight factor (1-x)^beta is not real for a non-integer beta."""
        x = x if isinstance(x, int) else as_fraction(x)
        if self.family is Family.HAHN:
            if x.denominator != 1 or not 0 <= x <= self.N:
                raise AdmissibilityError(f"x = {x} outside the lattice {{0,...,{self.N}}}")
        elif x <= 0:
            raise AdmissibilityError(f"need x > 0 to evaluate x**alpha_i factors, got {x}")
        return x

    @cached_property
    def integer_parameters(self) -> tuple[int, tuple[int, ...], int]:
        """(Q, (alpha_i Q), beta Q) with Q the lcm of their denominators (beta = 0 for Laguerre), built on first use."""
        beta = self.beta or 0
        q = math.lcm(beta.denominator, *(a.denominator for a in self.alpha))
        return q, tuple(a.numerator * (q // a.denominator) for a in self.alpha), beta.numerator * (q // beta.denominator)

    def kept(self, key, build):
        """build() once per weight system and key, kept on the weight system so it lasts only as long as it."""
        store = self.__dict__.setdefault("_kept", {})
        if key not in store:
            store[key] = build()
        return store[key]

    def moment_rows(self, length: int) -> tuple[LatticeRow, ...]:
        """Power moments j < length of every continuous weight as integer rows.

        Entry j is (alpha_i+1)_j against Gamma(alpha_i+1), over (alpha_i+beta+2)_j and times
        Gamma(beta+1) / Gamma(alpha_i+beta+2) for Jacobi-Pineiro.  Built at the longest length
        asked for and kept on the weight system: a shorter request reads a prefix of longer rows.
        """
        kept = self.__dict__.get("_moment_rows")
        if kept is None or len(kept[0][0]) < length:
            q, alpha, beta = self.integer_parameters
            shift = [beta + 2 * q] if self.family is Family.JACOBI_PINEIRO else []
            kept = tuple(reduced_row(*ratio_row([a + q], [a + s for s in shift], length, q)) for a in alpha)
            self.__dict__["_moment_rows"] = kept
        return kept
