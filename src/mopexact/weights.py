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
The lattice values are tabulated on first use and kept on the weight
system (:attr:`WeightSystem.weight_table`), so they last only as long as it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import AdmissibilityError
from .gammaprod import as_fraction, pochhammer


class Family(enum.Enum):
    LAGUERRE_FIRST_KIND = "laguerre1"
    JACOBI_PINEIRO = "jacobi-pineiro"
    HAHN = "hahn"


#: A multi-index: one nonnegative polynomial degree per weight.
MultiIndex = tuple[int, ...]


def total_degree(n: MultiIndex) -> int:
    return sum(n)


@dataclass(frozen=True)
class WeightSystem:
    family: Family
    alpha: tuple[Fraction, ...]
    beta: Fraction | None = None
    N: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(as_fraction(a) for a in self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", as_fraction(self.beta))
        if not self.alpha:
            raise AdmissibilityError("need at least one weight")
        for a in self.alpha:
            if a <= -1:
                raise AdmissibilityError(f"alpha = {a} must exceed -1")
        for i in range(len(self.alpha)):
            for j in range(i + 1, len(self.alpha)):
                if (self.alpha[i] - self.alpha[j]).denominator == 1:
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
            if self.N is None or self.N < 0:
                raise AdmissibilityError("Hahn weights need a lattice size N >= 0")
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

    def validate_index(self, n: MultiIndex, *, type_one: bool = False) -> None:
        if len(n) != self.p:
            raise AdmissibilityError(f"multi-index {n} does not match p = {self.p}")
        if any(ni < 0 for ni in n):
            raise AdmissibilityError(f"multi-index {n} has negative entries")
        if self.family is Family.HAHN and total_degree(n) > self.N:
            raise AdmissibilityError(f"|n| = {total_degree(n)} exceeds the lattice size N = {self.N}")
        if type_one and total_degree(n) < 1:
            raise AdmissibilityError("type I polynomials need |n| >= 1")

    def check_point(self, x) -> Fraction:
        """x as a Fraction if the weights live there: an integer in [0, N] for
        Hahn, x > 0 for the x**alpha_i factors otherwise; else AdmissibilityError."""
        x = as_fraction(x)
        if self.family is Family.HAHN:
            if x.denominator != 1 or not 0 <= x <= self.N:
                raise AdmissibilityError(f"x = {x} outside the lattice {{0,...,{self.N}}}")
        elif x <= 0:
            raise AdmissibilityError(f"need x > 0 to evaluate x**alpha_i factors, got {x}")
        return x

    @cached_property
    def beta_factors(self) -> tuple[Fraction, ...]:
        """(beta+1)_{N-x} / (N-x)! at x = 0..N, the factor all Hahn weights share."""
        return tuple(pochhammer(self.beta + 1, m) / math.factorial(m) for m in range(self.N, -1, -1))

    @cached_property
    def weight_table(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows i of the Hahn lattice weights w_i(x), x = 0..N, built on first use."""
        if self.family is not Family.HAHN:
            raise AdmissibilityError("lattice weights exist only for the Hahn family")
        return tuple(
            tuple(pochhammer(a + 1, x) / math.factorial(x) * b for x, b in enumerate(self.beta_factors))
            for a in self.alpha
        )

    def hahn_weight(self, i: int, x: int) -> Fraction:
        """Exact lattice weight value w_i(x) for the Hahn family."""
        return self.weight_table[i][self.check_point(x).numerator]
