"""Exact evaluation of terminating hypergeometric-type sums.

Generalized hypergeometric series and their two-variable Kampe de Feriet
extension are evaluated as exact finite rational sums: a series is accepted
only when a nonpositive-integer numerator parameter truncates it.  The
transformation identities used elsewhere in the package (Chu-Vandermonde,
the 3F2 Kummer transformation, the Rakha-Rathie reduction of a Kampe de
Feriet double sum, and the Karp-Prilepkina decomposition) are implemented
as boolean checkers that compare both sides exactly; each restricts one
parameter to a nonpositive integer so that every gamma prefactor reduces to
a rational via :func:`gamma_ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonTerminatingSeriesError, PoleError, PreconditionError
from .gammaprod import GammaProduct, as_fraction, is_nonpositive_integer, pochhammer


def _params(values) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def _cutoff(params) -> int | None:
    """Smallest forced truncation order among nonpositive-integer parameters."""
    orders = [-int(a) for a in params if is_nonpositive_integer(a)]
    return min(orders) if orders else None


@dataclass(frozen=True)
class HypergeometricSpec:
    """A pFq series: numerator/denominator parameter lists and argument."""

    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]
    argument: Fraction

    @staticmethod
    def of(numerator, denominator, argument) -> "HypergeometricSpec":
        return HypergeometricSpec(_params(numerator), _params(denominator), as_fraction(argument))

    def truncation_order(self) -> int | None:
        return _cutoff(self.numerator)


@dataclass(frozen=True)
class KampeDeFerietSpec:
    """A Kampe de Feriet double series.

    Joint parameters enter as (a)_{l+m}; the left groups follow the first
    summation index l, the right groups the second index m.  Both indices
    must be cut off by a nonpositive integer in the joint or the matching
    one-sided numerator group.
    """

    joint_num: tuple[Fraction, ...]
    left_num: tuple[Fraction, ...]
    right_num: tuple[Fraction, ...]
    joint_den: tuple[Fraction, ...]
    left_den: tuple[Fraction, ...]
    right_den: tuple[Fraction, ...]
    x: Fraction
    y: Fraction

    @staticmethod
    def of(joint_num, left_num, right_num, joint_den, left_den, right_den, x, y) -> "KampeDeFerietSpec":
        return KampeDeFerietSpec(
            _params(joint_num), _params(left_num), _params(right_num),
            _params(joint_den), _params(left_den), _params(right_den),
            as_fraction(x), as_fraction(y),
        )


def eval_pfq(spec: HypergeometricSpec) -> Fraction:
    """Exact value of a terminating pFq series.

    Raises NonTerminatingSeriesError when no numerator parameter truncates
    the sum, and PoleError when a denominator Pochhammer vanishes inside the
    summed range (a zero denominator is a hard parameter error, never a
    silently skipped term).
    """
    order = spec.truncation_order()
    if order is None:
        raise NonTerminatingSeriesError(f"no nonpositive-integer numerator parameter in {spec.numerator}")
    total = Fraction(1)
    term = Fraction(1)
    for l in range(order):
        top = Fraction(1)
        for a in spec.numerator:
            top *= a + l
        bottom = Fraction(l + 1)
        for d in spec.denominator:
            bottom *= d + l
        if bottom == 0:
            raise PoleError(f"denominator pochhammer vanishes at term {l + 1} of {spec.denominator}")
        term = term * top * spec.argument / bottom
        total += term
    return total


def pfq(numerator, denominator, argument) -> Fraction:
    return eval_pfq(HypergeometricSpec.of(numerator, denominator, argument))


def series_term(numerator, denominator, argument, k: int) -> Fraction:
    """The k-th term prod (a)_k / prod (d)_k * z^k / k! of a pFq series.

    Used to compare series expansions term by term; no termination is
    required.  A vanishing denominator under a nonzero numerator raises
    PoleError.
    """
    numerator = _params(numerator)
    denominator = _params(denominator)
    top = Fraction(1)
    for a in numerator:
        top *= pochhammer(a, k)
    if top == 0:
        return Fraction(0)
    bottom = Fraction(math.factorial(k))
    for d in denominator:
        bottom *= pochhammer(d, k)
    if bottom == 0:
        raise PoleError(f"denominator pochhammer vanishes in term {k}")
    return top * as_fraction(argument) ** k / bottom


def eval_kdf(spec: KampeDeFerietSpec) -> Fraction:
    """Exact value of a doubly terminating Kampe de Feriet series.

    Terms outside the support of the joint numerator factors vanish through
    a zero numerator and are skipped before any division; a zero denominator
    under a nonzero numerator raises PoleError.  A zero argument truncates
    its index on its own.
    """
    l_max = 0 if spec.x == 0 else _cutoff(spec.joint_num + spec.left_num)
    m_max = 0 if spec.y == 0 else _cutoff(spec.joint_num + spec.right_num)
    if l_max is None or m_max is None:
        raise NonTerminatingSeriesError("both summation indices must be cut off by a nonpositive integer")
    total = Fraction(0)
    for l in range(l_max + 1):
        for m in range(m_max + 1):
            top = Fraction(1)
            for a in spec.joint_num:
                top *= pochhammer(a, l + m)
            for b in spec.left_num:
                top *= pochhammer(b, l)
            for c in spec.right_num:
                top *= pochhammer(c, m)
            if top == 0:
                continue
            bottom = Fraction(math.factorial(l)) * math.factorial(m)
            for d in spec.joint_den:
                bottom *= pochhammer(d, l + m)
            for e in spec.left_den:
                bottom *= pochhammer(e, l)
            for f in spec.right_den:
                bottom *= pochhammer(f, m)
            if bottom == 0:
                raise PoleError(f"denominator pochhammer vanishes at (l, m) = ({l}, {m})")
            total += top * spec.x**l * spec.y**m / bottom
    return total


def check_chu_vandermonde(a, b, n) -> bool:
    """(a+b)_n == sum_k C(n,k) (a)_k (b)_{n-k}, exactly; n must be a nonnegative integer."""
    a = as_fraction(a)
    b = as_fraction(b)
    order = as_fraction(n)
    if order.denominator != 1 or order < 0:
        raise ValueError(f"chu-vandermonde order must be a nonnegative integer, got {order}")
    n = order.numerator
    rhs = sum(Fraction(math.comb(n, k)) * pochhammer(a, k) * pochhammer(b, n - k) for k in range(n + 1))
    return pochhammer(a + b, n) == rhs


def _rational_gamma_quotient(positive, negative) -> Fraction:
    """prod Gamma(p) / prod Gamma(q) when the quotient cancels to a rational."""
    product = GammaProduct.from_factors(
        [(p, 1) for p in positive] + [(q, -1) for q in negative]
    )
    rational, leftover = product.reduce()
    if not leftover.is_one():
        raise PreconditionError(f"gamma prefactor does not reduce to a rational: {leftover}")
    return rational


def check_kummer(a1, a2, a3, b1, b2) -> bool:
    """Kummer's transformation of a terminating 3F2 at unit argument.

    a1 must be a nonpositive integer; this terminates both sides and turns
    the gamma prefactor into an exact rational.
    """
    a1, a2, a3, b1, b2 = (as_fraction(v) for v in (a1, a2, a3, b1, b2))
    if not is_nonpositive_integer(a1):
        raise PreconditionError("a1 must be a nonpositive integer")
    lhs = pfq((a1, a2, a3), (b1, b2), 1)
    prefactor = _rational_gamma_quotient(
        (b2, b1 + b2 - a1 - a2 - a3), (b2 - a1, b1 + b2 - a2 - a3)
    )
    rhs = prefactor * pfq((a1, b1 - a2, b1 - a3), (b1, b1 + b2 - a2 - a3), 1)
    return lhs == rhs


def check_rakha_rathie(alpha, lam, eps, beta, gamma, mu, delta) -> bool:
    """Reduction of a two-variable double sum at (1, 1) to a 4F3.

    alpha must be a nonpositive integer so the double sum and the 4F3 both
    terminate.
    """
    alpha, lam, eps, beta, gamma, mu, delta = (
        as_fraction(v) for v in (alpha, lam, eps, beta, gamma, mu, delta)
    )
    if not is_nonpositive_integer(alpha):
        raise PreconditionError("alpha must be a nonpositive integer")
    lhs = eval_kdf(KampeDeFerietSpec.of(
        joint_num=(alpha, lam),
        left_num=(eps,),
        right_num=(beta - eps, gamma),
        joint_den=(beta, mu),
        left_den=(),
        right_den=(delta,),
        x=1, y=1,
    ))
    prefactor = _rational_gamma_quotient((mu, mu - alpha - lam), (mu - alpha, mu - lam))
    rhs = prefactor * pfq(
        (alpha, lam, beta - eps, delta - gamma),
        (beta, delta, 1 - mu + alpha + lam),
        1,
    )
    return lhs == rhs


def check_karp_prilepkina(a, f, m, b, k) -> bool:
    """Decomposition of an (r+l+1)F(r+l) at 1 with paired integral offsets.

    The left side has numerator (a, f_j + m_j, b_q) over denominator
    (f_j, b_q + k_q); the right side is a sum of l lower-order series, one
    per b_q.  Requires a nonpositive integer (termination and rational gamma
    ratios), distinct b components, positive k_q, and
    sum(k) - a - sum(m) > 0.  Pairs with m_j = 0 cancel between numerator
    and denominator and are dropped; with l = 0 the right side is the empty
    sum 0.
    """
    a = as_fraction(a)
    f = [as_fraction(v) for v in f]
    m = list(m)
    b = [as_fraction(v) for v in b]
    k = list(k)
    if len(f) != len(m) or len(b) != len(k):
        raise PreconditionError("parameter/offset lists must pair up")
    if not is_nonpositive_integer(a):
        raise PreconditionError("a must be a nonpositive integer")
    if any(mj < 0 for mj in m) or any(kq < 1 for kq in k):
        raise PreconditionError("offsets require m_j >= 0 and k_q >= 1")
    if len(set(b)) != len(b):
        raise PreconditionError("components of b must be distinct")
    if not (sum(k) - a - sum(m) > 0):
        raise PreconditionError("need sum(k) - a - sum(m) > 0")
    pairs = [(fj, mj) for fj, mj in zip(f, m) if mj > 0]
    f = [fj for fj, _ in pairs]
    m = [mj for _, mj in pairs]
    n = -int(a)

    lhs = pfq(
        (a, *(fj + mj for fj, mj in pairs), *b),
        (*f, *(bq + kq for bq, kq in zip(b, k))),
        1,
    )

    total = Fraction(0)
    for q, (bq, kq) in enumerate(zip(b, k)):
        f_tilde = [fj - bq + 1 - kq + mj for fj, mj in zip(f, m)]
        others = [(bj, kj) for j, (bj, kj) in enumerate(zip(b, k)) if j != q]
        coef = Fraction(-1) ** (kq - 1)
        for ftj, mj in zip(f_tilde, m):
            coef *= pochhammer(ftj - mj, mj)
        coef /= Fraction(math.factorial(kq - 1))
        for bj, kj in others:
            coef /= pochhammer(bj - bq - kq + 1, kj)
        # Gamma(b_q + k_q - 1) / Gamma(b_q + k_q - a) with a = -n
        coef /= pochhammer(bq + kq - 1, n + 1)
        inner = pfq(
            (-kq + 1, -bq - kq + 1 + a, *f_tilde, *(bj - (bq + kq - 1) for bj, _ in others)),
            (-bq - kq + 2, *(ftj - mj for ftj, mj in zip(f_tilde, m)),
             *(bj + kj - (bq + kq - 1) for bj, kj in others)),
            1,
        )
        total += coef * inner
    rhs = Fraction(math.factorial(n)) * total
    for bq, kq in zip(b, k):
        rhs *= pochhammer(bq, kq)
    for fj, mj in pairs:
        rhs /= pochhammer(fj, mj)
    return lhs == rhs
