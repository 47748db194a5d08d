"""Exact evaluation of terminating hypergeometric-type sums.

Generalized hypergeometric series and their two-variable Kampe de Feriet
extension are evaluated as exact finite rational sums: a series is accepted
only when a nonpositive-integer numerator parameter truncates it.  The
transformation identities of the ``identity`` command (Chu-Vandermonde, the
3F2 Kummer transformation, the Rakha-Rathie reduction of a Kampe de Feriet
double sum, the Karp-Prilepkina decomposition, and the discrete Mellin
inversion on the Hahn lattice) are boolean checkers that compare both sides
exactly; each series identity restricts one parameter to a nonpositive
integer so that every gamma prefactor cancels to an exact rational under
:meth:`GammaProduct.reduce`.  :func:`pfq` and
:func:`kdf` serve only these checkers: the generators and the verify
checks build their series as integer term-ratio rows
(:func:`mopexact.gammaprod.ratio_row`).  The two stay plain Fraction loops,
one term at a time, on purpose: the tests compare the term-ratio rows
against them, and rebuilt on ``ratio_row`` they would compare that code
with itself.  The random parameter draws the command checks them on live
here too.  No module on the verify path imports this one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import AdmissibilityError, NonTerminatingSeriesError, PoleError, PreconditionError
from .gammaprod import GammaProduct, as_fraction, is_nonpositive_integer, pochhammer
from .weights import Family


def _cutoff(params) -> int | None:
    """Smallest forced truncation order among nonpositive-integer parameters."""
    orders = [-int(a) for a in params if is_nonpositive_integer(a)]
    return min(orders) if orders else None


def pfq(numerator, denominator, argument) -> Fraction:
    """Exact value of a terminating pFq series.

    Raises NonTerminatingSeriesError when no numerator parameter truncates
    the sum, and PoleError when a denominator Pochhammer vanishes inside the
    summed range (a zero denominator is a hard parameter error, never a
    silently skipped term).
    """
    numerator = tuple(as_fraction(a) for a in numerator)
    denominator = tuple(as_fraction(d) for d in denominator)
    argument = as_fraction(argument)
    order = _cutoff(numerator)
    if order is None:
        raise NonTerminatingSeriesError(f"no nonpositive-integer numerator parameter in {numerator}")
    total = Fraction(1)
    term = Fraction(1)
    for l in range(order):
        top = Fraction(1)
        for a in numerator:
            top *= a + l
        bottom = Fraction(l + 1)
        for d in denominator:
            bottom *= d + l
        if bottom == 0:
            raise PoleError(f"denominator pochhammer vanishes at term {l + 1} of {denominator}")
        term = term * top * argument / bottom
        total += term
    return total


def kdf(joint_num, left_num, right_num, joint_den, left_den, right_den, x, y) -> Fraction:
    """Exact value of a doubly terminating Kampe de Feriet series.

    Joint parameters enter as (a)_{l+m}; the left groups follow the first
    summation index l, the right groups the second index m.  Both indices
    must be cut off by a nonpositive integer in the joint or the matching
    one-sided numerator group; a zero argument truncates its index on its
    own.  Terms outside the support of the joint numerator factors vanish
    through a zero numerator and are skipped before any division; a zero
    denominator under a nonzero numerator raises PoleError.
    """
    joint_num, left_num, right_num, joint_den, left_den, right_den = (
        tuple(as_fraction(v) for v in group)
        for group in (joint_num, left_num, right_num, joint_den, left_den, right_den)
    )
    x, y = as_fraction(x), as_fraction(y)
    l_max = 0 if x == 0 else _cutoff(joint_num + left_num)
    m_max = 0 if y == 0 else _cutoff(joint_num + right_num)
    if l_max is None or m_max is None:
        raise NonTerminatingSeriesError("both summation indices must be cut off by a nonpositive integer")
    total = Fraction(0)
    for l in range(l_max + 1):
        for m in range(m_max + 1):
            top = Fraction(1)
            for a in joint_num:
                top *= pochhammer(a, l + m)
            for b in left_num:
                top *= pochhammer(b, l)
            for c in right_num:
                top *= pochhammer(c, m)
            if top == 0:
                continue
            bottom = Fraction(math.factorial(l)) * math.factorial(m)
            for d in joint_den:
                bottom *= pochhammer(d, l + m)
            for e in left_den:
                bottom *= pochhammer(e, l)
            for f in right_den:
                bottom *= pochhammer(f, m)
            if bottom == 0:
                raise PoleError(f"denominator pochhammer vanishes at (l, m) = ({l}, {m})")
            total += top * x**l * y**m / bottom
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
    lhs = kdf(
        joint_num=(alpha, lam),
        left_num=(eps,),
        right_num=(beta - eps, gamma),
        joint_den=(beta, mu),
        left_den=(),
        right_den=(delta,),
        x=1, y=1,
    )
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


def check_discrete_mellin_inversion(ws, values) -> bool:
    """Exact lattice inversion of the discrete transform for arbitrary data on the Hahn lattice of ws.

    The pole sum of the inversion kernel collapses to the double sum
    sum_{k<=x} sum_{l=k}^{x} f(k)/k! (-1)^{l-k}/(l-k)! x!/(x-l)!, that is
    f(k) (-1)^{l-k} C(x, l) C(l, k), which must reproduce f(x) at every lattice point.
    """
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("the lattice inversion is a Hahn-side check")
    values = [as_fraction(v) for v in values]
    if len(values) != ws.N + 1:
        raise PreconditionError(f"need one value per lattice point, got {len(values)}")
    return all(sum((values[k] * (-1) ** (l - k) * math.comb(x, l) * math.comb(l, k)
                    for k in range(x + 1) for l in range(k, x + 1)), Fraction(0)) == values[x]
               for x in range(ws.N + 1))


# --- identity draw samplers -------------------------------------------------
#
# Each slot draws from its own prime denominator with a numerator coprime to
# it, so every mixed sum or difference the identities put inside a Pochhammer
# or gamma argument stays a non-integer: draws are automatically admissible
# (no factor can vanish inside the terminating range, no gamma pole).

def _offset_fraction(rng: random.Random, den: int, lo: int = 0, hi: int = 3) -> Fraction:
    residue = rng.choice([r for r in range(1, den) if math.gcd(r, den) == 1])
    return rng.randint(lo, hi) + Fraction(residue, den)


def draw_chu_vandermonde(rng: random.Random) -> tuple:
    a = Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5)))
    b = Fraction(rng.randint(-9, 9), rng.choice((3, 5, 7)))
    return a, b, rng.randint(0, 12)


def draw_kummer(rng: random.Random) -> tuple:
    a1 = -rng.randint(0, 3)
    a2 = _offset_fraction(rng, 3)
    a3 = _offset_fraction(rng, 5)
    b1 = _offset_fraction(rng, 7)
    b2 = _offset_fraction(rng, 11)
    return a1, a2, a3, b1, b2


def draw_rakha_rathie(rng: random.Random) -> tuple:
    alpha = -rng.randint(0, 2)
    lam = _offset_fraction(rng, 3)
    eps = _offset_fraction(rng, 5)
    beta = _offset_fraction(rng, 7)
    gamma = _offset_fraction(rng, 11)
    mu = _offset_fraction(rng, 13)
    delta = _offset_fraction(rng, 4)
    return alpha, lam, eps, beta, gamma, mu, delta


def draw_karp_prilepkina(rng: random.Random) -> tuple:
    r = rng.randint(0, 2)
    l = rng.randint(0 if r else 1, 2)
    f = [_offset_fraction(rng, den) for den in (4, 9)[:r]]
    m = [rng.randint(1, 2) for _ in range(r)]
    b = [_offset_fraction(rng, den) for den in (2, 3)[:l]]
    k = [rng.randint(1, 2) for _ in range(l)]
    floor = max(1, sum(m) - sum(k) + 1)
    a = -(floor + rng.randint(0, 2))
    return a, f, m, b, k


def kp_orthogonality_instances(ws, n) -> list[tuple]:
    """The exact parameter identifications used for the summation rows of the Hahn weight system ws.

    For every admissible row j the summand-recombination step instantiates
    the decomposition identity with these (a, f, m, b, k); pairs with m = 0
    degenerate away inside the checker.
    """
    total = sum(n)
    alpha, beta, N = ws.alpha, ws.beta, ws.N
    out = []
    for j in range(total - 1):
        out.append((
            -n[0] + 1,
            [alpha[0] + beta + N + 2, alpha[0] + beta + 2 + j],
            [j, total - 2 - j],
            [alpha[0] - alpha[q] - n[q] + 1 for q in range(1, ws.p)],
            [n[q] for q in range(1, ws.p)],
        ))
    out.append((
        -n[0] + 1,
        [alpha[0] + beta + N + 2],
        [total - 1],
        [alpha[0] + beta + total] + [alpha[0] - alpha[q] - n[q] + 1 for q in range(1, ws.p)],
        [1] + [n[q] for q in range(1, ws.p)],
    ))
    return out
