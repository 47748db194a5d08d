"""Closed-form coefficient generators for the three polynomial families.

Type II polynomials are produced from their nested finite sums: monic of
degree |n| in the monomial basis for the continuous families, and in the
falling-factorial basis (-x)_k for Hahn (still monic once converted to
monomials).  Type I vectors come from the terminating one-index series for
each component: monomial coefficients with a gamma scale for Laguerre and
Jacobi-Pineiro, and rational coefficients in the shifted rising basis
(x + alpha_i + 1)_l for Hahn.

Component i of a type I vector is defined as the zero polynomial whenever
n_i = 0; the closed forms contain (n_i - 1)! and are invoked only for
n_i >= 1.  The remaining components then solve the reduced system in which
the idle weights drop out, because every factor tied to an idle weight
cancels between numerator and denominator parameters.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import AdmissibilityError, PoleError, PreconditionError
from .gammaprod import GammaProduct, pochhammer, rising_row
from .polybasis import Basis, ScaledPolynomial, TypeIVector
from .weights import Family, MultiIndex, WeightSystem, total_degree


def _suffix_sums(values) -> list[int]:
    out = [0] * (len(values) + 1)
    for q in range(len(values) - 1, -1, -1):
        out[q] = out[q + 1] + values[q]
    return out


def _type2_coefficients(ws: WeightSystem, n: MultiIndex) -> list[Fraction]:
    """Coefficients of the nested type II sum, collected by total degree.

    Index q runs over weights; with T_q = l_q + ... + l_p and
    S_q = n_1 + ... + n_q, the term of the multi-sum is
        prod_q (-n_q)_{l_q}/l_q!
        * prod_{q<p} (alpha_q + n_q + 1)_{T_{q+1}} / prod_q (alpha_q + 1)_{T_q}
        * [JP, Hahn] prod_q (a_q + beta + S_q + 1)_{T_q} / prod_{q<p} (a_q + beta + S_q + 1)_{T_{q+1}}
        * [Hahn] (-N)_{|n|} / (-N)_{T_1}
    attached to degree T_1 of the family basis.  Every factor is read from
    rows over T = 0..|n| built once per call: head[q][T] collects the
    factors at T_q and tail[q][T] those at T_{q+1}.  An idle weight
    (n_q = 0) has l_q = 0, so T_q = T_{q+1} and its head and tail factors
    cancel; they are left out, because (a_q + beta + S_q + 1)_T can vanish
    there and make the cancellation a 0/0.
    """
    p = ws.p
    alpha = ws.alpha
    total = total_degree(n)
    prefix = list(itertools.accumulate(n))
    head, tail = [], []
    for q in range(p):
        if n[q] == 0:
            head.append([1] * (total + 1))
            tail.append([1] * (total + 1))
            continue
        down = rising_row(alpha[q] + 1, total + 1)
        up = rising_row(alpha[q] + n[q] + 1, total + 1)
        if ws.family is Family.LAGUERRE_FIRST_KIND:
            head.append([1 / d for d in down])
            tail.append(up)
        else:
            shifted = rising_row(alpha[q] + ws.beta + prefix[q] + 1, total + 1)
            head.append([s / d for s, d in zip(shifted, down)])
            tail.append([u / s for u, s in zip(up, shifted)])
    if ws.family is Family.HAHN:
        lattice = rising_row(-ws.N, total + 1)
        head[0] = [h * lattice[total] / f for h, f in zip(head[0], lattice)]
    signed_binomials = [[(-1) ** l * math.comb(nq, l) for l in range(nq + 1)] for nq in n]
    coeffs = [Fraction(0)] * (total + 1)
    for lvec in itertools.product(*(range(nq + 1) for nq in n)):
        tails = _suffix_sums(lvec)
        term = Fraction(1)
        for q in range(p):
            term *= signed_binomials[q][lvec[q]] * head[q][tails[q]]
            if q < p - 1:
                term *= tail[q][tails[q + 1]]
        coeffs[tails[0]] += term
    return coeffs


def type2(ws: WeightSystem, n: MultiIndex) -> ScaledPolynomial:
    """Monic type II polynomial: monomial basis, falling factorials (-x)_k for Hahn.

    The multi-sum of :func:`_type2_coefficients` times (-1)^|n| (not for
    Hahn) prod_q (alpha_q+1)_{n_q} / prod_q (alpha_q+beta+|n|+1)_{n_q} (not
    for Laguerre).  The Hahn polynomial is monic in that its leading
    monomial coefficient is 1.
    """
    ws.validate_index(n)
    total = total_degree(n)
    prefactor = Fraction(1) if ws.family is Family.HAHN else Fraction(-1) ** total
    for q in range(ws.p):
        prefactor *= pochhammer(ws.alpha[q] + 1, n[q])
        if ws.family is not Family.LAGUERRE_FIRST_KIND:
            prefactor /= pochhammer(ws.alpha[q] + ws.beta + total + 1, n[q])
    basis = Basis.falling_factorial() if ws.family is Family.HAHN else Basis.monomial()
    return ScaledPolynomial(basis, tuple(prefactor * c for c in _type2_coefficients(ws, n)))


def type1_scale(ws: WeightSystem, i: int, total: int) -> GammaProduct:
    """Canonical gamma scale of type I component i at total degree |n|.

    Chosen so that pairing the component with the weight moments is exactly
    rational: 1/Gamma(alpha_i+1) for Laguerre,
    Gamma(alpha_i+beta+|n|) / (Gamma(beta+|n|) Gamma(alpha_i+1)) for
    Jacobi-Pineiro, and the empty product for Hahn (whose normalized weights
    are already rational on the lattice).
    """
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        return GammaProduct.gamma(ws.alpha[i] + 1, -1)
    if ws.family is Family.JACOBI_PINEIRO:
        return GammaProduct.from_factors([
            (ws.alpha[i] + ws.beta + total, 1),
            (ws.beta + total, -1),
            (ws.alpha[i] + 1, -1),
        ])
    return GammaProduct.one()


def type1_basis(ws: WeightSystem, i: int) -> Basis:
    if ws.family is Family.HAHN:
        return Basis.shifted_rising(ws.alpha[i] + 1)
    return Basis.monomial()


def _guard_type1_normalization(ws: WeightSystem, n: MultiIndex) -> None:
    """Reject the degenerate corner alpha_i + beta + |n| = 0 for Jacobi-Pineiro.

    Reachable only at |n| = 1 with alpha_i + beta = -1: the coefficient
    formula vanishes against a gamma pole in the scale, so the value exists
    only as a limit and leaves the exact rational-times-gamma-product
    calculus.  (The Hahn analogue cancels rationally and is supported.)
    """
    if ws.family is not Family.JACOBI_PINEIRO:
        return
    total = total_degree(n)
    for i in range(ws.p):
        if n[i] >= 1 and ws.alpha[i] + ws.beta + total == 0:
            raise PoleError(
                f"degenerate type I normalization: alpha_{i} + beta + |n| = 0"
            )


def _type1_component_coefficients(ws: WeightSystem, n: MultiIndex, i: int) -> list[Fraction]:
    """Rational coefficients of type I component i (requires n_i >= 1)."""
    alpha = ws.alpha
    total = total_degree(n)
    prefactor = Fraction(-1) ** (total - 1) / math.factorial(n[i] - 1)
    for j in range(ws.p):
        if j != i:
            prefactor /= pochhammer(alpha[j] - alpha[i], n[j])
    if ws.family is Family.JACOBI_PINEIRO:
        for j in range(ws.p):
            prefactor *= pochhammer(alpha[j] + ws.beta + total, n[j])
    if ws.family is Family.HAHN:
        for j in range(ws.p):
            if j != i:
                prefactor *= pochhammer(alpha[j] + ws.beta + total, n[j])
        prefactor *= math.factorial(ws.N + 1 - total)
        prefactor /= pochhammer(ws.beta + 1, total - 1)
        # (a)_{n_i} / (a)_{N+2-|n|} with a = alpha_i+beta+|n|, cancelled so the
        # boundary a = 0 (reachable only at |n| = 1) stays finite and exact
        prefactor /= pochhammer(alpha[i] + ws.beta + total + n[i], ws.N + 2 - total - n[i])

    coeffs = []
    for k in range(n[i]):
        term = pochhammer(-n[i] + 1, k) / math.factorial(k) / pochhammer(alpha[i] + 1, k)
        for j in range(ws.p):
            if j != i:
                term *= pochhammer(alpha[i] - alpha[j] - n[j] + 1, k)
                term /= pochhammer(alpha[i] - alpha[j] + 1, k)
        if ws.family is not Family.LAGUERRE_FIRST_KIND:
            term *= pochhammer(alpha[i] + ws.beta + total, k)
        if ws.family is Family.HAHN:
            term /= pochhammer(alpha[i] + ws.beta + ws.N + 2, k)
        coeffs.append(prefactor * term)
    return coeffs


def type1(ws: WeightSystem, n: MultiIndex) -> TypeIVector:
    """Type I vector; component i is the zero polynomial when n_i = 0.

    Components are monomial with the gamma scales of :func:`type1_scale`
    for Laguerre and Jacobi-Pineiro, and in the shifted rising basis
    (x + alpha_i + 1)_k with a rational scale for Hahn.
    """
    ws.validate_index(n, type_one=True)
    _guard_type1_normalization(ws, n)
    components = []
    for i in range(ws.p):
        coeffs = _type1_component_coefficients(ws, n, i) if n[i] >= 1 else []
        components.append(ScaledPolynomial(
            type1_basis(ws, i), tuple(coeffs), type1_scale(ws, i, total_degree(n))
        ))
    return TypeIVector(tuple(components))


def hahn_type1_p2_kdf(ws: WeightSystem, n: MultiIndex, i: int) -> tuple[Fraction, ...]:
    """Two-weight Hahn type I component i at x = 0..N via its double-sum representation.

    Only defined for p = 2.  The terminating Kampe de Feriet double series
    (a = alpha_i, a^ = alpha_other, likewise for n)
        sum_{l,m} (1-n_i)_{l+m} (-N)_{l+m} / ((2-|n|)_{l+m} (a^+beta+n^+1)_{l+m}) * (a^-a-n_i+1)_l / l!
                  * (a+beta+|n|)_m (a-a^-n^+1)_m / ((a+1)_m (-N)_m) * (-x)_m / m!
    is an independent route to the values of the shifted-rising expansion.
    Only (-x)_m / m! = (-1)^m C(x, m) depends on x, so the inner sums c_m over
    l (which stops at n_i - 1 - m) are built once and entry x is the
    prefactor times sum_m c_m C(x, m).
    """
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    if ws.p != 2:
        raise PreconditionError("the double-series form exists for p = 2 only")
    ws.validate_index(n, type_one=True)
    if min(n) < 1:
        raise AdmissibilityError("both component degrees must be >= 1")
    other = 1 - i
    a_i, a_hat = ws.alpha[i], ws.alpha[other]
    n_i, n_hat = n[i], n[other]
    beta, N = ws.beta, ws.N
    tot = n_i + n_hat

    prefactor = Fraction(-1) ** (n_i - 1)
    prefactor *= math.factorial(N + 1 - tot) * math.factorial(tot - 2)
    prefactor /= math.factorial(n_i - 1) * math.factorial(n_hat - 1)
    prefactor /= pochhammer(beta + 1, tot - 1)
    prefactor /= pochhammer(a_i + beta + tot + n_i, N + 1 - tot)
    prefactor *= pochhammer(a_hat + beta + n_hat + 1, tot - 1)
    prefactor /= pochhammer(a_i - a_hat - n_hat + 1, tot - 1)

    def row(a):
        return rising_row(a, n_i)

    joint = [u * v / (w * z) for u, v, w, z in zip(
        row(1 - n_i), row(-N), row(2 - tot), row(a_hat + beta + n_hat + 1))]
    left = [b / math.factorial(l) for l, b in enumerate(row(a_hat - a_i - n_i + 1))]
    right = [(-1) ** m * u * v / (w * z) for m, (u, v, w, z) in enumerate(zip(
        row(a_i + beta + tot), row(a_i - a_hat - n_hat + 1), row(a_i + 1), row(-N)))]
    inner = [
        r * sum((joint[l + m] * left[l] for l in range(n_i - m)), Fraction(0))
        for m, r in enumerate(right)
    ]
    return tuple(
        prefactor * sum((math.comb(x, m) * c for m, c in enumerate(inner)), Fraction(0))
        for x in range(N + 1)
    )


def hahn_type2_weighted_series(ws: WeightSystem, n: MultiIndex) -> tuple[Fraction, ...]:
    """Weighted type II lattice values at x = 0..N via their terminating series, exactly.

    Entry x is the rational r with Q(x) * Gamma(N-x+beta+1)/Gamma(N-x+1)
    equal to r * Gamma(beta+1); equivalently r = Q(x) * (beta+1)_{N-x} / (N-x)!.
    It is the prefactor times sum_{l<=x} (-x)_l/l! c_l, where (-x)_l/l! is
    (-1)^l C(x, l) and c_l = (-beta-|n|)_l/(-beta-N)_l prod_i
    (alpha_i+n_i+1)_l/(alpha_i+1)_l does not depend on x: prefactor and c_l
    are built once, c_l by its term ratio.
    """
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    ws.validate_index(n)
    total = total_degree(n)
    prefactor = Fraction(-1) ** total * pochhammer(ws.beta + 1, ws.N) / math.factorial(ws.N - total)
    for i in range(ws.p):
        prefactor *= pochhammer(ws.alpha[i] + 1, n[i])
        prefactor /= pochhammer(ws.alpha[i] + ws.beta + total + 1, n[i])
    series = [Fraction(1)]
    for l in range(ws.N):
        ratio = (-ws.beta - total + l) / (-ws.beta - ws.N + l)
        for i in range(ws.p):
            ratio *= (ws.alpha[i] + n[i] + 1 + l) / (ws.alpha[i] + 1 + l)
        series.append(series[-1] * ratio)
    return tuple(
        prefactor * sum(((-1) ** l * math.comb(x, l) * c for l, c in enumerate(series[:x + 1])), Fraction(0))
        for x in range(ws.N + 1)
    )


def hahn_jp_coefficient_relation(ws_hahn: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> bool:
    """Coefficientwise bridge between Hahn and Jacobi-Pineiro type II.

    With Q the given Hahn polynomial in (-x)_k and P (same alpha, beta) in
    x^k, checks Q[k] == (-1)^k (N-k)!/(N-|n|)! P[k] for every k.
    """
    if ws_hahn.family is not Family.HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    ws_hahn.validate_index(n)
    p = type2(WeightSystem.jacobi_pineiro(ws_hahn.alpha, ws_hahn.beta), n).coefficients
    total = total_degree(n)
    N = ws_hahn.N
    for k in range(total + 1):
        expected = Fraction(-1) ** k * math.factorial(N - k) / math.factorial(N - total) * p[k]
        if poly.coefficients[k] != expected:
            return False
    return True
