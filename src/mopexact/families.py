"""Closed-form coefficient generators for the three polynomial families.

Type II polynomials are produced from their nested finite sums: monic of
degree |n| in the monomial basis for the continuous families, and in the
falling-factorial basis (-x)_k for Hahn (still monic once converted to
monomials).  Type I vectors come from the terminating one-index series for
each component: monomial coefficients for Laguerre and Jacobi-Pineiro, read
against the gamma scale :func:`type1_scale` fixes by family, weight and |n|,
and rational coefficients in the shifted rising basis (x + alpha_i + 1)_l for
Hahn, whose scale is empty.  Every closed-form row, here and in the
Hahn-only cross checks, is an integer row (:mod:`mopexact.gammaprod`) built
by its term ratio (:func:`~mopexact.gammaprod.ratio_row`), with parameters
over the one denominator Q: a polynomial carries it as its row, and a cross
check compares it with the admitted row coefficient by coefficient, or as
Newton coefficients Delta^m at 0 read off the coefficients, never past order |n|.
Each prefactor is one :func:`~mopexact.gammaprod.rising_product`, and the
type II sum Hahn shares with Jacobi-Pineiro is built once per instance.  The
admissions :func:`type2_row` and :func:`type1_rows` keep the object they admitted
last, with its n and row(s), as :meth:`WeightSystem.validate_index` keeps n.

Component i of a type I vector is defined as the zero polynomial whenever
n_i = 0; the closed forms contain (n_i - 1)! and are invoked only for
n_i >= 1.  The remaining components then solve the reduced system in which
the idle weights drop out, because every factor tied to an idle weight
cancels between numerator and denominator parameters.
"""

from __future__ import annotations

import itertools
import math

from .errors import AdmissibilityError, PreconditionError
from .gammaprod import GammaProduct, LatticeRow, ratio_row, reduced_row, rising, rising_product
from .polybasis import Basis, BasisKind, ScaledPolynomial, TypeIVector
from .weights import HAHN, JACOBI_PINEIRO, LAGUERRE, MultiIndex, WeightSystem, total_degree


def _type2_coefficients(ws: WeightSystem, n: MultiIndex) -> tuple[list[int], int]:
    """Coefficients of the nested type II sum, collected by total degree, over one denominator.

    Index q runs over weights; with T_q = l_q + ... + l_p and
    S_q = n_1 + ... + n_q, the term of the multi-sum is
        prod_q (-n_q)_{l_q}/l_q!
        * prod_{q<p} (alpha_q + n_q + 1)_{T_{q+1}} / prod_q (alpha_q + 1)_{T_q}
        * [JP, Hahn] prod_q (a_q + beta + S_q + 1)_{T_q} / prod_{q<p} (a_q + beta + S_q + 1)_{T_{q+1}}
    attached to degree T_1 of the family basis; Hahn shares the Jacobi-Pineiro sum.  Weight q contributes an
    integer head row (its factors at T_q) and tail row (at T_{q+1}), and the sum runs from the last weight to
    the first: acc[T] sums the terms of weights q.. with T_q = T, over the product of the rows' denominators.
    An idle weight (n_q = 0) has l_q = 0, so T_q = T_{q+1} and its head and tail factors cancel; it is
    skipped, because (a_q + beta + S_q + 1)_T can vanish there and make the cancellation a 0/0.
    """
    Q, alpha, beta = ws.integer_parameters
    total = total_degree(n)
    prefix = list(itertools.accumulate(n))
    acc, den = [1] + [0] * total, 1
    for q in reversed(range(ws.p)):
        if n[q] == 0:
            continue
        rest = total - prefix[q]
        shifted = [] if ws.family is LAGUERRE else [alpha[q] + beta + (prefix[q] + 1) * Q]
        head, head_den = ratio_row(shifted, [alpha[q] + Q], rest + n[q] + 1, Q)
        tail, tail_den = ratio_row([alpha[q] + (n[q] + 1) * Q], shifted, rest + 1, Q)
        signed_binomials = [(-1) ** l * math.comb(n[q], l) for l in range(n[q] + 1)]
        out = [0] * (total + 1)
        for t in range(rest + 1):
            value = acc[t] * tail[t]
            for l, b in enumerate(signed_binomials):
                out[t + l] += b * head[t + l] * value
        acc, den = out, den * head_den * tail_den
    return acc, den


def _type2_sum(ws: WeightSystem, n: MultiIndex) -> tuple[list[int], int]:
    """:func:`_type2_coefficients` times prod_q (alpha_q+1)_{n_q} / prod_q (alpha_q+beta+|n|+1)_{n_q} (not for Laguerre),
    kept once per weight system and n: the Hahn polynomial and :func:`hahn_jp_coefficient_relation` read one row."""
    def build():
        (Q, alpha, beta), shifted = ws.integer_parameters, ws.family is not LAGUERRE
        top, bottom = rising_product(Q, [(a + Q, ni) for a, ni in zip(alpha, n)],
                                     [(a + beta + (total_degree(n) + 1) * Q, ni) for a, ni in zip(alpha, n) if shifted])
        nums, den = _type2_coefficients(ws, n)
        return [top * v for v in nums], den * bottom
    return ws.kept(("type2_sum", n), build)


def type2(ws: WeightSystem, n: MultiIndex) -> ScaledPolynomial:
    """Monic type II polynomial: monomial basis, falling factorials (-x)_k for Hahn.  The row of :func:`_type2_sum`
    times (-1)^|n|, or for Hahn term T times (-N)_{|n|} / (-N)_T: its leading monomial coefficient is 1."""
    n = ws.validate_index(n)
    total, hahn = total_degree(n), ws.family is HAHN
    nums, den = _type2_sum(ws, n)
    if hahn:  # (-N)_{|n|} / (-N)_T = prod_{T<=l<|n|} (l - N)
        nums = [v * math.prod(range(t - ws.N, total - ws.N)) for t, v in enumerate(nums)]
    return ScaledPolynomial(Basis.falling_factorial() if hahn else Basis.monomial(),
                            row=(nums, -den if total % 2 and not hahn else den))


def type1_scale(ws: WeightSystem, i: int, total: int) -> GammaProduct:
    """Canonical gamma scale of type I component i at total degree |n|.

    Every type I component's coefficients are read against it: pairing them
    with the weight moments is then exactly rational.  It is 1/Gamma(alpha_i+1)
    for Laguerre, Gamma(alpha_i+beta+|n|) / (Gamma(beta+|n|) Gamma(alpha_i+1))
    for Jacobi-Pineiro, and the empty product for Hahn (whose normalized
    weights are already rational on the lattice).  Only the output edge builds it.
    """
    if ws.family is HAHN:
        return GammaProduct.one()
    factors = [(ws.alpha[i] + 1, -1)]
    if ws.family is JACOBI_PINEIRO:
        factors += [(ws.alpha[i] + ws.beta + total, 1), (ws.beta + total, -1)]
    return GammaProduct.from_factors(factors)


def type1_basis(ws: WeightSystem, i: int) -> Basis:
    """Basis of type I component i, built once per weight system and weight."""
    if ws.family is HAHN:
        Q, alpha, _ = ws.integer_parameters
        return ws.kept(("type1_basis", i), lambda: Basis.shifted_rising(alpha[i] + Q, Q))
    return Basis.monomial()


def _admitted(ws: WeightSystem, slot: str, obj, n: MultiIndex, admit):
    """admit(ws, n, obj), kept with obj and n as :meth:`WeightSystem.validate_index` keeps n: the same object again
    costs one identity test, an equal but distinct one (a fault's bumped copy) is admitted afresh, a refused one not kept."""
    kept = ws.__dict__.get(slot)
    if kept is not None and kept[0] is obj and kept[1] is n:
        return kept[2]
    rows = admit(ws, n, obj)
    ws.__dict__[slot] = obj, n, rows
    return rows


def type2_row(ws: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> LatticeRow:
    """The one admission of a type II polynomial for (ws, n): nonzero, of degree at most |n| and in the family basis,
    falling factorials (-x)_k for Hahn and monomials otherwise, or PreconditionError.  Its row, as exactly |n|+1 numerators.
    """
    return _admitted(ws, "_type2_row", poly, ws.validate_index(n), _admit_type2)


def _admit_type2(ws: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> LatticeRow:
    hahn, total, (nums, den) = ws.family is HAHN, total_degree(n), poly.row
    if poly.basis.kind is not (BasisKind.FALLING_FACTORIAL if hahn else BasisKind.MONOMIAL):
        raise PreconditionError("Hahn type II polynomials live in the falling-factorial basis" if hahn
                                else "continuous type II polynomials live in the monomial basis")
    if not any(nums) or any(nums[total + 1:]):
        raise PreconditionError(f"type II at |n| = {total} takes a nonzero polynomial of degree <= {total}, not {poly.degree}")
    return poly.row if len(nums) == total + 1 else ((*nums, *[0] * total)[:total + 1], den)


def type1_rows(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> tuple[LatticeRow, ...]:
    """The one admission of a type I vector for (ws, n): one component per weight, component i of degree below n_i
    (zero when n_i = 0) and, unless zero, in :func:`type1_basis`, or PreconditionError.  Row i has exactly n_i numerators.
    """
    return _admitted(ws, "_type1_rows", vec, ws.validate_index(n, type_one=True), _admit_type1)


def _admit_type1(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> tuple[LatticeRow, ...]:
    if len(vec.components) != ws.p:
        raise PreconditionError(f"a type I vector has one component per weight, p = {ws.p}, not {len(vec.components)}")
    # each basis as (kind, shift), once per weight system: compared field by field, about 15x cheaper than ==
    shapes = ws.kept("type1_shapes", lambda: [(b.kind, b.shift) for b in map(type1_basis, [ws] * ws.p, range(ws.p))])
    rows = []
    for i, (comp, m, shape) in enumerate(zip(vec.components, n, shapes)):
        nums, den = comp.row
        if any(nums[m:]):
            raise PreconditionError(f"component {i} has degree {comp.degree}, above n_i - 1 = {m - 1}")
        if any(nums) and (comp.basis.kind, comp.basis.shift) != shape:
            raise PreconditionError(f"Hahn type I component {i} lives in the shifted rising basis (x + alpha_{i} + 1)_k"
                                    if ws.family is HAHN else "continuous type I components live in the monomial basis")
        rows.append(comp.row if len(nums) == m else ((*nums, *[0] * m)[:m], den))
    return tuple(rows)


def _type1_factors(ws: WeightSystem, n: MultiIndex) -> tuple[list, list]:
    """Integer pairs (alpha_i+beta+|n|)_{n_i} per weight i and, per i, (alpha_j-alpha_i)_{n_j} over j != i:
    built once per :func:`type1` call for the prefactors of all its components."""
    Q, alpha, beta = ws.integer_parameters
    total = total_degree(n)
    shifted = [rising(a + beta + total * Q, Q, m) for a, m in zip(alpha, n)]
    gaps = [[rising(alpha[j] - a, Q, n[j]) for j in range(ws.p) if j != i] for i, a in enumerate(alpha)]
    return shifted, gaps


def _type1_component_coefficients(ws: WeightSystem, n: MultiIndex, i: int, factors=None) -> tuple[list[int], int]:
    """Coefficients of type I component i (requires n_i >= 1) as integers over one denominator.

    Coefficient k is a prefactor times the term
        (1-n_i)_k / (k! (alpha_i+1)_k) prod_{j!=i} (alpha_i-alpha_j-n_j+1)_k / (alpha_i-alpha_j+1)_k
        * [JP, Hahn] (alpha_i+beta+|n|)_k * [Hahn] / (alpha_i+beta+N+2)_k,
    one integer :func:`ratio_row` over k < n_i.  The prefactor is (-1)^(|n|-1) / (n_i-1)! over
    prod_{j!=i} (alpha_j-alpha_i)_{n_j}, times prod_j (alpha_j+beta+|n|)_{n_j} (JP; j != i for
    Hahn), times (N+1-|n|)! / ((beta+1)_{|n|-1} (a+n_i)_{N+2-|n|-n_i}) for Hahn, a = alpha_i+beta+|n|:
    (a)_{n_i} / (a)_{N+2-|n|} cancelled, so the boundary a = 0 (only at |n| = 1) stays finite.
    """
    Q, alpha, beta = ws.integer_parameters
    total = total_degree(n)
    shifted, gaps = factors or _type1_factors(ws, n)
    others = [j for j in range(ws.p) if j != i]
    ups = [(1 - n[i]) * Q, *(alpha[i] - alpha[j] - (n[j] - 1) * Q for j in others)]
    downs = [Q, alpha[i] + Q, *(alpha[i] - alpha[j] + Q for j in others)]
    picked, lattice = [], []
    if ws.family is not LAGUERRE:
        ups.append(alpha[i] + beta + total * Q)
        picked = [shifted[j] for j in (others if ws.family is HAHN else range(ws.p))]
    top = (-1) ** (total - 1) * math.prod(v for v, _ in picked) * math.prod(d for _, d in gaps[i])
    bottom = math.factorial(n[i] - 1) * math.prod(d for _, d in picked) * math.prod(v for v, _ in gaps[i])
    if ws.family is HAHN:
        top *= math.factorial(ws.N + 1 - total)
        lattice = [(beta + Q, total - 1), (alpha[i] + beta + (total + n[i]) * Q, ws.N + 2 - total - n[i])]
        downs.append(alpha[i] + beta + (ws.N + 2) * Q)
    top, bottom = rising_product(Q, (), lattice, top, bottom)
    nums, den = ratio_row(ups, downs, n[i], Q)
    return [top * v for v in nums], den * bottom


def type1(ws: WeightSystem, n: MultiIndex) -> TypeIVector:
    """Type I vector; component i is the zero polynomial when n_i = 0.

    Components are monomial for Laguerre and Jacobi-Pineiro, read against
    the gamma scales of :func:`type1_scale`, and in the shifted rising basis
    (x + alpha_i + 1)_k for Hahn, whose scale is empty.
    """
    n = ws.validate_index(n, type_one=True)
    factors = _type1_factors(ws, n)
    components = []
    for i in range(ws.p):
        row = _type1_component_coefficients(ws, n, i, factors) if n[i] >= 1 else ((), 1)
        components.append(ScaledPolynomial(type1_basis(ws, i), row=row))
    return TypeIVector(tuple(components))


def _kdf_series(ws: WeightSystem, n: MultiIndex, i: int) -> tuple[int, int, list[int]]:
    """Two-weight Hahn type I component i through its double-sum representation: (top, bottom, inner), the
    component at x being top / bottom * sum_m C(x, m) inner[m], m < n_i.

    Only defined for p = 2.  The terminating Kampe de Feriet double series
    (a = alpha_i, a^ = alpha_other, likewise for n)
        sum_{l,m} (1-n_i)_{l+m} (-N)_{l+m} / ((2-|n|)_{l+m} (a^+beta+n^+1)_{l+m}) * (a^-a-n_i+1)_l / l!
                  * (a+beta+|n|)_m (a-a^-n^+1)_m / ((a+1)_m (-N)_m) * (-x)_m / m!
    is an independent route to the shifted-rising expansion.  Only (-x)_m / m! = (-1)^m C(x, m) depends on x,
    so the inner sums over l < n_i - m are built once from the integer joint, left and right rows
    (:func:`ratio_row`), over their denominators.
    """
    if ws.family is not HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    if ws.p != 2:
        raise PreconditionError("the double-series form exists for p = 2 only")
    if type(i) is not int or i not in (0, 1):
        raise PreconditionError(f"the double-series form has components 0 and 1, not {i!r}")
    n = ws.validate_index(n, type_one=True)
    if min(n) < 1:
        raise AdmissibilityError("both component degrees must be >= 1")
    (Q, alpha, beta), N, tot = ws.integer_parameters, ws.N, n[0] + n[1]
    (a_i, a_hat), (n_i, n_hat) = (alpha[i], alpha[1 - i]), (n[i], n[1 - i])
    top, bottom = rising_product(
        Q, [(a_hat + beta + (n_hat + 1) * Q, tot - 1)],
        [(beta + Q, tot - 1), (a_i + beta + (tot + n_i) * Q, N + 1 - tot), (a_i - a_hat - (n_hat - 1) * Q, tot - 1)],
        (-1) ** (n_i - 1) * math.factorial(N + 1 - tot) * math.factorial(tot - 2),
        math.factorial(n_i - 1) * math.factorial(n_hat - 1))
    joint, joint_den = ratio_row([(1 - n_i) * Q, -N * Q], [(2 - tot) * Q, a_hat + beta + (n_hat + 1) * Q], n_i, Q)
    left, left_den = ratio_row([a_hat - a_i - (n_i - 1) * Q], [Q], n_i, Q)
    right, right_den = ratio_row([a_i + beta + tot * Q, a_i - a_hat - (n_hat - 1) * Q], [a_i + Q, -N * Q], n_i, Q)
    inner = [(-1) ** m * r * sum(joint[l + m] * left[l] for l in range(n_i - m)) for m, r in enumerate(right)]
    return top, joint_den * left_den * right_den * bottom, inner


def hahn_type1_p2_kdf(ws: WeightSystem, n: MultiIndex, i: int) -> LatticeRow:
    """Two-weight Hahn type I component i at x = 0..N via its double series (:func:`_kdf_series`), one reduced row."""
    top, bottom, inner = _kdf_series(ws, n, i)
    return reduced_row([top * sum(math.comb(x, m) * c for m, c in enumerate(inner)) for x in range(ws.N + 1)], bottom)


def hahn_kdf_relation(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> bool:
    """Both components of a two-weight Hahn type I vector against :func:`_kdf_series`, as Newton coefficients.

    Both sides of component i have degree < n_i <= N, so they agree on the lattice exactly when Delta^m at 0
    does for m < n_i: top * inner[m] / bottom for the series, and for the component, as :func:`type1_rows`
    admits it, sum_{k>=m} c_k k!/(k-m)! (s+m)_{k-m}, s = alpha_i + 1, as Delta (x+s)_k = k (x+s+1)_{k-1}:
    one integer Horner pass, s + k = (alpha_i + (k+1)Q) / Q.  No lattice value is built."""
    series, (Q, alpha, _) = [_kdf_series(ws, n, i) for i in range(2)], ws.integer_parameters
    for (nums, den), (top, bottom, inner), a in zip(type1_rows(ws, n, vec), series, alpha):
        for m, c in enumerate(inner):
            acc, power = 0, 1  # den Q^(n_i-1-m) Delta^m at 0, and Q^(n_i-m)
            for k in range(len(nums) - 1, m - 1, -1):
                acc, power = nums[k] * math.perm(k, m) * power + (a + (k + 1) * Q) * acc, power * Q
            if acc * bottom * Q != top * c * den * power:
                return False
    return True


def _type2_series_factors(ws: WeightSystem, n: MultiIndex) -> tuple[tuple[int, int], int, list[int], list[int]]:
    """The type II series as (prefactor, z, ups, downs): term 0 is 1 and term l+1 is term l times z prod_u (u+lQ)/Q
    / prod_d (d+lQ)/Q, so term l is z^l prod_i (alpha_i+n_i+1)_l / (alpha_i+1)_l, times (-beta-|n|)_l (not for
    Laguerre), over (-beta-N)_l (Hahn) and over l!; z is -1 for Laguerre, else 1.  The prefactor, an integer pair,
    is (-1)^|n| prod_i (alpha_i+1)_{n_i}, over prod_i (alpha_i+beta+|n|+1)_{n_i} (not for Laguerre), times (beta+1)_N
    / (N-|n|)! (Hahn).  Kept: :func:`_type2_series` and :func:`mopexact.residues.verify_type2_series_equivalence` read it."""
    def build():
        total = total_degree(n)
        Q, alpha, beta = ws.integer_parameters
        ups = [a + (ni + 1) * Q for a, ni in zip(alpha, n)]
        downs = [Q] + [a + Q for a in alpha]
        above, below, bottom = [(a + Q, ni) for a, ni in zip(alpha, n)], [], 1
        if ws.family is not LAGUERRE:
            below = [(a + beta + (total + 1) * Q, ni) for a, ni in zip(alpha, n)]
            ups.append(-beta - total * Q)
        if ws.family is HAHN:
            above.append((beta + Q, ws.N))
            bottom = math.factorial(ws.N - total)
            downs.append(-beta - ws.N * Q)
        z = -1 if ws.family is LAGUERRE else 1
        return rising_product(Q, above, below, (-1) ** total, bottom), z, ups, downs
    return ws.kept(("type2_series_factors", n), build)


def _type2_series(ws: WeightSystem, n: MultiIndex, length: int) -> tuple[tuple[int, int], list[int], int]:
    """Prefactor and terms l < length of the type II series (:func:`_type2_series_factors`), term l as nums[l] over
    one denominator, one :func:`ratio_row`; kept per weight system, n and length (one |n|+1 row per Hahn instance)."""
    def build():
        prefactor, z, ups, downs = _type2_series_factors(ws, n)
        nums, den = ratio_row(ups, downs, length, ws.integer_parameters[0])
        return prefactor, [-v if z < 0 and l % 2 else v for l, v in enumerate(nums)], den
    return ws.kept(("type2_series", n, length), build)


def hahn_weighted_series_relation(ws: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> bool:
    """Hahn type II against its terminating weighted series, compared as Newton coefficients at l <= |n|.

    With r(x) = P(x) (beta+1)_{N-x} / (N-x)! the weighted polynomial on x = 0..N (P = sum_m c_m (-x)_m as
    :func:`type2_row` admits it), the series reads r(x) = prefactor * sum_l (-x)_l term_l, and
    (-x)_l = (-1)^l l! C(x, l): by Newton's formula the identity is Delta^l r(0) = (-1)^l l! prefactor term_l
    for every l <= N, prefactor and terms those of :func:`_type2_series`.  As Delta^m P(0) = (-1)^m m! c_m and
    Delta^j (beta+1)_{N-x}/(N-x)! = (-1)^j (beta+1-j)_{N-x}/(N-x)! (Pascal), the discrete Leibniz rule gives
        Delta^l r(0) = (-1)^l (beta+1)_{N-l} sum_{m<=l} C(l, m) m! c_m (beta+1-l+m)_{l-m} / (N-m)!.
    Both sides are (-1)^l (beta+|n|+1-l)_{N-|n|}, nonzero for l <= |n| as beta > -1, times a polynomial of
    degree <= |n| in l: agreement at l = 0..|n| is agreement at every l <= N.  No lattice value is built.
    """
    if ws.family is not HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    n = ws.validate_index(n)
    (nums, den), total, N, (Q, _, beta) = type2_row(ws, n, poly), total_degree(n), ws.N, ws.integer_parameters
    (top, bottom), terms, terms_den = _type2_series(ws, n, total + 1)
    # over Q^N den N!: Q^(N-l) (beta+1)_{N-l} times the sum of C(l, m) m! nums[m] Q^m N!/(N-m)! Q^(l-m) (beta+1-l+m)_{l-m}
    weighted = [math.factorial(m) * c * Q**m * math.perm(N, m) for m, c in enumerate(nums)]
    falling = list(itertools.accumulate(range(total), lambda acc, s: acc * (beta - s * Q), initial=1))  # Q^j (beta+1-j)_j
    left_den, right_den = bottom * terms_den, Q**N * den * math.factorial(N)
    heads = itertools.accumulate(range(N - total + 1, N + 1), lambda acc, t: acc * (beta + t * Q),
                                 initial=rising(beta + Q, Q, N - total)[0])  # Q^(N-l) (beta+1)_{N-l}, l = |n| down to 0
    return all(head * sum(math.comb(l, m) * weighted[m] * falling[l - m] for m in range(l + 1)) * left_den
               == math.factorial(l) * top * terms[l] * right_den for l, head in zip(range(total, -1, -1), heads))


def hahn_jp_coefficient_relation(ws_hahn: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> bool:
    """Coefficientwise bridge between Hahn and Jacobi-Pineiro type II.

    With Q the given Hahn polynomial in (-x)_k and P (same alpha, beta) in
    x^k, checks Q[k] == (-1)^k (N-k)!/(N-|n|)! P[k] for every k <= |n|, Q as :func:`type2_row` admits it.
    P is the row of :func:`_type2_sum`, which both families share, times (-1)^|n|.
    """
    if ws_hahn.family is not HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    n = ws_hahn.validate_index(n)
    (hahn, hahn_den), (nums, den) = type2_row(ws_hahn, n, poly), _type2_sum(ws_hahn, n)
    total, N = total_degree(n), ws_hahn.N
    # Q[k] (N-|n|)! == (-1)^k (N-k)! P[k], cross-multiplied
    return all(hahn[k] * den * math.factorial(N - total) == (-1) ** (k + total) * math.factorial(N - k) * v * hahn_den
               for k, v in enumerate(nums))
