"""Independent ground truth: moment reduction, exact conditions and a normality certificate.

Nothing here looks at the closed-form coefficient formulas.  Weight moments come from
the classical integral transforms: gamma and beta moments for the continuous families,
and for Hahn the lattice sums Chu-Vandermonde closes.  Orthogonality is checked by exact
summation against them; its agreement with the generators in :mod:`mopexact.families` is
the package's central claim.

Everything is an integer, an integer pair or an integer row (:mod:`mopexact.gammaprod`).
Every condition of both types pairs t_a B_b with a weight, t_a from the family's type I
basis and B_b from its type II basis, and one function builds those pairings, with no
lattice value (:func:`_pairings`), once per weight system, multi-index and weight.  They
are the type II conditions (:func:`_type2_conditions`), and the type I system
(:func:`_type1_conditions`) reads their entries b < |n|; each check multiplies the
admitted row (:func:`families.type2_row`, :func:`families.type1_rows`) by its system.
The type I rows are B_j, j < |n|, the top one made monic and normalized to 1.  One determinant
(:func:`normal_index`) certifies that both systems have one solution, so a polynomial
passes its checks exactly when it is that solution; the public solves reconstruct it
with :func:`linalg.bareiss`.  Residuals are rational cofactors of the weight's moment
gamma; an exact zero is the int 0, so a passing check builds no Fraction.  A type I
component is read against :func:`families.type1_scale`.  Mellin reads one s-row per polynomial.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import families
from .errors import AdmissibilityError, PoleError, PreconditionError
from .gammaprod import Frozen, pair, primitive, ratio_row, rising_product, row_sum
from .gammaprod import pochhammer  # noqa: F401  (perfbench traces this binding)
from .linalg import bareiss, determinant
from .polybasis import Basis, ScaledPolynomial, TypeIVector
from .weights import HAHN, JACOBI_PINEIRO, LAGUERRE, MultiIndex, WeightSystem, total_degree


def _moment_scale(ws: WeightSystem, i: int, total: int) -> tuple[int, int]:
    """Weight i's moment gamma times the canonical type I scale at |n| = total, as the integer pair it is.

    The moment gamma is Gamma(alpha_i+1), times Gamma(beta+1) / Gamma(alpha_i+beta+2)
    for Jacobi-Pineiro (:meth:`WeightSystem.moment_rows`); times :func:`families.type1_scale`
    that is 1 and (alpha_i+beta+2)_{|n|-2} / (beta+1)_{|n|-1}, which is 1/(alpha_i+beta+1)
    at |n| = 1 and a pole (PoleError) on the corner alpha_i+beta+|n| = 0.  Hahn weights are rational.
    """
    if ws.family is not JACOBI_PINEIRO:
        return 1, 1
    Q, alpha, beta = ws.integer_parameters
    return rising_product(Q, [(alpha[i] + beta + 2 * Q, total - 2)], [(beta + Q, total - 1)])


class OrthogonalityReport(Frozen):
    """Exact residuals of the defining conditions, plus the normalization row.

    residuals maps (weight index, power) to the rational cofactor for
    type II checks and (None, row index) for type I checks; the type I
    normalization row is an integer pair (numerator, nonzero denominator), and
    a type II report has none.  Pass means every residual is exactly zero and
    the normalization row, if any, is exactly 1.
    """

    _fields = ("residuals", "normalization")

    def __init__(self, residuals: dict, normalization: tuple[int, int] | None):
        self.__dict__.update(residuals=residuals, normalization=normalization)

    @property
    def passed(self) -> bool:
        if any(value != 0 for value in self.residuals.values()):
            return False
        return self.normalization is None or self.normalization[0] == self.normalization[1]


def _pairings(ws: WeightSystem, n: MultiIndex, i: int) -> list:
    """Weight i's rows a < n_i of <t_a B_b, w_i>, b <= |n|, as integer rows over the weight's moment gamma: t_a is
    the type I basis and B_b the type II basis of the family.  The continuous families pair x^(a+b), the moment
    window m_i[a..a+|n|].  Hahn pairs (x+alpha_i+1)_a (-x)_b: as (alpha_i+1)_x (x+alpha_i+1)_a = (alpha_i+1)_a (c)_x,
    c = alpha_i+1+a, Chu-Vandermonde sums entry b to (alpha_i+1)_a (c+beta+1)_N / N! times
    (c)_b (-N)_b / (c+beta+1)_b, and the constant steps from a to a+1 by c (c+beta+1+N) / (c+beta+1)."""
    total = total_degree(n)
    if ws.family is not HAHN:
        nums, den = ws.moment_rows(max(n) + total)[i]
        return [(nums[a:a + total + 1], den) for a in range(n[i])]
    (Q, alpha, beta), N = ws.integer_parameters, ws.N
    c, top, bottom = alpha[i] + Q, *rising_product(Q, [(alpha[i] + beta + 2 * Q, N)], (), 1, math.factorial(N))
    rows = []
    for _ in range(n[i]):
        nums, den = ratio_row([c, -N * Q], [c + beta + Q], total + 1, Q)
        rows.append(([top * v for v in nums], bottom * den))
        top, bottom = top * c * (c + beta + (N + 1) * Q), bottom * Q * (c + beta + Q)
        c += Q
    return rows


def _type2_conditions(ws: WeightSystem, n: MultiIndex) -> dict:
    """The type II conditions <t_j B, w_i>, j < n_i, as integer rows (i, j) over basis elements k <= |n|
    (:func:`_pairings`), built once per weight system and multi-index; :func:`_type1_conditions` reads them too."""
    return ws.kept(("type2_conditions", n),
                   lambda: {(i, j): row for i in range(ws.p) for j, row in enumerate(_pairings(ws, n, i))})


def check_type2_orthogonality(ws: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> OrthogonalityReport:
    """All conditions <t_j B, w_i> = 0 for j < n_i, exactly: the admitted row paired with each condition row."""
    n = ws.validate_index(n)
    row = families.type2_row(ws, n, poly)
    return OrthogonalityReport({key: pair(row, condition) for key, condition in _type2_conditions(ws, n).items()}, None)


def _type1_conditions(ws: WeightSystem, n: MultiIndex) -> tuple[list, list[tuple[int, int]]]:
    """The type I system over the unknowns (i, k), k < n_i, built once per weight system and multi-index: an |n| x |n|
    integer matrix and one scale (top, bottom) per unknown, so that row j pairs the basis element of unknown (i, k)
    exactly to entry * top / bottom.  Column (i, k) is :func:`_type2_conditions` row (i, k) up to B_{|n|-1} over its
    content, which joins the row's denominator and :func:`_moment_scale` in the scale.  The Hahn top row (-x)_{|n|-1}
    is taken times (-1)^(|n|-1), its x^(|n|-1) coefficient, so the type I target stays 1."""
    def build():
        total = total_degree(n)
        scales = {i: _moment_scale(ws, i, total) for i in range(ws.p) if n[i]}
        columns = [(i, nums[:total], den) for (i, _), (nums, den) in _type2_conditions(ws, n).items()]
        columns = [(i, nums, math.gcd(*nums) or 1, den) for i, nums, den in columns]
        matrix = list(zip(*([v // g for v in nums] for _, nums, g, _ in columns)))
        if ws.family is HAHN and total % 2 == 0:  # the top row times (-1)^(|n|-1)
            matrix[-1] = tuple(-v for v in matrix[-1])
        return matrix, [(scales[i][0] * g, scales[i][1] * den) for i, _, g, den in columns]
    return ws.kept(("type1_conditions", n), build)


def check_type1_orthogonality(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> OrthogonalityReport:
    """Vanishing rows j <= |n|-2 plus the exact normalization row: :func:`_type1_conditions` times the scaled row.

    The rows are the powers x^j, j < |n|, and the top one is normalized to 1
    in every family.  The vector is read as :func:`families.type1_rows` admits it.
    """
    n = ws.validate_index(n, type_one=True)
    rows = families.type1_rows(ws, n, vec)
    matrix, scales = _type1_conditions(ws, n)
    # the coefficient of unknown (i, k) times its scale, over one denominator
    coefficients = [(c, den) for nums, den in rows for c in nums]
    scaled = [(c * top, den * bottom) for (c, den), (top, bottom) in zip(coefficients, scales)]
    common = math.lcm(*(d for _, d in scaled))
    row = [v * (common // d) for v, d in scaled]
    *rows, normalization = [sum(map(operator.mul, entries, row)) for entries in matrix]
    residuals = {(None, j): Fraction(v, common) if v else 0 for j, v in enumerate(rows)}
    return OrthogonalityReport(residuals, (normalization, common))


def normal_index(ws: WeightSystem, n: MultiIndex) -> int:
    """det of the primitive :func:`_type1_conditions` matrix, or SingularSystemError.  Read from the same
    :func:`_pairings`, it is the type II matrix transposed up to nonzero row and column factors: one nonzero det
    makes both solutions unique."""
    n = ws.validate_index(n, type_one=True)
    return determinant([primitive(row) for row in _type1_conditions(ws, n)[0]])


def oracle_solve_type2(ws: WeightSystem, n: MultiIndex) -> ScaledPolynomial:
    """Reconstruct the monic type II polynomial from its moment conditions.

    Solves the |n| x |n| exact system for the non-leading coefficients in
    the same basis the generators use (monomials, or falling factorials with
    leading coefficient (-1)^|n| for Hahn).
    """
    n = ws.validate_index(n)
    total = total_degree(n)
    basis, lead = (Basis.falling_factorial(), (-1) ** total) if ws.family is HAHN else (Basis.monomial(), 1)
    # condition j pairs basis elements 0..|n|; over its content: no cost at |n| <= 8, faster solves beyond
    rows = [primitive(row) for row, _ in _type2_conditions(ws, n).values()]
    nums, det = bareiss([row[:total] for row in rows], [-lead * row[total] for row in rows])
    return ScaledPolynomial(basis, row=([*nums, lead * det], det))


def oracle_solve_type1(ws: WeightSystem, n: MultiIndex) -> TypeIVector:
    """Reconstruct the type I vector from orthogonality plus normalization.

    One joint |n| x |n| system over all component coefficients, in the
    canonical per-family basis, against the canonical scale, so the outputs compare
    coefficient-for-coefficient with the generators.
    """
    n = ws.validate_index(n, type_one=True)
    total = total_degree(n)
    matrix, scales = _type1_conditions(ws, n)
    # each row over its content; only the last row's reaches the solution
    last = math.gcd(*matrix[-1]) or 1
    solved, det = bareiss([primitive(row) for row in matrix], [0] * (total - 1) + [1])  # the last condition's target is 1
    solution = iter((v * bottom, top * last) for v, (top, bottom) in zip(solved, scales))
    components = []
    for i in range(ws.p):  # component i's unknowns over their lcm times det (a negative divisor flips its quotient)
        entries = [next(solution) for _ in range(n[i])]
        den = math.lcm(*(d for _, d in entries))
        components.append(ScaledPolynomial(families.type1_basis(ws, i),
                                           row=([v * (den // d) for v, d in entries], den * det)))
    return TypeIVector(tuple(components))


def mellin_zero_points(ws: WeightSystem, n: MultiIndex) -> list[tuple[int, int]]:
    """The |n| transform arguments alpha_i + k, 1 <= k <= n_i, where orthogonality forces the transform to vanish,
    each the integer pair (alpha_i Q + k Q, Q)."""
    n = ws.validate_index(n)
    Q, alpha, _ = ws.integer_parameters
    return [(alpha[i] + k * Q, Q) for i in range(ws.p) for k in range(1, n[i] + 1)]


def _mellin_difference(ws: WeightSystem, n: MultiIndex, row) -> list[int]:
    """The s-row, from s^0 up, of left minus right in :func:`check_mellin_type2`, each side times its scale; kept."""
    def build():
        (nums, den), total, (Q, alpha, beta) = row, total_degree(n), ws.integer_parameters
        shifted = ws.family is not LAGUERRE  # the two families with beta
        head, bottom = rising_product(Q, [(beta + Q, total)] if shifted else (),
                                      [(c + beta + (total + 1) * Q, ni) for c, ni in zip(alpha, n) if shifted])
        if ws.family is HAHN:
            nums, den = [(-1) ** k * math.perm(ws.N, k) * c for k, c in enumerate(nums)], den * math.perm(ws.N, total)
        scale = bottom if shifted else Q ** total  # Laguerre: q = 1, T = 1, and only the right side has Q^|n|
        tail, left, right = [1], [nums[total]], [(-1) ** total * head * den]
        for up in (c + (m + 1) * Q for c, ni in zip(alpha, n) for m in range(ni)):  # alpha_i+1-s = (up - Qs) / Q
            right = [up * v - Q * w for v, w in zip(right + [0], [0] + right)]
        for k in range(total - 1, -1, -1):
            if shifted:
                tail = [(beta + (k + 1) * Q) * v + Q * w for v, w in zip(tail + [0], [0] + tail)]
                left = [Q * (k * v + w) + nums[k] * t for v, w, t in zip(left + [0], [0] + left, tail)]
            else:
                left = [k * v + w for v, w in zip(left + [0], [nums[k], *left])]
        return [v * scale - w for v, w in zip(left, right)]
    return ws.kept(("mellin_difference", n, row), build)


def check_mellin_type2(ws: WeightSystem, n: MultiIndex, poly: ScaledPolynomial, points) -> bool:
    """Moment-reduced transform of the weighted type II polynomial vs its closed form, at each argument in points.

    points is a nonempty iterable of integer pairs s = a/b, not necessarily reduced, read in order: b <= 0 raises
    PreconditionError, a pole s = 0, -1, ... PoleError, and the first failing s returns False.  Both sides are rational
    cofactors of one gamma factor, Gamma(s) for Laguerre, Gamma(s) Gamma(beta+1) / Gamma(s+beta+|n|+1) for
    Jacobi-Pineiro and Gamma(beta+1) Gamma(s) X for Hahn, X = (s+beta+|n|+1)_{N-|n|} / (N-|n|)!, and polynomials of
    degree <= |n| in s: s passes when a homogeneous Horner pass over the integer s-row of their difference
    (:func:`_mellin_difference`) gives 0.  With alpha_i, beta integers over Q, the left side sum_k c_k (s)_k
    (s+beta+1+k)_{|n|-k} is nested from k = |n|: T_k = T_(k+1) (Qs+beta+(k+1)Q), T_|n| = 1 and acc_k = c_k T_k + (qs+qk)
    acc_(k+1), q = Q (q = 1, T = 1 for Laguerre); the right side head prod_i (alpha_i+1-s)_{n_i} is head times the
    factors -Qs+alpha_i+(m+1)Q.  For Hahn, Chu-Vandermonde turns sum_x (-x)_k (s)_x/x! (beta+1)_{N-x}/(N-x)! into (-1)^k
    (s)_k (s+beta+1+k)_{N-k}/(N-k)!: X times the Jacobi-Pineiro term on c_k (-1)^k N!/(N-k)! over N!/(N-|n|)!.
    """
    n = ws.validate_index(n)
    row, points = families.type2_row(ws, n, poly), list(points)
    if not points:
        raise PreconditionError("the Mellin check needs at least one transform argument")
    difference = _mellin_difference(ws, n, row)
    zero = not any(difference)  # every point passes: each is validated, none evaluated
    for a, b in points:
        if b <= 0:
            raise PreconditionError(f"transform argument {a}/{b} needs a positive denominator")
        if a <= 0 and a % b == 0:
            raise PoleError(f"transform argument s = {a // b} sits on a gamma pole")
        if zero:
            continue
        value, power = 0, 1  # b^|n| D(a/b)
        for c in reversed(difference):
            value, power = value * a + c * power, power * b
        if value:
            return False
    return True


def check_hahn_summation_identity(ws: WeightSystem, n: MultiIndex) -> list[bool]:
    """The terminating-sum identity equivalent to the Hahn type I conditions, row by row.

    The weighted lattice pairing of the type I vector with the backward
    basis element of order j collapses to a single sum of (p+2)F(p+1)
    values; it must equal 0 for j <= |n|-2 and (-1)^(|n|-1) at j = |n|-1.
    Entry j of the result says whether row j holds.  Idle weights (n_i = 0)
    have zero components and factors 1, so i and k run over the active weights.
    With A = alpha_i+beta+N+2, B = alpha_i+beta+2 and C = alpha_i+beta+|n| = B+|n|-2,
    weight i adds (B)_{|n|-2+n_i} = (B)_{|n|-2} (C)_{n_i} (finite on the corner C = 0)
    times prod_{k!=i} (C_k)_{n_k} / ((n_i-1)! prod_{k!=i} (alpha_k-alpha_i)_{n_k}) times
    sum_{l<n_i} F_l (A)_{j+l} / (B)_{j+l} to row j, where
    F_l = (1-n_i)_l (C)_l prod_{k!=i} (alpha_i+1-alpha_k-n_k)_l / (l! (A)_l prod_{k!=i} (alpha_i+1-alpha_k)_l);
    F and (A)_s / (B)_s are integer rows built once per weight, each constant is
    one :func:`rising_product`, and rows meet their targets cross-multiplied.
    """
    if ws.family is not HAHN:
        raise AdmissibilityError("the summation identity is Hahn-specific")
    n = ws.validate_index(n, type_one=True)
    total = total_degree(n)
    (Q, alpha, beta), N = ws.integer_parameters, ws.N
    active = [i for i in range(ws.p) if n[i]]
    # (beta+1+j)_{|n|-1-j} = (beta+1)_{|n|-1} / (beta+1)_j
    beta_row, beta_den = ratio_row([beta + Q], [], total, Q)
    head_top, head_bottom = rising_product(
        Q, (), [(beta + Q, total - 1)], (-1) ** (total - 1) * math.factorial(N + 1 - total), math.factorial(N))
    rows = []  # per weight: constant times sum_l F_l (A)_{j+l} / (B)_{j+l}, j < |n|
    for i in active:
        a, b = alpha[i] + beta + (N + 2) * Q, alpha[i] + beta + 2 * Q
        others = [k for k in active if k != i]
        f, f_den = ratio_row(
            [(1 - n[i]) * Q, b + (total - 2) * Q, *(alpha[i] + Q - alpha[k] - n[k] * Q for k in others)],
            [Q, a, *(alpha[i] + Q - alpha[k] for k in others)],
            n[i], Q,
        )
        g, g_den = ratio_row([a], [b], total + n[i] - 1, Q)
        top, bottom = rising_product(
            Q, [(b, total - 2 + n[i]), *((alpha[k] + beta + total * Q, n[k]) for k in others)],
            [(alpha[k] - alpha[i], n[k]) for k in others], 1, math.factorial(n[i] - 1) * f_den * g_den)
        rows.append(([top * sum(f[l] * g[j + l] for l in range(n[i])) for j in range(total)], bottom))
    acc, den = row_sum(rows, total)
    den *= beta_den * head_bottom
    return [head_top * v * w == ((-1) ** (total - 1) * den if j == total - 1 else 0)
            for j, (v, w) in enumerate(zip(beta_row, acc))]
