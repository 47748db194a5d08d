import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mopexact import (
    AdmissibilityError, BasisKind, Family, GammaProduct, PoleError, PreconditionError, WeightSystem, families,
    pochhammer, residues,
)
from mopexact.gammaprod import as_fraction, ratio_row, reduced_row, rising_product, row_sum, same
from mopexact.linalg import bareiss
from mopexact.weights import total_degree

STANDARD_ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
STANDARD_BETA = Fraction(1, 4)


def laguerre_ws(p: int) -> WeightSystem:
    return WeightSystem.laguerre(STANDARD_ALPHAS[:p])


def jacobi_pineiro_ws(p: int) -> WeightSystem:
    return WeightSystem.jacobi_pineiro(STANDARD_ALPHAS[:p], STANDARD_BETA)


def hahn_ws(p: int, N: int) -> WeightSystem:
    return WeightSystem.hahn(STANDARD_ALPHAS[:p], STANDARD_BETA, N)


def prime_offset(den: int):
    """An integer part in {-1, 0, 1} plus r/den with r coprime to den: above -1, never an integer."""
    return st.builds(lambda whole, r: whole + Fraction(r, den), st.integers(-1, 1), st.integers(1, den - 1))


def instance_of(ws, n) -> dict:
    """The run_instance dict of a weight system and multi-index."""
    instance = {"family": ws.family.value, "alpha": [str(a) for a in ws.alpha], "n": list(n)}
    if ws.beta is not None:
        instance["beta"] = str(ws.beta)
    if ws.N is not None:
        instance["N"] = ws.N
    return instance


@st.composite
def admissible_systems(draw, max_total: int = 4, family: str | None = None, p: int | None = None):
    """(ws, n) over all three families, drawn the way the verify driver draws.

    Each alpha slot has its own prime denominator (2, 3, 5) and beta another
    (7), so no alpha difference and no alpha_i + beta is an integer: every
    draw is admissible by construction.  n has 1 <= |n| <= max_total and may
    hold idle weights (n_i = 0); Hahn takes N from |n| to |n| + 3.  A given
    family ("laguerre", "jacobi-pineiro" or "hahn") or weight count p is
    kept instead of drawn.
    """
    if p is None:
        p = draw(st.integers(1, 3))
    alpha = tuple(draw(prime_offset(den)) for den in (2, 3, 5)[:p])
    n = []
    for _ in range(p):
        n.append(draw(st.integers(0, max_total - sum(n))))
    if not any(n):
        n[draw(st.integers(0, p - 1))] = 1
    n = tuple(n)
    if family is None:
        family = draw(st.sampled_from(["laguerre", "jacobi-pineiro", "hahn"]))
    if family == "laguerre":
        return WeightSystem.laguerre(alpha), n
    beta = draw(prime_offset(7))
    if family == "jacobi-pineiro":
        return WeightSystem.jacobi_pineiro(alpha, beta), n
    return WeightSystem.hahn(alpha, beta, sum(n) + draw(st.integers(0, 3))), n


@st.composite
def integer_parameter_systems(draw, max_total: int = 4, family: str | None = None):
    """(ws, n) with an integer alpha_0 and an integer beta, both in {0, 1, 2}: the other alpha slots keep their prime
    denominators (3, 5), so the system stays admissible.  Every (-beta-|n|)_l then ends the type II series and the
    Hahn residue row in zeros.  n has 1 <= |n| <= max_total, idle weights allowed; Hahn takes N from |n| to |n| + 4."""
    p = draw(st.integers(1, 3))
    alpha = (draw(st.integers(0, 2)), *(draw(prime_offset(den)) for den in (3, 5)[:p - 1]))
    n = []
    for _ in range(p):
        n.append(draw(st.integers(0, max_total - sum(n))))
    if not any(n):
        n[draw(st.integers(0, p - 1))] = 1
    n, beta = tuple(n), draw(st.integers(0, 2))
    family = family or draw(st.sampled_from(["laguerre", "jacobi-pineiro", "hahn"]))
    if family == "laguerre":
        return WeightSystem.laguerre(alpha), n
    if family == "jacobi-pineiro":
        return WeightSystem.jacobi_pineiro(alpha, beta), n
    return WeightSystem.hahn(alpha, beta, sum(n) + draw(st.integers(0, 4))), n


@st.composite
def hahn_corner_systems(draw):
    """Hahn systems on the corner alpha_i + beta + |n| = 0: |n| = 1, beta = -1 - alpha_i, other weights idle."""
    p = draw(st.integers(1, 3))
    i = draw(st.integers(0, p - 1))
    alpha = [draw(prime_offset(den)) for den in (2, 3, 5)[:p]]
    alpha[i] = -Fraction(draw(st.integers(1, (2, 3, 5)[i] - 1)), (2, 3, 5)[i])
    n = tuple(int(j == i) for j in range(p))
    return WeightSystem.hahn(tuple(alpha), -1 - alpha[i], draw(st.integers(1, 4))), n


def row_product(row, other):
    """Entrywise product of two integer rows."""
    return tuple(map(operator.mul, row[0], other[0])), row[1] * other[1]


def newton_row(nums: list[int]) -> list[int]:
    """Values r(0), ..., r(m) become their forward differences Delta^l r(0), in place, over the same denominator.

    Level l subtracts each entry from the one after it, from the end down to entry l.  Newton's formula
    r(x) = sum_l C(x, l) Delta^l r(0) inverts it, so two rows agree exactly when their differences do."""
    for level in range(1, len(nums)):
        for x in range(len(nums) - 1, level - 1, -1):
            nums[x] -= nums[x - 1]
    return nums


def lattice_table(basis, degree: int, N: int):
    """Rows k = 0..degree of basis_k(x) at x = 0..N, by the one-step recurrence.

    Monomial and falling-factorial rows are integers (denominator 1); with
    shift p/q the shifted-rising rows have denominator q^k.
    """
    nums, den = (1,) * (N + 1), 1
    rows = [(nums, den)]
    for m in range(degree):
        const, slope, q = basis._step_factor(m)
        nums, den = tuple(value * (const + slope * x) for x, value in enumerate(nums)), den * q
        rows.append((nums, den))
    return rows


def lattice_values(poly, N: int):
    """A polynomial's values at x = 0..N as a reduced row, summed over the basis rows of lattice_table."""
    nums, den = poly.row
    table = lattice_table(poly.basis, len(nums) - 1, N)
    values, common = row_sum([([c * v for v in row], d) for c, (row, d) in zip(nums, table)], N + 1)
    return reduced_row(values, den * common)


def beta_factors(ws):
    """(beta+1)_{N-x} / (N-x)! at x = 0..N, the factor all Hahn weights share, as a reduced row."""
    q, _, beta = ws.integer_parameters
    nums, den = reduced_row(*ratio_row([beta + q], [q], ws.N + 1, q))
    return nums[::-1], den


def type2_residue_pairs(ws, n, k_max: int) -> list[tuple[int, int]]:
    """Residues of the type II inverse-transform integrand at its poles k = 0..k_max, one integer pair each: the row
    the term-ratio certificate of residues.verify_type2_series_equivalence stands for.

    Entry k is a rational against a gamma product: empty for the continuous families, Gamma(beta+1) for Hahn,
    whose pole carries Gamma(beta+|n|+1) Gamma(beta+N+1-k) / Gamma(beta+|n|+1-k); against Gamma(beta+1) that is
    the rational q_k with q_0 = (beta+1)_N and q_{k+1} = q_k (beta+|n|-k) / (beta+N-k).  The scalar (-1)^k/k!
    [times (beta+|n|+1-k)_k for Jacobi-Pineiro; 1/k! times q_k for Hahn] advances in integers by its one-step
    ratio; over Q, (alpha_i+1+k)_{n_i} = prod_{l<n_i} (a_i+(k+l+1)Q) / Q^{n_i}."""
    total = total_degree(n)
    Q, alpha, beta = ws.integer_parameters
    num, den = rising_product(
        Q, [(beta + Q, ws.N)] if ws.family is Family.HAHN else (),
        () if ws.family is Family.LAGUERRE_FIRST_KIND else [(a + beta + (total + 1) * Q, ni) for a, ni in zip(alpha, n)],
        (-1) ** total, math.factorial(ws.N - total) if ws.family is Family.HAHN else 1)
    den *= Q**total
    values = []
    for k in range(k_max + 1):
        values.append((num * math.prod(a + (k + l + 1) * Q for a, ni in zip(alpha, n) for l in range(ni)), den))
        if ws.family is Family.LAGUERRE_FIRST_KIND:
            num, den = -num, den * (k + 1)
        elif ws.family is Family.JACOBI_PINEIRO:
            num, den = -num * (beta + (total - k) * Q), den * (k + 1) * Q
        else:
            num, den = num * (beta + (total - k) * Q), den * (k + 1) * (beta + (ws.N - k) * Q)
    return values


def hypergeometric_row(first, ups, downs, length: int) -> list[Fraction]:
    """Terms k < length of a hypergeometric term as Fractions: the first an integer pair, each next the one before
    times prod ups(k) / prod downs(k), every factor (c0, c1) standing for c0 + c1 k.  Zeros follow the first
    vanishing numerator; a vanishing denominator before it raises PoleError, as gammaprod.ratio_row does."""
    row = [Fraction(*first)][:length]
    for k in range(length - 1):
        top = math.prod(c0 + c1 * k for c0, c1 in ups)
        if top == 0:
            return row + [Fraction(0)] * (length - len(row))
        bottom = math.prod(c0 + c1 * k for c0, c1 in downs)
        if bottom == 0:
            raise PoleError(f"denominator vanishes in term {k + 1}")
        row.append(row[-1] * top / bottom)
    return row


@functools.cache
def weight_table(ws) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Rows i of the Hahn lattice weights w_i(x) = (alpha_i+1)_x / x! * (beta+1)_{N-x} / (N-x)!, x = 0..N, as reduced
    integer rows: the lattice definition the oracle's closed-form Hahn pairings are checked against."""
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("lattice weights exist only for the Hahn family")
    q, alpha, _ = ws.integer_parameters
    return tuple(reduced_row(*row_product(ratio_row([a + q], [q], ws.N + 1, q), beta_factors(ws))) for a in alpha)


def hahn_weight(ws, i: int, x) -> Fraction:
    """The lattice weight value w_i(x), x in {0, ..., N}, as a Fraction."""
    nums, den = weight_table(ws)[i]
    return Fraction(nums[ws.check_point(x).numerator], den)


def hahn_type2_weighted_series(ws, n) -> tuple[tuple[int, ...], int]:
    """Weighted Hahn type II values r(x) = Q(x) (beta+1)_{N-x} / (N-x)! at x = 0..N through the terminating series,
    as one reduced row: the prefactor times sum_{l<=x} (-x)_l term_l, with (-x)_l = (-1)^l l! C(x, l) and the terms
    of families._type2_series.  The reference the verify path's Newton comparison is checked against."""
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("weight system is not Hahn")
    ws.validate_index(n)
    (top, bottom), terms, den = families._type2_series(ws, n, ws.N + 1)
    series = [(-1) ** l * math.factorial(l) * t for l, t in enumerate(terms)]
    return reduced_row([top * sum(math.comb(x, l) * c for l, c in enumerate(series[:x + 1])) for x in range(ws.N + 1)],
                       den * bottom)


def weighted_series_lattice_relation(ws, n, poly) -> bool:
    """The weighted series check at every order l <= N: the Newton coefficients of the weighted lattice values
    P(x) (beta+1)_{N-x} / (N-x)!, x = 0..N, against (-1)^l l! prefactor term_l of families._type2_series, both
    cross-multiplied.  The reference the verify path's comparison at l <= |n| is checked against."""
    families.type2_row(ws, n, poly)
    (top, bottom), terms, den = families._type2_series(ws, tuple(n), ws.N + 1)
    values, values_den = row_product(lattice_values(poly, ws.N), beta_factors(ws))
    return same([(d, values_den) for d in newton_row(list(values))],
                [((-1) ** l * math.factorial(l) * top * t, bottom * den) for l, t in enumerate(terms)])


def series_rows_relation(ws, n, k_max: int) -> bool:
    """The type II series equivalence as a row comparison: the residues of type2_residue_pairs against the series
    terms of families._type2_series at k = 0..k_max (clipped to N for Hahn), cross-multiplied.  The reference the
    term-ratio certificate of residues.verify_type2_series_equivalence is checked against."""
    n = ws.validate_index(n)
    if k_max < 0:
        raise PreconditionError(f"expansion order k_max = {k_max} must be nonnegative")
    if ws.family is Family.HAHN:
        k_max = min(k_max, ws.N)
    (top, bottom), nums, den = families._type2_series(ws, n, k_max + 1)
    return same(type2_residue_pairs(ws, n, k_max), [(top * v, bottom * den) for v in nums])


def kdf_lattice_relation(ws, n, vec) -> bool:
    """The KDF check as lattice rows: each component's double-series values at x = 0..N against its own values
    there, both reduced rows.  The reference the verify path's Newton comparison is checked against."""
    return all(families.hahn_type1_p2_kdf(ws, n, i) == lattice_values(vec.components[i], ws.N) for i in range(2))


#: The points the residue duality once compared values at: five per continuous family, and
#: 0, 1, 2, N-1 and N on the Hahn lattice.  Row equality implies value equality there, not conversely.
SAMPLE_POINTS = {
    Family.LAGUERRE_FIRST_KIND: (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)),
    Family.JACOBI_PINEIRO: (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(6, 7)),
}


def sample_points(ws) -> list:
    if ws.family is Family.HAHN:
        return sorted({0, 1, min(2, ws.N), max(ws.N - 1, 0), ws.N})
    return list(SAMPLE_POINTS[ws.family])


def rising_row(a, length: int) -> list[Fraction]:
    """(a)_0, (a)_1, ..., (a)_{length-1} as Fractions: each entry is the one before times a + j."""
    a = as_fraction(a)
    row, value = [], Fraction(1)
    for j in range(length):
        row.append(value)
        value *= a + j
    return row


def reduced_equal(left: GammaProduct, right: GammaProduct) -> bool:
    """Whether two gamma products have the same rational part and the same normalized residual."""
    r1, h1 = left.reduce()
    r2, h2 = right.reduce()
    return r1 == r2 and h1.factors == h2.factors


def times(*products: GammaProduct) -> GammaProduct:
    """The product of gamma products: their factors merged."""
    return GammaProduct.from_factors(factor for product in products for factor in product.factors)


def inverse(product: GammaProduct) -> GammaProduct:
    return GammaProduct.from_factors((a, -e) for a, e in product.factors)


def scaled_values_equal(r1: Fraction, g1: GammaProduct, r2: Fraction, g2: GammaProduct) -> bool:
    """Whether r1*g1 == r2*g2 exactly.

    Requires the gamma mismatch g1/g2 to reduce to a rational; gamma factors
    never vanish, so two zero rational parts are equal regardless of them.
    """
    if r1 == 0 or r2 == 0:
        return r1 == r2
    quotient, leftover = times(g1, inverse(g2)).reduce()
    if not leftover.is_one():
        return False
    return r1 * quotient == r2


def series_term(numerator, denominator, argument, k: int) -> Fraction:
    """The k-th term prod (a)_k / prod (d)_k * z^k / k! of a pFq series.

    Used to compare series expansions term by term; no termination is
    required.  A vanishing denominator under a nonzero numerator raises
    PoleError.
    """
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


def row_values(nums, den: int, factor=1) -> tuple[Fraction, ...]:
    """factor * nums / den entrywise: one Fraction, so one reduction, per entry."""
    top, bottom = factor.as_integer_ratio()
    return tuple(Fraction(top * v, bottom * den) for v in nums)


def pair_values(pairs) -> list[Fraction]:
    """A list of integer pairs (numerator, nonzero denominator) read as Fractions."""
    return [Fraction(*pair) for pair in pairs]


def solve_linear_system(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly for rational A and b: linalg.bareiss on rows scaled to integers."""
    if len(rhs) != len(matrix):
        raise ValueError("system must be square with a matching right-hand side")
    scales = [math.lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(matrix, rhs)]
    num, det = bareiss([[v.numerator * (s // v.denominator) for v in row] for row, s in zip(matrix, scales)],
                       [b.numerator * (s // b.denominator) for b, s in zip(rhs, scales)])
    return [Fraction(v, det) for v in num]


def interpolate(points) -> tuple[Fraction, ...]:
    """Monomial coefficients of the unique polynomial through the given points.

    Newton's divided differences over exact rationals; nodes must be
    distinct.  Returns len(points) coefficients (degree <= len(points) - 1).
    """
    nodes = [Fraction(x) for x, _ in points]
    values = [Fraction(y) for _, y in points]
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    n = len(nodes)
    divided = list(values)
    for level in range(1, n):
        for j in range(n - 1, level - 1, -1):
            divided[j] = (divided[j] - divided[j - 1]) / (nodes[j] - nodes[j - level])
    coeffs = [Fraction(0)] * n
    for level in range(n - 1, -1, -1):
        # multiply accumulated polynomial by (x - nodes[level]) and add divided[level]
        carry = [Fraction(0)] * n
        for j in range(n - 1):
            carry[j + 1] += coeffs[j]
            carry[j] -= nodes[level] * coeffs[j]
        coeffs = carry
        coeffs[0] += divided[level]
    return tuple(coeffs)


def recovered_node_values(ws, n, form) -> list[tuple[Fraction, Fraction]]:
    """residues.recovered_nodes with each node's integer pairs read as Fractions."""
    return [(Fraction(*t), Fraction(*value)) for t, value in residues.recovered_nodes(ws, n, form)]


def interpolation_recover_p(ws, n, form) -> tuple[Fraction, ...]:
    """Monomial coefficients (length |n|) of the polynomial through the nodes of residues.recovered_nodes."""
    return interpolate(recovered_node_values(ws, n, form))


def element_value(basis, k: int, x) -> Fraction:
    """basis_k(x) as a Pochhammer symbol: the reference the one-step basis recurrences are checked against."""
    x = as_fraction(x)
    if basis.kind is BasisKind.MONOMIAL:
        return x**k
    if basis.kind is BasisKind.FALLING_FACTORIAL:
        return pochhammer(-x, k)
    return pochhammer(x + Fraction(*basis.shift), k)


def backward_rows(ws, degree: int) -> list[list[Fraction]]:
    """Rows j = 0..degree of the backward lattice products (beta+N+1-x)_j at x = 0..N, as Fractions.

    (beta+N+1-x)_j = (-1)^j x^j + lower powers, so pairing a type I vector with
    them gives (0, ..., 0, (-1)^(|n|-1)) exactly when the power rows give (0, ..., 0, 1):
    the form of the Hahn type I conditions the paper's summation identity reads."""
    return [[pochhammer(ws.beta + ws.N + 1 - x, j) for x in range(ws.N + 1)] for j in range(degree + 1)]


def element_monomial_coefficients(basis, k: int) -> tuple[Fraction, ...]:
    """basis_k expanded in powers of x (length k+1), one factor (const + slope x) / q at a time."""
    coeffs = [Fraction(1)]
    for m in range(k):
        const, slope, q = basis._step_factor(m)
        coeffs = [(c * const + d * slope) / q for c, d in zip([*coeffs, 0], [0, *coeffs])]
    return tuple(coeffs)


def monomial_coefficients(poly) -> tuple[Fraction, ...]:
    """A polynomial's coefficients in the monomial basis, by expanding every basis element."""
    out = [Fraction(0)] * len(poly.coefficients)
    for k, c in enumerate(poly.coefficients):
        for j, e in enumerate(element_monomial_coefficients(poly.basis, k)):
            out[j] += c * e
    return tuple(out)


@pytest.fixture
def frac():
    return Fraction
