import functools
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mopexact import (
    AdmissibilityError, BasisKind, Family, GammaProduct, PoleError, WeightSystem, families, pochhammer, residues,
)
from mopexact.gammaprod import as_fraction, ratio_row, reduced_row, row_product
from mopexact.linalg import bareiss

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
def hahn_corner_systems(draw):
    """Hahn systems on the corner alpha_i + beta + |n| = 0: |n| = 1, beta = -1 - alpha_i, other weights idle."""
    p = draw(st.integers(1, 3))
    i = draw(st.integers(0, p - 1))
    alpha = [draw(prime_offset(den)) for den in (2, 3, 5)[:p]]
    alpha[i] = -Fraction(draw(st.integers(1, (2, 3, 5)[i] - 1)), (2, 3, 5)[i])
    n = tuple(int(j == i) for j in range(p))
    return WeightSystem.hahn(tuple(alpha), -1 - alpha[i], draw(st.integers(1, 4))), n


@functools.cache
def weight_table(ws) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Rows i of the Hahn lattice weights w_i(x) = (alpha_i+1)_x / x! * (beta+1)_{N-x} / (N-x)!, x = 0..N, as reduced
    integer rows: the lattice definition the oracle's closed-form Hahn pairings are checked against."""
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("lattice weights exist only for the Hahn family")
    q, alpha, _ = ws.integer_parameters
    return tuple(reduced_row(*row_product(ratio_row([a + q], [q], ws.N + 1, q), ws.beta_factors)) for a in alpha)


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
