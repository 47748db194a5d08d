"""Independent ground truth: moment reduction and exact linear solves.

Nothing here looks at the closed-form coefficient formulas.  Weight moments
come from the classical integral transforms (gamma and beta moments for the
continuous families, finite lattice sums for Hahn), orthogonality and
biorthogonality are checked by exact summation against those moments, and
the polynomials themselves can be reconstructed from the defining linear
conditions alone.  Agreement between these solvers and the generators in
:mod:`mopexact.families` is the package's central correctness claim.

Residuals reported here are the rational cofactors of the per-condition
common gamma factor; a gamma product never vanishes, so a condition holds
exactly iff its rational cofactor is zero.

Every Hahn lattice sum is one :func:`lattice_sum` of value vectors on
{0, ..., N}: ``ws.weight_table`` rows, ``lattice_table`` basis rows and
``poly.lattice_values``.  The tables live on the weight system and the
polynomial that own them and last only as long as those objects.  Every
continuous moment pairing reads power-moment rows (:func:`_moment_rows`)
built once per check or solve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import families
from .errors import AdmissibilityError, IrreducibleGammaError, PoleError, PreconditionError
from .gammaprod import GammaProduct, as_fraction, is_nonpositive_integer, pochhammer, rising_row
from .hyper import pfq
from .linalg import solve_linear_system
from .polybasis import Basis, BasisKind, ScaledPolynomial, TypeIVector, lattice_table
from .weights import Family, MultiIndex, WeightSystem, total_degree


@dataclass(frozen=True)
class MomentValue:
    """Exact weight moment: rational part times a formal gamma factor."""

    rational: Fraction
    gamma: GammaProduct


def lattice_sum(*vectors) -> Fraction:
    """The one Hahn pairing: sum over x = 0..N of the product of the vectors' x-th entries."""
    return sum(map(math.prod, zip(*vectors, strict=True)), Fraction(0))


def _moment_row(ws: WeightSystem, i: int, length: int) -> list[Fraction]:
    """Rational cofactors of the power moments j < length of continuous weight i.

    (alpha_i+1)_j for Laguerre and (alpha_i+1)_j / (alpha_i+beta+2)_j for
    Jacobi-Pineiro, both against the gamma factor of :func:`_moment_gamma`.
    """
    row = rising_row(ws.alpha[i] + 1, length)
    if ws.family is Family.JACOBI_PINEIRO:
        row = [m / d for m, d in zip(row, rising_row(ws.alpha[i] + ws.beta + 2, length))]
    return row


def _moment_rows(ws: WeightSystem, length: int) -> list[list[Fraction]]:
    """:func:`_moment_row` for every weight, built once per check or solve."""
    return [_moment_row(ws, i, length) for i in range(ws.p)]


def _power_pairing(coefficients, moments, j: int) -> Fraction:
    """sum_k c_k m_{j+k}: a monomial-basis polynomial times x^j against one moment row."""
    return sum(map(operator.mul, coefficients, moments[j:]), Fraction(0))


def _moment_gamma(ws: WeightSystem, i: int) -> GammaProduct:
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        return GammaProduct.gamma(ws.alpha[i] + 1)
    if ws.family is Family.JACOBI_PINEIRO:
        return GammaProduct.from_factors([
            (ws.alpha[i] + 1, 1), (ws.beta + 1, 1), (ws.alpha[i] + ws.beta + 2, -1),
        ])
    return GammaProduct.one()


def moment(ws: WeightSystem, i: int, basis: Basis, j: int) -> MomentValue:
    """Exact moment of the j-th basis element against weight i.

    Continuous families support the monomial basis; the Hahn lattice sums
    any basis exactly.  For shifted-rising against backward rows the closed
    product form is available as :func:`hahn_moment_closed`.
    """
    if not 0 <= i < ws.p:
        raise AdmissibilityError(f"weight index {i} out of range")
    if ws.family is Family.HAHN:
        value = lattice_sum(lattice_table(basis, j, ws.N)[j], ws.weight_table[i])
        return MomentValue(value, GammaProduct.one())
    if basis.kind is not BasisKind.MONOMIAL:
        raise PreconditionError("continuous families take moments in the monomial basis")
    return MomentValue(_moment_row(ws, i, j + 1)[j], _moment_gamma(ws, i))


def hahn_moment_closed(ws: WeightSystem, i: int, l: int, j: int) -> Fraction:
    """sum_x (x+alpha_i+1)_l (beta+N-x+1)_j w_i(x) in closed form.

    The lattice sum collapses through the Chu-Vandermonde convolution to
    (beta+1)_j (alpha_i+1)_l (alpha_i+beta+2+j+l)_N / N!.
    """
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("closed lattice moments exist only for Hahn")
    return (
        pochhammer(ws.beta + 1, j) * pochhammer(ws.alpha[i] + 1, l)
        * pochhammer(ws.alpha[i] + ws.beta + 2 + j + l, ws.N)
        / math.factorial(ws.N)
    )


def _scale_reduction(ws: WeightSystem, scale: GammaProduct, i: int) -> Fraction:
    """Rational value of component-scale times moment-gamma; must fully cancel."""
    rational, leftover = (scale * _moment_gamma(ws, i)).reduce()
    if not leftover.is_one():
        raise IrreducibleGammaError(
            f"scale x moment gamma did not reduce to a rational: {leftover}"
        )
    return rational


@dataclass(frozen=True)
class OrthogonalityReport:
    """Exact residuals of the defining conditions, plus the normalization row.

    residuals maps (weight index, power) to the rational cofactor for
    type II checks and (None, row index) for type I checks; pass means every
    residual is exactly zero and the normalization row exactly hits its
    target.
    """

    family: str
    n: MultiIndex
    parameters: tuple
    residuals: dict
    normalization: Fraction | None
    normalization_target: Fraction | None

    @property
    def passed(self) -> bool:
        if any(value != 0 for value in self.residuals.values()):
            return False
        if self.normalization_target is None:
            return self.normalization is None
        return self.normalization == self.normalization_target


def _ws_parameters(ws: WeightSystem) -> tuple:
    parameters = [("alpha", ",".join(str(a) for a in ws.alpha))]
    if ws.beta is not None:
        parameters.append(("beta", str(ws.beta)))
    if ws.N is not None:
        parameters.append(("N", str(ws.N)))
    return tuple(parameters)


def check_type2_orthogonality(ws: WeightSystem, n: MultiIndex, poly: ScaledPolynomial) -> OrthogonalityReport:
    """All conditions <x^j B, w_i> = 0 for j < n_i, exactly."""
    ws.validate_index(n)
    scale_rational, scale_gamma = poly.scale.reduce()
    if not scale_gamma.is_one():
        raise IrreducibleGammaError("type II polynomials carry a rational scale")
    residuals = {}
    if ws.family is Family.HAHN:
        values = poly.lattice_values(ws.N)
        powers = lattice_table(Basis.monomial(), max(n) - 1, ws.N)
        for i in range(ws.p):
            for j in range(n[i]):
                residuals[(i, j)] = lattice_sum(powers[j], values, ws.weight_table[i]) * scale_rational
    else:
        if poly.basis.kind is not BasisKind.MONOMIAL:
            raise PreconditionError("continuous type II polynomials live in the monomial basis")
        moments = _moment_rows(ws, max(n) + len(poly.coefficients) - 1)
        for i in range(ws.p):
            for j in range(n[i]):
                residuals[(i, j)] = _power_pairing(poly.coefficients, moments[i], j) * scale_rational
    return OrthogonalityReport(ws.family.value, tuple(n), _ws_parameters(ws), residuals, None, None)


def _hahn_linear_form(ws: WeightSystem, vec: TypeIVector) -> list[Fraction]:
    """Values of sum_i scale_i * A_i(x) * w_i(x) at x = 0..N."""
    form = [Fraction(0)] * (ws.N + 1)
    for i, comp in enumerate(vec.components):
        if not comp.coefficients:
            continue
        scale_rational, leftover = comp.scale.reduce()
        if not leftover.is_one():
            raise IrreducibleGammaError("Hahn type I scales are rational")
        weighted = zip(form, comp.lattice_values(ws.N), ws.weight_table[i])
        form = [f + scale_rational * v * w for f, v, w in weighted]
    return form


def _type1_pairings(ws: WeightSystem, vec: TypeIVector, rows: int) -> list[Fraction]:
    """Rows j < rows of the type I conditions: backward rows for Hahn, powers otherwise."""
    if ws.family is Family.HAHN:
        form = _hahn_linear_form(ws, vec)
        basis = Basis.backward_pochhammer(ws.beta, ws.N)
        return [lattice_sum(row, form) for row in lattice_table(basis, rows - 1, ws.N)]
    totals = [Fraction(0)] * rows
    moments = _moment_rows(ws, rows + max(len(comp.coefficients) for comp in vec.components) - 1)
    for i, comp in enumerate(vec.components):
        if not comp.coefficients:
            continue
        if comp.basis.kind is not BasisKind.MONOMIAL:
            raise PreconditionError("continuous type I components live in the monomial basis")
        factor = _scale_reduction(ws, comp.scale, i)
        for j in range(rows):
            totals[j] += factor * _power_pairing(comp.coefficients, moments[i], j)
    return totals


def check_type1_orthogonality(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> OrthogonalityReport:
    """Vanishing rows j <= |n|-2 plus the exact normalization row.

    The Hahn rows are taken in the backward lattice basis, whose top row
    must equal (-1)^(|n|-1); the continuous rows are plain powers with the
    top row normalized to 1.  The two Hahn formulations are related by a
    triangular change of basis, checked separately in the tests.
    """
    ws.validate_index(n, type_one=True)
    total = total_degree(n)
    *rows, normalization = _type1_pairings(ws, vec, total)
    residuals = {(None, j): value for j, value in enumerate(rows)}
    target = Fraction(-1) ** (total - 1) if ws.family is Family.HAHN else Fraction(1)
    return OrthogonalityReport(ws.family.value, tuple(n), _ws_parameters(ws), residuals, normalization, target)


def check_biorthogonality(ws: WeightSystem, n: MultiIndex, m: MultiIndex) -> bool:
    """Pairing of the degree-n type II polynomial with the index-m type I vector.

    The defining conditions force 0 when m <= n componentwise, 1 when
    |m| = |n| + 1, and 0 when |m| > |n| + 1; other index pairs are not
    covered and raise PreconditionError.
    """
    ws.validate_index(n)
    ws.validate_index(m, type_one=True)
    if all(mi <= ni for mi, ni in zip(m, n)):
        expected = Fraction(0)
    elif total_degree(m) == total_degree(n) + 1:
        expected = Fraction(1)
    elif total_degree(m) > total_degree(n) + 1:
        expected = Fraction(0)
    else:
        raise PreconditionError(f"pairing of n = {n} with m = {m} is not determined")
    poly = families.type2(ws, n)
    vec = families.type1(ws, m)
    if ws.family is Family.HAHN:
        return lattice_sum(poly.lattice_values(ws.N), _hahn_linear_form(ws, vec)) == expected
    total = Fraction(0)
    width = max(len(comp.coefficients) for comp in vec.components)
    moments = _moment_rows(ws, width + len(poly.coefficients) - 1)
    for i, comp in enumerate(vec.components):
        if not comp.coefficients:
            continue
        factor = _scale_reduction(ws, comp.scale, i)
        for k, ck in enumerate(comp.coefficients):
            total += factor * ck * _power_pairing(poly.coefficients, moments[i], k)
    return total == expected


def oracle_solve_type2(ws: WeightSystem, n: MultiIndex) -> ScaledPolynomial:
    """Reconstruct the monic type II polynomial from its moment conditions.

    Solves the |n| x |n| exact system for the non-leading coefficients in
    the same basis the generators use (monomials, or falling factorials with
    leading coefficient (-1)^|n| for Hahn).
    """
    ws.validate_index(n)
    total = total_degree(n)
    if total == 0:
        basis = Basis.falling_factorial() if ws.family is Family.HAHN else Basis.monomial()
        return ScaledPolynomial(basis, (Fraction(1),))
    rows = []
    rhs = []
    if ws.family is Family.HAHN:
        basis = Basis.falling_factorial()
        lead = Fraction(-1) ** total
        falling = lattice_table(basis, total, ws.N)
        powers = lattice_table(Basis.monomial(), max(n) - 1, ws.N)
        for i in range(ws.p):
            for j in range(n[i]):
                gram = [lattice_sum(powers[j], row, ws.weight_table[i]) for row in falling]
                rows.append(gram[:total])
                rhs.append(-lead * gram[total])
    else:
        basis = Basis.monomial()
        lead = Fraction(1)
        moments = _moment_rows(ws, max(n) + total)
        for i in range(ws.p):
            for j in range(n[i]):
                rows.append(moments[i][j:j + total])
                rhs.append(-moments[i][j + total])
    solution = solve_linear_system(rows, rhs)
    return ScaledPolynomial(basis, tuple(solution) + (lead,))


def oracle_solve_type1(ws: WeightSystem, n: MultiIndex) -> TypeIVector:
    """Reconstruct the type I vector from orthogonality plus normalization.

    One joint |n| x |n| system over all component coefficients, in the
    canonical per-family basis and scale, so the outputs compare
    coefficient-for-coefficient with the generators.
    """
    ws.validate_index(n, type_one=True)
    total = total_degree(n)
    unknowns = [(i, k) for i in range(ws.p) for k in range(n[i])]
    rows = []
    rhs = []
    if ws.family is Family.HAHN:
        for j in range(total):
            rows.append([hahn_moment_closed(ws, i, k, j) for i, k in unknowns])
            rhs.append(Fraction(-1) ** (total - 1) if j == total - 1 else Fraction(0))
    else:
        factors = [_scale_reduction(ws, families.type1_scale(ws, i, total), i) for i in range(ws.p)]
        moments = _moment_rows(ws, total + max(n) - 1)
        for j in range(total):
            rows.append([factors[i] * moments[i][j + k] for i, k in unknowns])
            rhs.append(Fraction(1) if j == total - 1 else Fraction(0))
    solution = solve_linear_system(rows, rhs)
    per_component: dict[int, list[Fraction]] = {i: [] for i in range(ws.p)}
    for (i, _), value in zip(unknowns, solution):
        per_component[i].append(value)
    components = tuple(
        ScaledPolynomial(
            families.type1_basis(ws, i),
            tuple(per_component[i]),
            families.type1_scale(ws, i, total),
        )
        for i in range(ws.p)
    )
    return TypeIVector(components)


def mellin_zero_points(ws: WeightSystem, n: MultiIndex) -> list[Fraction]:
    """The |n| transform arguments where orthogonality forces the transform to vanish."""
    return [ws.alpha[i] + k for i in range(ws.p) for k in range(1, n[i] + 1)]


def check_mellin_type2(ws: WeightSystem, n: MultiIndex, s, poly: ScaledPolynomial | None = None) -> bool:
    """Moment-reduced transform of the weighted type II polynomial vs its closed form.

    Both sides are compared as rational cofactors of the same gamma factor:
    Gamma(s) for Laguerre, Gamma(s) Gamma(beta+1) / Gamma(s+beta+|n|+1) for
    Jacobi-Pineiro, and Gamma(beta+1) Gamma(s) for the discrete Hahn kernel.
    """
    ws.validate_index(n)
    s = as_fraction(s)
    if is_nonpositive_integer(s):
        raise PoleError(f"transform argument s = {s} sits on a gamma pole")
    if poly is None:
        poly = families.type2(ws, n)
    total = total_degree(n)
    sign = Fraction(-1) ** total
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        coefficients = poly.monomial_coefficients()
        lhs = sum(map(operator.mul, coefficients, rising_row(s, len(coefficients))), Fraction(0))
        rhs = sign
        for i in range(ws.p):
            rhs *= pochhammer(ws.alpha[i] + 1 - s, n[i])
        return lhs == rhs
    if ws.family is Family.JACOBI_PINEIRO:
        coefficients = poly.monomial_coefficients()
        lhs = Fraction(0)
        for k, (c, rising) in enumerate(zip(coefficients, rising_row(s, len(coefficients)))):
            lhs += c * rising * pochhammer(s + k + ws.beta + 1, total - k)
        rhs = sign * pochhammer(ws.beta + 1, total)
        for i in range(ws.p):
            rhs *= pochhammer(ws.alpha[i] + 1 - s, n[i]) / pochhammer(ws.alpha[i] + ws.beta + total + 1, n[i])
        return lhs == rhs
    kernel = [Fraction(1)]  # (s)_x / x!
    for x in range(ws.N):
        kernel.append(kernel[-1] * (s + x) / (x + 1))
    lhs = lattice_sum(poly.lattice_values(ws.N), ws.beta_factors, kernel)
    rhs = sign * pochhammer(ws.beta + 1, total) * pochhammer(s + total + ws.beta + 1, ws.N - total)
    rhs /= math.factorial(ws.N - total)
    for i in range(ws.p):
        rhs *= pochhammer(ws.alpha[i] + 1 - s, n[i]) / pochhammer(ws.alpha[i] + ws.beta + total + 1, n[i])
    return lhs == rhs


def check_discrete_mellin_inversion(ws: WeightSystem, values) -> bool:
    """Exact lattice inversion of the discrete transform for arbitrary data.

    The pole sum of the inversion kernel collapses to the double sum
    sum_{k<=x} sum_{l=k}^{x} f(k)/k! (-1)^{l-k}/(l-k)! x!/(x-l)! which must
    reproduce f(x) at every lattice point.
    """
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("the lattice inversion is a Hahn-side check")
    values = [as_fraction(v) for v in values]
    if len(values) != ws.N + 1:
        raise PreconditionError(f"need one value per lattice point, got {len(values)}")
    for x in range(ws.N + 1):
        acc = Fraction(0)
        for k in range(x + 1):
            for l in range(k, x + 1):
                acc += (
                    values[k] / math.factorial(k)
                    * Fraction(-1) ** (l - k) / math.factorial(l - k)
                    * math.factorial(x) / math.factorial(x - l)
                )
        if acc != values[x]:
            return False
    return True


def check_hahn_summation_identity(ws: WeightSystem, n: MultiIndex, j: int) -> bool:
    """The terminating-sum identity equivalent to the Hahn type I conditions.

    The weighted lattice pairing of the type I vector with the backward
    basis element of order j collapses to a single sum of (p+2)F(p+1)
    values; it must equal 0 for j <= |n|-2 and (-1)^(|n|-1) at j = |n|-1.
    """
    if ws.family is not Family.HAHN:
        raise AdmissibilityError("the summation identity is Hahn-specific")
    ws.validate_index(n, type_one=True)
    if any(ni < 1 for ni in n):
        raise PreconditionError("all component degrees must be >= 1")
    total = total_degree(n)
    if not 0 <= j <= total - 1:
        raise PreconditionError(f"row index j = {j} out of range")
    alpha, beta, N = ws.alpha, ws.beta, ws.N
    prefactor = Fraction(-1) ** (total - 1) * math.factorial(N + 1 - total)
    for i in range(ws.p):
        prefactor *= pochhammer(alpha[i] + beta + total, n[i])
    prefactor /= math.factorial(N) * pochhammer(beta + 1 + j, total - 1 - j)
    acc = Fraction(0)
    for i in range(ws.p):
        # Gamma(alpha_i+beta+|n|) / Gamma(alpha_i+beta+2+j) as a signed offset
        try:
            gamma_quotient = 1 / pochhammer(alpha[i] + beta + total, j + 2 - total)
        except ZeroDivisionError as exc:
            raise PoleError(
                f"summation identity degenerates at alpha_{i} + beta + |n| = "
                f"{alpha[i] + beta + total}"
            ) from exc
        factor = pochhammer(alpha[i] + beta + N + 2, j) * gamma_quotient
        factor /= math.factorial(n[i] - 1)
        for k in range(ws.p):
            if k != i:
                factor /= pochhammer(alpha[k] - alpha[i], n[k])
        series = pfq(
            (
                -n[i] + 1,
                alpha[i] + beta + N + 2 + j,
                alpha[i] + beta + total,
                *(alpha[i] + 1 - alpha[k] - n[k] for k in range(ws.p) if k != i),
            ),
            (
                alpha[i] + beta + N + 2,
                alpha[i] + beta + 2 + j,
                *(alpha[i] + 1 - alpha[k] for k in range(ws.p) if k != i),
            ),
            1,
        )
        acc += factor * series
    value = prefactor * acc
    expected = Fraction(-1) ** (total - 1) if j == total - 1 else Fraction(0)
    return value == expected
