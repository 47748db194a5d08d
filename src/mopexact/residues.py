"""Pole-sum realizations of the contour representations.

Contours are never represented geometrically: each representation is
evaluated operationally as the exact sum of the residues at its enumerated
pole set.  Type I linear forms collect |n| simple poles at t = alpha_i + k
(k < n_i), all simple because the alpha differences are non-integer; the
type II inverse transforms have simple poles at the nonpositive integers
(all of them for the continuous families, the lattice window {0,...,N} for
Hahn).  Summing residues reproduces the direct coefficient formulas, and
this module certifies that duality term by term.

Normalization data: interpolating the per-pole values of a type I vector
recovers the polynomial factor of the integrand, which the orthogonality
conditions force to be constant; the closed forms of those constants are
exposed for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import families
from .errors import AdmissibilityError, IrreducibleGammaError, PoleError, PreconditionError
from .gammaprod import GammaProduct, as_fraction, pochhammer, scaled_values_equal
from .hyper import series_term
from .linalg import interpolate
from .polybasis import BasisKind, TypeIVector
from .weights import Family, MultiIndex, WeightSystem, total_degree


@dataclass(frozen=True)
class ResiduePole:
    """A pole of a type I integrand: t = alpha_i + offset.

    Every pole is simple (order 1): non-integer alpha differences keep the
    denominator factors from colliding.
    """

    weight_index: int
    offset: int
    location: Fraction
    order: int = 1


@dataclass(frozen=True)
class LinearFormComponent:
    """One weight's share of a linear form value.

    For the continuous families the coefficient multiplies the symbolic
    basis factor x^alpha_i and the residual gamma product; for Hahn the
    lattice basis factor (alpha_i+1)_x is rational and already folded in,
    leaving an empty residual.
    """

    weight_index: int
    coefficient: Fraction
    residual: GammaProduct


@dataclass(frozen=True)
class LinearFormValue:
    point: Fraction
    components: tuple[LinearFormComponent, ...]

    def component(self, i: int) -> LinearFormComponent:
        return self.components[i]


def enumerate_poles(ws: WeightSystem, n: MultiIndex) -> list[ResiduePole]:
    """The |n| simple poles t = alpha_i + k, k = 0..n_i-1."""
    ws.validate_index(n, type_one=True)
    return [
        ResiduePole(i, k, ws.alpha[i] + k)
        for i in range(ws.p)
        for k in range(n[i])
    ]


def _pole_weight(ws: WeightSystem, n: MultiIndex, i: int, k: int) -> Fraction:
    """Shared residue denominator (-1)^k / (k! (n_i-1-k)! prod_{j!=i} (a_j-a_i-k)_{n_j})."""
    value = Fraction(-1) ** k / (math.factorial(k) * math.factorial(n[i] - 1 - k))
    for j in range(ws.p):
        if j != i and n[j] > 0:
            try:
                value /= pochhammer(ws.alpha[j] - ws.alpha[i] - k, n[j])
            except ZeroDivisionError as exc:
                raise PoleError(f"colliding poles at alpha_{j} - alpha_{i} - {k}") from exc
    return value


def type1_linear_form_residues(ws: WeightSystem, n: MultiIndex, x) -> LinearFormValue:
    """Type I linear form value as the exact sum over its pole set.

    Component i collects the poles sitting on alpha_i; its residual is the
    same canonical gamma scale the direct generators carry, so the two
    routes compare componentwise.
    """
    ws.validate_index(n, type_one=True)
    x = ws.check_point(x)
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta

    # the transcendental share of the prefactors (1/Gamma(beta+|n|) and the
    # per-weight gamma scales) lives in the component residuals
    families._guard_type1_normalization(ws, n)
    prefactor = Fraction(-1) ** (total - 1)
    if ws.family is Family.JACOBI_PINEIRO:
        for j in range(ws.p):
            prefactor *= pochhammer(alpha[j] + beta + total, n[j])
    if ws.family is Family.HAHN:
        prefactor *= math.factorial(ws.N - total + 1)
        prefactor /= pochhammer(beta + 1, total - 1)

    components = []
    for i in range(ws.p):
        comp_prefactor = prefactor
        if ws.family is Family.HAHN:
            for j in range(ws.p):
                if j != i:
                    comp_prefactor *= pochhammer(alpha[j] + beta + total, n[j])
        acc = Fraction(0)
        for k in range(n[i]):
            term = _pole_weight(ws, n, i, k)
            if ws.family is Family.LAGUERRE_FIRST_KIND:
                term /= pochhammer(alpha[i] + 1, k)
                term *= x**k
            elif ws.family is Family.JACOBI_PINEIRO:
                term *= pochhammer(alpha[i] + beta + total, k) / pochhammer(alpha[i] + 1, k)
                term *= x**k
            else:
                # (a)_{n_i} Gamma(a+k) / Gamma(a+k+N+2-|n|) with the vanishing
                # boundary a = alpha_i+beta+|n| = 0 cancelled exactly
                shifted = alpha[i] + beta + total
                term *= pochhammer(shifted, k)
                term /= pochhammer(shifted + n[i], ws.N + 2 - total + k - n[i])
                term *= pochhammer(alpha[i] + 1 + k, x.numerator)
            acc += term
        components.append(LinearFormComponent(
            i, comp_prefactor * acc,
            GammaProduct.one() if ws.family is Family.HAHN else families.type1_scale(ws, i, total),
        ))
    return LinearFormValue(x, tuple(components))


def type1_direct_decomposition(ws: WeightSystem, n: MultiIndex, x, vector: TypeIVector | None = None) -> LinearFormValue:
    """The same per-weight decomposition computed from the direct generators."""
    ws.validate_index(n, type_one=True)
    x = ws.check_point(x)
    if vector is None:
        vector = families.type1(ws, n)
    components = []
    for i, comp in enumerate(vector.components):
        value = comp.rational_value(x) if comp.coefficients else Fraction(0)
        if ws.family is Family.HAHN:
            scale_rational, leftover = comp.scale.reduce()
            if not leftover.is_one():
                raise IrreducibleGammaError("Hahn type I scales are rational")
            value *= scale_rational * pochhammer(ws.alpha[i] + 1, x.numerator)
            components.append(LinearFormComponent(i, value, GammaProduct.one()))
        else:
            components.append(LinearFormComponent(i, value, comp.scale))
    return LinearFormValue(x, tuple(components))


def linear_form_values_equal(a: LinearFormValue, b: LinearFormValue) -> bool:
    if a.point != b.point or len(a.components) != len(b.components):
        return False
    return all(
        ca.weight_index == cb.weight_index
        and scaled_values_equal(ca.coefficient, ca.residual, cb.coefficient, cb.residual)
        for ca, cb in zip(a.components, b.components)
    )


def type2_residue_coefficient(ws: WeightSystem, n: MultiIndex, k: int) -> tuple[Fraction, GammaProduct]:
    """Residue of the type II inverse-transform integrand at its k-th pole.

    The value is the k-th expansion coefficient of the weighted type II
    function: against x^k for the continuous families (any k >= 0), against
    (-x)_k for Hahn (k <= N only; the pole set is finite).  Returned as a
    rational times a residual gamma product (empty except for the Hahn
    beta-class factor).
    """
    ws.validate_index(n)
    if k < 0:
        raise AdmissibilityError("pole index must be nonnegative")
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    sign = Fraction(-1) ** total
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        value = sign * Fraction(-1) ** k / math.factorial(k)
        for i in range(ws.p):
            value *= pochhammer(alpha[i] + 1 + k, n[i])
        return value, GammaProduct.one()
    if ws.family is Family.JACOBI_PINEIRO:
        value = sign * Fraction(-1) ** k / math.factorial(k)
        value *= pochhammer(beta + total + 1 - k, k)
        for i in range(ws.p):
            value *= pochhammer(alpha[i] + 1 + k, n[i]) / pochhammer(alpha[i] + beta + total + 1, n[i])
        return value, GammaProduct.one()
    if k > ws.N:
        raise AdmissibilityError(f"the Hahn pole set is {{0,...,{ws.N}}}; no pole at index {k}")
    value = sign / (math.factorial(k) * math.factorial(ws.N - total))
    for i in range(ws.p):
        value *= pochhammer(alpha[i] + 1 + k, n[i]) / pochhammer(alpha[i] + beta + total + 1, n[i])
    gammas = GammaProduct.from_factors([
        (beta + total + 1, 1), (beta + ws.N + 1 - k, 1), (beta + total + 1 - k, -1),
    ])
    extra, residual = gammas.reduce()
    return value * extra, residual


def type2_series_coefficient(ws: WeightSystem, n: MultiIndex, k: int) -> tuple[Fraction, GammaProduct]:
    """The matching coefficient read off the hypergeometric series form.

    Independent route: the series parameters come straight from the
    weighted expansions, evaluated termwise, never through the residue
    formulas.
    """
    ws.validate_index(n)
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    sign = Fraction(-1) ** total
    shifted = [a + ni + 1 for a, ni in zip(alpha, n)]
    plain = [a + 1 for a in alpha]
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        prefactor = sign
        for i in range(ws.p):
            prefactor *= pochhammer(alpha[i] + 1, n[i])
        return prefactor * series_term(shifted, plain, -1, k), GammaProduct.one()
    prefactor = sign
    for i in range(ws.p):
        prefactor *= pochhammer(alpha[i] + 1, n[i]) / pochhammer(alpha[i] + beta + total + 1, n[i])
    if ws.family is Family.JACOBI_PINEIRO:
        return prefactor * series_term([-beta - total, *shifted], plain, 1, k), GammaProduct.one()
    if k > ws.N:
        raise AdmissibilityError(f"the Hahn series stops at order N = {ws.N}")
    prefactor *= pochhammer(beta + 1, ws.N) / math.factorial(ws.N - total)
    value = prefactor * series_term(
        [-beta - total, *shifted], [-beta - Fraction(ws.N), *plain], 1, k
    )
    return value, GammaProduct.gamma(beta + 1)


def verify_type2_series_equivalence(ws: WeightSystem, n: MultiIndex, k_max: int) -> bool:
    """Residue route == series route for every expansion order k <= k_max."""
    if ws.family is Family.HAHN:
        k_max = min(k_max, ws.N)
    for k in range(k_max + 1):
        r_value, r_gamma = type2_residue_coefficient(ws, n, k)
        s_value, s_gamma = type2_series_coefficient(ws, n, k)
        if not scaled_values_equal(r_value, r_gamma, s_value, s_gamma):
            return False
    return True


def _phi_inverse(ws: WeightSystem, n: MultiIndex, t: Fraction) -> GammaProduct:
    """Reciprocal of the per-family analytic factor at a pole location."""
    total = total_degree(n)
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        return GammaProduct.gamma(t + 1)
    if ws.family is Family.JACOBI_PINEIRO:
        return GammaProduct.from_factors([
            (t + ws.beta + total, -1), (t + 1, 1), (ws.beta + 1, 1),
        ])
    return GammaProduct.from_factors([
        (t + ws.beta + total, -1), (t + ws.beta + ws.N + 2, 1), (t + 1, 1),
    ])


def interpolation_recover_p(ws: WeightSystem, n: MultiIndex, form: TypeIVector) -> tuple[Fraction, ...]:
    """Recover the integrand's polynomial factor from a type I vector.

    Inverts the per-pole residue relations
    coeff_i[k] = (-1)^k p(alpha_i+k) phi(alpha_i+k) / (k! (n_i-1-k)! prod_j ...)
    and interpolates the |n| exact node values.  Returns monomial
    coefficients of length |n| (degree at most |n|-1); for the vectors the
    generators produce, everything above degree 0 vanishes.
    """
    ws.validate_index(n, type_one=True)
    points = []
    for i, comp in enumerate(form.components):
        if n[i] == 0:
            if comp.coefficients and not comp.is_zero():
                raise PreconditionError(f"component {i} must vanish when n_i = 0")
            continue
        if len(comp.coefficients) != n[i]:
            raise PreconditionError(f"component {i} needs exactly n_i = {n[i]} coefficients")
        expected_kind = BasisKind.SHIFTED_RISING if ws.family is Family.HAHN else BasisKind.MONOMIAL
        if comp.basis.kind is not expected_kind:
            raise PreconditionError(f"component {i} is in an unexpected basis")
        effective_scale = comp.scale
        if ws.family is Family.HAHN:
            effective_scale = effective_scale * GammaProduct.gamma(ws.alpha[i] + 1, -1)
        for k in range(n[i]):
            node = ws.alpha[i] + k
            product = effective_scale * _phi_inverse(ws, n, node)
            factor, leftover = product.reduce()
            if not leftover.is_one():
                raise IrreducibleGammaError(f"pole value at t = {node} is not rational: {leftover}")
            value = comp.coefficients[k] * Fraction(-1) ** k * factor
            value *= math.factorial(k) * math.factorial(n[i] - 1 - k)
            for j in range(ws.p):
                if j != i and n[j] > 0:
                    value *= pochhammer(ws.alpha[j] - ws.alpha[i] - k, n[j])
            points.append((node, value))
    return interpolate(points)


def recovered_constant_closed_form(ws: WeightSystem, n: MultiIndex) -> Fraction:
    """Closed form of the constant the recovery must return for the true vectors."""
    total = total_degree(n)
    value = Fraction(-1) ** (total - 1)
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        return value
    for i in range(ws.p):
        value *= pochhammer(ws.alpha[i] + ws.beta + total, n[i])
    value /= pochhammer(ws.beta + 1, total - 1)
    if ws.family is Family.HAHN:
        value *= math.factorial(ws.N - total + 1)
    return value


def verify_ir_lemma(ws: WeightSystem, n: MultiIndex, p_coeffs) -> bool:
    """Constructive form of the constancy lemma for integrand numerators.

    A polynomial of degree <= |n|-1 orthogonal (through the pole-sum
    pairing) to every polynomial of degree <= |n|-2 takes equal values at
    all |n| zeros of prod_i (alpha_i - t)_{n_i}; having degree below the
    node count it is then constant.  Returns True iff the given polynomial
    takes one single value on that node set.
    """
    ws.validate_index(n, type_one=True)
    coeffs = [as_fraction(c) for c in p_coeffs]
    degree = max((k for k, c in enumerate(coeffs) if c != 0), default=-1)
    if degree > total_degree(n) - 1:
        raise PreconditionError(f"degree {degree} exceeds |n|-1 = {total_degree(n) - 1}")
    values = set()
    for pole in enumerate_poles(ws, n):
        values.add(sum((c * pole.location**k for k, c in enumerate(coeffs)), Fraction(0)))
    return len(values) <= 1
