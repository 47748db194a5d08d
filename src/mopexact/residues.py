"""Pole-sum realizations of the contour representations.

Contours are never represented geometrically: each representation is
evaluated operationally as the exact sum of the residues at its enumerated
pole set.  Type I linear forms collect |n| simple poles at t = alpha_i + k
(k < n_i), all simple because the alpha differences are non-integer; the
type II inverse transforms have simple poles at the nonpositive integers
(all of them for the continuous families, the lattice window {0,...,N} for
Hahn).  Summing residues reproduces the direct coefficient formulas, and
this module certifies that duality term by term.

Everything that does not depend on the sample point x or the expansion
order k is built once per instance: the type I pole-sum terms carry their
pole weights, prefactors and residual (:func:`_type1_pole_terms`), and the
type II residue and series coefficients come as rows over k = 0..k_max
(:func:`_type2_residue_row`, :func:`_type2_series_row`).  The duality is
checked by :func:`check_residue_duality` and the series equivalence by
:func:`verify_type2_series_equivalence`, one call per instance each.

Normalization data: the per-pole values of a type I vector are the values
of the integrand's polynomial factor at its |n| distinct nodes
(:func:`recovered_nodes`), which the orthogonality conditions force to be
one constant; the verifier checks each node against its closed form, and
:func:`interpolation_recover_p` interpolates the same nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import families
from .errors import IrreducibleGammaError, PoleError, PreconditionError
from .gammaprod import GammaProduct, pochhammer, rising_row
from .linalg import interpolate
from .polybasis import BasisKind, ScaledPolynomial, TypeIVector
from .weights import Family, MultiIndex, WeightSystem, total_degree


def _scaled_rows_equal(left, left_gamma: GammaProduct, right, right_gamma: GammaProduct) -> bool:
    """Whether left[k] * left_gamma == right[k] * right_gamma for every k, exactly.

    The gamma quotient is reduced once for the whole row and must leave no
    residual; gamma factors never vanish, so two zero entries are equal
    regardless of it.
    """
    quotient, leftover = (left_gamma / right_gamma).reduce()
    return all(
        a == b if a == 0 or b == 0 else leftover.is_one() and a * quotient == b
        for a, b in zip(left, right, strict=True)
    )


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


def _type1_pole_terms(ws: WeightSystem, n: MultiIndex) -> list[tuple[list[Fraction], GammaProduct]]:
    """Per component i: the residues at t = alpha_i + k, k < n_i, and the residual.

    Term k has the pole weight, the family prefactor and every other
    x-independent factor folded in; it multiplies x**k for the continuous
    families and (alpha_i+1+k)_x for Hahn (:func:`_pole_sum`).  The residual
    is the same canonical gamma scale the direct generators carry, so the
    two routes compare componentwise.
    """
    ws.validate_index(n, type_one=True)
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
        terms = []
        for k in range(n[i]):
            term = comp_prefactor * _pole_weight(ws, n, i, k)
            if ws.family is Family.LAGUERRE_FIRST_KIND:
                term /= pochhammer(alpha[i] + 1, k)
            elif ws.family is Family.JACOBI_PINEIRO:
                term *= pochhammer(alpha[i] + beta + total, k) / pochhammer(alpha[i] + 1, k)
            else:
                # (a)_{n_i} Gamma(a+k) / Gamma(a+k+N+2-|n|) with the vanishing
                # boundary a = alpha_i+beta+|n| = 0 cancelled exactly
                shifted = alpha[i] + beta + total
                term *= pochhammer(shifted, k)
                term /= pochhammer(shifted + n[i], ws.N + 2 - total + k - n[i])
            terms.append(term)
        residual = GammaProduct.one() if ws.family is Family.HAHN else families.type1_scale(ws, i, total)
        components.append((terms, residual))
    return components


def _pole_sum(ws: WeightSystem, i: int, terms: list[Fraction], x: Fraction) -> Fraction:
    """Component i of the residue route at x: the terms against their x-dependent factors."""
    if ws.family is Family.HAHN:
        m = x.numerator
        return sum((t * pochhammer(ws.alpha[i] + 1 + k, m) for k, t in enumerate(terms)), Fraction(0))
    return sum((t * x**k for k, t in enumerate(terms)), Fraction(0))


def _direct_scale(ws: WeightSystem, comp: ScaledPolynomial) -> tuple[Fraction, GammaProduct]:
    """Rational factor and residual of a direct component: its scale's rational for Hahn."""
    if ws.family is not Family.HAHN:
        return Fraction(1), comp.scale
    scale_rational, leftover = comp.scale.reduce()
    if not leftover.is_one():
        raise IrreducibleGammaError("Hahn type I scales are rational")
    return scale_rational, GammaProduct.one()


def _direct_value(ws: WeightSystem, i: int, comp: ScaledPolynomial, x: Fraction) -> Fraction:
    """Component i of the direct route at x before its scale: A_i(x), times (alpha_i+1)_x for Hahn."""
    if not comp.coefficients:
        return Fraction(0)
    if ws.family is Family.HAHN:
        m = x.numerator
        nums, den = comp.lattice_values(ws.N)
        return Fraction(nums[m], den) * pochhammer(ws.alpha[i] + 1, m)
    return comp.rational_value(x)


def type1_direct_values(ws: WeightSystem, vec: TypeIVector, x) -> list[tuple[Fraction, GammaProduct]]:
    """Per weight i, the direct route's share of the type I linear form at x.

    A rational and its residual gamma product, split as
    :func:`check_residue_duality` compares them: for the continuous families
    the rational multiplies x**alpha_i and the residual; for Hahn the
    lattice factor (alpha_i+1)_x is folded in and the residual is empty.
    """
    x = ws.check_point(x)
    values = []
    for i, comp in enumerate(vec.components):
        factor, residual = _direct_scale(ws, comp)
        values.append((factor * _direct_value(ws, i, comp, x), residual))
    return values


def check_residue_duality(ws: WeightSystem, n: MultiIndex, vec: TypeIVector, points) -> bool:
    """Residue route == direct route of the type I linear form at every point.

    The pole-sum terms and each component's residual-over-scale quotient
    are built once; every point then costs one pole sum and one value of
    the vector per component.
    """
    poles = _type1_pole_terms(ws, n)
    points = [ws.check_point(x) for x in points]
    if len(vec.components) != len(poles):
        return False
    for i, ((terms, residual), comp) in enumerate(zip(poles, vec.components)):
        factor, direct_residual = _direct_scale(ws, comp)
        if not _scaled_rows_equal(
            [_pole_sum(ws, i, terms, x) for x in points], residual,
            [factor * _direct_value(ws, i, comp, x) for x in points], direct_residual,
        ):
            return False
    return True


def _type2_residue_row(ws: WeightSystem, n: MultiIndex, k_max: int) -> tuple[list[Fraction], GammaProduct]:
    """Residues of the type II inverse-transform integrand at its poles k = 0..k_max.

    Entry k is a rational against the returned gamma product: empty for
    the continuous families, Gamma(beta+1) for Hahn, whose pole carries
    Gamma(beta+|n|+1) Gamma(beta+N+1-k) / Gamma(beta+|n|+1-k); against
    Gamma(beta+1) that is the rational q_k with q_0 = (beta+1)_N and
    q_{k+1} = q_k (beta+|n|-k) / (beta+N-k).  (alpha_i+1+k)_{n_i} is
    row[k+n_i] / row[k] of one rising row per weight, and the scalar
    (-1)^k/k! [times (beta+|n|+1-k)_k for Jacobi-Pineiro; 1/k! times q_k
    for Hahn] advances by its one-step ratio.
    """
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    lead = Fraction(-1) ** total
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        for i in range(ws.p):
            lead /= pochhammer(alpha[i] + beta + total + 1, n[i])
    if ws.family is Family.HAHN:
        lead *= pochhammer(beta + 1, ws.N) / math.factorial(ws.N - total)
    leads = [lead]
    for k in range(k_max):
        if ws.family is Family.LAGUERRE_FIRST_KIND:
            step = Fraction(-1, k + 1)
        elif ws.family is Family.JACOBI_PINEIRO:
            step = -(beta + total - k) / (k + 1)
        else:
            step = (beta + total - k) / ((k + 1) * (beta + ws.N - k))
        leads.append(leads[-1] * step)
    rows = [rising_row(alpha[i] + 1, k_max + n[i] + 1) for i in range(ws.p)]
    values = []
    for k, value in enumerate(leads):
        for row, ni in zip(rows, n):
            value *= row[k + ni] / row[k]
        values.append(value)
    gamma = GammaProduct.gamma(beta + 1) if ws.family is Family.HAHN else GammaProduct.one()
    return values, gamma


def _type2_series_row(ws: WeightSystem, n: MultiIndex, k_max: int) -> tuple[list[Fraction], GammaProduct]:
    """Terms k = 0..k_max of the hypergeometric series form of the same expansion.

    Independent route: the series parameters come straight from the
    weighted expansions, never through the residue formulas.  The
    prefactor is computed once and each term is the one before times the
    term ratio.  A zero numerator factor ends the series with zeros; a zero
    denominator factor under a nonzero numerator raises PoleError.
    """
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    prefactor = Fraction(-1) ** total
    for i in range(ws.p):
        prefactor *= pochhammer(alpha[i] + 1, n[i])
    numerators = [a + ni + 1 for a, ni in zip(alpha, n)]
    denominators = [a + 1 for a in alpha]
    argument = -1 if ws.family is Family.LAGUERRE_FIRST_KIND else 1
    gamma = GammaProduct.one()
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        for i in range(ws.p):
            prefactor /= pochhammer(alpha[i] + beta + total + 1, n[i])
        numerators.append(-beta - total)
    if ws.family is Family.HAHN:
        prefactor *= pochhammer(beta + 1, ws.N) / math.factorial(ws.N - total)
        denominators.append(-beta - ws.N)
        gamma = GammaProduct.gamma(beta + 1)
    row = [prefactor]
    for k in range(k_max):
        top = argument * math.prod(a + k for a in numerators)
        if top == 0:
            row.extend([Fraction(0)] * (k_max - k))
            break
        bottom = (k + 1) * math.prod(d + k for d in denominators)
        if bottom == 0:
            raise PoleError(f"denominator pochhammer vanishes in term {k + 1}")
        row.append(row[-1] * top / bottom)
    return row, gamma


def verify_type2_series_equivalence(ws: WeightSystem, n: MultiIndex, k_max: int) -> bool:
    """Residue route == series route for every expansion order k <= k_max."""
    ws.validate_index(n)
    if ws.family is Family.HAHN:
        k_max = min(k_max, ws.N)
    return _scaled_rows_equal(*_type2_residue_row(ws, n, k_max), *_type2_series_row(ws, n, k_max))


def recovered_nodes(ws: WeightSystem, n: MultiIndex, form: TypeIVector) -> list[tuple[Fraction, Fraction]]:
    """(t, p(t)) at every pole t = alpha_i + k, k < n_i: the integrand's polynomial factor read off a type I vector.

    Inverts coeff_i[k] = p(t) phi(t) w_i(k) (w the :func:`_pole_weight`,
    phi the per-family analytic factor).  The component scale over phi is
    reduced once per component, at t = alpha_i; each next node multiplies it
    by the one-step ratio of 1/phi.  The nodes are distinct, so p is the
    constant c exactly when every node value is c.
    """
    ws.validate_index(n, type_one=True)
    total = total_degree(n)
    nodes = []
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
        t = ws.alpha[i]
        inverse = [(t + 1, 1)]  # 1/phi(t), and the 1/Gamma(alpha_i+1) of the Hahn lattice weight
        if ws.family is Family.JACOBI_PINEIRO:
            inverse += [(ws.beta + 1, 1), (t + ws.beta + total, -1)]
        elif ws.family is Family.HAHN:
            inverse += [(t + ws.beta + ws.N + 2, 1), (t + ws.beta + total, -1), (ws.alpha[i] + 1, -1)]
        factor, leftover = (comp.scale * GammaProduct.from_factors(inverse)).reduce()
        if not leftover.is_one():
            raise IrreducibleGammaError(f"pole value at t = {t} is not rational: {leftover}")
        for k, coefficient in enumerate(comp.coefficients):
            if k:  # 1/phi(t+1) over 1/phi(t)
                factor *= (t + 1) * (t + ws.beta + ws.N + 2) if ws.family is Family.HAHN else t + 1
                if ws.family is not Family.LAGUERRE_FIRST_KIND:
                    factor /= t + ws.beta + total
                t += 1
            nodes.append((t, coefficient * factor / _pole_weight(ws, n, i, k)))
    return nodes


def interpolation_recover_p(ws: WeightSystem, n: MultiIndex, form: TypeIVector) -> tuple[Fraction, ...]:
    """Monomial coefficients (length |n|) of the polynomial through the nodes of :func:`recovered_nodes`."""
    return interpolate(recovered_nodes(ws, n, form))


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
