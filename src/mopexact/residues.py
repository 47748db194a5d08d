"""Pole-sum realizations of the contour representations.

Contours are never represented geometrically: each representation is
evaluated operationally as the exact sum of the residues at its enumerated
pole set.  Type I linear forms collect |n| simple poles at t = alpha_i + k
(k < n_i), all simple because the alpha differences are non-integer; the
type II inverse transforms have simple poles at the nonpositive integers
(all of them for the continuous families, the lattice window {0,...,N} for
Hahn).  Summing residues reproduces the direct coefficient formulas, and
this module certifies that duality term by term, both routes of a type I
component as coefficient rows in its basis :func:`families.type1_basis`.

What does not depend on the expansion order k is built once per instance,
and every rational is an integer pair, never reduced, compared
cross-multiplied (:mod:`mopexact.gammaprod`).  Both sides
of every comparison are read against the same gamma, which is never built
here: the canonical type I scale of :func:`families.type1_scale`,
Gamma(beta+1) for the Hahn type II rows, none otherwise.
The per-pole values of a type I vector are the values of the integrand's
polynomial factor at its |n| distinct nodes (:func:`recovered_nodes`), which
orthogonality forces to be one constant, checked against its closed form.
Every reader here takes a type I vector only as :func:`families.type1_rows`
admits it, the gate the oracle's checks go through too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import families
from .errors import PreconditionError
from .gammaprod import LatticeRow, ratio_row, rising, rising_product, same
from .polybasis import TypeIVector, values_at
from .weights import Family, MultiIndex, WeightSystem, total_degree


def _pole_weights(ws: WeightSystem, n: MultiIndex, i: int) -> list[tuple[int, int]]:
    """Residue denominators (-1)^k / (k! (n_i-1-k)! prod_{j!=i} (a_j-a_i-k)_{n_j}) for every k < n_i.

    Each weight is one :func:`rising_product`, a reduced integer pair; a Pochhammer that vanishes
    would make two poles collide and raises PoleError.  Built once per weight system, n and i
    (:meth:`WeightSystem.kept`) for the duality and the recovered nodes."""
    Q, alpha, _ = ws.integer_parameters
    others = [(alpha[j] - alpha[i], n[j]) for j in range(ws.p) if j != i and n[j]]
    return ws.kept(("pole_weights", tuple(n), i), lambda: [
        rising_product(Q, (), [(p - k * Q, m) for p, m in others], (-1) ** k,
                       math.factorial(k) * math.factorial(n[i] - 1 - k)) for k in range(n[i])])


def _type1_pole_terms(ws: WeightSystem, n: MultiIndex) -> list[LatticeRow]:
    """Per component i: the residues at t = alpha_i + k, k < n_i, as one integer row.

    Term k has the pole weight, the family prefactor and every other
    x-independent factor folded in; it multiplies basis element k of
    :func:`families.type1_basis`, x**k or, for Hahn, (x+alpha_i+1)_k: the
    residue's (alpha_i+1+k)_x over the shared (alpha_i+1)_x, times (alpha_i+1)_k.
    The row is read against the canonical gamma scale the direct generators are
    read against, so the two routes compare componentwise.  The terms share one
    denominator: the prefactor's times the pole weights' lcm times Q^(n_i-1) prod_d (d/Q)_{n_i-1}.
    """
    ws.validate_index(n, type_one=True)
    total = total_degree(n)
    Q, alpha, beta = ws.integer_parameters

    # the transcendental share of the prefactors (1/Gamma(beta+|n|) and the
    # per-weight gamma factors) is the canonical scale, left out of the rows
    shifted = [rising(a + beta + total * Q, Q, m) for a, m in zip(alpha, n)]
    components = []
    for i in range(ws.p):
        picked, lattice, top = [], [], (-1) ** (total - 1)
        if ws.family is Family.JACOBI_PINEIRO:
            picked = shifted
        elif ws.family is Family.HAHN:
            # (a)_{n_i} Gamma(a+k) / Gamma(a+k+N+2-|n|), a = alpha_i+beta+|n|: the tail is (a+n_i)_{N+2-|n|-n_i}
            # times the k-th down factor, so the vanishing boundary a = 0 cancels exactly
            picked = shifted[:i] + shifted[i + 1:]
            lattice = [(beta + Q, total - 1), (alpha[i] + beta + (total + n[i]) * Q, ws.N + 2 - total - n[i])]
            top *= math.factorial(ws.N - total + 1)
        top, bottom = rising_product(Q, (), lattice, top * math.prod(v for v, _ in picked),
                                     math.prod(d for _, d in picked))
        # term k carries (up/Q)_k / prod_d (d/Q)_k, with no up factor (alpha_i+beta+|n|)_k for Laguerre
        ups = [] if ws.family is Family.LAGUERRE_FIRST_KIND else [alpha[i] + beta + total * Q]
        downs = [alpha[i] + Q] + ([alpha[i] + beta + (ws.N + 2) * Q] if ws.family is Family.HAHN else [])
        weights, (ratios, ratios_den) = _pole_weights(ws, n, i), ratio_row(ups, downs, n[i], Q)
        common = math.lcm(*(w_den for _, w_den in weights))
        components.append(([w * (common // w_den) * top * v for (w, w_den), v in zip(weights, ratios)],
                           bottom * common * ratios_den))
    return components


def type1_direct_values(ws: WeightSystem, n: MultiIndex, vec: TypeIVector, x) -> list[Fraction]:
    """Per weight i, the direct route's share of the type I linear form at x, as ``eval --type 1`` prints it.
    Laguerre and Jacobi-Pineiro: A_i(x), which multiplies x**alpha_i and the canonical scale
    :func:`families.type1_scale`; Hahn: A_i(x) (alpha_i+1)_x, the scale being empty.  The weight factor all
    components share is left out: e^-x for Laguerre, (1-x)^beta for Jacobi-Pineiro and
    (beta+1)_{N-x} / (x! (N-x)!) for Hahn."""
    rows = families.type1_rows(ws, n, vec)
    x = ws.check_point(x)
    Q, alpha, _ = ws.integer_parameters
    values = []
    for i, row in enumerate(rows):
        [(num, den)] = values_at(families.type1_basis(ws, i), row, [x])
        top, bottom = rising(alpha[i] + Q, Q, x.numerator) if ws.family is Family.HAHN else (1, 1)  # (alpha_i+1)_x
        values.append(Fraction(num * top, den * bottom))
    return values


def check_residue_duality(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> bool:
    """Residue route == direct route of the type I linear form, one coefficient row per component and route.

    Both rows are coefficients in :func:`families.type1_basis` against the canonical scale, so they
    compare entry by entry, cross-multiplied: no point is sampled."""
    rows = families.type1_rows(ws, n, vec)
    return all(same([(v, den) for v in terms], [(v, row_den) for v in row])
               for (terms, den), (row, row_den) in zip(_type1_pole_terms(ws, n), rows))


def _type2_residue_row(ws: WeightSystem, n: MultiIndex, k_max: int) -> list[tuple[int, int]]:
    """Residues of the type II inverse-transform integrand at its poles k = 0..k_max.

    Entry k is a rational, an integer pair, against a gamma product: empty for
    the continuous families, Gamma(beta+1) for Hahn, whose pole carries
    Gamma(beta+|n|+1) Gamma(beta+N+1-k) / Gamma(beta+|n|+1-k); against
    Gamma(beta+1) that is the rational q_k with q_0 = (beta+1)_N and
    q_{k+1} = q_k (beta+|n|-k) / (beta+N-k).  The scalar (-1)^k/k! [times
    (beta+|n|+1-k)_k for Jacobi-Pineiro; 1/k! times q_k for Hahn] advances
    in integers by its one-step ratio; over Q, (alpha_i+1+k)_{n_i} = prod_{l<n_i} (a_i+(k+l+1)Q) / Q^{n_i}."""
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


def verify_type2_series_equivalence(ws: WeightSystem, n: MultiIndex, k_max: int) -> bool:
    """Residue route == series route for every expansion order k <= k_max."""
    ws.validate_index(n)
    if k_max < 0:
        raise PreconditionError(f"expansion order k_max = {k_max} must be nonnegative")
    if ws.family is Family.HAHN:
        k_max = min(k_max, ws.N)
    # the series route takes its parameters straight from the weighted expansions (families._type2_series, one Hahn
    # row with the weighted series), never from the residue formulas; a pole under a nonzero numerator raises PoleError
    (top, bottom), nums, den = families._type2_series(ws, n, k_max + 1)
    return same(_type2_residue_row(ws, n, k_max), [(top * v, bottom * den) for v in nums])  # against one gamma


def recovered_nodes(ws: WeightSystem, n: MultiIndex, form: TypeIVector) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(t, p(t)) at every pole t = alpha_i + k, k < n_i, each an integer pair (numerator, nonzero denominator):
    the integrand's polynomial factor read off a type I vector.

    Inverts coeff_i[k] = p(t) phi(t) w_i(k) (w the :func:`_pole_weights` row,
    phi the per-family analytic factor).  Against the canonical scale the
    factor at t = alpha_i is 1 for Laguerre, 1/(beta+1)_{|n|-1} for
    Jacobi-Pineiro and (alpha_i+beta+|n|)_{N+2-|n|} for Hahn; each next node
    multiplies it by the one-step ratio of 1/phi.  The nodes are distinct, so
    p is the constant c exactly when every node value is c.
    """
    rows = families.type1_rows(ws, n, form)
    total = total_degree(n)
    Q, alpha, beta = ws.integer_parameters
    nodes = []
    for i, (coefficients, den) in enumerate(rows):
        top, bottom = 1, 1  # 1/phi(alpha_i) times the canonical scale, over Q
        if ws.family is Family.JACOBI_PINEIRO:
            top, bottom = rising_product(Q, (), [(beta + Q, total - 1)])
        elif ws.family is Family.HAHN:
            top, bottom = rising_product(Q, [(alpha[i] + beta + total * Q, ws.N + 2 - total)])
        for k, (coefficient, (weight, weight_den)) in enumerate(zip(coefficients, _pole_weights(ws, n, i))):
            t = alpha[i] + k * Q
            if k:  # 1/phi(t) over 1/phi(s), s = t-1: t/Q, t/(s+beta+|n|) or t (s+beta+N+2) / (Q (s+beta+|n|))
                s = t - Q
                top *= t * (s + beta + (ws.N + 2) * Q) if ws.family is Family.HAHN else t
                bottom *= Q if ws.family is Family.LAGUERRE_FIRST_KIND else (s + beta + total * Q) * (
                    Q if ws.family is Family.HAHN else 1)
            nodes.append(((t, Q), (coefficient * top * weight_den, den * bottom * weight)))
    return nodes


def recovered_constant_closed_form(ws: WeightSystem, n: MultiIndex) -> tuple[int, int]:
    """Closed form of the constant the recovery must return for the true vectors, as a reduced integer pair:
    (-1)^(|n|-1), times prod_i (alpha_i+beta+|n|)_{n_i} / (beta+1)_{|n|-1} unless Laguerre, times (N+1-|n|)! for Hahn."""
    total = total_degree(n)
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        return (-1) ** (total - 1), 1
    Q, alpha, beta = ws.integer_parameters
    top = (-1) ** (total - 1) * (math.factorial(ws.N - total + 1) if ws.family is Family.HAHN else 1)
    return rising_product(Q, [(a + beta + total * Q, ni) for a, ni in zip(alpha, n)], [(beta + Q, total - 1)], top)
