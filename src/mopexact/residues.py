"""Pole-sum realizations of the contour representations.

Contours are never represented geometrically: each representation is
evaluated operationally as the exact sum of the residues at its enumerated
pole set.  Type I linear forms collect |n| simple poles at t = alpha_i + k
(k < n_i), all simple because the alpha differences are non-integer; the
type II inverse transforms have simple poles at the nonpositive integers
(all of them for the continuous families, the lattice window {0,...,N} for
Hahn).  Summing residues reproduces the direct coefficient formulas, and
this module certifies that duality term by term, both routes of a type I
component as coefficient rows in its basis :func:`families.type1_basis`, and
the type II residues and series by a first entry and a term ratio in k.

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
from .errors import PoleError, PreconditionError
from .gammaprod import LatticeRow, ratio_row, rising, rising_product
from .polybasis import TypeIVector, values_at
from .weights import HAHN, JACOBI_PINEIRO, LAGUERRE, MultiIndex, WeightSystem, total_degree


def _pole_weights(ws: WeightSystem, n: MultiIndex, i: int) -> list[tuple[int, int]]:
    """Residue denominators (-1)^k / (k! (n_i-1-k)! prod_{j!=i} (a_j-a_i-k)_{n_j}) for every k < n_i, reduced pairs.

    One running product: weight 0 is one :func:`rising_product` and weight k+1 is weight k times -(n_i-1-k)
    prod_j (a_j-a_i+n_j-1-k) / ((k+1) prod_j (a_j-a_i-k-1)), reduced by its gcd.  A Pochhammer that vanishes would
    make two poles collide and raises PoleError.  Kept per weight system, n and i for the duality and the recovered nodes."""
    def build():
        Q, alpha, _ = ws.integer_parameters
        others = [(alpha[j] - alpha[i], n[j]) for j in range(ws.p) if j != i and n[j]]
        weights = [rising_product(Q, (), others, 1, math.factorial(n[i] - 1))] if n[i] else []
        for k in range(n[i] - 1):
            (top, bottom), up, down = weights[-1], k + 1 - n[i], k + 1
            for p, m in others:  # ((p - kQ)/Q)_m over ((p - (k+1)Q)/Q)_m
                up, down = up * (p + (m - 1 - k) * Q), down * (p - (k + 1) * Q)
            weights.append(rising_product(Q, (), (), top * up, bottom * down))  # reduced, PoleError on a zero divisor
        return weights
    return ws.kept(("pole_weights", n, i), build)


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
    n = ws.validate_index(n, type_one=True)
    total = total_degree(n)
    Q, alpha, beta = ws.integer_parameters

    # the transcendental share of the prefactors (1/Gamma(beta+|n|) and the
    # per-weight gamma factors) is the canonical scale, left out of the rows
    shifted = [rising(a + beta + total * Q, Q, m) for a, m in zip(alpha, n)]
    components = []
    for i in range(ws.p):
        picked, lattice, top = [], [], (-1) ** (total - 1)
        if ws.family is JACOBI_PINEIRO:
            picked = shifted
        elif ws.family is HAHN:
            # (a)_{n_i} Gamma(a+k) / Gamma(a+k+N+2-|n|), a = alpha_i+beta+|n|: the tail is (a+n_i)_{N+2-|n|-n_i}
            # times the k-th down factor, so the vanishing boundary a = 0 cancels exactly
            picked = shifted[:i] + shifted[i + 1:]
            lattice = [(beta + Q, total - 1), (alpha[i] + beta + (total + n[i]) * Q, ws.N + 2 - total - n[i])]
            top *= math.factorial(ws.N - total + 1)
        top, bottom = rising_product(Q, (), lattice, top * math.prod(v for v, _ in picked),
                                     math.prod(d for _, d in picked))
        # term k carries (up/Q)_k / prod_d (d/Q)_k, with no up factor (alpha_i+beta+|n|)_k for Laguerre
        ups = [] if ws.family is LAGUERRE else [alpha[i] + beta + total * Q]
        downs = [alpha[i] + Q] + ([alpha[i] + beta + (ws.N + 2) * Q] if ws.family is HAHN else [])
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
        top, bottom = rising(alpha[i] + Q, Q, x.numerator) if ws.family is HAHN else (1, 1)  # (alpha_i+1)_x
        values.append(Fraction(num * top, den * bottom))
    return values


def check_residue_duality(ws: WeightSystem, n: MultiIndex, vec: TypeIVector) -> bool:
    """Residue route == direct route of the type I linear form, one coefficient row per component and route.

    Both rows are coefficients in :func:`families.type1_basis` against the canonical scale, so they
    compare entry by entry, cross-multiplied: no point is sampled."""
    rows = families.type1_rows(ws, n, vec)
    return all(len(terms) == len(row) and all(v * row_den == w * den for v, w in zip(terms, row))
               for (terms, den), (row, row_den) in zip(_type1_pole_terms(ws, n), rows))


def _type2_residue_factors(ws: WeightSystem, n: MultiIndex) -> tuple[tuple[int, int], list, list]:
    """Residues of the type II inverse-transform integrand at its poles k = 0, 1, ... as (first, ups, downs): residue
    k+1 is residue k times prod_u u(k) / prod_d d(k), each factor a pair (c0, c1) standing for c0 + c1 k.  Residue k
    is (-1)^|n| prod_i (alpha_i+1+k)_{n_i} / k! times (-1)^k (Laguerre), (-1)^k (beta+|n|+1-k)_k / prod_i
    (alpha_i+beta+|n|+1)_{n_i} (Jacobi-Pineiro), or q_k over that product and (N-|n|)! with q_0 = (beta+1)_N and
    q_{k+1} = q_k (beta+|n|-k) / (beta+N-k) (Hahn: its pole carries Gamma(beta+|n|+1) Gamma(beta+N+1-k) /
    Gamma(beta+|n|+1-k), read against Gamma(beta+1))."""
    total, hahn = total_degree(n), ws.family is HAHN
    Q, alpha, beta = ws.integer_parameters
    first = rising_product(
        Q, [(a + Q, ni) for a, ni in zip(alpha, n)] + ([(beta + Q, ws.N)] if hahn else []),
        () if ws.family is LAGUERRE else [(a + beta + (total + 1) * Q, ni) for a, ni in zip(alpha, n)],
        (-1) ** total, math.factorial(ws.N - total) if hahn else 1)
    ups = [(a + (ni + 1) * Q, Q) for a, ni in zip(alpha, n)] + ([] if hahn else [(-1, 0)])
    downs = [(a + Q, Q) for a in alpha] + [(1, 1)]  # ... over k+1
    if ws.family is not LAGUERRE:  # beta+|n|-k, over 1 or over beta+N-k
        ups.append((beta + total * Q, -Q))
        downs.append((beta + ws.N * Q, -Q) if hahn else (Q, 0))
    return first, ups, downs


def _first_root(factors, stop: int) -> int:
    """The least integer k in [0, stop) where a factor c0 + c1 k vanishes, else stop."""
    roots = (-c0 // c1 if c1 else 0 for c0, c1 in factors if (c1 and c0 % c1 == 0) or not (c0 or c1))
    return min((k for k in roots if 0 <= k < stop), default=stop)


def _primitive_factors(factors) -> tuple[int, list]:
    """prod factors as its content and its sorted primitive linear factors, each c1 made positive."""
    gcds = [(math.gcd(c0, c1) if c1 > 0 else -math.gcd(c0, c1)) if c1 else c0 for c0, c1 in factors]
    return math.prod(gcds), sorted((c0 // g, c1 // g) for (c0, c1), g in zip(factors, gcds) if c1)


def verify_type2_series_equivalence(ws: WeightSystem, n: MultiIndex, k_max: int) -> bool:
    """Residue route == series route for every order k <= k_max by a term-ratio certificate (Petkovsek, Wilf and
    Zeilberger, A = B, 1996): :func:`_type2_residue_factors` against :func:`families._type2_series_factors`, whose
    parameters come from the weighted expansions.  A route's row is zero past its first vanishing numerator factor;
    a denominator factor vanishing before that, below k_max, raises PoleError.  The rows agree when their first
    entries and ends agree and the cross-multiplied ratios have one content and one sorted list of primitive factors,
    never expanded: the ratios are then one rational function of k, so the certificate holds at every k."""
    n = ws.validate_index(n)
    if k_max < 0:
        raise PreconditionError(f"expansion order k_max = {k_max} must be nonnegative")
    if ws.family is HAHN:
        k_max = min(k_max, ws.N)
    Q = ws.integer_parameters[0]
    (top, bottom), z, ups, downs = families._type2_series_factors(ws, n)  # the ratio z prod (u+kQ)/Q / prod (d+kQ)/Q
    series = ((top, bottom), [(z, 0), *((u, Q) for u in ups), *[(Q, 0)] * len(downs)],
              [*((d, Q) for d in downs), *[(Q, 0)] * len(ups)])
    residue = _type2_residue_factors(ws, n)
    ends = []
    for _, numerator, denominator in (residue, series):
        ends.append(_first_root(numerator, k_max))
        if _first_root(denominator, ends[-1]) < ends[-1]:
            raise PoleError("a term-ratio denominator vanishes below k_max")
    ((first, first_den), res_ups, res_downs), (_, ser_ups, ser_downs) = residue, series
    if first * bottom != top * first_den:
        return False
    return not first or ends[0] == ends[1] and (
        ends[0] == 0 or _primitive_factors(res_ups + ser_downs) == _primitive_factors(ser_ups + res_downs))


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
    n = ws.validate_index(n, type_one=True)
    rows = families.type1_rows(ws, n, form)
    total = total_degree(n)
    Q, alpha, beta = ws.integer_parameters
    nodes = []
    for i, (coefficients, den) in enumerate(rows):
        top, bottom = 1, 1  # 1/phi(alpha_i) times the canonical scale, over Q
        if ws.family is JACOBI_PINEIRO:
            top, bottom = rising_product(Q, (), [(beta + Q, total - 1)])
        elif ws.family is HAHN:
            top, bottom = rising_product(Q, [(alpha[i] + beta + total * Q, ws.N + 2 - total)])
        for k, (coefficient, (weight, weight_den)) in enumerate(zip(coefficients, _pole_weights(ws, n, i))):
            t = alpha[i] + k * Q
            if k:  # 1/phi(t) over 1/phi(s), s = t-1: t/Q, t/(s+beta+|n|) or t (s+beta+N+2) / (Q (s+beta+|n|))
                s = t - Q
                top *= t * (s + beta + (ws.N + 2) * Q) if ws.family is HAHN else t
                bottom *= Q if ws.family is LAGUERRE else (s + beta + total * Q) * (
                    Q if ws.family is HAHN else 1)
            nodes.append(((t, Q), (coefficient * top * weight_den, den * bottom * weight)))
    return nodes


def recovered_constant_closed_form(ws: WeightSystem, n: MultiIndex) -> tuple[int, int]:
    """Closed form of the constant the recovery must return for the true vectors, as a reduced integer pair:
    (-1)^(|n|-1), times prod_i (alpha_i+beta+|n|)_{n_i} / (beta+1)_{|n|-1} unless Laguerre, times (N+1-|n|)! for Hahn."""
    n = ws.validate_index(n, type_one=True)
    total = total_degree(n)
    if ws.family is LAGUERRE:
        return (-1) ** (total - 1), 1
    Q, alpha, beta = ws.integer_parameters
    top = (-1) ** (total - 1) * (math.factorial(ws.N - total + 1) if ws.family is HAHN else 1)
    return rising_product(Q, [(a + beta + total * Q, ni) for a, ni in zip(alpha, n)], [(beta + Q, total - 1)], top)
