"""Integer parameters over one denominator against Fraction references.

Every Pochhammer argument on the verify path is an integer over the weight
system's one denominator Q, multiplied out by the integer kernel
``gammaprod.rising`` and reduced once per prefactor by
``gammaprod.rising_product``.  The references below are the Fraction forms
those sites had: one Fraction per Pochhammer factor, one Fraction per term
ratio.  Each rewritten site must give the same values, or raise the same
error class, on the drawn systems, on the Hahn corner and on a system with
large coprime denominators (so that Q is large).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import AdmissibilityError, PoleError, PreconditionError, WeightSystem, families, oracle, residues
from mopexact.driver import apply_fault
from mopexact.gammaprod import pochhammer, rising, rising_product
from mopexact.weights import Family, total_degree
from conftest import (
    admissible_systems, hahn_corner_systems, monomial_coefficients, pair_values, recovered_node_values, row_values,
)

F = Fraction


def poch(a, n: int) -> Fraction:
    """(a)_n as a product of Fractions; n < 0 through 1/((a-1)...(a+n)), ZeroDivisionError on a zero factor."""
    a = F(a)
    if n >= 0:
        return math.prod((a + j for j in range(n)), start=F(1))
    return 1 / math.prod((a - j for j in range(1, -n + 1)), start=F(1))


def terms(ups, downs, length: int) -> list[Fraction]:
    """prod_u (u)_k / prod_d (d)_k for k < length, one Fraction term ratio per step.

    A zero numerator factor ends the row with zeros; a zero denominator factor
    under a nonzero numerator is a PoleError."""
    row = [F(1)] * min(length, 1)
    for k in range(length - 1):
        top = math.prod((F(u) + k for u in ups), start=F(1))
        if top == 0:
            return row + [F(0)] * (length - len(row))
        bottom = math.prod((F(d) + k for d in downs), start=F(1))
        if bottom == 0:
            raise PoleError(f"denominator pochhammer vanishes in term {k + 1}")
        row.append(row[-1] * top / bottom)
    return row


def outcome(function, *args):
    """The value, or the error class, of one call."""
    try:
        return function(*args)
    except (AdmissibilityError, PoleError, PreconditionError, ZeroDivisionError) as exc:
        return type(exc)


# --- the integer kernel ------------------------------------------------------


@given(a=st.fractions(-6, 6, max_denominator=7), n=st.integers(-6, 8))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_fraction_product(a, n):
    expected = outcome(poch, a, n)
    num, den = rising(a.numerator, a.denominator, n)
    if expected is ZeroDivisionError:
        assert n < 0 and den == 0
        with pytest.raises(ZeroDivisionError):
            pochhammer(a, n)
        with pytest.raises(PoleError):
            rising_product(a.denominator, [(a.numerator, n)])
        return
    assert F(num, den) == expected == pochhammer(a, n)
    assert outcome(rising_product, a.denominator, [], [(a.numerator, n)]) == (
        PoleError if expected == 0 else (1 / expected).as_integer_ratio())


def test_prefactor_helper_reduces_once():
    # (1/3)_2 (5/3)_1 / (2/3)_3 * 4/6 over q = 3, and a vanishing divisor
    assert rising_product(3, [(1, 2), (5, 1)], [(2, 3)], 4, 6) == (poch(F(1, 3), 2) * poch(F(5, 3), 1) / poch(F(2, 3), 3)
                                                                    * F(4, 6)).as_integer_ratio()
    assert rising_product(3, top=-2, bottom=-6) == (1, 3)
    with pytest.raises(PoleError):
        rising_product(3, downs=[(-3, 2)])


# --- Fraction references of the rewritten sites --------------------------------


def type2_prefactor(ws, n) -> Fraction:
    total = total_degree(n)
    prefactor = F(1) if ws.family is Family.HAHN else F(-1) ** total
    for q in range(ws.p):
        prefactor *= poch(ws.alpha[q] + 1, n[q])
        if ws.family is not Family.LAGUERRE_FIRST_KIND:
            prefactor /= poch(ws.alpha[q] + ws.beta + total + 1, n[q])
    return prefactor


def type1_component(ws, n, i) -> list[Fraction]:
    alpha, total = ws.alpha, total_degree(n)
    others = [j for j in range(ws.p) if j != i]
    prefactor = F(-1) ** (total - 1) / math.factorial(n[i] - 1)
    for j in others:
        prefactor /= poch(alpha[j] - alpha[i], n[j])
    ups = [1 - n[i], *(alpha[i] - alpha[j] - n[j] + 1 for j in others)]
    downs = [1, alpha[i] + 1, *(alpha[i] - alpha[j] + 1 for j in others)]
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        ups.append(alpha[i] + ws.beta + total)
        for j in others if ws.family is Family.HAHN else range(ws.p):
            prefactor *= poch(alpha[j] + ws.beta + total, n[j])
    if ws.family is Family.HAHN:
        prefactor *= math.factorial(ws.N + 1 - total)
        prefactor /= poch(ws.beta + 1, total - 1)
        prefactor /= poch(alpha[i] + ws.beta + total + n[i], ws.N + 2 - total - n[i])
        downs.append(alpha[i] + ws.beta + ws.N + 2)
    return [prefactor * t for t in terms(ups, downs, n[i])]


def type2_series(ws, n, length: int) -> tuple[Fraction, list[Fraction]]:
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    prefactor = F(-1) ** total
    for i in range(ws.p):
        prefactor *= poch(alpha[i] + 1, n[i])
    ups = [a + ni + 1 for a, ni in zip(alpha, n)]
    downs = [1] + [a + 1 for a in alpha]
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        for i in range(ws.p):
            prefactor /= poch(alpha[i] + beta + total + 1, n[i])
        ups.append(-beta - total)
    if ws.family is Family.HAHN:
        prefactor *= poch(beta + 1, ws.N) / math.factorial(ws.N - total)
        downs.append(-beta - ws.N)
    row = terms(ups, downs, length)
    if ws.family is Family.LAGUERRE_FIRST_KIND:
        row = [-v if l % 2 else v for l, v in enumerate(row)]
    return prefactor, row


def kdf_values(ws, n, i) -> list[Fraction]:
    other = 1 - i
    a_i, a_hat = ws.alpha[i], ws.alpha[other]
    n_i, n_hat = n[i], n[other]
    beta, N = ws.beta, ws.N
    tot = n_i + n_hat
    prefactor = F(-1) ** (n_i - 1)
    prefactor *= math.factorial(N + 1 - tot) * math.factorial(tot - 2)
    prefactor /= math.factorial(n_i - 1) * math.factorial(n_hat - 1)
    prefactor /= poch(beta + 1, tot - 1)
    prefactor /= poch(a_i + beta + tot + n_i, N + 1 - tot)
    prefactor *= poch(a_hat + beta + n_hat + 1, tot - 1)
    prefactor /= poch(a_i - a_hat - n_hat + 1, tot - 1)
    joint = terms([1 - n_i, -N], [2 - tot, a_hat + beta + n_hat + 1], n_i)
    left = terms([a_hat - a_i - n_i + 1], [1], n_i)
    right = terms([a_i + beta + tot, a_i - a_hat - n_hat + 1], [a_i + 1, -N], n_i)
    inner = [(-1) ** m * r * sum((joint[l + m] * left[l] for l in range(n_i - m)), F(0)) for m, r in enumerate(right)]
    return [prefactor * sum((math.comb(x, m) * c for m, c in enumerate(inner)), F(0)) for x in range(N + 1)]


def summation_identity(ws, n) -> list[bool]:
    total = total_degree(n)
    alpha, beta, N = ws.alpha, ws.beta, ws.N
    active = [i for i in range(ws.p) if n[i]]
    beta_row = terms([beta + 1], [], total)
    head = F(-1) ** (total - 1) * math.factorial(N + 1 - total)
    head /= math.factorial(N) * poch(beta + 1, total - 1)
    acc = [F(0)] * total
    for i in active:
        a, b = alpha[i] + beta + N + 2, alpha[i] + beta + 2
        others = [k for k in active if k != i]
        f = terms([1 - n[i], b + total - 2, *(alpha[i] + 1 - alpha[k] - n[k] for k in others)],
                  [1, a, *(alpha[i] + 1 - alpha[k] for k in others)], n[i])
        g = terms([a], [b], total + n[i] - 1)
        constant = poch(b, total - 2 + n[i]) / math.factorial(n[i] - 1)
        for k in others:
            constant *= poch(alpha[k] + beta + total, n[k]) / poch(alpha[k] - alpha[i], n[k])
        for j in range(total):
            acc[j] += constant * sum((f[l] * g[j + l] for l in range(n[i])), F(0))
    values = [head * v * w for v, w in zip(beta_row, acc)]
    return [value == ((-1) ** (total - 1) if j == total - 1 else 0) for j, value in enumerate(values)]


def mellin_sides(ws, n, poly, s) -> tuple[Fraction, Fraction]:
    """Both sides of the Mellin check at s, as cofactors of one gamma factor."""
    total = total_degree(n)
    head = F(-1) ** total
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        head *= poch(ws.beta + 1, total)
        for i in range(ws.p):
            head /= poch(ws.alpha[i] + ws.beta + total + 1, n[i])
    rhs = head
    for a, ni in zip(ws.alpha, n):
        rhs *= poch(a + 1 - s, ni)
    if ws.family is Family.HAHN:
        rhs *= poch(s + total + ws.beta + 1, ws.N - total) / math.factorial(ws.N - total)
        lhs = sum((v * poch(s, x) / math.factorial(x) for x, v in enumerate(hahn_weighted(ws, poly))), F(0))
        return lhs, rhs
    lhs = F(0)
    for k, c in enumerate(monomial_coefficients(poly)):
        shifted = poch(s + ws.beta + 1 + k, total - k) if ws.family is Family.JACOBI_PINEIRO else 1
        lhs += c * poch(s, k) * shifted
    return lhs, rhs


def hahn_weighted(ws, poly) -> list[Fraction]:
    """Q(x) (beta+1)_{N-x} / (N-x)! at x = 0..N."""
    return [poly.rational_value(x) * poch(ws.beta + 1, ws.N - x) / math.factorial(ws.N - x) for x in range(ws.N + 1)]


def jp_relation(ws, n, poly) -> bool:
    p = families.type2(WeightSystem.jacobi_pineiro(ws.alpha, ws.beta), n).coefficients
    total, N = total_degree(n), ws.N
    return all(poly.coefficients[k] == F(-1) ** k * math.factorial(N - k) / math.factorial(N - total) * p[k]
               for k in range(total + 1))


def moment_scale(ws, i, total) -> Fraction:
    if ws.family is not Family.JACOBI_PINEIRO:
        return F(1)
    if ws.alpha[i] + ws.beta + total == 0:
        raise PoleError("degenerate type I normalization")
    return poch(ws.alpha[i] + ws.beta + 2, total - 2) / poch(ws.beta + 1, total - 1)


def pole_weights(ws, n, i) -> list[Fraction]:
    weights = []
    for k in range(n[i]):
        value = F(-1) ** k / (math.factorial(k) * math.factorial(n[i] - 1 - k))
        for j in range(ws.p):
            if j != i and n[j]:
                value /= poch(ws.alpha[j] - ws.alpha[i] - k, n[j])
        weights.append(value)
    return weights


def pole_term_fractions(ws, n) -> list[list[Fraction]]:
    """residues._type1_pole_terms with each integer terms row read as Fractions."""
    return [[F(v, den) for v in nums] for nums, den in residues._type1_pole_terms(ws, n)]


def pole_terms(ws, n) -> list[list[Fraction]]:
    total = total_degree(n)
    alpha, beta = ws.alpha, ws.beta
    ws.validate_index(n, type_one=True)
    prefactor = F(-1) ** (total - 1)
    if ws.family is Family.JACOBI_PINEIRO:
        for j in range(ws.p):
            prefactor *= poch(alpha[j] + beta + total, n[j])
    if ws.family is Family.HAHN:
        prefactor *= math.factorial(ws.N - total + 1)
        prefactor /= poch(beta + 1, total - 1)
    components = []
    for i in range(ws.p):
        comp_prefactor = prefactor
        up = None if ws.family is Family.LAGUERRE_FIRST_KIND else alpha[i] + beta + total
        down = alpha[i] + beta + ws.N + 2 if ws.family is Family.HAHN else alpha[i] + 1
        if ws.family is Family.HAHN:
            for j in range(ws.p):
                if j != i:
                    comp_prefactor *= poch(alpha[j] + beta + total, n[j])
            comp_prefactor /= poch(alpha[i] + beta + total + n[i], ws.N + 2 - total - n[i])
        # Hahn term k multiplies (x+alpha_i+1)_k, the residue's (alpha_i+1+k)_x over (alpha_i+1)_x / (alpha_i+1)_k
        components.append([comp_prefactor * w * (1 if up is None else poch(up, k)) / poch(down, k)
                           / (poch(alpha[i] + 1, k) if ws.family is Family.HAHN else 1)
                           for k, w in enumerate(pole_weights(ws, n, i))])
    return components


def recovered_nodes(ws, n, form) -> list[tuple[Fraction, Fraction]]:
    total = total_degree(n)
    ws.validate_index(n, type_one=True)
    nodes = []
    for i, comp in enumerate(form.components):
        if n[i] == 0:
            continue
        t = ws.alpha[i]
        factor = F(1)
        if ws.family is Family.JACOBI_PINEIRO:
            factor = 1 / poch(ws.beta + 1, total - 1)
        elif ws.family is Family.HAHN:
            factor = poch(t + ws.beta + total, ws.N + 2 - total)
        for k, (coefficient, weight) in enumerate(zip(comp.coefficients, pole_weights(ws, n, i))):
            if k:
                factor *= (t + 1) * (t + ws.beta + ws.N + 2) if ws.family is Family.HAHN else t + 1
                if ws.family is not Family.LAGUERRE_FIRST_KIND:
                    factor /= t + ws.beta + total
                t += 1
            nodes.append((t, coefficient * factor / weight))
    return nodes


def type2_residue_row(ws, n, k_max) -> list[Fraction]:
    total = total_degree(n)
    lead = F(-1) ** total
    if ws.family is not Family.LAGUERRE_FIRST_KIND:
        for i in range(ws.p):
            lead /= poch(ws.alpha[i] + ws.beta + total + 1, n[i])
    if ws.family is Family.HAHN:
        lead *= poch(ws.beta + 1, ws.N) / math.factorial(ws.N - total)
    row = []
    for k in range(k_max + 1):
        value = lead * F(-1) ** k / math.factorial(k)
        for a, ni in zip(ws.alpha, n):
            value *= poch(a + 1 + k, ni)
        if ws.family is Family.JACOBI_PINEIRO:
            value *= poch(ws.beta + total + 1 - k, k)
        elif ws.family is Family.HAHN:
            value *= F(-1) ** k * poch(ws.beta + total + 1 - k, k) / poch(ws.beta + ws.N + 1 - k, k)
        row.append(value)
    return row


MELLIN_POINTS = [F(1, 7), F(3, 11), F(9, 13), F(5, 2)]


def assert_sites_match(ws, n):
    """Every rewritten site against its Fraction reference, clean and under every coefficient fault."""
    total = total_degree(n)
    poly = outcome(families.type2, ws, n)
    if isinstance(poly, type):  # no system here refuses a type II polynomial
        raise AssertionError(poly)
    coefficients = list(row_values(*families._type2_coefficients(ws, n)))
    assert list(poly.coefficients) == [type2_prefactor(ws, n) * c for c in coefficients]
    (top, bottom), nums, den = families._type2_series(ws, n, max(6, total) + 1)
    assert (F(top, bottom), [F(v, den) for v in nums]) == type2_series(ws, n, max(6, total) + 1)
    k_max = min(max(6, total), ws.N) if ws.family is Family.HAHN else max(6, total)
    assert pair_values(residues._type2_residue_row(ws, n, k_max)) == type2_residue_row(ws, n, k_max)
    points = [s.as_integer_ratio() for s in MELLIN_POINTS] + oracle.mellin_zero_points(ws, n)
    for fault in [None] + [f"t2:{k}" for k in range(total + 1)]:
        faulty, _ = apply_fault(poly, None, fault)
        for s in points:
            lhs, rhs = mellin_sides(ws, n, faulty, F(*s))
            assert oracle.check_mellin_type2(ws, n, faulty, [s]) == (lhs == rhs), (fault, s)
        if ws.family is Family.HAHN:
            assert families.hahn_jp_coefficient_relation(ws, n, faulty) == jp_relation(ws, n, faulty), fault

    for i in range(ws.p):
        assert outcome(lambda: F(*oracle._moment_scale(ws, i, total))) == outcome(moment_scale, ws, i, total)
    vec = outcome(families.type1, ws, n)
    for i, ni in enumerate(n):
        if ni:
            expected = outcome(type1_component, ws, n, i)
            assert outcome(lambda: list(row_values(*families._type1_component_coefficients(ws, n, i)))) == expected
            if not isinstance(vec, type):
                assert list(vec.components[i].coefficients) == expected
    reference = outcome(pole_terms, ws, n)
    assert outcome(pole_term_fractions, ws, n) == reference
    if isinstance(vec, type):
        assert reference is vec is PoleError  # the Jacobi-Pineiro corner alpha_i + beta + |n| = 0
        return
    faults = [None] + [f"t1:{i}:{k}" for i, ni in enumerate(n) for k in range(ni)]
    for fault in faults:
        _, faulty = apply_fault(None, vec, fault)
        assert recovered_node_values(ws, n, faulty) == recovered_nodes(ws, n, faulty), fault

    if ws.family is not Family.HAHN:
        return
    if ws.p == 2 and min(n) >= 1:
        for i in range(2):
            assert list(row_values(*families.hahn_type1_p2_kdf(ws, n, i))) == kdf_values(ws, n, i)
    assert oracle.check_hahn_summation_identity(ws, n) == outcome(summation_identity, ws, n)


#: alpha 1/97, 2/89, 3/83 and beta 5/79: Q = 97 * 89 * 83 * 79.
COPRIME = ((F(1, 97), F(2, 89), F(3, 83)), F(5, 79))
LARGE_Q_SYSTEMS = [
    (WeightSystem.laguerre(COPRIME[0]), (2, 1, 2)),
    (WeightSystem.jacobi_pineiro(*COPRIME), (2, 1, 2)),
    (WeightSystem.jacobi_pineiro(*COPRIME), (0, 3, 1)),
    (WeightSystem.hahn(*COPRIME, 7), (2, 1, 2)),
    (WeightSystem.hahn(COPRIME[0][:2], COPRIME[1], 6), (3, 2)),
]


class TestSitesMatchReferences:
    @given(st.one_of(admissible_systems(max_total=5), hahn_corner_systems()))
    @settings(max_examples=60, deadline=None)
    def test_random_systems(self, system):
        assert_sites_match(*system)

    @pytest.mark.parametrize("ws, n", LARGE_Q_SYSTEMS, ids=[f"{ws.family.value}-n={n}" for ws, n in LARGE_Q_SYSTEMS])
    def test_large_coprime_denominators(self, ws, n):
        primes = {a.denominator for a in ws.alpha} | ({ws.beta.denominator} if ws.beta is not None else set())
        assert ws.integer_parameters[0] == math.prod(primes)
        assert_sites_match(ws, n)

    def test_jacobi_pineiro_corner_keeps_its_pole(self):
        # alpha + beta + |n| = 0: every type I site raises PoleError, as its reference does
        ws = WeightSystem.jacobi_pineiro((F(-1, 2), F(1, 3)), F(-1, 2))
        assert_sites_match(ws, (1, 0))
        for site in (families.type1, residues._type1_pole_terms):
            with pytest.raises(PoleError):
                site(ws, (1, 0))
        with pytest.raises(PoleError):
            oracle._moment_scale(ws, 0, 1)
