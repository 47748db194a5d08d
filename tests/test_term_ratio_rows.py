"""The integer term-ratio rows against per-term Fraction references.

Each reference below is the Fraction-per-term form the row-built code
replaced: the nested type II multi-sum over rising rows, the type I
component with one pochhammer per k and per weight, the Hahn weighted
series with a Fraction term ratio, the two-weight Kampe de Feriet values
from rising rows and the Hahn summation identity with one pfq per
(weight, row).  They must give the same values, and raise the same errors,
on every draw; the summation identity is compared over the active weights,
and it holds on the Hahn corner where the reference's gamma has a pole.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import AdmissibilityError, PoleError, PreconditionError, WeightSystem, families, hyper, oracle
from mopexact import check_type1_orthogonality
from mopexact.gammaprod import pochhammer, ratio_row
from mopexact.weights import Family, total_degree
from conftest import admissible_systems, hahn_corner_systems, hahn_type2_weighted_series, rising_row, row_values

F = Fraction


# --- Fraction references -----------------------------------------------------


def type2_sum(ws, n) -> list[Fraction]:
    """The nested type II multi-sum, one Fraction product per index vector."""
    p, alpha, total = ws.p, ws.alpha, total_degree(n)
    prefix = list(itertools.accumulate(n))
    head, tail = [], []
    for q in range(p):
        if n[q] == 0:
            head.append([1] * (total + 1))
            tail.append([1] * (total + 1))
            continue
        down = rising_row(alpha[q] + 1, total + 1)
        up = rising_row(alpha[q] + n[q] + 1, total + 1)
        if ws.family is Family.LAGUERRE_FIRST_KIND:
            head.append([1 / d for d in down])
            tail.append(up)
        else:
            shifted = rising_row(alpha[q] + ws.beta + prefix[q] + 1, total + 1)
            head.append([s / d for s, d in zip(shifted, down)])
            tail.append([u / s for u, s in zip(up, shifted)])
    if ws.family is Family.HAHN:
        lattice = rising_row(-ws.N, total + 1)
        head[0] = [h * lattice[total] / f for h, f in zip(head[0], lattice)]
    coeffs = [F(0)] * (total + 1)
    for lvec in itertools.product(*(range(nq + 1) for nq in n)):
        tails = [sum(lvec[q:]) for q in range(p + 1)]
        term = F(1)
        for q in range(p):
            term *= (-1) ** lvec[q] * math.comb(n[q], lvec[q]) * head[q][tails[q]]
            if q < p - 1:
                term *= tail[q][tails[q + 1]]
        coeffs[tails[0]] += term
    return coeffs


def type2_prefactor(ws, n) -> Fraction:
    total = total_degree(n)
    prefactor = F(1) if ws.family is Family.HAHN else F(-1) ** total
    for q in range(ws.p):
        prefactor *= pochhammer(ws.alpha[q] + 1, n[q])
        if ws.family is not Family.LAGUERRE_FIRST_KIND:
            prefactor /= pochhammer(ws.alpha[q] + ws.beta + total + 1, n[q])
    return prefactor


def type1_component(ws, n, i) -> list[Fraction]:
    """Type I component i with one pochhammer per k and per weight."""
    alpha, total = ws.alpha, total_degree(n)
    prefactor = F(-1) ** (total - 1) / math.factorial(n[i] - 1)
    for j in range(ws.p):
        if j != i:
            prefactor /= pochhammer(alpha[j] - alpha[i], n[j])
    if ws.family is Family.JACOBI_PINEIRO:
        for j in range(ws.p):
            prefactor *= pochhammer(alpha[j] + ws.beta + total, n[j])
    if ws.family is Family.HAHN:
        for j in range(ws.p):
            if j != i:
                prefactor *= pochhammer(alpha[j] + ws.beta + total, n[j])
        prefactor *= math.factorial(ws.N + 1 - total)
        prefactor /= pochhammer(ws.beta + 1, total - 1)
        prefactor /= pochhammer(alpha[i] + ws.beta + total + n[i], ws.N + 2 - total - n[i])
    coeffs = []
    for k in range(n[i]):
        term = pochhammer(-n[i] + 1, k) / math.factorial(k) / pochhammer(alpha[i] + 1, k)
        for j in range(ws.p):
            if j != i:
                term *= pochhammer(alpha[i] - alpha[j] - n[j] + 1, k)
                term /= pochhammer(alpha[i] - alpha[j] + 1, k)
        if ws.family is not Family.LAGUERRE_FIRST_KIND:
            term *= pochhammer(alpha[i] + ws.beta + total, k)
        if ws.family is Family.HAHN:
            term /= pochhammer(alpha[i] + ws.beta + ws.N + 2, k)
        coeffs.append(prefactor * term)
    return coeffs


def weighted_series(ws, n) -> tuple[Fraction, ...]:
    """Hahn weighted type II values: c_l by a Fraction term ratio, one Fraction sum per x."""
    total = total_degree(n)
    prefactor = F(-1) ** total * pochhammer(ws.beta + 1, ws.N) / math.factorial(ws.N - total)
    for i in range(ws.p):
        prefactor *= pochhammer(ws.alpha[i] + 1, n[i])
        prefactor /= pochhammer(ws.alpha[i] + ws.beta + total + 1, n[i])
    series = [F(1)]
    for l in range(ws.N):
        ratio = (-ws.beta - total + l) / (-ws.beta - ws.N + l)
        for i in range(ws.p):
            ratio *= (ws.alpha[i] + n[i] + 1 + l) / (ws.alpha[i] + 1 + l)
        series.append(series[-1] * ratio)
    return tuple(
        prefactor * sum(((-1) ** l * math.comb(x, l) * c for l, c in enumerate(series[:x + 1])), F(0))
        for x in range(ws.N + 1)
    )


def kdf_values(ws, n, i) -> tuple[Fraction, ...]:
    """Two-weight Hahn type I component i at x = 0..N from Fraction rising rows."""
    other = 1 - i
    a_i, a_hat = ws.alpha[i], ws.alpha[other]
    n_i, n_hat = n[i], n[other]
    beta, N = ws.beta, ws.N
    tot = n_i + n_hat
    prefactor = F(-1) ** (n_i - 1)
    prefactor *= math.factorial(N + 1 - tot) * math.factorial(tot - 2)
    prefactor /= math.factorial(n_i - 1) * math.factorial(n_hat - 1)
    prefactor /= pochhammer(beta + 1, tot - 1)
    prefactor /= pochhammer(a_i + beta + tot + n_i, N + 1 - tot)
    prefactor *= pochhammer(a_hat + beta + n_hat + 1, tot - 1)
    prefactor /= pochhammer(a_i - a_hat - n_hat + 1, tot - 1)

    def row(a):
        return rising_row(a, n_i)

    joint = [u * v / (w * z) for u, v, w, z in zip(
        row(1 - n_i), row(-N), row(2 - tot), row(a_hat + beta + n_hat + 1))]
    left = [b / math.factorial(l) for l, b in enumerate(row(a_hat - a_i - n_i + 1))]
    right = [(-1) ** m * u * v / (w * z) for m, (u, v, w, z) in enumerate(zip(
        row(a_i + beta + tot), row(a_i - a_hat - n_hat + 1), row(a_i + 1), row(-N)))]
    inner = [r * sum((joint[l + m] * left[l] for l in range(n_i - m)), F(0)) for m, r in enumerate(right)]
    return tuple(
        prefactor * sum((math.comb(x, m) * c for m, c in enumerate(inner)), F(0))
        for x in range(N + 1)
    )


def summation_rows(ws, n) -> list[Fraction]:
    """The Hahn summation identity's row values, one pfq per (weight, row)."""
    total = total_degree(n)
    alpha, beta, N = ws.alpha, ws.beta, ws.N
    beta_row = rising_row(beta + 1, total)
    head = F(-1) ** (total - 1) * math.factorial(N + 1 - total)
    for i in range(ws.p):
        head *= pochhammer(alpha[i] + beta + total, n[i])
    head /= math.factorial(N) * beta_row[-1]
    acc = [F(0)] * total
    for i in range(ws.p):
        factor = F(1, math.factorial(n[i] - 1))
        for k in range(ws.p):
            if k != i:
                factor /= pochhammer(alpha[k] - alpha[i], n[k])
        others_num = [alpha[i] + 1 - alpha[k] - n[k] for k in range(ws.p) if k != i]
        others_den = [alpha[i] + 1 - alpha[k] for k in range(ws.p) if k != i]
        lattice_row = rising_row(alpha[i] + beta + N + 2, total)
        for j in range(total):
            try:
                gamma_quotient = 1 / pochhammer(alpha[i] + beta + total, j + 2 - total)
            except ZeroDivisionError as exc:
                raise PoleError("Gamma(alpha_i + beta + |n|) is a pole") from exc
            series = hyper.pfq(
                (-n[i] + 1, alpha[i] + beta + N + 2 + j, alpha[i] + beta + total, *others_num),
                (alpha[i] + beta + N + 2, alpha[i] + beta + 2 + j, *others_den),
                1,
            )
            acc[j] += factor * lattice_row[j] * gamma_quotient * series
    return [head * beta_row[j] * acc[j] for j in range(total)]


def outcome(function, *args):
    """The value, or the error class, of one call."""
    try:
        return function(*args)
    except (AdmissibilityError, PoleError, PreconditionError, ZeroDivisionError) as exc:
        return type(exc)


# --- the shared row helper ---------------------------------------------------


small_parameters = st.lists(st.fractions(-6, 6, max_denominator=4), max_size=3)


def rational_ratio_row(ups, downs, length):
    """ratio_row of rational parameters, put over the lcm of their denominators."""
    ups, downs = [F(u) for u in ups], [F(d) for d in downs]
    q = math.lcm(*(v.denominator for v in ups + downs))
    return ratio_row([int(u * q) for u in ups], [int(d * q) for d in downs], length, q)


@given(ups=small_parameters, downs=small_parameters, length=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_ratio_row_matches_pochhammer_products(ups, downs, length):
    # a zero numerator ends the row with zeros; a zero denominator under a
    # nonzero numerator is a PoleError, never a ZeroDivisionError
    expected = []
    for k in range(length):
        top = math.prod(pochhammer(u, k) for u in ups)
        if top == 0:
            expected.append(F(0))
            continue
        bottom = math.prod(pochhammer(d, k) for d in downs)
        if bottom == 0:
            expected = PoleError
            break
        expected.append(top / bottom)
    if expected is PoleError:
        with pytest.raises(PoleError):
            rational_ratio_row(ups, downs, length)
        return
    nums, den = rational_ratio_row(ups, downs, length)
    assert den > 0 and all(isinstance(v, int) for v in nums)
    assert list(row_values(nums, den)) == expected


def test_ratio_row_examples():
    assert rational_ratio_row([], [], 3) == ([1, 1, 1], 1)
    assert list(row_values(*rational_ratio_row([F(1, 2)], [1], 4))) == [1, F(1, 2), F(3, 8), F(5, 16)]
    assert rational_ratio_row([-1], [], 4) == ([1, -1, 0, 0], 1)
    with pytest.raises(PoleError):
        rational_ratio_row([1], [-1], 3)
    assert list(row_values([3, 6], 4, F(2, 3))) == [F(1, 2), F(1)]


# --- every row-built route against its reference --------------------------------


#: Jacobi-Pineiro and Hahn at alpha_1 = beta = -1/2, where an idle first weight
#: makes the head factor (alpha_1 + beta + S_1 + 1)_T vanish.
NEGATIVE_HALF_SYSTEMS = [
    (WeightSystem.jacobi_pineiro((F(-1, 2), F(1, 3)), F(-1, 2)), n)
    for n in [(0, 1), (0, 3), (2, 0), (1, 2), (3, 1)]
] + [
    (WeightSystem.hahn((F(-1, 2), F(1, 3)), F(-1, 2), 5), n)
    for n in [(0, 1), (0, 3), (2, 0), (1, 2)]
]

#: Degrees past the hypothesis draws' |n| <= 5 on every route, standard exponents.
LARGER_SYSTEMS = [
    (WeightSystem.laguerre((F(1, 2), F(1, 3))), (4, 3)),
    (WeightSystem.jacobi_pineiro((F(1, 2), F(1, 3), F(1, 5)), F(1, 4)), (3, 2, 2)),
    (WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 9), (4, 2)),
    (WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 8), (1, 5)),
    (WeightSystem.hahn((F(1, 2), F(1, 3), F(1, 5)), F(1, 4), 8), (3, 1, 2)),
]


def assert_rows_match(ws, n):
    assert list(row_values(*families._type2_coefficients(ws, n))) == type2_sum(ws, n)
    poly = families.type2(ws, n)
    assert poly.coefficients == tuple(type2_prefactor(ws, n) * c for c in type2_sum(ws, n))
    if any(n):
        for i, ni in enumerate(n):
            if ni:
                assert list(row_values(*families._type1_component_coefficients(ws, n, i))) == type1_component(ws, n, i)
    if ws.family is not Family.HAHN:
        return
    assert row_values(*hahn_type2_weighted_series(ws, n)) == weighted_series(ws, n)
    assert families.hahn_weighted_series_relation(ws, n, poly)
    if ws.p == 2 and min(n) >= 1:
        for i in range(2):
            assert row_values(*families.hahn_type1_p2_kdf(ws, n, i)) == kdf_values(ws, n, i)
    verdicts = oracle.check_hahn_summation_identity(ws, n)
    active = [i for i, ni in enumerate(n) if ni]
    reduced = WeightSystem.hahn([ws.alpha[i] for i in active], ws.beta, ws.N)
    reference = outcome(summation_rows, reduced, tuple(n[i] for i in active))
    if reference is PoleError:
        # the corner alpha_i + beta + |n| = 0, where the reference's Gamma(C) is a pole
        assert sum(n) == 1 and ws.alpha[active[0]] + ws.beta == -1
        assert verdicts == [True]
        assert check_type1_orthogonality(ws, n, families.type1(ws, n)).passed
        return
    target = [(-1) ** (len(reference) - 1) if j == len(reference) - 1 else 0 for j in range(len(reference))]
    assert verdicts == [v == t for v, t in zip(reference, target)]
    assert all(verdicts)


class TestRowsMatchReferences:
    @given(st.one_of(admissible_systems(max_total=5), hahn_corner_systems()))
    @settings(max_examples=80, deadline=None)
    def test_random_systems(self, system):
        assert_rows_match(*system)

    @pytest.mark.parametrize("ws, n", NEGATIVE_HALF_SYSTEMS,
                             ids=[f"{ws.family.value}-n={n}" for ws, n in NEGATIVE_HALF_SYSTEMS])
    def test_negative_half_with_an_idle_weight(self, ws, n):
        assert_rows_match(ws, n)

    @pytest.mark.parametrize("ws, n", LARGER_SYSTEMS, ids=[f"{ws.family.value}-n={n}" for ws, n in LARGER_SYSTEMS])
    def test_larger_degrees(self, ws, n):
        assert_rows_match(ws, n)

    def test_summation_identity_corner_holds(self):
        # |n| = 1 and alpha + beta = -1: the reference's Gamma(alpha + beta + |n|)
        # is a pole, but the check's (C)_{n_i} (B)_{|n|-2} = (B)_{|n|-2+n_i} is finite
        ws = WeightSystem.hahn((F(-1, 2),), F(-1, 2), 3)
        assert oracle.check_hahn_summation_identity(ws, (1,)) == [True]
        assert check_type1_orthogonality(ws, (1,), families.type1(ws, (1,))).passed
        with pytest.raises(PoleError):
            summation_rows(ws, (1,))

    def test_summation_identity_calls_no_series_evaluator(self, monkeypatch):
        # swapping the code objects catches every binding of pfq and kdf, not only hyper's
        def refuse(*args, **kwargs):
            raise AssertionError("hypergeometric series evaluated")

        monkeypatch.setattr(hyper.pfq, "__code__", refuse.__code__)
        monkeypatch.setattr(hyper.kdf, "__code__", refuse.__code__)
        ws = WeightSystem.hahn((F(1, 2), F(1, 3), F(1, 5)), F(1, 4), 7)
        assert all(oracle.check_hahn_summation_identity(ws, (2, 1, 2)))
