"""The generators and the closed-form checks build no Fraction Pochhammer.

Their parameters are integers over the weight system's one denominator, so
no ``pochhammer`` call (a Fraction per factor) is left inside them.  The
fixture counts calls through every binding these modules could use.

The oracle hands the exact solve primitive integer rows, and the solve
builds no Fraction but its results; the last pivot's height is pinned.
run_instance solves nothing: one elimination certifies that the index is
normal, and the orthogonality checks decide both oracle matches.  Nor does it
evaluate a polynomial at a sample point or on the Hahn lattice, and both Mellin
checks read one s-row.
A Hahn instance builds one weight system, one nested type II sum and one
pairing set, and every instance admits its type II polynomial and its type I
vector once.
"""

import math
from fractions import Fraction

import pytest

from mopexact import WeightSystem, families, gammaprod, linalg, oracle, polybasis, residues
from mopexact.driver import iter_instances, run_instance
import conftest
from conftest import hahn_ws, instance_of, jacobi_pineiro_ws, laguerre_ws


@pytest.fixture
def pochhammer_calls(monkeypatch):
    """A list that records every pochhammer call through gammaprod, families, oracle or residues."""
    calls = []
    original = gammaprod.pochhammer

    def counted(a, n):
        calls.append((a, n))
        return original(a, n)

    for module in (gammaprod, families, oracle, residues):
        monkeypatch.setattr(module, "pochhammer", counted, raising=False)
    return calls


LAGUERRE, JACOBI_PINEIRO, HAHN = laguerre_ws(3), jacobi_pineiro_ws(3), hahn_ws(3, 8)
N = (2, 1, 2)


def systems(*chosen):
    """Parametrize over the chosen systems.  The Laguerre branches of the Mellin check and the
    residue duality never called pochhammer, so those two run on Jacobi-Pineiro and Hahn only."""
    names = {LAGUERRE: "laguerre", JACOBI_PINEIRO: "jacobi-pineiro", HAHN: "hahn"}
    return pytest.mark.parametrize("ws", chosen, ids=[names[ws] for ws in chosen])


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
@pytest.mark.parametrize("generator", [families.type1, families.type2], ids=["type1", "type2"])
def test_generators_call_no_pochhammer(ws, generator, pochhammer_calls):
    generator(ws, N)
    assert pochhammer_calls == []


@systems(JACOBI_PINEIRO, HAHN)
def test_mellin_check_calls_no_pochhammer(ws, pochhammer_calls):
    poly = families.type2(ws, N)
    del pochhammer_calls[:]
    assert oracle.check_mellin_type2(ws, N, poly, [(1, 7), (3, 11), (9, 13)])
    assert pochhammer_calls == []


def test_summation_identity_calls_no_pochhammer(pochhammer_calls):
    assert all(oracle.check_hahn_summation_identity(HAHN, N))
    assert pochhammer_calls == []


@systems(JACOBI_PINEIRO, HAHN)
def test_residue_duality_calls_no_pochhammer(ws, pochhammer_calls):
    vec = families.type1(ws, N)
    del pochhammer_calls[:]
    assert residues.check_residue_duality(ws, N, vec)
    assert pochhammer_calls == []


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
def test_series_equivalence_calls_no_pochhammer(ws, pochhammer_calls):
    assert residues.verify_type2_series_equivalence(ws, N, 8)
    assert pochhammer_calls == []


# --- the oracle's primitive integer systems ------------------------------------

@pytest.fixture
def fraction_calls(monkeypatch):
    """The (args) of every Fraction that the oracle or the tests' rational solve builds, each still built as a
    Fraction.  linalg has no Fraction to build."""
    assert not hasattr(linalg, "Fraction")
    calls = []

    def counted(*args):
        calls.append(args)
        return Fraction(*args)

    for module in (oracle, conftest):
        monkeypatch.setattr(module, "Fraction", counted)
    return calls


@pytest.fixture
def solved_systems(monkeypatch):
    """The (matrix, rhs, det) of every solve the oracle hands to linalg.bareiss."""
    systems = []

    def recorded(matrix, rhs):
        num, det = linalg.bareiss(matrix, rhs)
        systems.append((matrix, rhs, det))
        return num, det

    monkeypatch.setattr(oracle, "bareiss", recorded)
    return systems


def test_integer_rows_build_no_fraction_but_the_results(fraction_calls):
    solution = conftest.solve_linear_system([[2, 1, 0], [4, 3, 1], [0, 5, 7]], [1, 0, -3])
    assert len(fraction_calls) == len(solution) == 3
    assert all(type(v) is Fraction for v in solution)


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
@pytest.mark.parametrize("solve", [oracle.oracle_solve_type1, oracle.oracle_solve_type2], ids=["type1", "type2"])
def test_oracle_solves_build_no_fraction_but_the_results(ws, solve, fraction_calls):
    # the results too are integers now: numerators over the determinant
    solve(ws, N)
    assert fraction_calls == []


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
def test_type1_rows_and_columns_are_primitive_integers(ws, solved_systems):
    oracle.oracle_solve_type1(ws, N)
    [(matrix, rhs, _)] = solved_systems
    assert all(type(v) is int for row in matrix for v in row) and all(type(v) is int for v in rhs)
    assert [math.gcd(*column) for column in zip(*matrix)] == [1] * sum(N)
    assert [math.gcd(*row) for row in matrix] == [1] * sum(N)


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
def test_type2_rows_are_primitive_integers(ws, solved_systems):
    oracle.oracle_solve_type2(ws, N)
    [(matrix, rhs, _)] = solved_systems
    assert all(type(v) is int for row in matrix for v in row) and all(type(v) is int for v in rhs)
    assert [math.gcd(*row, b) for row, b in zip(matrix, rhs)] == [1] * sum(N)


#: Bit length of the last Bareiss pivot (the determinant of the system handed in) on
#: Jacobi-Pineiro n = (6, 6, 6), alpha (1/2, 4/3, 1/5), beta 1/7.  With each row's and each
#: column's content carried through the elimination these were 7133 (type I) and 1483 (type II).
PIVOT_BITS = {"type1": 556, "type2": 1151}


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_final_pivot_stays_small(kind, solved_systems):
    ws = WeightSystem.jacobi_pineiro((Fraction(1, 2), Fraction(4, 3), Fraction(1, 5)), Fraction(1, 7))
    solve = oracle.oracle_solve_type1 if kind == "type1" else oracle.oracle_solve_type2
    solve(ws, (6, 6, 6))
    [(_, _, det)] = solved_systems  # the last pivot up to the sign of the row swaps
    assert abs(det).bit_length() <= PIVOT_BITS[kind]


# --- the verify path certifies, it does not solve ---------------------------------

@pytest.fixture
def eliminations(monkeypatch):
    """The kind of every linalg.bareiss call ("bareiss") and every forward elimination ("eliminate")."""
    calls = []
    bareiss, eliminate = linalg.bareiss, linalg._eliminate

    def counted_bareiss(matrix, rhs):
        calls.append("bareiss")
        return bareiss(matrix, rhs)

    def counted_eliminate(a, n):
        calls.append("eliminate")
        return eliminate(a, n)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    for module in (linalg, oracle):
        monkeypatch.setattr(module, "bareiss", counted_bareiss)
    return calls


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
def test_run_instance_solves_nothing(ws, eliminations):
    assert run_instance(instance_of(ws, N))["pass"]
    assert eliminations == ["eliminate"]


@pytest.mark.parametrize("family", ["laguerre1", "jacobi-pineiro", "hahn"])
def test_run_instance_samples_no_point(family, monkeypatch):
    # the residue duality compares coefficient rows, the weighted series and the KDF form Newton coefficients
    # read off the coefficients: no check evaluates a basis element, at a sample point or on the Hahn lattice
    calls, steps = [], []
    values_at, step_factor = polybasis.values_at, polybasis.Basis._step_factor

    def counted(basis, row, points):
        calls.append(points)
        return values_at(basis, row, points)

    def counted_step(basis, m):
        steps.append(m)
        return step_factor(basis, m)

    for module in (polybasis, residues):
        monkeypatch.setattr(module, "values_at", counted)
    monkeypatch.setattr(polybasis.Basis, "_step_factor", counted_step)
    for instance in iter_instances([family], 3, 4):
        assert run_instance(instance)["pass"]
    assert calls == [] and steps == []
    assert not hasattr(polybasis.ScaledPolynomial, "lattice_values")  # lattice values are a conftest reference


def test_hahn_instance_builds_each_row_once(monkeypatch):
    # one weight system per Hahn instance: the Jacobi-Pineiro bridge reads the nested type II sum the Hahn
    # polynomial was built from, and both condition systems read one pairing set, n_i ratio_rows per weight
    systems, sums, pairing_rows, inside = [], [], [], []
    init, coefficients = WeightSystem.__init__, families._type2_coefficients
    pairings, ratio_row = oracle._pairings, oracle.ratio_row

    def counted_init(self, *args, **kwargs):
        systems.append(args)
        init(self, *args, **kwargs)

    def counted_coefficients(ws, n):
        sums.append(n)
        return coefficients(ws, n)

    def counted_pairings(*args):
        inside.append(args)
        try:
            return pairings(*args)
        finally:
            inside.pop()

    def counted_ratio_row(*args):
        if inside:
            pairing_rows.append(inside[-1][2])
        return ratio_row(*args)

    monkeypatch.setattr(WeightSystem, "__init__", counted_init)
    monkeypatch.setattr(families, "_type2_coefficients", counted_coefficients)
    monkeypatch.setattr(oracle, "_pairings", counted_pairings)
    monkeypatch.setattr(oracle, "ratio_row", counted_ratio_row)
    for instance in iter_instances(["hahn"], 4, 6):
        del systems[:], sums[:], pairing_rows[:]
        assert run_instance(instance)["pass"]
        n = tuple(instance["n"])
        assert len(systems) == 1 and sums == [n], instance
        assert sorted(pairing_rows) == [i for i, ni in enumerate(n) for _ in range(ni)], instance


@pytest.mark.parametrize("fault", [None, "t2:0"], ids=["clean", "t2:0"])
@pytest.mark.parametrize("family", ["laguerre1", "jacobi-pineiro", "hahn"])
def test_run_instance_admits_each_object_once(family, fault, admissions):
    # every check reads the rows kept by the first admission of its type: one full type II and one full type I
    # admission per instance, of the generated objects or of the bumped copy a fault makes
    for instance in iter_instances([family], 3, 4):
        del admissions[:]
        assert run_instance(instance, fault)["pass"] == (fault is None)
        n = tuple(instance["n"])
        assert admissions == [("type2", n), ("type1", n)], instance


@pytest.mark.parametrize("family", ["laguerre1", "jacobi-pineiro", "hahn"])
def test_run_instance_builds_one_mellin_row(family, monkeypatch):
    # mellin_random and mellin_zeros read one kept s-row: inside the check, the only rising_product is the
    # head of that row's one build, and no transform argument calls another
    inside, rows, products = [], [], []
    check, difference, rising_product = oracle.check_mellin_type2, oracle._mellin_difference, oracle.rising_product

    def counted_check(*args):
        inside.append(args)
        try:
            return check(*args)
        finally:
            inside.pop()

    def recorded_difference(*args):
        rows.append(difference(*args))
        return rows[-1]

    def counted_product(*args):
        if inside:
            products.append(args)
        return rising_product(*args)

    monkeypatch.setattr(oracle, "check_mellin_type2", counted_check)
    monkeypatch.setattr(oracle, "_mellin_difference", recorded_difference)
    monkeypatch.setattr(oracle, "rising_product", counted_product)
    for instance in iter_instances([family], 3, 4):
        del rows[:], products[:]
        assert run_instance(instance)["pass"]
        assert len(rows) == 2 and rows[0] is rows[1] and not any(rows[0]), instance
        assert len(products) == 1, instance


@pytest.mark.parametrize("ws, n", [(laguerre_ws(3), (4, 3, 2)), (jacobi_pineiro_ws(3), (4, 4, 4)),
                                   (hahn_ws(3, 16), (4, 4, 4))], ids=["laguerre", "jacobi-pineiro", "hahn"])
def test_certified_matches_agree_with_the_solves_at_high_degree(ws, n):
    assert oracle.oracle_solve_type2(ws, n) == families.type2(ws, n)
    assert oracle.oracle_solve_type1(ws, n) == families.type1(ws, n)
    # each key is red exactly under a fault of its own type
    for fault, type2_match, type1_match in [(None, True, True), ("t2:0", False, True), ("t1:0:0", True, False)]:
        checks = run_instance(instance_of(ws, n), fault)["checks"]
        assert (checks["type2_oracle_match"], checks["type1_oracle_match"]) == (type2_match, type1_match), fault
