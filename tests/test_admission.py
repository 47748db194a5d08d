"""Every route admits the same polynomials.

The explicit formulas, the moment conditions and the residue sums are three
routes to the same type I vectors and type II polynomials, so a reader of
either type must accept exactly what the others accept.  Each input below
goes to every reader of its type; all of them accept it, or all of them
raise PreconditionError, and which one is fixed by the table.
"""

from fractions import Fraction

import pytest

from mopexact import (
    AdmissibilityError, Basis, PreconditionError, ScaledPolynomial, TypeIVector, families, oracle, residues,
)
from mopexact.weights import Family, WeightSystem

F = Fraction
ALPHA, BETA = (F(1, 2), F(1, 3)), F(1, 4)
SYSTEMS = [WeightSystem.laguerre(ALPHA), WeightSystem.jacobi_pineiro(ALPHA, BETA), WeightSystem.hahn(ALPHA, BETA, 5)]
N = (2, 1)


def verdict(read) -> str:
    """The verdict "accepted" when the reader returns and "refused" on PreconditionError; any other error propagates."""
    try:
        read()
    except PreconditionError:
        return "refused"
    return "accepted"


def type1_readers(ws, n, vec) -> dict:
    point = 1 if ws.family is Family.HAHN else F(2, 3)
    return {
        "type1_rows": lambda: families.type1_rows(ws, n, vec),
        "check_type1_orthogonality": lambda: oracle.check_type1_orthogonality(ws, n, vec),
        "check_residue_duality": lambda: residues.check_residue_duality(ws, n, vec),
        "recovered_nodes": lambda: residues.recovered_nodes(ws, n, vec),
        "type1_direct_values": lambda: residues.type1_direct_values(ws, n, vec, point),
    }


def type2_readers(ws, n, poly) -> dict:
    readers = {
        "type2_row": lambda: families.type2_row(ws, n, poly),
        "check_type2_orthogonality": lambda: oracle.check_type2_orthogonality(ws, n, poly),
        "check_mellin_type2": lambda: oracle.check_mellin_type2(ws, n, poly, [(1, 7), *oracle.mellin_zero_points(ws, n)]),
    }
    if ws.family is Family.HAHN:
        readers["hahn_jp_coefficient_relation"] = lambda: families.hahn_jp_coefficient_relation(ws, n, poly)
        readers["hahn_weighted_series_relation"] = lambda: families.hahn_weighted_series_relation(ws, n, poly)
    return readers


def replaced(vec, i, comp) -> TypeIVector:
    return TypeIVector(tuple(comp if j == i else c for j, c in enumerate(vec.components)))


def type1_cases(ws):
    """(name, n, vector, expected verdict), each built from the generated vector."""
    vec = families.type1(ws, N)
    (nums0, den0), (nums1, den1) = (comp.row for comp in vec.components)
    basis0, basis1 = (families.type1_basis(ws, i) for i in range(2))
    other_shift = Basis.shifted_rising(*(ws.alpha[1] + 1).as_integer_ratio())  # weight 1's (x + alpha_1 + 1)_k
    idle = families.type1(ws, (2, 0))
    return [
        ("generated", N, vec, "accepted"),
        ("trailing zero", N, replaced(vec, 0, ScaledPolynomial(basis0, row=([*nums0, 0], den0))), "accepted"),
        ("zero active component", N, replaced(vec, 1, ScaledPolynomial(Basis.falling_factorial(), ())), "accepted"),
        ("zero idle component", (2, 0), idle, "accepted"),
        ("degree n_i", N, replaced(vec, 1, ScaledPolynomial(basis1, row=([*nums1, 1], den1))), "refused"),
        ("another weight's shifted basis", N, replaced(vec, 0, ScaledPolynomial(other_shift, row=(nums0, den0))),
         "refused"),
        ("p - 1 components", N, TypeIVector(vec.components[:1]), "refused"),
        ("p + 1 components", N, TypeIVector((*vec.components, vec.components[1])), "refused"),
        ("nonzero idle component", (2, 0), replaced(idle, 1, ScaledPolynomial(families.type1_basis(ws, 1), (F(1),))),
         "refused"),
    ]


def type2_cases(ws):
    """(name, polynomial, expected verdict), each built from the generated polynomial's row."""
    poly = families.type2(ws, N)
    nums, den = poly.row
    other = Basis.monomial() if ws.family is Family.HAHN else Basis.falling_factorial()
    return [
        ("generated", poly, "accepted"),
        ("trailing zeros", ScaledPolynomial(poly.basis, row=([*nums, 0, 0], den)), "accepted"),
        ("lower degree", ScaledPolynomial(poly.basis, row=(nums[:-1], den)), "accepted"),
        ("degree |n| + 1", ScaledPolynomial(poly.basis, row=([*nums, 1], den)), "refused"),
        ("zero polynomial", ScaledPolynomial(poly.basis, ()), "refused"),
        ("zero row", ScaledPolynomial(poly.basis, row=([0] * len(nums), 1)), "refused"),
        ("another basis", ScaledPolynomial(other, row=poly.row), "refused"),
    ]


@pytest.mark.parametrize("ws", SYSTEMS, ids=[ws.family.value for ws in SYSTEMS])
def test_type1_readers_admit_the_same_vectors(ws):
    for name, n, vec, expected in type1_cases(ws):
        verdicts = {reader: verdict(read) for reader, read in type1_readers(ws, n, vec).items()}
        assert verdicts == dict.fromkeys(verdicts, expected), name


@pytest.mark.parametrize("ws", SYSTEMS, ids=[ws.family.value for ws in SYSTEMS])
def test_type2_readers_admit_the_same_polynomials(ws):
    for name, poly, expected in type2_cases(ws):
        verdicts = {reader: verdict(read) for reader, read in type2_readers(ws, N, poly).items()}
        assert verdicts == dict.fromkeys(verdicts, expected), name


@pytest.mark.parametrize("ws", SYSTEMS, ids=[ws.family.value for ws in SYSTEMS])
def test_admitted_rows_are_padded_to_the_index(ws):
    # type II rows to |n| + 1 numerators, type I component i to exactly n_i
    poly = families.type2(ws, N)
    nums, den = poly.row
    short = ScaledPolynomial(poly.basis, row=(nums[:-1], den))
    assert families.type2_row(ws, N, short) == (short.row[0] + (0,), short.row[1])
    assert families.type2_row(ws, N, poly) is poly.row
    vec = families.type1(ws, (2, 0))
    padded = families.type1_rows(ws, (2, 0), replaced(vec, 0, ScaledPolynomial(vec.components[0].basis, (F(1),))))
    assert [len(row) for row, _ in padded] == [2, 0] and padded[0][0] == (1, 0)


def public_results(ws, n) -> dict:
    """Every public generator and check of one weight system and multi-index, by name, with its result."""
    poly, vec = families.type2(ws, n), families.type1(ws, n)
    point = 1 if ws.family is Family.HAHN else F(2, 3)
    results = {
        "type2": poly, "type1": vec,
        "type2_row": families.type2_row(ws, n, poly), "type1_rows": families.type1_rows(ws, n, vec),
        "check_type2_orthogonality": oracle.check_type2_orthogonality(ws, n, poly),
        "check_type1_orthogonality": oracle.check_type1_orthogonality(ws, n, vec),
        "check_mellin_type2": oracle.check_mellin_type2(ws, n, poly, [(1, 7), *oracle.mellin_zero_points(ws, n)]),
        "normal_index": oracle.normal_index(ws, n),
        "oracle_solve_type1": oracle.oracle_solve_type1(ws, n), "oracle_solve_type2": oracle.oracle_solve_type2(ws, n),
        "check_residue_duality": residues.check_residue_duality(ws, n, vec),
        "recovered_nodes": residues.recovered_nodes(ws, n, vec),
        "recovered_constant_closed_form": residues.recovered_constant_closed_form(ws, n),
        "type1_direct_values": residues.type1_direct_values(ws, n, vec, point),
        "verify_type2_series_equivalence": residues.verify_type2_series_equivalence(ws, n, 6),
    }
    if ws.family is Family.HAHN:
        results.update({
            "hahn_jp_coefficient_relation": families.hahn_jp_coefficient_relation(ws, n, poly),
            "hahn_weighted_series_relation": families.hahn_weighted_series_relation(ws, n, poly),
            "hahn_kdf_relation": families.hahn_kdf_relation(ws, n, vec),
            "hahn_type1_p2_kdf": [families.hahn_type1_p2_kdf(ws, n, i) for i in range(2)],
            "check_hahn_summation_identity": oracle.check_hahn_summation_identity(ws, n),
        })
    return results


@pytest.mark.parametrize("ws", SYSTEMS, ids=[ws.family.value for ws in SYSTEMS])
def test_a_list_multi_index_reads_as_its_tuple(ws):
    # validate_index hands every public entry point n as a tuple, so a list keys the kept rows as the tuple does;
    # each side gets a weight system of its own, so neither reads what the other kept
    fresh = lambda: WeightSystem(ws.family, ws.alpha, ws.beta, ws.N)
    assert public_results(fresh(), list(N)) == public_results(fresh(), N)
    assert fresh().validate_index(list(N)) == N


@pytest.mark.parametrize("ws", SYSTEMS, ids=[ws.family.value for ws in SYSTEMS])
def test_a_bad_multi_index_is_refused_everywhere(ws):
    # a multi-index of another length, or |n| > N for Hahn, is refused by every public function that takes one,
    # before zip could cut it to p entries or a factorial could see a negative argument
    poly, vec = families.type2(ws, N), families.type1(ws, N)
    point = 1 if ws.family is Family.HAHN else F(2, 3)
    readers = {
        "type2": lambda n: families.type2(ws, n), "type1": lambda n: families.type1(ws, n),
        "type2_row": lambda n: families.type2_row(ws, n, poly), "type1_rows": lambda n: families.type1_rows(ws, n, vec),
        "check_type2_orthogonality": lambda n: oracle.check_type2_orthogonality(ws, n, poly),
        "check_type1_orthogonality": lambda n: oracle.check_type1_orthogonality(ws, n, vec),
        "check_mellin_type2": lambda n: oracle.check_mellin_type2(ws, n, poly, [(1, 7)]),
        "check_residue_duality": lambda n: residues.check_residue_duality(ws, n, vec),
        "recovered_nodes": lambda n: residues.recovered_nodes(ws, n, vec),
        "type1_direct_values": lambda n: residues.type1_direct_values(ws, n, vec, point),
        "normal_index": lambda n: oracle.normal_index(ws, n),
        "oracle_solve_type1": lambda n: oracle.oracle_solve_type1(ws, n),
        "oracle_solve_type2": lambda n: oracle.oracle_solve_type2(ws, n),
        "mellin_zero_points": lambda n: oracle.mellin_zero_points(ws, n),
        "recovered_constant_closed_form": lambda n: residues.recovered_constant_closed_form(ws, n),
        "verify_type2_series_equivalence": lambda n: residues.verify_type2_series_equivalence(ws, n, 6),
    }
    if ws.family is Family.HAHN:
        readers.update({
            "hahn_jp_coefficient_relation": lambda n: families.hahn_jp_coefficient_relation(ws, n, poly),
            "hahn_weighted_series_relation": lambda n: families.hahn_weighted_series_relation(ws, n, poly),
            "check_hahn_summation_identity": lambda n: oracle.check_hahn_summation_identity(ws, n),
        })
    for bad in [(1, 1, 1), (1,)] + ([(5, 1)] if ws.family is Family.HAHN else []):
        taken = []
        for name, read in readers.items():
            try:
                read(bad)
            except AdmissibilityError:
                continue
            taken.append(name)
        assert taken == [], bad
