"""The generators and the closed-form checks build no Fraction Pochhammer.

Their parameters are integers over the weight system's one denominator, so
no ``pochhammer`` call (a Fraction per factor) is left inside them.  The
fixture counts calls through every binding these modules could use.
"""

from fractions import Fraction

import pytest

from mopexact import families, gammaprod, oracle, residues
from mopexact.driver import CONTINUOUS_SAMPLE_POINTS, _hahn_sample_points
from conftest import hahn_ws, jacobi_pineiro_ws, laguerre_ws


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
    assert oracle.check_mellin_type2(ws, N, poly, [Fraction(1, 7), Fraction(3, 11), Fraction(9, 13)])
    assert pochhammer_calls == []


def test_summation_identity_calls_no_pochhammer(pochhammer_calls):
    assert all(oracle.check_hahn_summation_identity(HAHN, N))
    assert pochhammer_calls == []


@systems(JACOBI_PINEIRO, HAHN)
def test_residue_duality_calls_no_pochhammer(ws, pochhammer_calls):
    vec = families.type1(ws, N)
    points = _hahn_sample_points(ws.N) if ws is HAHN else list(CONTINUOUS_SAMPLE_POINTS[ws.family])
    del pochhammer_calls[:]
    assert residues.check_residue_duality(ws, N, vec, points)
    assert pochhammer_calls == []


@systems(LAGUERRE, JACOBI_PINEIRO, HAHN)
def test_series_equivalence_calls_no_pochhammer(ws, pochhammer_calls):
    assert residues.verify_type2_series_equivalence(ws, N, 8)
    assert pochhammer_calls == []
