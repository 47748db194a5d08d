"""The type I checks read canonical scales as rationals, and every admissible system verifies.

A type I component is read against the canonical scale of its family,
weight and |n|; the continuous checks take the rational that scale leaves
against the moment gamma in closed form, so no gamma product is reduced on
them.  The moment rows are built once per instance.
And every system the generators take, idle weights and the Hahn corner
included, runs through ``run_instance`` with every check green.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import (
    GammaProduct,
    PoleError,
    ScaledPolynomial,
    TypeIVector,
    WeightSystem,
    check_residue_duality,
    check_type1_orthogonality,
    driver,
    families,
    oracle,
    residues,
    weights,
)
from mopexact.weights import Family
from conftest import (
    admissible_systems, hahn_corner_systems, instance_of, jacobi_pineiro_ws, laguerre_ws, recovered_node_values,
)

F = Fraction


@pytest.fixture
def reduce_calls(monkeypatch):
    """A list that records every GammaProduct.reduce call."""
    calls = []
    original = GammaProduct.reduce

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GammaProduct, "reduce", counted)
    return calls


@pytest.mark.parametrize("ws", [laguerre_ws(3), jacobi_pineiro_ws(3)], ids=["laguerre", "jacobi-pineiro"])
def test_continuous_type1_checks_reduce_no_gamma(ws, reduce_calls):
    n = (2, 1, 2)
    vec = families.type1(ws, n)
    del reduce_calls[:]
    assert check_type1_orthogonality(ws, n, vec).passed
    assert all(a.coefficients == b.coefficients
               for a, b in zip(vec.components, oracle.oracle_solve_type1(ws, n).components))
    assert check_residue_duality(ws, n, vec)
    assert residues.verify_type2_series_equivalence(ws, n, 8)
    expected = Fraction(*residues.recovered_constant_closed_form(ws, n))
    assert all(value == expected for _, value in recovered_node_values(ws, n, vec))
    assert reduce_calls == []


@pytest.mark.parametrize("family", ["laguerre1", "jacobi-pineiro"])
def test_moment_rows_are_built_once_per_instance(family, monkeypatch):
    built, systems = [], []
    ratio_row, weight_system = weights.ratio_row, driver.weight_system
    monkeypatch.setattr(weights, "ratio_row", lambda *args: built.append(args) or ratio_row(*args))
    monkeypatch.setattr(driver, "weight_system", lambda instance: systems.append(weight_system(instance)) or systems[-1])
    instance = {"family": family, "alpha": ["1/2", "1/3", "1/5"], "n": [3, 1, 2]}
    if family == "jacobi-pineiro":
        instance["beta"] = "1/4"
    assert driver.run_instance(instance)["pass"]
    [ws] = systems
    assert len(built) == ws.p  # one row per weight, once
    assert all(len(nums) == 3 + 6 for nums, _ in ws.moment_rows(1))  # max(n) + |n|, read as a prefix


@pytest.mark.parametrize("ws", [laguerre_ws(2), jacobi_pineiro_ws(2)], ids=["laguerre", "jacobi-pineiro"])
def test_longer_moment_request_rebuilds_and_shorter_reads_a_prefix(ws):
    def values(rows, length):
        return [[F(v, den) for v in nums[:length]] for nums, den in rows]

    fresh = WeightSystem(ws.family, ws.alpha, ws.beta)
    assert [len(nums) for nums, _ in ws.moment_rows(3)] == [3, 3]
    assert values(ws.moment_rows(7), 7) == values(fresh.moment_rows(7), 7)
    assert ws.moment_rows(2) is ws.moment_rows(7)


def test_jacobi_pineiro_corner_stays_a_pole():
    # alpha + beta + |n| = 0: the canonical scale holds Gamma(0), so no rational is read against it
    ws = WeightSystem.jacobi_pineiro((F(-1, 2),), F(-1, 2))
    corner = TypeIVector((ScaledPolynomial(families.type1_basis(ws, 0), (F(1),)),))
    for check in (
        lambda: check_type1_orthogonality(ws, (1,), corner),
        lambda: oracle.oracle_solve_type1(ws, (1,)),
        lambda: check_residue_duality(ws, (1,), corner),
        lambda: residues.recovered_nodes(ws, (1,), corner),
    ):
        with pytest.raises(PoleError):
            check()


def test_idle_hahn_weight_verifies_and_faults_turn_red():
    instance = {"family": "hahn", "alpha": ["8/5", "1/5"], "n": [1, 0], "beta": "1/3", "N": 4}
    assert driver.run_instance(instance)["pass"]
    instance = dict(instance, n=[2, 0])
    record = driver.run_instance(instance)
    assert record["pass"] and "kdf_cross_formula" not in record["checks"]
    for k in range(2):
        checks = driver.run_instance(instance, fault=f"t1:0:{k}")["checks"]
        assert not checks["type1_orthogonality"] and not checks["type1_oracle_match"], k
    for index in range(3):
        checks = driver.run_instance(instance, fault=f"t2:{index}")["checks"]
        assert not checks["type2_orthogonality"] and not checks["type2_oracle_match"], index


def test_idle_jacobi_pineiro_weight_on_the_corner_verifies():
    # alpha_0 + beta + |n| = 0 on the idle weight: its scale is never read
    instance = {"family": "jacobi-pineiro", "alpha": ["-1/2", "1/3"], "n": [0, 1], "beta": "-1/2"}
    assert driver.run_instance(instance)["pass"]


@given(st.one_of(admissible_systems(max_total=5), hahn_corner_systems()))
@settings(max_examples=100, deadline=None)
def test_every_admissible_system_verifies(system):
    ws, n = system
    record = driver.run_instance(instance_of(ws, n))
    assert record["pass"], record
    assert (ws.family is Family.HAHN) == ("summation_identity" in record["checks"])


def test_hahn_corner_instance_verifies():
    ws = WeightSystem.hahn((F(-1, 2),), F(-1, 2), 3)
    record = driver.run_instance(instance_of(ws, (1,)))
    assert record["pass"] and record["checks"]["summation_identity"]
