import csv
import hashlib
import io
import json
import math
from fractions import Fraction

import pytest

from mopexact import families, oracle
from mopexact.cli import main
from mopexact.driver import apply_fault, compositions, instance_key, iter_instances, run_instance, weight_system
from conftest import laguerre_ws

F = Fraction


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestDriver:
    def test_compositions_bounds(self):
        for n in compositions(4):
            assert 1 <= len(n) <= 3 and all(v >= 1 for v in n) and sum(n) <= 4
        assert (1, 1, 1, 1) not in compositions(4)
        assert len(compositions(4)) == 14

    def test_instance_enumeration(self):
        instances = iter_instances(["hahn"], 2, 4)
        keys = [instance_key(i) for i in instances]
        assert "hahn|n=1|N=1" in keys and "hahn|n=1,1|N=4" in keys
        assert len(keys) == len(set(keys))

    def test_empty_grid(self):
        assert iter_instances(["laguerre1"], 0, 8) == []

    def test_fault_application(self):
        ws = laguerre_ws(1)
        poly = families.type2(ws, (1,))
        vec = families.type1(ws, (1,))
        bumped, _ = apply_fault(poly, vec, "t2:0")
        assert bumped.coefficients[0] == poly.coefficients[0] + 1
        _, bumped_vec = apply_fault(poly, vec, "t1:0:0")
        assert bumped_vec.components[0].coefficients[0] == vec.components[0].coefficients[0] + 1
        with pytest.raises(ValueError):
            apply_fault(poly, vec, "bogus")

    def test_run_instance_checks(self):
        result = run_instance({
            "family": "hahn", "alpha": ["1/2", "1/3"], "beta": "1/4", "N": 4, "n": [1, 1],
        })
        assert result["pass"]
        assert "kdf_cross_formula" in result["checks"]
        assert "summation_identity" in result["checks"]

    def test_continuous_degree_six_digest(self):
        # golden output past the default grid: |n| <= 6 reaches 6 x 6 oracle
        # solves that need row swaps; records and oracle solutions must not move
        instances = iter_instances(["laguerre1", "jacobi-pineiro"], 6, 0)
        records = sorted((run_instance(i) for i in instances), key=lambda r: r["instance"])
        assert len(records) == 82 and all(r["pass"] for r in records)
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "c32cfb3fc666998ed905d51ec1324ba08d380a9fbb2a07270c575e7423993879"
        )
        solutions = []
        for instance in instances:
            ws, n = weight_system(instance), tuple(instance["n"])
            solutions.append([str(c) for c in oracle.oracle_solve_type2(ws, n).coefficients])
            solutions.append([
                [str(c) for c in comp.coefficients] for comp in oracle.oracle_solve_type1(ws, n).components
            ])
        text = json.dumps(solutions, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "7a654e52042e3ced27b21a2227e66ad824492d072f4f14ca3ec6be73258c626d"
        )


class TestCoeffsCommand:
    def test_hahn_type1_constant(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--family", "hahn", "--alpha", "1/2",
            "--beta", "1/4", "--N", "2", "--n", "1", "--type", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["components"][0]["coefficients"] == ["32/165"]

    def test_laguerre_zero_index(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--family", "laguerre1", "--alpha", "1/2", "--n", "0",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["coefficients"] == ["1"]

    def test_jp_matches_direct_generation(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--family", "jacobi-pineiro", "--alpha", "1/2",
            "--alpha", "1/3", "--beta", "1/4", "--n", "1", "--n", "1",
        )
        assert code == 0
        from conftest import jacobi_pineiro_ws
        expected = [str(c) for c in families.type2(jacobi_pineiro_ws(2), (1, 1)).coefficients]
        assert json.loads(out)["results"][0]["coefficients"] == expected

    def test_admissibility_error_exit_2(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--family", "hahn", "--alpha", "1/2", "--alpha", "3/2",
            "--beta", "1/4", "--N", "3", "--n", "1", "--n", "1",
        )
        assert code == 2
        assert json.loads(out)["kind"] == "AdmissibilityError"

    def test_pole_error_exit_2(self, capsys):
        # alpha + beta + |n| = 0: the Jacobi-Pineiro type I normalization degenerates
        code, out = run_cli(
            capsys, "coeffs", "--family", "jacobi-pineiro", "--alpha=-1/2", "--beta=-1/2",
            "--n", "1", "--type", "1",
        )
        assert code == 2
        assert json.loads(out)["kind"] == "PoleError"


class TestEvalCommand:
    @pytest.mark.parametrize("spaced, joined", [
        (("--family", "laguerre1", "--alpha", "-1/2", "--n", "1", "--x", "1"),
         ("--family", "laguerre1", "--alpha=-1/2", "--n", "1", "--x", "1")),
        (("--family", "jacobi-pineiro", "--alpha", "1/3", "--beta", "-1/2", "--n", "1", "--x", "1/2"),
         ("--family", "jacobi-pineiro", "--alpha", "1/3", "--beta=-1/2", "--n", "1", "--x", "1/2")),
    ])
    def test_negative_rational_option_value(self, capsys, spaced, joined):
        # exponents above -1 are admissible, so "--alpha -1/2" must parse like "--alpha=-1/2"
        code, out = run_cli(capsys, "eval", *joined)
        assert code == 0 and '"-1/2"' in out
        assert run_cli(capsys, "eval", *spaced) == (0, out)

    def test_root_evaluates_to_zero(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--family", "hahn", "--alpha", "1/2", "--beta", "1/4",
            "--N", "3", "--n", "1", "--x", "18/11",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["rational"] == "0"

    def test_type1_per_component_decomposition(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--family", "laguerre1", "--alpha", "1/2", "--alpha", "1/3",
            "--n", "1", "--n", "1", "--type", "1", "--x", "1/2",
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert [row["weight"] for row in rows] == [0, 1]
        assert rows[0]["rational"] == "6" and rows[1]["rational"] == "-6"
        assert "Gamma(3/2)^-1" in rows[0]["gamma"]


    @pytest.mark.parametrize("x", ["18/11", "5", "-1"])
    def test_hahn_type1_off_lattice_rejected(self, capsys, x):
        code, out = run_cli(
            capsys, "eval", "--family", "hahn", "--alpha", "1/2", "--beta", "1/4",
            "--N", "3", "--n", "2", "--type", "1", f"--x={x}",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "AdmissibilityError" and "lattice" in payload["error"]


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-total-degree", "2", "--max-N", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["pass"] == len(payload["results"]) > 0
        assert payload["summary"]["vacuous"] is False

    def test_injected_fault_exits_1(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--max-total-degree", "2", "--max-N", "4",
            "--inject-fault", "t2:0",
        )
        assert code == 1
        assert json.loads(out)["summary"]["fail"] > 0

    def test_empty_grid_vacuous_exit_0(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-total-degree", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"pass": 0, "fail": 0, "vacuous": True}

    def test_deterministic_output(self, capsys):
        argv = ("verify", "--family", "hahn", "--max-total-degree", "2", "--max-N", "3")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_parallel_matches_serial(self, capsys):
        argv = ("verify", "--family", "laguerre1", "--max-total-degree", "3")
        _, serial = run_cli(capsys, *argv)
        _, parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert json.loads(serial)["results"] == json.loads(parallel)["results"]

    def test_default_grid_passes(self, capsys):
        # the full default grid: p <= 3, |n| <= 4, N <= 8, all families
        code, out = run_cli(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0 and payload["summary"]["pass"] == 109
        # golden output: any kernel rewrite must leave every record byte-identical
        records = sorted(payload["results"], key=lambda r: r["instance"])
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "44b95b1c15c4200fe8e231bd72fbebc4708ecc62319538eca54f8f1637f25940"
        )

    def test_jobs_auto(self, capsys):
        argv = ("verify", "--family", "jacobi-pineiro", "--max-total-degree", "2")
        _, serial = run_cli(capsys, *argv)
        _, auto = run_cli(capsys, *argv, "--jobs", "0")
        assert json.loads(serial)["results"] == json.loads(auto)["results"]


class TestIdentityCommand:
    def test_chu_vandermonde_draws(self, capsys):
        code, out = run_cli(capsys, "identity", "--name", "chu-vandermonde", "--draws", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] == 50 and payload["summary"]["fail"] == 0

    def test_precondition_rejection_is_not_failure(self, capsys):
        code, out = run_cli(
            capsys, "identity", "--name", "kummer", "--params", "1/2,1/3,1/5,5/4,7/3",
        )
        assert code == 0
        payload = json.loads(out)
        assert "rejected" in payload["results"][0]
        assert payload["summary"]["fail"] == 0

    def test_params_arity_checked(self, capsys):
        code, out = run_cli(capsys, "identity", "--name", "kummer", "--params", "0,1/3")
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and "5 --params" in payload["error"]

    @pytest.mark.parametrize("order", ["5/2", "-2"])
    def test_chu_vandermonde_order_checked(self, capsys, order):
        # a non-integer or negative order is an input error, not a silent truncation
        code, out = run_cli(capsys, "identity", "--name", "chu-vandermonde", "--params", f"1/2,1/3,{order}")
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and "nonnegative integer" in payload["error"]

    def test_chu_vandermonde_integer_order(self, capsys):
        code, out = run_cli(capsys, "identity", "--name", "chu-vandermonde", "--params", "1/2,1/3,4")
        assert code == 0
        assert json.loads(out)["results"] == [{"ok": True, "params": ["1/2", "1/3", "4"]}]

    def test_hahn_summation_grid(self, capsys):
        code, out = run_cli(
            capsys, "identity", "--name", "hahn-summation",
            "--max-total-degree", "2", "--max-N", "4",
        )
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0

    def test_seeded_determinism(self, capsys):
        argv = ("identity", "--name", "karp-prilepkina", "--draws", "25", "--seed", "3")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestTableCommand:
    def test_csv_shape(self, capsys):
        code, out = run_cli(
            capsys, "table", "--family", "laguerre1", "--max-total-degree", "2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["instance", "type", "weight", "basis", "k", "coefficient"]
        assert ["laguerre1|n=1", "2", "", "monomial", "0", "-3/2"] in rows

    def test_type1_rows(self, capsys):
        code, out = run_cli(
            capsys, "table", "--family", "hahn", "--max-total-degree", "1",
            "--max-N", "2", "--type", "1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ["hahn|n=1|N=2", "1", "0", "shifted-rising", "0", "32/165"] in rows


class TestPlotDataCommand:
    def test_hahn_row_count(self, capsys):
        code, out = run_cli(
            capsys, "plot-data", "--family", "hahn", "--alpha", "1/2", "--beta", "1/4",
            "--N", "5", "--n", "2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 6  # header plus one row per lattice point

    def test_jp_value_at_interior_matches_exact(self, capsys):
        code, out = run_cli(
            capsys, "plot-data", "--family", "jacobi-pineiro", "--alpha", "1/2",
            "--beta", "1/4", "--n", "2", "--samples", "10",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        from conftest import jacobi_pineiro_ws
        poly = families.type2(jacobi_pineiro_ws(1), (2,))
        for x_text, value_text in rows:
            exact = float(poly.rational_value(F(x_text)))
            value = float(value_text)
            assert math.isclose(value, exact, rel_tol=1e-12, abs_tol=1e-15)
        # the window starts at 0, where the sample equals the constant term
        assert rows[0][0] == "0"
        assert abs(float(rows[0][1]) - float(poly.coefficients[0])) < 1e-12 * abs(float(poly.coefficients[0]))

    def test_weight_count_flag_checked(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--family", "laguerre1", "--p", "2", "--alpha", "1/2", "--n", "1",
        )
        assert code == 2
        assert json.loads(out)["kind"] == "AdmissibilityError"

    def test_laguerre_sign_change_bound(self, capsys):
        code, out = run_cli(
            capsys, "plot-data", "--family", "laguerre1", "--alpha", "1/2", "--alpha", "1/3",
            "--n", "2", "--n", "1", "--samples", "60", "--x-max", "12",
        )
        assert code == 0
        values = [float(v) for _, v in list(csv.reader(io.StringIO(out)))[1:]]
        sign_changes = sum(
            1 for a, b in zip(values, values[1:]) if a != 0 and b != 0 and (a < 0) != (b < 0)
        )
        assert sign_changes <= 3
