import contextlib
import csv
import hashlib
import io
import json
import math
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import WeightSystem, driver, families, oracle, residues
from mopexact.cli import IDENTITIES, _gamma_float, build_parser, main
from mopexact.driver import apply_fault, compositions, instance_key, iter_instances, run_instance, weight_system
from conftest import laguerre_ws

F = Fraction


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


#: sha256 of the default grid's records, sorted by instance and printed compactly.
DEFAULT_GRID_DIGEST = "44b95b1c15c4200fe8e231bd72fbebc4708ecc62319538eca54f8f1637f25940"


def records_digest(payload: dict) -> str:
    records = sorted(payload["results"], key=lambda r: r["instance"])
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def forks(monkeypatch):
    """A one-entry list counting the os.fork calls made in this process while the test runs."""
    original = os.fork
    count = [0]

    def counted():
        count[0] += 1
        return original()

    monkeypatch.setattr(os, "fork", counted)
    return count


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

    def test_hahn_degree_five_digest(self):
        # golden output past the default grid: |n| <= 5 on lattices up to N = 12; records must not move
        records = sorted((run_instance(i) for i in iter_instances(["hahn"], 5, 12)), key=lambda r: r["instance"])
        assert len(records) == 225 and all(r["pass"] for r in records)
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "8f7a580f0d69551cfcb8eaa8a03528b1b8681c590dee2cdfee6c123e865096e5"
        )

    @pytest.mark.parametrize("key, t2_red, t1_red", [
        ("laguerre1|n=2,1", set(), set()),
        ("jacobi-pineiro|n=2,1", set(), set()),
        ("hahn|n=1,1|N=2", {"jp_coefficient_relation", "weighted_series"}, {"kdf_cross_formula"}),
    ])
    def test_fault_to_check_map(self, key, t2_red, t1_red):
        # which checks each single-coefficient fault turns red; a +1 on the top
        # type II coefficient also breaks monicity; the map was recorded before
        # the residue route moved to integer rows
        [instance] = [i for i in iter_instances(["laguerre1", "jacobi-pineiro", "hahn"], 3, 2)
                      if instance_key(i) == key]
        n = instance["n"]
        t2_red = t2_red | {"mellin_random", "mellin_zeros", "type2_oracle_match", "type2_orthogonality"}
        t1_red = t1_red | {"recovered_constant", "residue_duality", "type1_oracle_match", "type1_orthogonality"}
        expected = {f"t2:{j}": t2_red | ({"type2_monic"} if j == sum(n) else set()) for j in range(sum(n) + 1)}
        expected.update({f"t1:{i}:{k}": t1_red for i, ni in enumerate(n) for k in range(ni)})
        red = {
            fault: {name for name, ok in run_instance(instance, fault)["checks"].items() if not ok}
            for fault in expected
        }
        assert red == expected


class TestCoeffsCommand:
    def test_hahn_type1_constant(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--family", "hahn", "--alpha", "1/2",
            "--beta", "1/4", "--N", "2", "--n", "1", "--type", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["components"][0]["coefficients"] == ["32/165"]
        assert payload["results"][0]["components"][0]["basis_shift"] == "3/2"

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

    @pytest.mark.parametrize("family, extra", [("jacobi-pineiro", ()), ("hahn", ("--N", "3"))])
    def test_idle_weight_on_the_corner(self, capsys, family, extra):
        # n_1 = 0 with alpha_1 + beta + 1 = 0 used to end in a ZeroDivisionError traceback
        code, out = run_cli(
            capsys, "coeffs", "--family", family, "--alpha=-1/2", "--alpha=1/3",
            "--beta=-1/2", *extra, "--n", "0", "--n", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] == 1
        assert len(payload["results"][0]["coefficients"]) == 2

    @pytest.mark.parametrize("argv, ws, x", [
        (("--family", "jacobi-pineiro", "--alpha=-1/2", "--alpha=1/3", "--beta=-1/2", "--n", "0", "--n", "1"),
         WeightSystem.jacobi_pineiro((F(-1, 2), F(1, 3)), F(-1, 2)), "1/2"),
        (("--family", "laguerre1", "--alpha", "1/2", "--alpha", "1/3", "--n", "0", "--n", "1"),
         WeightSystem.laguerre((F(1, 2), F(1, 3))), "1/2"),
        (("--family", "hahn", "--alpha", "1/2", "--alpha", "1/3", "--beta", "1/4", "--N", "4", "--n", "0", "--n", "1"),
         WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 4), "2"),
    ], ids=["jacobi-pineiro-corner", "laguerre1", "hahn"])
    def test_idle_component_scale_is_1(self, capsys, argv, ws, x):
        # an idle component is the zero polynomial, so its scale is 1, not a gamma product (Gamma(0) on the corner)
        code, out = run_cli(capsys, "coeffs", *argv, "--type", "1")
        assert code == 0
        idle, active = json.loads(out)["results"][0]["components"]
        assert (idle["coefficients"], idle["scale"]) == ([], "1")
        assert active["scale"] == str(families.type1_scale(ws, 1, 1))
        code, out = run_cli(capsys, "eval", *argv, "--type", "1", "--x", x)
        assert code == 0
        idle, active = json.loads(out)["results"]
        assert (idle["rational"], idle["gamma"]) == ("0", "1")
        assert active["gamma"] == str(families.type1_scale(ws, 1, 1))

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


    @pytest.mark.parametrize("argv", [
        ("--family", "jacobi-pineiro", "--alpha", "1/2", "--beta", "1/4", "--N", "5"),
        ("--family", "laguerre1", "--alpha", "1/2", "--beta", "1/4"),
        ("--family", "laguerre1", "--alpha", "1/2", "--N", "5"),
    ], ids=["jacobi-pineiro-N", "laguerre-beta", "laguerre-N"])
    def test_stray_weight_option_rejected(self, capsys, argv):
        code, out = run_cli(capsys, "coeffs", *argv, "--n", "1")
        assert code == 2
        assert json.loads(out)["kind"] == "AdmissibilityError"


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

    @pytest.mark.parametrize("argv, expected", [
        (("--family", "laguerre1", "--alpha", "1/2", "--alpha", "1/3", "--n", "1", "--n", "1", "--x", "1/2"),
         [("6", "Gamma(3/2)^-1"), ("-6", "Gamma(4/3)^-1")]),
        (("--family", "hahn", "--alpha", "1/2", "--alpha", "1/3", "--beta", "1/4", "--N", "4",
          "--n", "2", "--n", "1", "--x", "3"),
         [("-5504/207", "1"), ("19456/737", "1")]),
        (("--family", "jacobi-pineiro", "--alpha", "1/2", "--alpha", "1/3", "--beta", "1/4",
          "--n", "1", "--n", "2", "--x", "2/3"),
         [("-7095/16", "Gamma(3/2)^-1 * Gamma(13/4)^-1 * Gamma(15/4)"),
          ("385495/768", "Gamma(4/3)^-1 * Gamma(13/4)^-1 * Gamma(43/12)")]),
    ], ids=["laguerre1", "hahn", "jacobi-pineiro"])
    def test_type1_per_component_decomposition(self, capsys, argv, expected):
        code, out = run_cli(capsys, "eval", *argv, "--type", "1")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [row["weight"] for row in rows] == [0, 1]
        x = argv[-1]
        assert rows == [
            {"weight": i, "x": x, "rational": rational, "gamma": gamma}
            for i, (rational, gamma) in enumerate(expected)
        ]


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
        assert records_digest(payload) == DEFAULT_GRID_DIGEST

    def test_parallel_default_grid_is_the_serial_output(self, capsys, forks):
        _, serial = run_cli(capsys, "verify")
        code, parallel = run_cli(capsys, "verify", "--jobs", "2")
        assert code == 0 and forks[0] == 1
        assert records_digest(json.loads(parallel)) == DEFAULT_GRID_DIGEST
        # byte for byte, but for the echoed job count
        assert parallel.count('"jobs": 2') == 1
        assert parallel.replace('"jobs": 2', '"jobs": 1') == serial

    def test_parallel_faulted_default_grid_is_the_serial_results(self, capsys):
        serial = run_cli(capsys, "verify", "--inject-fault", "t2:1")
        parallel = run_cli(capsys, "verify", "--inject-fault", "t2:1", "--jobs", "2")
        assert serial[0] == parallel[0] == 1
        assert json.loads(serial[1])["results"] == json.loads(parallel[1])["results"]

    @pytest.mark.parametrize("share", [0, 1])
    def test_failure_in_a_share_is_the_serial_error(self, capfd, monkeypatch, share):
        # with --jobs 2 share 1 runs in the forked child and share 0 in the calling process
        argv = ["verify", "--family", "laguerre1", "--max-total-degree", "3"]
        failing = instance_key(iter_instances(["laguerre1"], 3, 8)[share])
        run_instance = driver.run_instance

        def raising(instance, **options):
            if instance_key(instance) == failing:
                raise ValueError(f"no record for {failing}")
            return run_instance(instance, **options)

        monkeypatch.setattr(driver, "run_instance", raising)
        serial = main(argv), capfd.readouterr()
        parallel = main(argv + ["--jobs", "2"]), capfd.readouterr()
        assert serial[0] == parallel[0] == 2
        assert serial[1].out == parallel[1].out
        assert json.loads(parallel[1].out) == {
            "command": "verify", "error": f"no record for {failing}", "kind": "ValueError"}
        assert serial[1].err == parallel[1].err == ""
        with pytest.raises(ChildProcessError):  # every forked child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_this_process_kills_the_running_child(self, capfd, monkeypatch):
        # share 0 raises here while the forked child, which would sleep a minute, still runs share 1
        parent, children = os.getpid(), []
        fork, run_instance = os.fork, driver.run_instance

        def recorded_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        def raising(instance, **options):
            if os.getpid() == parent:
                raise ValueError("share 0 failed")
            time.sleep(60)
            return run_instance(instance, **options)

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(driver, "run_instance", raising)
        start = time.monotonic()
        code = main(["verify", "--family", "laguerre1", "--max-total-degree", "2", "--jobs", "2"])
        out, err = capfd.readouterr()
        assert time.monotonic() - start < 30  # killed, not waited for
        assert code == 2 and err == ""
        [line] = out.splitlines()
        assert json.loads(line) == {"command": "verify", "error": "share 0 failed", "kind": "ValueError"}
        [child] = children
        with pytest.raises(ChildProcessError):  # the child was reaped
            os.waitpid(child, os.WNOHANG)

    def test_more_jobs_than_instances(self, capsys, forks):
        argv = ("verify", "--family", "laguerre1", "--max-total-degree", "2")
        _, serial = run_cli(capsys, *argv)
        code, parallel = run_cli(capsys, *argv, "--jobs", "8")
        assert code == 0 and len(json.loads(serial)["results"]) == 3
        assert json.loads(serial)["results"] == json.loads(parallel)["results"]
        assert forks[0] == 2  # one share per instance, the first run in this process

    def test_jobs_auto_counts_the_cpus_this_process_may_use(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, out = run_cli(capsys, "verify", "--family", "laguerre1", "--max-total-degree", "2", "--jobs", "0")
        assert code == 0 and json.loads(out)["summary"]["pass"] == 3
        assert forks[0] == 0

    @pytest.mark.parametrize("fault, digest", [
        ("t2:0", "d4b429b8f4014041344876f837b9237e71b521e5bc8eb0ade3500d332631c53b"),
        ("t2:1", "1da06570045f38a1743da349c69a9c58db627f6cc16aaba40c887f4ac88348c4"),
        ("t1:0:0", "53d5cf8e8e8b0837cc92d6042573b1e6cab1be6ba47097dd4a7143b290f36f68"),
        ("t1:1:1", "73e921f3e1e20349144c32717a239658d91bda0ee4fbc1b5785aec8a9b7e3ea0"),
    ])
    def test_faulted_default_grid_digest(self, capsys, fault, digest):
        # golden output of the default grid under one fault, recorded while every check
        # still compared Fraction lists: each record's red checks must not move
        code, out = run_cli(capsys, "verify", "--inject-fault", fault)
        assert code == 1 and json.loads(out)["summary"]["fail"] == 109
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_jobs_auto(self, capsys):
        argv = ("verify", "--family", "jacobi-pineiro", "--max-total-degree", "2")
        _, serial = run_cli(capsys, *argv)
        _, auto = run_cli(capsys, *argv, "--jobs", "0")
        assert json.loads(serial)["results"] == json.loads(auto)["results"]


    @pytest.mark.parametrize("option", [("--max-N", "-3"), ("--max-total-degree", "-1")])
    def test_negative_grid_bound_rejected(self, capsys, option):
        code, out = run_cli(capsys, "verify", *option)
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and option[0] in payload["error"]

    def test_negative_jobs_rejected(self, capsys):
        code, out = run_cli(capsys, "verify", "--jobs", "-3", "--max-total-degree", "1", "--max-N", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload == {"command": "verify", "error": "--jobs must be >= 0, got -3", "kind": "ValueError"}

    @pytest.mark.parametrize("argv", [("--max-total-degree", "0"), ("--max-total-degree", "2", "--jobs", "2")],
                             ids=["empty-grid", "two-jobs"])
    def test_malformed_fault_refused_before_the_grid_runs(self, capsys, forks, argv):
        # the specification is read once, so an empty grid does not hide it and no child is forked to meet it
        code, out = run_cli(capsys, "verify", *argv, "--inject-fault", "bogus")
        assert code == 2 and forks[0] == 0
        assert json.loads(out) == {
            "command": "verify", "error": "unrecognized fault specification 'bogus'", "kind": "ValueError",
        }

    @pytest.mark.parametrize("fault", ["t1:x:0", "t1:0:y", "t2:x", "t2:1/2"])
    def test_non_integer_fault_index_rejected(self, capsys, fault):
        code, out = run_cli(capsys, "verify", "--max-total-degree", "1", "--max-N", "1", "--inject-fault", fault)
        assert code == 2
        payload = json.loads(out)
        assert payload == {
            "command": "verify", "error": f"unrecognized fault specification {fault!r}", "kind": "ValueError",
        }


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

    def test_params_zero_denominator_rejected(self, capsys):
        code, out = run_cli(capsys, "identity", "--name", "kummer", "--params", "1/0,1,1,1,1")
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and "1/0" in payload["error"]

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

    @pytest.mark.parametrize("argv, digest", [
        (("chu-vandermonde",), "48f5eb4d3bd73859f4987da07dd123f5bf627dfd6e4db3e850889ca95beb0a22"),
        (("kummer",), "9db0199fc0dc9870a8bfcb8e30e2d130ec427cbce751046b3a932a3d43b4c698"),
        (("rakha-rathie",), "e9e5ba784c07f06d8f1c91b39b16458db53e31f99b8626a243ccc0993f0cdcc6"),
        (("karp-prilepkina",), "7eb2e7b8033cac9832358a73b3c4b62083f29581a34d6dd11c0ad9f7748a8ca7"),
        # recorded while every row was still one pfq per (weight, row)
        (("hahn-summation",), "f70a7b11eaa5cc9d6905b50a43097b5660a6418f2178c90dff2441dd0b219cab"),
        (("mellin-inversion",), "49a5fa90d017e1ac7840d1f61dfae86a6c8790717f08656507423e9a037f8c12"),
        (("kummer", "--params=-2,1/5,2/5,3/2,9/2"),
         "9a63e2e453bd7457dd15272f212814844d05c2ec122dfea566c78cddc48c77da"),
        (("kummer", "--params=1/2,1/3,1/5,5/4,7/3"),
         "53756ffd3694f9dcab487b37384a8ace549d697326b76420deb58cd887dba5f4"),
    ], ids=["chu-vandermonde", "kummer", "rakha-rathie", "karp-prilepkina", "hahn-summation",
            "mellin-inversion", "params-accepted", "params-rejected"])
    def test_identity_digest(self, capsys, argv, digest):
        # golden output of every identity name's default draws and of one accepted
        # and one rejected --params row
        code, out = run_cli(capsys, "identity", "--name", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_karp_prilepkina_skips_compositions_beyond_the_lattice(self, capsys):
        # no Hahn system admits |n| > N, so --max-N 0 leaves no instantiation row
        code, out = run_cli(capsys, "identity", "--name", "karp-prilepkina", "--max-N", "0", "--draws", "0")
        assert code == 0 and json.loads(out)["results"] == []
        _, out = run_cli(capsys, "identity", "--name", "karp-prilepkina", "--max-N", "3", "--draws", "0")
        keys = {row["instantiation"] for row in json.loads(out)["results"]}
        assert keys and all(sum(map(int, key.split("|")[1][2:].split(","))) <= 3 for key in keys)

    def test_seeded_determinism(self, capsys):
        argv = ("identity", "--name", "karp-prilepkina", "--draws", "25", "--seed", "3")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


    def test_negative_draws_rejected(self, capsys):
        code, out = run_cli(capsys, "identity", "--name", "kummer", "--draws", "-1")
        assert code == 2
        assert json.loads(out)["kind"] == "ValueError"


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

    @pytest.mark.parametrize("which, digest", [
        ("1", "8bd951101219cd5498269f70c90d81bcf005e0df13b27c272d3c81f4a136ac09"),
        ("2", "03f22e67969590dfcd757149ab4b8e3dc1681269cc299840b757ce0a2aecb582"),
    ], ids=["type1", "type2"])
    def test_format_json_digest(self, capsys, which, digest):
        # golden output: the default grid's table as one JSON envelope
        code, out = run_cli(capsys, "table", "--type", which, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_format_csv_is_the_default(self, capsys):
        assert run_cli(capsys, "table", "--type", "1", "--format", "csv") == run_cli(capsys, "table", "--type", "1")

    @pytest.mark.parametrize("which, digest", [
        ("1", "e244f246f383bc7a1402fc56542bf0fef41b3d5a56078624ae78c8256de89d42"),
        ("2", "04273ccf6cfaddb90928ea04414215d321c1185b387f6d59672790f15ffeaf64"),
    ], ids=["type1", "type2"])
    def test_default_grid_digest(self, capsys, which, digest):
        # golden output: every generated coefficient on the default grid, as CSV
        code, out = run_cli(capsys, "table", "--type", which)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("which, digest", [
        ("1", "b2f32e8e2708a5d6fe06b5af2ca2556a3fdfeb7071794c47e7503076650e21f0"),
        ("2", "0ae7618f6c674fdcdee2a60ab063cf52d28d8e1e9f9775a0c089c4ffb786548d"),
    ], ids=["type1", "type2"])
    def test_degree_five_digest(self, capsys, which, digest):
        # golden output past the default grid (|n| <= 5, N <= 10), recorded
        # from the per-term Fraction generators
        code, out = run_cli(capsys, "table", "--type", which, "--max-total-degree", "5", "--max-N", "10")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _rounded_type2(ws, n):
    poly = families.type2(ws, n)
    return lambda x: float(poly.rational_value(x))


def _rounded_hahn_type1(ws, n):
    vec = families.type1(ws, n)
    return lambda x: float(sum(residues.type1_direct_values(ws, n, vec, x)))


def _gamma_type1(ws, n):
    # the rationals and gamma products eval --type 1 prints, evaluated by math.gamma
    vec = families.type1(ws, n)

    def value(x):
        total = 0.0
        for i, (rational, alpha) in enumerate(zip(residues.type1_direct_values(ws, n, vec, x), ws.alpha)):
            scale = families.type1_scale(ws, i, sum(n))
            gamma = math.prod(math.gamma(argument) ** exponent for argument, exponent in scale.factors)
            total += float(rational) * gamma * float(x) ** float(alpha)
        return total
    return value


_TWO_ALPHAS = ("--alpha", "1/2", "--alpha", "1/3", "--beta", "1/4", "--n", "10", "--n", "10")


class TestPlotDataCommand:
    # rel_tol 0 asks for equality with the correctly rounded exact value
    @pytest.mark.parametrize("argv, reference, rel_tol", [
        (("--family", "jacobi-pineiro", *_TWO_ALPHAS, "--samples", "101"),
         lambda: _rounded_type2(WeightSystem.jacobi_pineiro((F(1, 2), F(1, 3)), F(1, 4)), (10, 10)), 0),
        (("--family", "hahn", *_TWO_ALPHAS, "--N", "60"),
         lambda: _rounded_type2(WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 60), (10, 10)), 0),
        (("--family", "hahn", "--alpha", "-1/2", "--beta", "-1/2", "--N", "3", "--n", "1", "--type", "1"),
         lambda: _rounded_hahn_type1(WeightSystem.hahn((F(-1, 2),), F(-1, 2), 3), (1,)), 0),
        (("--family", "hahn", "--alpha", "1/2", "--alpha", "1/3", "--beta", "1/4", "--N", "8",
          "--n", "2", "--n", "2", "--type", "1"),
         lambda: _rounded_hahn_type1(WeightSystem.hahn((F(1, 2), F(1, 3)), F(1, 4), 8), (2, 2)), 0),
        (("--family", "jacobi-pineiro", "--alpha", "-9/10", "--beta", "-9/10", "--n", "1", "--type", "1",
          "--samples", "20"),
         lambda: _gamma_type1(WeightSystem.jacobi_pineiro((F(-9, 10),), F(-9, 10)), (1,)), 1e-13),
    ], ids=["jp-type-2-n-10-10", "hahn-type-2-N-60", "hahn-type-1-corner", "hahn-type-1-two-weights",
         "jp-type-1-negative-gamma"])
    def test_samples_are_rounded_exact_values(self, capsys, argv, reference, rel_tol):
        code, out = run_cli(capsys, "plot-data", *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        value_at = reference()
        assert rows
        for x_text, value_text in rows:
            assert math.isclose(float(value_text), value_at(F(x_text)), rel_tol=rel_tol, abs_tol=0), x_text

    def test_idle_weight_on_the_corner(self, capsys):
        # the idle weight's scale holds Gamma(0): plot-data used to round it and exit 2 where eval passed
        corner = ("--family", "jacobi-pineiro", "--alpha=-1/2", "--alpha=1/3", "--beta=-1/2",
                  "--n", "0", "--n", "1", "--type", "1")
        assert run_cli(capsys, "eval", *corner, "--x", "1/2")[0] == 0
        code, out = run_cli(capsys, "plot-data", *corner, "--samples", "5")
        assert code == 0
        ws = WeightSystem.jacobi_pineiro((F(-1, 2), F(1, 3)), F(-1, 2))
        vec = families.type1(ws, (0, 1))
        scale = _gamma_float(families.type1_scale(ws, 1, 1))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 5
        for x_text, value_text in rows:  # the active weight's term alone
            x = F(x_text)
            assert float(value_text) == float(residues.type1_direct_values(ws, (0, 1), vec, x)[1]) * scale * float(x) ** (1 / 3)

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
        # the weights are counted from the repeated --alpha; there is no --p to restate their number
        code, out = run_cli(
            capsys, "plot-data", "--family", "laguerre1", "--p", "1", "--alpha", "1/2", "--n", "1",
        )
        assert code == 2
        assert json.loads(out) == {
            "command": "plot-data", "error": "unrecognized arguments: --p 1", "kind": "ArgumentError"}

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

    @pytest.mark.parametrize("argv, option", [
        (("--family", "hahn", "--alpha", "1/2", "--beta", "1/4", "--N", "3", "--n", "1", "--samples", "7"), "--samples"),
        (("--family", "hahn", "--alpha", "1/2", "--beta", "1/4", "--N", "3", "--n", "1", "--x-max", "50"), "--x-max"),
        (("--family", "jacobi-pineiro", "--alpha", "1/2", "--beta", "1/4", "--n", "1", "--samples", "3",
          "--x-max", "50"), "--x-max"),
    ], ids=["hahn-samples", "hahn-x-max", "jacobi-pineiro-x-max"])
    def test_option_the_family_ignores_is_refused(self, capsys, argv, option):
        code, out = run_cli(capsys, "plot-data", *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and payload["error"].startswith(f"{option} does not apply to")
        # without the option the defaults sample the family's points
        stripped = argv[:argv.index(option)] + argv[argv.index(option) + 2:]
        code, out = run_cli(capsys, "plot-data", *stripped)
        assert code == 0 and len(list(csv.reader(io.StringIO(out)))) > 1

    @pytest.mark.parametrize("argv", [
        ("--n", "1", "--type", "1", "--samples", "1", "--x-max", "1" + "0" * 400),
        ("--n", "1", "--type", "2", "--samples", "2", "--x-max", "1" + "0" * 400),
        ("--n", "3", "--type", "1", "--samples", "1", "--x-max", "1" + "0" * 150),
    ], ids=["type-1-overflow", "type-2-overflow", "type-1-product-inf"])
    def test_value_beyond_the_double_range_refused(self, capsys, argv):
        # x = 10**400 and 10**400 / 2 round to no double; at x = 10**150 the rational and x**alpha round,
        # but their product is inf: one JSON line each, and no partial csv
        code, out = run_cli(capsys, "plot-data", "--family", "laguerre1", "--alpha", "1/2", *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and payload["error"].endswith("is beyond the double range")

    @pytest.mark.parametrize("argv", [
        ("--x-max", "0"),
        ("--x-max", "0", "--type", "1"),
        ("--x-max", "-1/2"),
        ("--samples", "-3"),
    ], ids=["x-max-0-type-2", "x-max-0-type-1", "x-max-negative", "samples-negative"])
    def test_degenerate_window_rejected(self, capsys, argv):
        code, out = run_cli(capsys, "plot-data", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "ValueError" and argv[0] in payload["error"]


class TestUnwritableOut:
    """An --out path that cannot be opened is a configuration error: exit 2 and one JSON line, no traceback."""

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--family", "laguerre1", "--alpha", "1/2", "--n", "1"),
        ("verify", "--family", "laguerre1", "--max-total-degree", "1"),
    ], ids=["coeffs", "verify"])
    @pytest.mark.parametrize("target, kind", [
        ("directory", "IsADirectoryError"), ("missing-parent", "FileNotFoundError"),
    ], ids=["directory", "missing-parent"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, target, kind):
        path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        code = main([*argv, "--out", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        [line] = out.splitlines()
        payload = json.loads(line)
        assert payload["command"] == argv[0] and payload["kind"] == kind and str(path) in payload["error"]


class TestUsageErrors:
    """A command line argparse refuses exits 2 with one JSON line, like every other configuration error."""

    @pytest.mark.parametrize("argv, error", [
        (("coeffs", "--family", "laguerre1", "--alpha", "abc", "--n", "1"), "argument --alpha: not a rational: 'abc'"),
        (("coeffs", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", "--bogus"),
         "unrecognized arguments: --bogus"),
        (("coeffs", "--family", "legendre", "--alpha", "1/2", "--n", "1"),
         "argument --family: invalid choice: 'legendre' (choose from 'laguerre1', 'jacobi-pineiro', 'hahn')"),
        (("coeffs", "--family", "laguerre1", "--alpha", "1/2"), "the following arguments are required: --n"),
    ], ids=["bad-rational", "unknown-option", "invalid-family", "missing-n"])
    def test_usage_error_is_one_json_line(self, capfd, argv, error):
        code = main(list(argv))
        out, err = capfd.readouterr()
        assert code == 2 and err == ""
        [line] = out.splitlines()
        assert json.loads(line) == {"command": "coeffs", "error": error, "kind": "ArgumentError"}

    @pytest.mark.parametrize("argv", [(), ("frobnicate",)], ids=["none", "unknown"])
    def test_usage_error_without_a_command(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["command"] is None and payload["kind"] == "ArgumentError"

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", "--format", "csv"),
        ("eval", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", "--x", "1", "--format", "csv"),
        ("verify", "--family", "laguerre1", "--max-total-degree", "1", "--format", "json"),
        ("identity", "--name", "kummer", "--draws", "1", "--format", "json"),
        ("plot-data", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", "--format", "csv"),
        ("coeffs", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", "--p", "1"),
        ("eval", "--family", "laguerre1", "--alpha", "1/2", "--n", "1", "--x", "1", "--p", "1"),
    ], ids=["coeffs-format", "eval-format", "verify-format", "identity-format", "plot-data-format",
            "coeffs-p", "eval-p"])
    def test_removed_option_refused(self, capsys, argv):
        # plot-data's --p: TestPlotDataCommand.test_weight_count_flag_checked
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {
            "command": argv[0], "error": f"unrecognized arguments: {' '.join(argv[-2:])}", "kind": "ArgumentError"}

    def test_format_is_an_option_of_table_only(self):
        [commands] = [action.choices for action in build_parser()._actions if action.dest == "command"]
        options = {name: {s for action in parser._actions for s in action.option_strings}
                   for name, parser in commands.items()}
        assert [name for name in options if "--format" in options[name]] == ["table"]
        assert not any("--p" in names for names in options.values())

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "-h"])
        out, err = capsys.readouterr()
        assert exit_.value.code == 0 and err == ""
        assert out.startswith("usage: mopexact verify")


# --- the command-line contract over a grammar of every command and option ---------------------------

#: edge values: rationals and integers that are malformed, a zero denominator, empty, huge or out of range
_EDGE_RATIONALS = ["0", "-1", "-3/4", "2.5", "-0", "1/0", "", "abc", "1" + "0" * 30, "-" + "9" * 25 + "/7", "1/" + "3" * 25]
_EDGE_INTS = ["-1", "", "x", "1.5", "1/0", "9" * 40]


@st.composite
def cli_arguments(draw) -> list[str]:
    """An argument list from a grammar of every command and option: a well-formed one, or with edge values, extra
    and unknown options and unknown names.  Degrees, lattice sizes, grid bounds and counts stay small."""
    edge = draw(st.booleans())

    def value(valid, edges=()):
        return draw(st.sampled_from([*valid, *edges] if edge else valid))

    def some(options):  # each optional option with its value, or left out
        return [token for name, (valid, edges) in options.items() if draw(st.booleans())
                for token in (name, value(valid, edges))]

    command = value(["coeffs", "eval", "plot-data", "verify", "identity", "table"], ["frobnicate", ""])
    argv = [command] if command else []
    if command in ("coeffs", "eval", "plot-data"):
        family = value(["laguerre1", "jacobi-pineiro", "hahn"], ["", "chebyshev"])
        p = draw(st.integers(1, 3))
        argv += ["--family", family]
        argv += [token for a in ("1/2", "1/3", "1/5")[:p] for token in ("--alpha", value([a], _EDGE_RATIONALS))]
        argv += [token for _ in range(p) for token in ("--n", value(["0", "1", "2"], _EDGE_INTS))]
        if family != "laguerre1" or edge:
            argv += ["--beta", value(["1/4"], _EDGE_RATIONALS)]
        if family == "hahn" or edge:
            argv += ["--N", value(["4", "6"], _EDGE_INTS)]
        argv += some({"--type": (["1", "2"], ["3", ""])})
        if command == "eval":
            argv += ["--x", value(["1/2", "1", "3"], _EDGE_RATIONALS)]
        if command == "plot-data" and (family != "hahn" or edge):
            argv += some({"--samples": (["3"], _EDGE_INTS)})
        if command == "plot-data" and (family == "laguerre1" or edge):
            argv += some({"--x-max": (["5/2"], _EDGE_RATIONALS)})
    elif command in ("verify", "identity", "table"):
        argv += ["--max-total-degree", value(["1", "2"], ["0", "-1", "y"]), "--max-N", value(["2", "3"], ["0", "-2", ""])]
        seed = (["0", "7", "9" * 40], ["-" + "9" * 40, "x", ""])
        if command == "verify":
            argv += some({"--family": (["all", "laguerre1", "jacobi-pineiro", "hahn"], ["", "chebyshev"]), "--seed": seed,
                          "--inject-fault": (["t2:0", "t1:0:0"], ["t2:-1", "t9:9", "t1:a:b", "", "x"]),
                          "--jobs": (["1"], ["-1", "x"])})
        elif command == "identity":
            argv += ["--name", value(list(IDENTITIES), ["", "gauss"]), "--draws", value(["1", "3"], ["-1", "x"])]
            argv += some({"--seed": seed, "--params": (["1,2,3", "1/2,-1/3,2"], ["1,2", "1/0,1,1", "", "a,b,c"])})
        else:
            argv += some({"--family": (["all", "hahn"], ["chebyshev"]), "--type": (["1", "2"], ["3"]),
                          "--format": (["csv", "json"], ["xml"])})
    argv += some({"--out": (["FILE"], ["MISSING_DIR", ""])})
    if edge:
        argv += some({"--bogus": (["1"], []), "--N": (["2"], _EDGE_INTS), "--name": (["kummer"], [])})
    return argv


class TestCliContract:
    @given(cli_arguments())
    @settings(max_examples=150, deadline=None)
    def test_every_argument_list_exits_0_1_or_2(self, argv):
        # 0 or 1 from a command that ran, and 1 only from a verify or identity that found a failure;
        # 2 is one JSON line with its kind; nothing escapes as an exception
        with tempfile.TemporaryDirectory() as folder:
            paths = {"FILE": os.path.join(folder, "out.txt"), "MISSING_DIR": os.path.join(folder, "no", "out.txt")}
            argv = [paths.get(token, token) for token in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert argv[0] in ("verify", "identity"), argv
        if code == 2:
            lines = stdout.getvalue().splitlines()
            assert len(lines) == 1, argv
            assert json.loads(lines[0])["kind"], argv
