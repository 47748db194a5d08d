"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run; they
exercise the harness, not mopexact.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import metrics  # noqa: E402
import onepass  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mopexact import driver, gammaprod, oracle, weights  # noqa: E402
from mopexact.weights import total_degree  # noqa: E402


def test_sampler_draws_admissible_systems():
    seen_p3 = 0
    for workload in metrics.IN_PROCESS:
        for seed in range(40):
            instances = workloads.build_instances(workload, seed)
            assert len(instances) >= 100
            for instance in instances:
                ws = driver.weight_system(instance)  # raises AdmissibilityError if not
                n = tuple(instance["n"])
                ws.validate_index(n, type_one=True)
                for i, a in enumerate(ws.alpha):
                    assert a > -1 and a.denominator == workloads.ALPHA_DENOMINATORS[i]
                    if ws.beta is not None:
                        assert (a + ws.beta).denominator != 1
                seen_p3 += ws.p == 3
            assert instances == workloads.build_instances(workload, seed)
    assert seen_p3 > 0
    assert workloads.build_instances("hahn-lattice", 1) != workloads.build_instances("hahn-lattice", 2)


def test_sampler_keeps_grid_shapes():
    assert len(workloads.build_instances("hahn-lattice", 0)) == 175
    assert len(workloads.build_instances("continuous-highdeg", 0)) == 184
    assert len(workloads.build_instances("cli-verify", 0)) == 109


def test_digest_ignores_record_order():
    records = [{"instance": "b", "pass": True}, {"instance": "a", "pass": True}]
    assert workloads.results_digest(records) == workloads.results_digest(records[::-1])


def _small_hahn(seed: int) -> list[dict]:
    instances = workloads.build_instances("hahn-lattice", seed)
    return [inst for inst in instances if total_degree(inst["n"]) <= 2 and inst["N"] <= 4]


def test_injected_fault_makes_failure_rate_positive():
    instance = next(i for i in _small_hahn(3) if i["n"] == [1, 1] and i["N"] == 2)
    faulty = onepass.InstanceRun([instance], seed=3, fault="t2:0")
    faulty.run()
    assert faulty.attempted == 1 and faulty.failed == 1
    clean = onepass.InstanceRun([instance], seed=3)
    clean.run()
    assert clean.failed == 0
    assert faulty.digest() != clean.digest()


def test_tracer_counts_repeat_and_bindings_restore():
    originals = {
        module: getattr(module, "pochhammer")
        for module in (gammaprod, weights, oracle, driver)
    }
    reduce_before = gammaprod.GammaProduct.__dict__["reduce"]
    instances = _small_hahn(5)
    counts, digests = [], []
    for _ in range(2):
        traced_run = onepass.InstanceRun(instances, seed=5)
        tracer, linalg, problems = run.traced(traced_run.run)
        assert problems == []
        counts.append({name: stats[0] for name, stats in tracer.stats.items()})
        digests.append(traced_run.digest())
        assert tracer.get("gammaprod.pochhammer", "calls") > 0
        assert linalg["size"] > 0
    assert counts[0] == counts[1]
    plain = onepass.InstanceRun(instances, seed=5)
    plain.run()
    assert digests == [plain.digest(), plain.digest()]
    for module, function in originals.items():
        assert getattr(module, "pochhammer") is function
    assert gammaprod.GammaProduct.__dict__["reduce"] is reduce_before


def test_tracer_self_time_excludes_wrapped_callees():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        gammaprod.GammaProduct.from_factors([(Fraction(1, 3), 1), (Fraction(7, 3), -1)]).reduce()
    finally:
        assert tracer.uninstall() == []
    calls, busy, own = tracer.stats["gammaprod.GammaProduct.reduce"]
    assert calls == 1 and 0 < own < busy
    assert tracer.get("gammaprod.pochhammer", "calls") >= 1


def test_bare_benchmark_directory_exits_nonzero():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hahn-lattice", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
