"""Acceptance suite: every criterion checked exactly, one line printed each.

The grid is the desk-scale standard: p in {1,2,3}, all n_i >= 1, |n| <= 4,
alpha from (1/2, 1/3, 1/5), beta = 1/4, and lattice sizes N from |n| to 8
for the Hahn family.  Everything except the float-path criterion is exact
equality of rationals; run with `pytest tests/test_acceptance.py -s` to see
the per-criterion lines.
"""

import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath

import mopexact
from mopexact import (
    check_chu_vandermonde,
    check_discrete_mellin_inversion,
    check_karp_prilepkina,
    check_kummer,
    check_mellin_type2,
    check_rakha_rathie,
    check_type1_orthogonality,
    families,
    oracle,
    residues,
)
from mopexact.cli import float_eval_type1_form, main
from mopexact.driver import (
    DEFAULT_ALPHAS,
    DEFAULT_BETA,
    compositions,
)
from mopexact.hyper import (
    draw_chu_vandermonde,
    draw_karp_prilepkina,
    draw_kummer,
    draw_rakha_rathie,
    kp_orthogonality_instances,
)
from mopexact.weights import Family, WeightSystem, total_degree
from conftest import interpolation_recover_p, row_values

F = Fraction
MAX_TOTAL = 4
MAX_N = 8


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


@functools.lru_cache(maxsize=None)
def hahn_instances() -> tuple:
    out = []
    for n in compositions(MAX_TOTAL):
        for N in range(sum(n), MAX_N + 1):
            ws = WeightSystem.hahn(DEFAULT_ALPHAS[: len(n)], DEFAULT_BETA, N)
            out.append((ws, n))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def continuous_instances() -> tuple:
    out = []
    for n in compositions(MAX_TOTAL):
        out.append((WeightSystem.laguerre(DEFAULT_ALPHAS[: len(n)]), n))
        out.append((WeightSystem.jacobi_pineiro(DEFAULT_ALPHAS[: len(n)], DEFAULT_BETA), n))
    return tuple(out)


def all_instances() -> tuple:
    return continuous_instances() + hahn_instances()


def test_criterion_1_hahn_type1_orthogonality():
    ok = True
    for ws, n in hahn_instances():
        rep = check_type1_orthogonality(ws, n, families.type1(ws, n))
        ok &= rep.passed
        ok &= all(value == 0 for value in rep.residuals.values())
        ok &= F(*rep.normalization) == 1  # the row of x^(|n|-1)
    report(1, f"Hahn type I orthogonality exact on {len(hahn_instances())} instances", ok)


def test_criterion_2_oracle_equivalence():
    ok = True
    for ws, n in all_instances():
        ok &= families.type2(ws, n).coefficients == oracle.oracle_solve_type2(ws, n).coefficients
        generated = families.type1(ws, n)
        solved = oracle.oracle_solve_type1(ws, n)
        for a, b in zip(generated.components, solved.components):
            ok &= a.coefficients == b.coefficients
    report(2, f"generator == oracle on {len(all_instances())} instances, both types", ok)


def test_criterion_3_residue_formula_duality():
    ok = True
    for ws, n in all_instances():
        ok &= residues.check_residue_duality(ws, n, families.type1(ws, n))
        k_max = max(6, ws.N) if ws.family is Family.HAHN else 6
        ok &= residues.verify_type2_series_equivalence(ws, n, k_max)
    report(3, "residue sums reproduce the direct formulas and series expansions", ok)


def test_criterion_4_recovered_contour_constants():
    count = 0
    ok = True
    for ws, n in all_instances():
        if total_degree(n) < 2:
            continue
        count += 1
        coeffs = interpolation_recover_p(ws, n, families.type1(ws, n))
        ok &= coeffs[0] == F(*residues.recovered_constant_closed_form(ws, n))
        ok &= all(c == 0 for c in coeffs[1:])
    report(4, f"recovered integrand constants exact on {count} instances with |n| >= 2", ok)


def test_criterion_5_mellin_closed_forms():
    rng = random.Random(20250809)
    ok = True
    for ws, n in all_instances():
        poly = families.type2(ws, n)
        samples = [(rng.randint(1, 9), rng.choice((7, 11, 13))) for _ in range(5)]
        ok &= check_mellin_type2(ws, n, poly, samples)
        zeros = oracle.mellin_zero_points(ws, n)
        ok &= len(zeros) == total_degree(n)
        ok &= check_mellin_type2(ws, n, poly, zeros)
    report(5, "Mellin transforms match closed forms and vanish at prescribed points", ok)


def test_criterion_6_discrete_mellin_inversion():
    rng = random.Random(61803)
    ok = True
    for _ in range(50):
        N = rng.randint(0, MAX_N)
        ws = WeightSystem.hahn(DEFAULT_ALPHAS[:1], DEFAULT_BETA, N)
        values = [F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(N + 1)]
        ok &= check_discrete_mellin_inversion(ws, values)
    report(6, "lattice transform inversion exact on 50 random rational functions", ok)


def test_criterion_7_identity_suite():
    rng = random.Random(271828)
    ok = all(check_chu_vandermonde(*draw_chu_vandermonde(rng)) for _ in range(200))
    ok &= all(check_kummer(*draw_kummer(rng)) for _ in range(100))
    ok &= all(check_rakha_rathie(*draw_rakha_rathie(rng)) for _ in range(100))
    ok &= all(check_karp_prilepkina(*draw_karp_prilepkina(rng)) for _ in range(100))
    instantiations = 0
    for ws, n in hahn_instances():
        for params in kp_orthogonality_instances(ws, n):
            ok &= check_karp_prilepkina(*params)
            instantiations += 1
    report(7, f"identity suite: 200+100+100+100 draws and {instantiations} exact instantiations", ok)


def test_criterion_8_cross_formula_agreement():
    ok = True
    pairs = 0
    for ws, n in hahn_instances():
        ok &= families.hahn_jp_coefficient_relation(ws, n, families.type2(ws, n))
        if ws.p != 2:
            continue
        vec = families.type1(ws, n)
        for i in range(2):
            row = row_values(*families.hahn_type1_p2_kdf(ws, n, i))
            for x in range(ws.N + 1):
                pairs += 1
                ok &= row[x] == vec.components[i].rational_value(x)
    report(8, f"double-series route agrees at {pairs} lattice evaluations; coefficient bridge holds", ok)


def test_criterion_9_fault_injection_not_vacuous():
    base = [sys.executable, "-m", "mopexact.cli", "verify",
            "--max-total-degree", "2", "--max-N", "4"]
    # the child imports the same mopexact as this process, also under a bare `pytest`
    src = os.path.dirname(os.path.dirname(mopexact.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    clean = subprocess.run(base, capture_output=True, text=True, env=env)
    ok = clean.returncode == 0
    core_checks = {
        "type1_orthogonality", "type2_orthogonality", "type1_oracle_match",
        "type2_oracle_match", "residue_duality", "series_equivalence",
    }
    for fault in ("t2:0", "t2:1", "t1:0:0"):
        faulty = subprocess.run(base + ["--inject-fault", fault], capture_output=True, text=True, env=env)
        ok &= faulty.returncode == 1
        payload = json.loads(faulty.stdout)
        tripped = {
            name
            for result in payload["results"]
            for name, passed in result["checks"].items()
            if not passed
        }
        ok &= bool(tripped & core_checks)
    report(9, "a +1 coefficient fault fails the verifier and exits 1", ok)


def _plot_rows(argv) -> list[tuple[F, float]]:
    import contextlib
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))[1:]
    return [(F(x), float(v)) for x, v in rows]


def test_criterion_10_float_path_sanity():
    ok = True
    checked = 0
    # type II values against exact rationals, 20 points per family
    cases = [
        (["plot-data", "--family", "laguerre1", "--alpha", "1/2", "--alpha", "1/3",
          "--n", "2", "--n", "1", "--samples", "20", "--x-max", "10"],
         WeightSystem.laguerre(DEFAULT_ALPHAS[:2]), (2, 1)),
        (["plot-data", "--family", "jacobi-pineiro", "--alpha", "1/2", "--alpha", "1/3",
          "--beta", "1/4", "--n", "1", "--n", "1", "--samples", "20"],
         WeightSystem.jacobi_pineiro(DEFAULT_ALPHAS[:2], DEFAULT_BETA), (1, 1)),
        (["plot-data", "--family", "hahn", "--alpha", "1/2", "--beta", "1/4",
          "--N", "19", "--n", "2"],
         WeightSystem.hahn(DEFAULT_ALPHAS[:1], DEFAULT_BETA, 19), (2,)),
    ]
    for argv, ws, n in cases:
        poly = families.type2(ws, n)
        rows = _plot_rows(argv)
        if ws.family is Family.HAHN:
            assert len(rows) == ws.N + 1
            rows = rows[:20]
        assert len(rows) == 20
        for x, value in rows:
            exact = float(poly.rational_value(x))
            checked += 1
            ok &= math.isclose(value, exact, rel_tol=1e-10, abs_tol=1e-12)
    # type I linear forms against a 30-digit reference built from the exact parts
    def _mpf(q: F):
        return mpmath.mpf(q.numerator) / q.denominator

    for ws, n in (
        (WeightSystem.laguerre(DEFAULT_ALPHAS[:2]), (1, 1)),
        (WeightSystem.jacobi_pineiro(DEFAULT_ALPHAS[:2], DEFAULT_BETA), (1, 1)),
        (WeightSystem.hahn(DEFAULT_ALPHAS[:2], DEFAULT_BETA, 6), (1, 1)),
    ):
        vec = families.type1(ws, n)
        points = (
            [F(x) for x in range(ws.N + 1)] if ws.family is Family.HAHN
            else [F(j, 7) for j in range(1, 8)]
        )
        for x in points:
            with mpmath.workdps(30):
                reference = mpmath.mpf(0)
                for i, rational in enumerate(residues.type1_direct_values(ws, n, vec, x)):
                    part = _mpf(rational)
                    for argument, exponent in families.type1_scale(ws, i, sum(n)).factors:
                        part *= mpmath.gamma(_mpf(argument)) ** exponent
                    if ws.family is not Family.HAHN:
                        part *= mpmath.power(_mpf(x), _mpf(ws.alpha[i]))
                    reference += part
            value = float_eval_type1_form(ws, n, vec, x)
            checked += 1
            ok &= math.isclose(value, float(reference), rel_tol=1e-10, abs_tol=1e-12)
    report(10, f"float path matches exact evaluation to 10+ digits at {checked} points", ok)
