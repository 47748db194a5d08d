"""Command-line front end: generation, evaluation, verification, data export.

Exactness firewall: the verify and identity commands never touch floating
point; every number they print is an exact "num/den" string.  Only
plot-data runs the float path (polynomial values in double precision,
gamma factors through the log-gamma approximation).

JSON envelope: {"command", "config", "results": [...], "summary":
{"pass", "fail", "vacuous"}}, serialized with sorted keys so identical
configurations produce byte-identical output.  Exit codes: 0 all checks
passed, 1 at least one identity or verification failure, 2 configuration
or admissibility errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import driver, families, oracle, residues
from .errors import AdmissibilityError, IrreducibleGammaError, PoleError, PreconditionError, SingularSystemError
from .gammaprod import log_gamma_approx
from .hyper import (
    check_chu_vandermonde,
    check_karp_prilepkina,
    check_kummer,
    check_rakha_rathie,
)
from .polybasis import BasisKind, eval_polynomial
from .weights import Family, WeightSystem, total_degree

IDENTITY_NAMES = (
    "chu-vandermonde",
    "kummer",
    "rakha-rathie",
    "karp-prilepkina",
    "hahn-summation",
    "mellin-inversion",
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopexact",
        description="Exact engine for classical multiple orthogonal polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_options(p, need_n=True):
        p.add_argument("--family", required=True,
                       choices=[f.value for f in Family])
        p.add_argument("--p", type=int, default=None, dest="weights",
                       help="number of weights; must match the repeated --alpha")
        p.add_argument("--alpha", action="append", type=_fraction, required=True,
                       metavar="NUM/DEN", help="one exponent per weight (repeat)")
        p.add_argument("--beta", type=_fraction, default=None)
        p.add_argument("--N", type=int, default=None)
        if need_n:
            p.add_argument("--n", action="append", type=int, required=True,
                           metavar="NI", help="multi-index entry per weight (repeat)")
        p.add_argument("--type", type=int, choices=(1, 2), default=2)

    def add_output_options(p, formats=("json", "csv")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, metavar="PATH")

    p = sub.add_parser("coeffs", help="exact coefficients of one polynomial")
    add_weight_options(p)
    add_output_options(p)

    p = sub.add_parser("eval", help="exact evaluation at a rational point")
    add_weight_options(p)
    p.add_argument("--x", type=_fraction, required=True)
    add_output_options(p)

    p = sub.add_parser("verify", help="run the exact property grid")
    p.add_argument("--family", default="all",
                   choices=["all"] + [f.value for f in Family])
    p.add_argument("--max-total-degree", type=int, default=4)
    p.add_argument("--max-N", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1, help="0 = one per cpu")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", default=None, metavar="SPEC",
                   help="perturb one coefficient by +1: 't2:IDX' or 't1:I:K'")
    add_output_options(p, formats=("json",))

    p = sub.add_parser("identity", help="check a transformation identity on random draws")
    p.add_argument("--name", required=True, choices=IDENTITY_NAMES)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-total-degree", type=int, default=4)
    p.add_argument("--max-N", type=int, default=8)
    p.add_argument("--params", default=None, metavar="V1,V2,...",
                   help="explicit parameters for a single check instead of draws")
    add_output_options(p, formats=("json",))

    p = sub.add_parser("table", help="coefficient table over a grid")
    p.add_argument("--family", default="all",
                   choices=["all"] + [f.value for f in Family])
    p.add_argument("--max-total-degree", type=int, default=3)
    p.add_argument("--max-N", type=int, default=6)
    p.add_argument("--type", type=int, choices=(1, 2), default=2)
    add_output_options(p, formats=("csv", "json"))

    p = sub.add_parser("plot-data", help="float samples of one polynomial (float path)")
    add_weight_options(p)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--x-max", type=_fraction, default=Fraction(8),
                   help="right end of the sampling window (Laguerre only)")
    p.add_argument("--digits", type=int, default=17)
    add_output_options(p, formats=("csv",))
    return parser


def _weight_system(args) -> WeightSystem:
    family = Family(args.family)
    if args.weights is not None and args.weights != len(args.alpha):
        raise AdmissibilityError(
            f"--p {args.weights} does not match the {len(args.alpha)} --alpha values"
        )
    if family is Family.LAGUERRE_FIRST_KIND:
        return WeightSystem.laguerre(tuple(args.alpha))
    if family is Family.JACOBI_PINEIRO:
        if args.beta is None:
            raise AdmissibilityError("--beta is required for jacobi-pineiro")
        return WeightSystem.jacobi_pineiro(tuple(args.alpha), args.beta)
    if args.beta is None or args.N is None:
        raise AdmissibilityError("--beta and --N are required for hahn")
    return WeightSystem.hahn(tuple(args.alpha), args.beta, args.N)


def _config_echo(args) -> dict:
    skip = {"out", "format", "command"}
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, Fraction):
            config[key] = str(value)
        elif isinstance(value, list):
            config[key] = [str(v) for v in value]
        else:
            config[key] = value
    return config


def _envelope(command: str, args, results: list, passed: int, failed: int) -> dict:
    return {
        "command": command,
        "config": _config_echo(args),
        "results": results,
        "summary": {"pass": passed, "fail": failed, "vacuous": not results},
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(header: list[str], rows: list[list[str]], out: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buffer.getvalue(), out)


def _poly_record(ws: WeightSystem, n, which: int) -> dict:
    if which == 2:
        poly = families.type2(ws, n)
        return {
            "type": 2,
            "basis": poly.basis.kind.value,
            "scale": str(poly.scale),
            "coefficients": [str(c) for c in poly.coefficients],
        }
    vec = families.type1(ws, n)
    components = []
    for i, comp in enumerate(vec.components):
        entry = {
            "weight": i,
            "basis": comp.basis.kind.value,
            "scale": str(comp.scale),
            "coefficients": [str(c) for c in comp.coefficients],
        }
        if comp.basis.kind is BasisKind.SHIFTED_RISING:
            entry["basis_shift"] = str(comp.basis.shift)
        components.append(entry)
    return {"type": 1, "components": components}


def cmd_coeffs(args) -> int:
    ws = _weight_system(args)
    n = tuple(args.n)
    ws.validate_index(n, type_one=args.type == 1)
    record = _poly_record(ws, n, args.type)
    _emit_json(_envelope("coeffs", args, [record], passed=1, failed=0), args.out)
    return 0


def cmd_eval(args) -> int:
    ws = _weight_system(args)
    n = tuple(args.n)
    ws.validate_index(n, type_one=args.type == 1)
    x = args.x
    if args.type == 2:
        rational, gamma = eval_polynomial(families.type2(ws, n), x)
        results = [{"x": str(x), "rational": str(rational), "gamma": str(gamma)}]
    else:
        decomposition = residues.type1_direct_decomposition(ws, n, x)
        results = [
            {
                "weight": comp.weight_index,
                "x": str(x),
                "rational": str(comp.coefficient),
                "gamma": str(comp.residual),
            }
            for comp in decomposition.components
        ]
    _emit_json(_envelope("eval", args, results, passed=len(results), failed=0), args.out)
    return 0


def _verify_families(selector: str) -> list[str]:
    if selector == "all":
        return [f.value for f in Family]
    return [selector]


def cmd_verify(args) -> int:
    instances = driver.iter_instances(
        _verify_families(args.family), args.max_total_degree, args.max_N
    )
    runner = functools.partial(driver.run_instance, fault=args.inject_fault, seed=args.seed)
    if args.jobs == 1 or len(instances) <= 1:
        results = [runner(instance) for instance in instances]
    else:
        workers = args.jobs if args.jobs > 0 else os.cpu_count() or 1
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(runner, instances, chunksize=4))
    results.sort(key=lambda r: r["instance"])
    passed = sum(1 for r in results if r["pass"])
    failed = len(results) - passed
    _emit_json(_envelope("verify", args, results, passed, failed), args.out)
    return 0 if failed == 0 else 1


def _identity_rows(args) -> list[dict]:
    rng = random.Random(args.seed)
    name = args.name
    rows = []

    if args.params is not None:
        values = [Fraction(v) for v in args.params.split(",")]
        arity, checker = {
            "chu-vandermonde": (3, lambda v: check_chu_vandermonde(v[0], v[1], int(v[2]))),
            "kummer": (5, lambda v: check_kummer(*v)),
            "rakha-rathie": (7, lambda v: check_rakha_rathie(*v)),
        }.get(name, (None, None))
        if checker is None:
            raise PreconditionError(f"--params is not supported for {name}")
        if len(values) != arity:
            raise ValueError(f"{name} takes {arity} --params values, got {len(values)}")
        try:
            ok = checker(values)
            rows.append({"params": [str(v) for v in values], "ok": bool(ok)})
        except (PreconditionError, PoleError) as exc:
            rows.append({
                "params": [str(v) for v in values],
                "rejected": str(exc),
            })
        return rows

    if name == "chu-vandermonde":
        for _ in range(args.draws):
            a, b, order = driver.draw_chu_vandermonde(rng)
            rows.append({"params": [str(a), str(b), str(order)],
                         "ok": check_chu_vandermonde(a, b, order)})
    elif name == "kummer":
        for _ in range(args.draws):
            params = driver.draw_kummer(rng)
            rows.append({"params": [str(v) for v in params], "ok": check_kummer(*params)})
    elif name == "rakha-rathie":
        for _ in range(args.draws):
            params = driver.draw_rakha_rathie(rng)
            rows.append({"params": [str(v) for v in params], "ok": check_rakha_rathie(*params)})
    elif name == "karp-prilepkina":
        for _ in range(args.draws):
            a, f, m, b, k = driver.draw_karp_prilepkina(rng)
            rows.append({
                "params": [str(a), [str(v) for v in f], m, [str(v) for v in b], k],
                "ok": check_karp_prilepkina(a, f, m, b, k),
            })
        for n in driver.compositions(min(args.max_total_degree, 4)):
            ws = WeightSystem.hahn(
                driver.DEFAULT_ALPHAS[: len(n)], driver.DEFAULT_BETA,
                min(sum(n) + 2, args.max_N),
            )
            for params in driver.kp_orthogonality_instances(ws, n):
                a, f, m, b, k = params
                rows.append({
                    "params": [str(a), [str(v) for v in f], m, [str(v) for v in b], k],
                    "instantiation": driver.instance_key(
                        {"family": "hahn", "n": list(n), "N": ws.N}
                    ),
                    "ok": check_karp_prilepkina(a, f, m, b, k),
                })
    elif name == "hahn-summation":
        for n in driver.compositions(args.max_total_degree):
            for N in range(sum(n), args.max_N + 1):
                ws = WeightSystem.hahn(driver.DEFAULT_ALPHAS[: len(n)], driver.DEFAULT_BETA, N)
                for j in range(total_degree(n)):
                    rows.append({
                        "params": {"n": list(n), "N": N, "j": j},
                        "ok": oracle.check_hahn_summation_identity(ws, n, j),
                    })
    elif name == "mellin-inversion":
        for _ in range(args.draws):
            N = rng.randint(0, args.max_N)
            ws = WeightSystem.hahn(driver.DEFAULT_ALPHAS[:1], driver.DEFAULT_BETA, N)
            values = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(N + 1)]
            rows.append({
                "params": {"N": N, "values": [str(v) for v in values]},
                "ok": oracle.check_discrete_mellin_inversion(ws, values),
            })
    return rows


def cmd_identity(args) -> int:
    rows = _identity_rows(args)
    passed = sum(1 for r in rows if r.get("ok"))
    failed = sum(1 for r in rows if r.get("ok") is False)
    _emit_json(_envelope("identity", args, rows, passed, failed), args.out)
    return 0 if failed == 0 else 1


def cmd_table(args) -> int:
    rows = []
    for instance in driver.iter_instances(
        _verify_families(args.family), args.max_total_degree, args.max_N
    ):
        ws = driver.weight_system(instance)
        n = tuple(instance["n"])
        key = driver.instance_key(instance)
        if args.type == 2:
            poly = families.type2(ws, n)
            for k, c in enumerate(poly.coefficients):
                rows.append([key, "2", "", poly.basis.kind.value, str(k), str(c)])
        else:
            vec = families.type1(ws, n)
            for i, comp in enumerate(vec.components):
                for k, c in enumerate(comp.coefficients):
                    rows.append([key, "1", str(i), comp.basis.kind.value, str(k), str(c)])
    header = ["instance", "type", "weight", "basis", "k", "coefficient"]
    if args.format == "csv":
        _emit_csv(header, rows, args.out)
    else:
        records = [dict(zip(header, row)) for row in rows]
        _emit_json(_envelope("table", args, records, passed=len(records), failed=0), args.out)
    return 0


def _sample_points(ws: WeightSystem, samples: int, x_max: Fraction, include_zero: bool) -> list[Fraction]:
    if ws.family is Family.HAHN:
        return [Fraction(x) for x in range(ws.N + 1)]
    start = 0 if include_zero else 1
    if ws.family is Family.JACOBI_PINEIRO:
        return [Fraction(j, samples + 1) for j in range(start, samples + start)]
    return [Fraction(j, samples) * x_max for j in range(start, samples + start)]


def float_eval_type2(ws: WeightSystem, poly, x: Fraction) -> float:
    """Double-precision value of a type II polynomial (float path)."""
    xf = float(x)
    if poly.basis.kind is BasisKind.MONOMIAL:
        acc = 0.0
        for c in reversed(poly.coefficients):
            acc = acc * xf + float(c)
        return acc
    acc = 0.0
    element = 1.0
    for k, c in enumerate(poly.coefficients):
        if k > 0:
            element *= -xf + (k - 1)
        acc += float(c) * element
    return acc


def float_eval_type1_form(ws: WeightSystem, vec, x: Fraction, digits: int) -> float:
    """Linear form value through exp/log-gamma floats (float path)."""
    log_x = math.log(float(x)) if ws.family is not Family.HAHN else 0.0
    value = 0.0
    for i, comp in enumerate(vec.components):
        if not comp.coefficients:
            continue
        xf = float(x)
        if comp.basis.kind is BasisKind.MONOMIAL:
            part = 0.0
            for c in reversed(comp.coefficients):
                part = part * xf + float(c)
        else:
            part = 0.0
            element = 1.0
            for k, c in enumerate(comp.coefficients):
                if k > 0:
                    element *= xf + float(comp.basis.shift) + (k - 1)
                part += float(c) * element
        part *= comp.scale.float_value(digits)
        if ws.family is Family.HAHN:
            part *= math.exp(
                float(log_gamma_approx(x + ws.alpha[i] + 1, digits))
                - float(log_gamma_approx(ws.alpha[i] + 1, digits))
            )
        else:
            part *= math.exp(float(ws.alpha[i]) * log_x)
        value += part
    return value


def cmd_plot_data(args) -> int:
    ws = _weight_system(args)
    n = tuple(args.n)
    ws.validate_index(n, type_one=args.type == 1)
    # type I forms carry x**alpha_i factors, so their window stays off zero
    points = _sample_points(ws, args.samples, args.x_max, include_zero=args.type == 2)
    rows = []
    if args.type == 2:
        poly = families.type2(ws, n)
        for x in points:
            rows.append([str(x), repr(float_eval_type2(ws, poly, x))])
    else:
        vec = families.type1(ws, n)
        for x in points:
            rows.append([str(x), repr(float_eval_type1_form(ws, vec, x, args.digits))])
    _emit_csv(["x", "value"], rows, args.out)
    return 0


HANDLERS = {
    "coeffs": cmd_coeffs,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "identity": cmd_identity,
    "table": cmd_table,
    "plot-data": cmd_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (AdmissibilityError, PreconditionError, ValueError, PoleError, SingularSystemError,
            IrreducibleGammaError) as exc:
        sys.stdout.write(json.dumps(
            {"command": args.command, "error": str(exc), "kind": type(exc).__name__},
            sort_keys=True,
        ) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
