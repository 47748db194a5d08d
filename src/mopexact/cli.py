"""Command-line front end: generation, evaluation, verification, data export.

Every command evaluates exactly; verify, identity, coeffs, eval and table
print each number as an exact "num/den" string.  plot-data rounds the same
exact values to doubles: a type II value or a Hahn type I sum is rounded
once, and a continuous type I component is its rounded rational times its
gamma scale (through math.lgamma) times x**alpha_i.  Type I values leave out
the weight factor all components share: e^-x (Laguerre), (1-x)^beta
(Jacobi-Pineiro), (beta+1)_{N-x} / (x! (N-x)!) (Hahn, whose (alpha_i+1)_x is
folded in).  A type I scale depends only on the family, weight and |n|
(:func:`families.type1_scale`); a type II scale is 1, and so is the scale of
an idle component (n_i = 0), which is the zero polynomial.

JSON envelope: {"command", "config", "results": [...], "summary":
{"pass", "fail", "vacuous"}}, serialized with sorted keys so identical
configurations produce byte-identical output.  Exit codes: 0 all checks
passed, 1 at least one identity or verification failure, 2 configuration
or admissibility errors and usage errors, each reported as one JSON line.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from . import driver, families, oracle, residues
from .errors import AdmissibilityError, PoleError, PreconditionError, SingularSystemError
from .polybasis import BasisKind
from .weights import Family, WeightSystem

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


#: Options that take a rational value, possibly negative such as -1/2.
_RATIONAL_OPTIONS = frozenset({"--alpha", "--beta", "--x", "--x-max"})
_NEGATIVE_RATIONAL = re.compile(r"-\d+(/\d+)?")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--alpha -1/2" as "--alpha=-1/2".

    argparse reads a token that starts with "-" and is not a plain decimal
    number as an option, so a negative rational after a rational option
    would otherwise fail with "expected one argument".
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_RATIONAL.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so main reports them as one JSON line."""
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mopexact",
        description="Exact engine for classical multiple orthogonal polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_options(p):
        p.add_argument("--family", required=True,
                       choices=[f.value for f in Family])
        p.add_argument("--alpha", action="append", type=_fraction, required=True,
                       metavar="NUM/DEN", help="one exponent per weight (repeat)")
        p.add_argument("--beta", type=_fraction, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--n", action="append", type=int, required=True,
                       metavar="NI", help="multi-index entry per weight (repeat)")
        p.add_argument("--type", type=int, choices=(1, 2), default=2)

    p = sub.add_parser("coeffs", help="exact coefficients of one polynomial")
    add_weight_options(p)

    p = sub.add_parser("eval", help="exact evaluation at a rational point")
    add_weight_options(p)
    p.add_argument("--x", type=_fraction, required=True)

    p = sub.add_parser("verify", help="run the exact property grid")
    p.add_argument("--family", default="all",
                   choices=["all"] + [f.value for f in Family])
    p.add_argument("--max-total-degree", type=int, default=4)
    p.add_argument("--max-N", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1, help="processes to split the grid over; 0 = one per usable cpu")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", default=None, metavar="SPEC",
                   help="perturb one coefficient by +1: 't2:IDX' or 't1:I:K'")

    p = sub.add_parser("identity", help="check a transformation identity on random draws")
    p.add_argument("--name", required=True, choices=tuple(IDENTITIES))
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-total-degree", type=int, default=4)
    p.add_argument("--max-N", type=int, default=8)
    p.add_argument("--params", default=None, metavar="V1,V2,...",
                   help="explicit parameters for a single check instead of draws")

    p = sub.add_parser("table", help="coefficient table over a grid")
    p.add_argument("--family", default="all",
                   choices=["all"] + [f.value for f in Family])
    p.add_argument("--max-total-degree", type=int, default=3)
    p.add_argument("--max-N", type=int, default=6)
    p.add_argument("--type", type=int, choices=(1, 2), default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("plot-data", help="exact values of one polynomial, rounded to floats")
    add_weight_options(p)
    # left unset unless given, so that _sample_points can refuse one the family does not read
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS, help="sample points, not for Hahn (default 40)")
    p.add_argument("--x-max", type=_fraction, default=argparse.SUPPRESS,
                   help="right end of the sampling window, Laguerre only (default 8)")
    for p in sub.choices.values():  # every command prints to stdout unless given a path
        p.add_argument("--out", default=None, metavar="PATH")
    return parser


def _weight_system(args) -> WeightSystem:
    """The weight system of every given option, so WeightSystem rejects one the family does not take."""
    family = Family(args.family)
    if family is Family.JACOBI_PINEIRO and args.beta is None:
        raise AdmissibilityError("--beta is required for jacobi-pineiro")
    if family is Family.HAHN and (args.beta is None or args.N is None):
        raise AdmissibilityError("--beta and --N are required for hahn")
    return WeightSystem(family, tuple(args.alpha), args.beta, args.N)


def _check_counts(args) -> None:
    """ValueError for a negative count, grid bound or worker count and for an --x-max that is not positive."""
    for dest in ("samples", "draws", "max_N", "max_total_degree", "jobs"):
        if getattr(args, dest, 0) < 0:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= 0, got {getattr(args, dest)}")
    if getattr(args, "x_max", 1) <= 0:
        raise ValueError(f"--x-max must be positive, got {args.x_max}")


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
    import csv  # only table and plot-data write csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buffer.getvalue(), out)


def _scale_text(ws: WeightSystem, n, i: int) -> str:
    """The printed gamma scale of type I component i: 1 for an idle one (n_i = 0), which is the zero polynomial."""
    return str(families.type1_scale(ws, i, sum(n))) if n[i] else "1"


def _poly_record(ws: WeightSystem, n, which: int) -> dict:
    if which == 2:
        poly = families.type2(ws, n)
        return {
            "type": 2,
            "basis": poly.basis.kind.value,
            "scale": "1",
            "coefficients": [str(c) for c in poly.coefficients],
        }
    vec = families.type1(ws, n)
    components = []
    for i, comp in enumerate(vec.components):
        entry = {
            "weight": i,
            "basis": comp.basis.kind.value,
            "scale": _scale_text(ws, n, i),
            "coefficients": [str(c) for c in comp.coefficients],
        }
        if comp.basis.kind is BasisKind.SHIFTED_RISING:
            entry["basis_shift"] = str(Fraction(*comp.basis.shift))
        components.append(entry)
    return {"type": 1, "components": components}


def cmd_coeffs(args) -> int:
    ws = _weight_system(args)
    n = ws.validate_index(args.n, type_one=args.type == 1)
    record = _poly_record(ws, n, args.type)
    _emit_json(_envelope("coeffs", args, [record], passed=1, failed=0), args.out)
    return 0


def cmd_eval(args) -> int:
    ws = _weight_system(args)
    n = ws.validate_index(args.n, type_one=args.type == 1)
    x = args.x
    if args.type == 2:
        results = [{"x": str(x), "rational": str(families.type2(ws, n).rational_value(x)), "gamma": "1"}]
    else:
        x = ws.check_point(x)  # an inadmissible point is reported before any generator error
        values = residues.type1_direct_values(ws, n, families.type1(ws, n), x)
        results = [
            {"weight": i, "x": str(x), "rational": str(rational), "gamma": _scale_text(ws, n, i)}
            for i, rational in enumerate(values)
        ]
    _emit_json(_envelope("eval", args, results, passed=len(results), failed=0), args.out)
    return 0


def _verify_families(selector: str) -> list[str]:
    if selector == "all":
        return [f.value for f in Family]
    return [selector]


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shares(run_share, shares: list[list]) -> list[dict]:
    """The records of every share: shares[1:] each in a forked child, shares[0] in this process.

    A child sends its records through a pipe as one JSON document and leaves
    by os._exit, so it never flushes the stdout buffer it inherited and runs
    no atexit handler.  A child that exits nonzero has its share run again
    here, so an exception raised there surfaces here as on the serial path.
    Every child is reaped before this returns or raises; one still running
    when this raises is killed first.  Forking assumes this process runs no
    other thread, as the command line does.
    """
    children = {}  # pid -> (read end of its pipe, its share)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(json.dumps(run_share(share)).encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = (open(read, "rb"), share)
        results = run_share(shares[0])
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            results += json.loads(data) if status == 0 else run_share(share)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            import signal  # only to kill a child left running when this raises
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def cmd_verify(args) -> int:
    """Run every grid instance; with --jobs above 1, interleaved shares of the grid run in forked children."""
    driver.parse_fault(args.inject_fault)  # a bad specification is refused before any instance runs
    instances = driver.iter_instances(
        _verify_families(args.family), args.max_total_degree, args.max_N
    )

    def run_share(share: list) -> list[dict]:
        return [driver.run_instance(instance, fault=args.inject_fault, seed=args.seed) for instance in share]

    jobs = min(args.jobs or _cpu_count(), len(instances))
    if jobs <= 1 or not hasattr(os, "fork"):
        results = run_share(instances)
    else:
        # the grid runs in cost order, so interleaved shares take about equal time
        results = _run_shares(run_share, [instances[w::jobs] for w in range(jobs)])
    results.sort(key=lambda r: r["instance"])
    passed = sum(1 for r in results if r["pass"])
    failed = len(results) - passed
    _emit_json(_envelope("verify", args, results, passed, failed), args.out)
    return 0 if failed == 0 else 1


def _hyper(name: str):
    """The function of that name in :mod:`.hyper`, which is imported when an identity runs, not with the command line."""
    from . import hyper
    return getattr(hyper, name)


def _flat(draw: str, checker: str, arity: int):
    """Table entry of an identity with one flat parameter list drawn by hyper.<draw> and checked by
    hyper.<checker>: one draw per row, --params."""
    def rows(args, rng):
        return [{"params": [str(v) for v in params], "ok": _hyper(checker)(*params)}
                for params in (_hyper(draw)(rng) for _ in range(args.draws))]
    return rows, (arity, checker)


def _karp_prilepkina_row(params, **extra) -> dict:
    a, f, m, b, k = params
    return {"params": [str(a), [str(v) for v in f], m, [str(v) for v in b], k],
            "ok": _hyper("check_karp_prilepkina")(a, f, m, b, k), **extra}


def _karp_prilepkina_rows(args, rng) -> list[dict]:
    """Random draws, then the parameters of the Hahn orthogonality rows on the default exponents, |n| <= --max-N."""
    rows = [_karp_prilepkina_row(_hyper("draw_karp_prilepkina")(rng)) for _ in range(args.draws)]
    for n in driver.compositions(min(args.max_total_degree, 4, args.max_N)):
        ws = WeightSystem.hahn(
            driver.DEFAULT_ALPHAS[: len(n)], driver.DEFAULT_BETA, min(sum(n) + 2, args.max_N),
        )
        key = driver.instance_key({"family": "hahn", "n": list(n), "N": ws.N})
        rows += (_karp_prilepkina_row(params, instantiation=key)
                 for params in _hyper("kp_orthogonality_instances")(ws, n))
    return rows


def _hahn_summation_rows(args, rng) -> list[dict]:
    """One row per (n, N, j) of the grid; the draws and the seed are not read."""
    rows = []
    for n in driver.compositions(args.max_total_degree):
        for N in range(sum(n), args.max_N + 1):
            ws = WeightSystem.hahn(driver.DEFAULT_ALPHAS[: len(n)], driver.DEFAULT_BETA, N)
            rows += ({"params": {"n": list(n), "N": N, "j": j}, "ok": ok}
                     for j, ok in enumerate(oracle.check_hahn_summation_identity(ws, n)))
    return rows


def _mellin_inversion_rows(args, rng) -> list[dict]:
    rows = []
    for _ in range(args.draws):
        N = rng.randint(0, args.max_N)
        ws = WeightSystem.hahn(driver.DEFAULT_ALPHAS[:1], driver.DEFAULT_BETA, N)
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(N + 1)]
        rows.append({
            "params": {"N": N, "values": [str(v) for v in values]},
            "ok": _hyper("check_discrete_mellin_inversion")(ws, values),
        })
    return rows


#: Every identity name, in the order the command lists them: its rows builder
#: (args, rng) -> rows, and (arity, checker name) where --params may give the parameters.
#: Draws and checkers are named here and looked up in :mod:`.hyper` when an identity runs.
IDENTITIES = {
    "chu-vandermonde": _flat("draw_chu_vandermonde", "check_chu_vandermonde", 3),
    "kummer": _flat("draw_kummer", "check_kummer", 5),
    "rakha-rathie": _flat("draw_rakha_rathie", "check_rakha_rathie", 7),
    "karp-prilepkina": (_karp_prilepkina_rows, None),
    "hahn-summation": (_hahn_summation_rows, None),
    "mellin-inversion": (_mellin_inversion_rows, None),
}


def _identity_rows(args) -> list[dict]:
    name = args.name
    rows, flat = IDENTITIES[name]
    if args.params is None:
        return rows(args, random.Random(args.seed))
    try:
        values = [Fraction(v) for v in args.params.split(",")]
    except ZeroDivisionError as exc:
        raise ValueError(f"--params has a zero denominator: {args.params!r}") from exc
    if flat is None:
        raise PreconditionError(f"--params is not supported for {name}")
    arity, checker = flat
    if len(values) != arity:
        raise ValueError(f"{name} takes {arity} --params values, got {len(values)}")
    params = [str(v) for v in values]
    try:
        return [{"params": params, "ok": bool(_hyper(checker)(*values))}]
    except (PreconditionError, PoleError) as exc:
        return [{"params": params, "rejected": str(exc)}]


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


def _sample_points(ws: WeightSystem, args) -> list[Fraction]:
    """plot-data's points: the Hahn lattice, or --samples (40) points spaced over [0, 1) for Jacobi-Pineiro and
    [0, --x-max) (8) for Laguerre, one step off zero for a type I form, whose x**alpha_i factors vanish there.
    An option the family does not read is a ValueError."""
    if ws.family is Family.HAHN and hasattr(args, "samples"):
        raise ValueError("--samples does not apply to hahn, which is sampled at every lattice point")
    if ws.family is not Family.LAGUERRE_FIRST_KIND and hasattr(args, "x_max"):
        raise ValueError(f"--x-max does not apply to {ws.family.value}: only the laguerre1 window has a free right end")
    if ws.family is Family.HAHN:
        return [Fraction(x) for x in range(ws.N + 1)]
    samples, start = getattr(args, "samples", 40), int(args.type == 1)
    if ws.family is Family.JACOBI_PINEIRO:
        return [Fraction(j, samples + 1) for j in range(start, samples + start)]
    return [Fraction(j, samples) * getattr(args, "x_max", Fraction(8)) for j in range(start, samples + start)]


def _gamma_float(product) -> float:
    """exp(sum e * lgamma(a)) over the factors Gamma(a)**e, with the sign of Gamma at a negative a by hand."""
    log, sign = 0.0, 1
    for argument, exponent in product.factors:
        log += exponent * math.lgamma(argument)
        if argument < 0 and math.ceil(-argument) * exponent % 2:
            sign = -sign
    return sign * math.exp(log)


def float_eval_type1_form(ws: WeightSystem, n, vec, x: Fraction) -> float:
    """The exact type I linear form of :func:`residues.type1_direct_values` at x, rounded: once for Hahn,
    once per component times its scale and x**alpha_i otherwise; the shared weight factor stays out."""
    values = residues.type1_direct_values(ws, n, vec, x)
    if ws.family is Family.HAHN:
        return float(sum(values))
    return math.fsum(  # a zero component adds nothing, and an idle one's scale may hold a pole
        float(rational) * _gamma_float(families.type1_scale(ws, i, sum(n))) * float(x) ** float(alpha)
        for i, (rational, alpha) in enumerate(zip(values, ws.alpha)) if rational
    )


def cmd_plot_data(args) -> int:
    ws = _weight_system(args)
    n = ws.validate_index(args.n, type_one=args.type == 1)
    points = _sample_points(ws, args)
    generated = families.type2(ws, n) if args.type == 2 else families.type1(ws, n)
    rows = []
    for x in points:  # every row is rounded before any is written
        try:
            value = float(generated.rational_value(x)) if args.type == 2 else float_eval_type1_form(ws, n, generated, x)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"the value at x = {x} is beyond the double range")
        rows.append([str(x), repr(value)])
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
    # argparse sets .command before it parses the subcommand's options, so a usage error can name it
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)), args)
        _check_counts(args)
        return HANDLERS[args.command](args)
    except (argparse.ArgumentError, AdmissibilityError, PreconditionError, ValueError, PoleError,
            SingularSystemError, OSError) as exc:
        sys.stdout.write(json.dumps(
            {"command": args.command, "error": str(exc), "kind": type(exc).__name__},
            sort_keys=True,
        ) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
