"""Verification grid enumeration and per-instance check bundles.

The CLI dispatches one self-contained verification job per grid instance (family,
multi-index, lattice size), so instances can run in forked processes and merge
deterministically.  Everything here works on plain dicts and strings: instances and
results are JSON-ready, and rationals cross the boundary as "num/den" strings.

The oracle-match checks solve nothing: :func:`oracle.normal_index` certifies that each
type's conditions have one solution, so the orthogonality checks decide whether the
generated polynomials are the oracle's.  No check evaluates a polynomial at a point of x, and
none reads a row past order |n|: the residue duality compares coefficient rows, the Hahn weighted
series and KDF form Newton coefficients, Mellin reads one coefficient row in s, and the series
equivalence is a term-ratio certificate.  A fault specification ("t2:IDX" or
"t1:I:K") perturbs one generated coefficient by +1 before the checks run; the verifier must
then report a failure, which is how the test suite proves the green path is not vacuous.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from . import families, oracle, residues
from .gammaprod import same
from .gammaprod import pochhammer  # noqa: F401  (perfbench traces this binding)
from .polybasis import ScaledPolynomial, TypeIVector
from .weights import HAHN, JACOBI_PINEIRO, LAGUERRE, Family, WeightSystem, total_degree

#: Small-denominator exponents keeping pairwise and beta-shifted differences
#: non-integer, so every grid instance is an admissible system.
DEFAULT_ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
DEFAULT_BETA = Fraction(1, 4)


def compositions(max_total: int, max_parts: int = 3) -> list[tuple[int, ...]]:
    """All multi-indices with 1 <= p <= max_parts, every n_i >= 1, |n| <= max_total."""
    out = []
    for p in range(1, max_parts + 1):
        for n in itertools.product(range(1, max_total + 1), repeat=p):
            if sum(n) <= max_total:
                out.append(n)
    return sorted(out, key=lambda n: (sum(n), len(n), n))


def iter_instances(family_names, max_total_degree: int, max_N: int) -> list[dict]:
    instances = []
    for name in family_names:
        family = Family(name)
        for n in compositions(max_total_degree):
            p = len(n)
            base = {
                "family": family.value,
                "alpha": [str(a) for a in DEFAULT_ALPHAS[:p]],
                "n": list(n),
            }
            if family is LAGUERRE:
                instances.append(base)
                continue
            base["beta"] = str(DEFAULT_BETA)
            if family is JACOBI_PINEIRO:
                instances.append(base)
                continue
            for N in range(sum(n), max_N + 1):
                hahn = dict(base)
                hahn["N"] = N
                instances.append(hahn)
    return instances


def instance_key(instance: dict) -> str:
    parts = [instance["family"], "n=" + ",".join(str(v) for v in instance["n"])]
    if "N" in instance:
        parts.append(f"N={instance['N']}")
    return "|".join(parts)


#: Fraction(text), parsed once per distinct exponent and process: a grid repeats a few exponent strings
#: hundreds of times.  Bounded, so a long run over drawn exponents keeps at most this many; errors are not kept.
_exponent = functools.lru_cache(maxsize=1024, typed=True)(Fraction)


def weight_system(instance: dict) -> WeightSystem:
    family = Family(instance["family"])
    alpha = tuple(map(_exponent, instance["alpha"]))
    if family is LAGUERRE:
        return WeightSystem.laguerre(alpha)
    if family is JACOBI_PINEIRO:
        return WeightSystem.jacobi_pineiro(alpha, _exponent(instance["beta"]))
    return WeightSystem.hahn(alpha, _exponent(instance["beta"]), int(instance["N"]))


def _bumped(poly: ScaledPolynomial, index: int) -> ScaledPolynomial:
    """poly with coefficient index (modulo their number) raised by 1 in its integer row."""
    nums, den = poly.row
    nums = list(nums)
    nums[index % len(nums)] += den
    return ScaledPolynomial(poly.basis, row=(nums, den))


def parse_fault(fault: str | None) -> tuple[str, list[int]] | None:
    """The kind and indices of a fault specification, None for no fault, or ValueError."""
    if not fault:
        return None
    kind, *fields = fault.split(":")
    try:
        indices = [int(v) for v in fields]
    except ValueError:
        indices = []
    if (kind, len(indices)) not in (("t2", 1), ("t1", 2)):
        raise ValueError(f"unrecognized fault specification {fault!r}")
    return kind, indices


def apply_fault(poly: ScaledPolynomial, vec: TypeIVector, fault: str | None):
    """Perturb one generated coefficient by +1 per the fault specification."""
    kind, indices = parse_fault(fault) or (None, ())
    if kind is None:
        return poly, vec
    if kind == "t2":
        return _bumped(poly, indices[0]), vec
    components = list(vec.components)
    component = indices[0] % len(components)
    if not components[component].row[0]:
        raise ValueError(f"component {component} has no coefficients to perturb")
    components[component] = _bumped(components[component], indices[1])
    return poly, TypeIVector(tuple(components))


def run_instance(instance: dict, fault: str | None = None, seed: int = 0) -> dict:
    """All exact checks for one grid instance; returns a JSON-ready record."""
    ws, key = weight_system(instance), instance_key(instance)
    n = tuple(instance["n"])
    total = total_degree(n)
    checks: dict[str, bool] = {}

    poly = families.type2(ws, n)
    vec = families.type1(ws, n)
    poly, vec = apply_fault(poly, vec, fault)

    lead, lead_den = poly.leading_monomial_coefficient()
    checks["type2_monic"] = lead == lead_den
    checks["type2_orthogonality"] = oracle.check_type2_orthogonality(ws, n, poly).passed
    checks["type1_orthogonality"] = oracle.check_type1_orthogonality(ws, n, vec).passed
    oracle.normal_index(ws, n)  # one solution per type, and no nonzero type II row below degree |n| is orthogonal
    checks["type2_oracle_match"] = checks["type2_monic"] and checks["type2_orthogonality"]
    checks["type1_oracle_match"] = checks["type1_orthogonality"]

    checks["residue_duality"] = residues.check_residue_duality(ws, n, vec)
    k_max = max(6, ws.N) if ws.family is HAHN else max(6, total)
    checks["series_equivalence"] = residues.verify_type2_series_equivalence(ws, n, k_max)

    if total >= 2:
        # |n| distinct nodes: the interpolant is the constant c iff every node value is c
        values = [value for _, value in residues.recovered_nodes(ws, n, vec)]
        checks["recovered_constant"] = same(values, [residues.recovered_constant_closed_form(ws, n)] * len(values))

    rng = random.Random(f"{seed}:{key}:mellin")
    samples = [(rng.randint(1, 9), rng.choice((7, 11, 13))) for _ in range(5)]
    checks["mellin_random"] = oracle.check_mellin_type2(ws, n, poly, samples)
    checks["mellin_zeros"] = oracle.check_mellin_type2(ws, n, poly, oracle.mellin_zero_points(ws, n))

    if ws.family is HAHN:
        checks["jp_coefficient_relation"] = families.hahn_jp_coefficient_relation(ws, n, poly)
        checks["weighted_series"] = families.hahn_weighted_series_relation(ws, n, poly)
        checks["summation_identity"] = all(oracle.check_hahn_summation_identity(ws, n))
        if ws.p == 2 and min(n) >= 1:  # the double series needs both weights active
            checks["kdf_cross_formula"] = families.hahn_kdf_relation(ws, n, vec)

    return {
        "instance": key,
        "checks": {name: bool(ok) for name, ok in sorted(checks.items())},
        "pass": all(checks.values()),
    }
