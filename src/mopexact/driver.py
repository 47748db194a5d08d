"""Verification grid enumeration and per-instance check bundles.

The CLI dispatches one self-contained verification job per grid instance
(family, multi-index, lattice size), so instances can run on a process pool
and merge deterministically.  Everything here works on plain dicts and
strings: instances and results are picklable and JSON-ready, and rationals
cross the boundary as "num/den" strings.

A fault specification ("t2:IDX" or "t1:I:K") perturbs one generated
coefficient by +1 before the checks run; the verifier must then report a
failure, which is how the test suite proves the green path is not vacuous.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import families, oracle, residues
from .gammaprod import pochhammer  # noqa: F401  (perfbench traces this binding)
from .polybasis import ScaledPolynomial, TypeIVector
from .weights import Family, WeightSystem, total_degree

#: Small-denominator exponents keeping pairwise and beta-shifted differences
#: non-integer, so every grid instance is an admissible system.
DEFAULT_ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
DEFAULT_BETA = Fraction(1, 4)

CONTINUOUS_SAMPLE_POINTS = {
    Family.LAGUERRE_FIRST_KIND: (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)),
    Family.JACOBI_PINEIRO: (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(6, 7)),
}


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
            if family is Family.LAGUERRE_FIRST_KIND:
                instances.append(base)
                continue
            base["beta"] = str(DEFAULT_BETA)
            if family is Family.JACOBI_PINEIRO:
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


def weight_system(instance: dict) -> WeightSystem:
    family = Family(instance["family"])
    alpha = tuple(Fraction(a) for a in instance["alpha"])
    if family is Family.LAGUERRE_FIRST_KIND:
        return WeightSystem.laguerre(alpha)
    if family is Family.JACOBI_PINEIRO:
        return WeightSystem.jacobi_pineiro(alpha, Fraction(instance["beta"]))
    return WeightSystem.hahn(alpha, Fraction(instance["beta"]), int(instance["N"]))


def apply_fault(poly: ScaledPolynomial, vec: TypeIVector, fault: str | None):
    """Perturb one generated coefficient by +1 per the fault specification."""
    if not fault:
        return poly, vec
    parts = fault.split(":")
    if parts[0] == "t2" and len(parts) == 2:
        index = int(parts[1]) % len(poly.coefficients)
        coeffs = list(poly.coefficients)
        coeffs[index] += 1
        return ScaledPolynomial(poly.basis, tuple(coeffs), poly.scale), vec
    if parts[0] == "t1" and len(parts) == 3:
        component = int(parts[1]) % len(vec.components)
        comp = vec.components[component]
        if not comp.coefficients:
            raise ValueError(f"component {component} has no coefficients to perturb")
        index = int(parts[2]) % len(comp.coefficients)
        coeffs = list(comp.coefficients)
        coeffs[index] += 1
        perturbed = ScaledPolynomial(comp.basis, tuple(coeffs), comp.scale)
        components = list(vec.components)
        components[component] = perturbed
        return poly, TypeIVector(tuple(components))
    raise ValueError(f"unrecognized fault specification {fault!r}")


def _hahn_sample_points(N: int) -> list[int]:
    return sorted({0, 1, min(2, N), max(N - 1, 0), N})


def run_instance(instance: dict, fault: str | None = None, seed: int = 0) -> dict:
    """All exact checks for one grid instance; returns a JSON-ready record."""
    ws = weight_system(instance)
    n = tuple(instance["n"])
    total = total_degree(n)
    checks: dict[str, bool] = {}

    poly = families.type2(ws, n)
    vec = families.type1(ws, n)
    poly, vec = apply_fault(poly, vec, fault)

    checks["type2_monic"] = poly.leading_monomial_coefficient() == 1
    checks["type2_orthogonality"] = oracle.check_type2_orthogonality(ws, n, poly).passed
    checks["type2_oracle_match"] = (
        poly.coefficients == oracle.oracle_solve_type2(ws, n).coefficients
    )

    report = oracle.check_type1_orthogonality(ws, n, vec)
    checks["type1_orthogonality"] = report.passed
    solved = oracle.oracle_solve_type1(ws, n)
    checks["type1_oracle_match"] = all(
        a.coefficients == b.coefficients for a, b in zip(vec.components, solved.components)
    )

    if ws.family is Family.HAHN:
        points = _hahn_sample_points(ws.N)
    else:
        points = list(CONTINUOUS_SAMPLE_POINTS[ws.family])
    checks["residue_duality"] = all(
        residues.linear_form_values_equal(
            residues.type1_linear_form_residues(ws, n, x),
            residues.type1_direct_decomposition(ws, n, x, vec),
        )
        for x in points
    )
    k_max = max(6, ws.N) if ws.family is Family.HAHN else max(6, total)
    checks["series_equivalence"] = residues.verify_type2_series_equivalence(ws, n, k_max)

    if total >= 2:
        recovered = residues.interpolation_recover_p(ws, n, vec)
        expected = residues.recovered_constant_closed_form(ws, n)
        checks["recovered_constant"] = (
            recovered[0] == expected and all(c == 0 for c in recovered[1:])
        )

    rng = random.Random(f"{seed}:{instance_key(instance)}:mellin")
    samples = [Fraction(rng.randint(1, 9), rng.choice((7, 11, 13))) for _ in range(5)]
    checks["mellin_random"] = all(oracle.check_mellin_type2(ws, n, s, poly) for s in samples)
    checks["mellin_zeros"] = all(
        oracle.check_mellin_type2(ws, n, z, poly) for z in oracle.mellin_zero_points(ws, n)
    )

    if ws.family is Family.HAHN:
        checks["jp_coefficient_relation"] = families.hahn_jp_coefficient_relation(ws, n, poly)
        checks["weighted_series"] = all(
            families.hahn_type2_weighted_series(ws, n, x) == value * ws.beta_factors[x]
            for x, value in enumerate(poly.lattice_values(ws.N))
        )
        checks["summation_identity"] = all(
            oracle.check_hahn_summation_identity(ws, n, j) for j in range(total)
        )
        if ws.p == 2:
            checks["kdf_cross_formula"] = all(
                families.hahn_type1_p2_kdf(ws, n, i, x) == vec.components[i].lattice_values(ws.N)[x]
                for i in range(2)
                for x in range(ws.N + 1)
            )

    return {
        "instance": instance_key(instance),
        "checks": {name: bool(ok) for name, ok in sorted(checks.items())},
        "pass": all(checks.values()),
    }


# --- identity draw samplers -------------------------------------------------
#
# Each slot draws from its own prime denominator with a numerator coprime to
# it, so every mixed sum or difference the identities put inside a Pochhammer
# or gamma argument stays a non-integer: draws are automatically admissible
# (no factor can vanish inside the terminating range, no gamma pole).

def _offset_fraction(rng: random.Random, den: int, lo: int = 0, hi: int = 3) -> Fraction:
    residue = rng.choice([r for r in range(1, den) if math.gcd(r, den) == 1])
    return rng.randint(lo, hi) + Fraction(residue, den)


def draw_chu_vandermonde(rng: random.Random) -> tuple:
    a = Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5)))
    b = Fraction(rng.randint(-9, 9), rng.choice((3, 5, 7)))
    return a, b, rng.randint(0, 12)


def draw_kummer(rng: random.Random) -> tuple:
    a1 = -rng.randint(0, 3)
    a2 = _offset_fraction(rng, 3)
    a3 = _offset_fraction(rng, 5)
    b1 = _offset_fraction(rng, 7)
    b2 = _offset_fraction(rng, 11)
    return a1, a2, a3, b1, b2


def draw_rakha_rathie(rng: random.Random) -> tuple:
    alpha = -rng.randint(0, 2)
    lam = _offset_fraction(rng, 3)
    eps = _offset_fraction(rng, 5)
    beta = _offset_fraction(rng, 7)
    gamma = _offset_fraction(rng, 11)
    mu = _offset_fraction(rng, 13)
    delta = _offset_fraction(rng, 4)
    return alpha, lam, eps, beta, gamma, mu, delta


def draw_karp_prilepkina(rng: random.Random) -> tuple:
    r = rng.randint(0, 2)
    l = rng.randint(0 if r else 1, 2)
    f = [_offset_fraction(rng, den) for den in (4, 9)[:r]]
    m = [rng.randint(1, 2) for _ in range(r)]
    b = [_offset_fraction(rng, den) for den in (2, 3)[:l]]
    k = [rng.randint(1, 2) for _ in range(l)]
    floor = max(1, sum(m) - sum(k) + 1)
    a = -(floor + rng.randint(0, 2))
    return a, f, m, b, k


def kp_orthogonality_instances(ws: WeightSystem, n) -> list[tuple]:
    """The exact parameter identifications used for the Hahn summation rows.

    For every admissible row j the summand-recombination step instantiates
    the decomposition identity with these (a, f, m, b, k); pairs with m = 0
    degenerate away inside the checker.
    """
    total = total_degree(n)
    alpha, beta, N = ws.alpha, ws.beta, ws.N
    out = []
    for j in range(total - 1):
        out.append((
            -n[0] + 1,
            [alpha[0] + beta + N + 2, alpha[0] + beta + 2 + j],
            [j, total - 2 - j],
            [alpha[0] - alpha[q] - n[q] + 1 for q in range(1, ws.p)],
            [n[q] for q in range(1, ws.p)],
        ))
    out.append((
        -n[0] + 1,
        [alpha[0] + beta + N + 2],
        [total - 1],
        [alpha[0] + beta + total] + [alpha[0] - alpha[q] - n[q] + 1 for q in range(1, ws.p)],
        [1] + [n[q] for q in range(1, ws.p)],
    ))
    return out
