"""Seeded instance lists for the benchmark workloads, and the results digest.

The program receives only the instances built here: plain dicts in the
format ``mopexact.driver.run_instance`` takes, with exponents drawn from the
workload seed.  build_instances imports ``mopexact``, so the caller puts the
package's ``src`` directory on ``sys.path`` first; results_digest does not,
which keeps the harness process that runs the commands small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

#: Grid shapes.  hahn-lattice follows the deg-5 / N-10 Hahn grid (175
#: instances); continuous-highdeg is the deg-8 grid with p <= 3 over the two
#: continuous families (184 instances); cli-verify is the command's default
#: grid (109 instances over all three families).
GRIDS = {
    "hahn-lattice": (("hahn",), 5, 10),
    "continuous-highdeg": (("laguerre1", "jacobi-pineiro"), 8, 0),
    "cli-verify": (("laguerre1", "jacobi-pineiro", "hahn"), 4, 8),
}

#: One prime denominator per alpha slot and another for beta: every pairwise
#: alpha difference and every alpha_i + beta is then a non-integer, so each
#: drawn system is admissible by construction.
ALPHA_DENOMINATORS = (2, 3, 5)
BETA_DENOMINATOR = 7
INTEGER_PARTS = (0, 1)


def _pool(den: int) -> list[str]:
    """Every exponent k + r/den with k in INTEGER_PARTS and r coprime to den."""
    return [
        str(k + Fraction(r, den))
        for k in INTEGER_PARTS
        for r in range(1, den)
        if math.gcd(r, den) == 1
    ]


def _stratified(rng: random.Random, pool: list[str], count: int) -> list[str]:
    """``count`` draws in which every consecutive run of len(pool) is a permutation.

    Grid order puts instances of similar cost next to each other, so each
    cost stratum sees every exponent value once.  Independent draws let a few
    expensive instances land on tall exponents together, which moved the
    workload's total cost by up to 20% from seed to seed.
    """
    out: list[str] = []
    while len(out) < count:
        block = list(pool)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def build_instances(workload: str, seed: int) -> list[dict]:
    """The workload's instances for ``seed``, in grid order.

    cli-verify returns the command's own grid with its fixed exponents: the
    command takes no exponents, only ``--seed``.
    """
    from mopexact import driver

    families, max_total_degree, max_N = GRIDS[workload]
    instances = driver.iter_instances(families, max_total_degree, max_N)
    if workload == "cli-verify":
        return instances
    rng = random.Random(f"perfbench:{workload}:{seed}")
    out = [dict(instance) for instance in instances]
    for slot, den in enumerate(ALPHA_DENOMINATORS):
        users = [inst for inst in out if len(inst["n"]) > slot]
        for inst, value in zip(users, _stratified(rng, _pool(den), len(users))):
            inst["alpha"] = list(inst["alpha"])
            inst["alpha"][slot] = value
    users = [inst for inst in out if "beta" in inst]
    for inst, value in zip(users, _stratified(rng, _pool(BETA_DENOMINATOR), len(users))):
        inst["beta"] = value
    return out


def results_digest(results: list[dict]) -> str:
    """sha256 of the results array sorted by instance key, in canonical JSON."""
    ordered = sorted(results, key=lambda record: record["instance"])
    text = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
