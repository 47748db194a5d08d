"""What each per-layer metric reads and which end-to-end metric it should move.

Names, units and directions of every metric, and the bounds of the
end-to-end ones, are in BENCHMARK.json.  PER_LAYER maps each per-layer name
to a Layer: the tracer entry it reads, if any, and ``moves``, the
end-to-end metric and workload a change to that layer should move.
"""

from __future__ import annotations

from dataclasses import dataclass

HAHN = "hahn-lattice"
CONT = "continuous-highdeg"
CLI = "cli-verify"
IN_PROCESS = (HAHN, CONT)


@dataclass(frozen=True)
class Layer:
    moves: str
    #: for metrics read off the tracer: (traced name, field)
    source: tuple[str, str] | None = None


_BOTH = f"verify_wall_s and instance_ms_p50 on {HAHN} and {CONT}"
_HAHN = f"verify_wall_s and instance_ms_p90 on {HAHN}; zero calls on {CONT}"
_LATTICE = f"verify_wall_s and instance_ms_p90 on {HAHN}; few calls on {CONT}"
_HAHN_ONLY = f"verify_wall_s on {HAHN}; should not move elsewhere"
_CONT = f"verify_wall_s and instance_ms_p90 on {CONT}"
_RESIDUES = f"verify_wall_s on {HAHN} and {CONT}"
_CLI = f"setup_s and verify_wall_s on {CLI}; 0 on the in-process workloads"


def _traced(name, field, moves, traced=None):
    return f"{name}.{field}", Layer(moves, (traced or name, field))


def _derived(name, moves):
    return name, Layer(moves)


PER_LAYER = dict((
    _traced("gammaprod.pochhammer", "calls", _BOTH),
    _traced("gammaprod.pochhammer", "busy_s", _BOTH),
    _traced("gammaprod.GammaProduct.reduce", "calls", _BOTH),
    _traced("gammaprod.GammaProduct.reduce", "busy_s", _BOTH),
    _traced("weights.hahn_weight", "calls", _HAHN, "weights.WeightSystem.hahn_weight"),
    _traced("weights.hahn_weight", "busy_s", _HAHN, "weights.WeightSystem.hahn_weight"),
    _traced("polybasis.element_value", "calls", _LATTICE, "polybasis.Basis.element_value"),
    _traced("polybasis.element_value", "busy_s", _LATTICE, "polybasis.Basis.element_value"),
    _traced("polybasis.rational_value", "self_s", _LATTICE, "polybasis.ScaledPolynomial.rational_value"),
    _traced("oracle.oracle_solve_type2", "self_s", _LATTICE + " (Gram assembly)"),
    _traced("oracle.check_type2_orthogonality", "busy_s", _LATTICE),
    _traced("oracle.check_type1_orthogonality", "busy_s", _LATTICE),
    _traced("families.type2", "busy_s", _CONT),
    _traced("families.type1", "busy_s", _CONT),
    _traced("polybasis.monomial_coefficients", "busy_s", _CONT,
            "polybasis.ScaledPolynomial.monomial_coefficients"),
    _traced("oracle.oracle_solve_type1", "self_s", _CONT),
    _traced("oracle.check_mellin_type2", "calls", _CONT),
    _traced("oracle.check_mellin_type2", "busy_s", _CONT),
    _traced("linalg.solve_linear_system", "calls", _CONT),
    _traced("linalg.solve_linear_system", "busy_s", _CONT),
    _derived("linalg.max_system_size", _CONT + "; largest solved system"),
    _derived("linalg.max_height_bits", (
        _CONT + "; largest numerator or denominator bit length in a returned solution")),
    _derived("families.generations_per_instance", (
        f"verify_wall_s on {HAHN}: calls of the six per-family generators per "
        f"run_instance call, 4.0 on {HAHN} and 2.0 on {CONT} at the baseline")),
    _traced("families.hahn_type2_weighted_series", "busy_s", _HAHN_ONLY),
    _traced("families.hahn_type1_p2_kdf", "busy_s", _HAHN_ONLY),
    _traced("families.hahn_jp_coefficient_relation", "busy_s", _HAHN_ONLY),
    _traced("hyper.pfq", "calls", _HAHN_ONLY),
    _traced("hyper.pfq", "busy_s", _HAHN_ONLY),
    _traced("hyper.eval_kdf", "calls", _HAHN_ONLY),
    _traced("hyper.eval_kdf", "busy_s", _HAHN_ONLY),
    _traced("oracle.check_hahn_summation_identity", "busy_s", _HAHN_ONLY),
    _traced("residues.type1_linear_form_residues", "busy_s", _RESIDUES),
    _traced("residues.type1_direct_decomposition", "busy_s", _RESIDUES),
    _traced("residues.verify_type2_series_equivalence", "busy_s", _RESIDUES),
    _traced("residues.interpolation_recover_p", "self_s", _RESIDUES),
    _traced("linalg.interpolate", "busy_s", _RESIDUES),
    _traced("driver.run_instance", "calls", "base of the per-instance ratios"),
    _traced("driver.run_instance", "self_s", f"instance_ms_p50 on {HAHN} and {CONT}: "
            "check-bundle glue not covered by any wrapped callee"),
    _derived("cli.import_s", _CLI + "; in-process time of `import mopexact.cli`"),
    _derived("cli.serial_wall_s", _CLI + "; the same command with --jobs 1"),
    _derived("cli.parallel_efficiency", (
        _CLI + "; cli.serial_wall_s / (workers x parallel wall)")),
    _derived("cli.output_bytes", _CLI + "; bytes the command prints"),
    _derived("trace.overhead_ratio", (
        "traced over untraced time of one pass over the same instances; not a program metric")),
))

#: The six per-family generators counted by families.generations_per_instance.
GENERATORS = tuple(
    f"families.{name}" for name in (
        "laguerre1_type2", "jacobi_pineiro_type2", "hahn_type2",
        "laguerre1_type1", "jacobi_pineiro_type1", "hahn_type1",
    )
)
