"""Exact rational engine for classical multiple orthogonal polynomials.

Three weight families (Laguerre of the first kind, Jacobi-Pineiro, Hahn)
with an arbitrary number of weights, both polynomial types, every value an
exact rational (a type I component against a formal gamma scale fixed by
its family, weight and |n|).  Generators come from the
explicit hypergeometric formulas; an independent moment-based oracle
reconstructs the same polynomials from their defining conditions; the
contour representations are realized as exact residue sums.  Agreement is
machine-checked, exactly, never approximately.
"""

from .errors import (
    AdmissibilityError,
    NonTerminatingSeriesError,
    PoleError,
    PreconditionError,
    SingularSystemError,
)
from .families import (
    hahn_jp_coefficient_relation,
    hahn_type1_p2_kdf,
    type1,
    type2,
)
from .gammaprod import (
    GammaProduct,
    as_fraction,
    pochhammer,
)
from .oracle import (
    OrthogonalityReport,
    check_hahn_summation_identity,
    check_mellin_type2,
    check_type1_orthogonality,
    check_type2_orthogonality,
    oracle_solve_type1,
    oracle_solve_type2,
)
from .polybasis import Basis, BasisKind, ScaledPolynomial, TypeIVector
from .residues import (
    check_residue_duality,
    recovered_constant_closed_form,
    verify_type2_series_equivalence,
)
from .weights import Family, MultiIndex, WeightSystem, total_degree

__version__ = "0.1.0"

#: The hypergeometric names, which only the identity checks use: :mod:`.hyper` is imported on first use.
_HYPER = ("check_chu_vandermonde", "check_discrete_mellin_inversion", "check_karp_prilepkina", "check_kummer",
          "check_rakha_rathie", "kdf", "pfq")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_HYPER))


def __getattr__(name: str):
    if name in _HYPER:
        from . import hyper
        return getattr(hyper, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
