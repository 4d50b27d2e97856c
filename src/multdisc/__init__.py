"""Exact multiplicity-structure discriminants for univariate polynomials."""

from .combinat import (
    expand_partition,
    multiset_permutations,
    parse_partition,
    partitions,
    permutation_count,
    repetition_constant,
)
from .discriminant import (
    ClassifyReport,
    DmuResult,
    PsdReport,
    classify,
    classify_report,
    dmu,
    dmu_degree,
    dmu_rows,
    psd_sequence,
)
from .linalg import det, dp, hadamard, permanent, row_permute
from .oracle import (
    RootSpec,
    check_det_per_identity,
    check_dp_ratio,
    dbar_mu,
    dmu_by_stacks,
    poly_from_roots,
    random_factored,
    random_instance,
)
from .scalars import clear_denominators, exact_div, format_scalar, parse_scalar
from .subresultants import resultant, subresultant_chain, subresultant_det
from .sympoly import SymPoly
from .unipoly import Poly, generic_poly, parse_poly
from .yhz import (
    YhzCondition,
    measured_size,
    s_sequence,
    yhz_condition,
    yhz_count,
    yhz_degree,
    yhz_degree_lower_bound,
)

__version__ = "0.1.0"
