"""semsize: size predicates on finite semigroups relative to a filter.

A finite-model laboratory: decide large / thick / prethick / small (and
their filter-relative forms) on finite semigroups with principal filters,
verify the covering theorems exhaustively over instance catalogs, and sweep
partitions of small semigroups for worst-case cover witnesses against the
proved finite cover bound.
"""

from .catalog import (
    CatalogEntry,
    build_catalog,
    default_catalog,
    family_catalog,
    order_le_catalog,
)
from .classify import (
    PREDICATES,
    SizeTables,
    SizeVerdict,
    classify_all,
    delta_tau,
    is_tau_extrathick,
    is_tau_large,
    is_tau_prethick,
    is_tau_small,
    is_tau_thick,
)
from .errors import (
    AssociativityError,
    BoundViolation,
    DimensionError,
    EmptyBase,
    NotAGroup,
    NotASubsemigroup,
    ProductLawViolation,
    SchemaError,
    SemsizeError,
    SizeLimitExceeded,
    UnknownFamily,
)
from .filters import (
    PrincipalFilter,
    check_hypothesis,
    hypothesis_forces_full_base,
    make_principal,
    trivial_filter,
    ultrafilter_product,
)
from .literal import LiteralContext, literal_oracle
from .masks import bits, complement, elements, is_subset, mask_of, popcount
from .partitions import (
    BoundRecord,
    Partition,
    enumerate_partitions,
    finite_cover_bound,
    min_cover,
    stirling2,
    sweep_partitions,
)
from .semigroups import (
    FAMILY_NAMES,
    FinSemigroup,
    automorphisms,
    build_family,
    build_from_table,
    direct_product,
    enumerate_semigroups,
    is_subgroup,
    left_quotient,
    minimal_left_ideals,
    product_set,
    right_translate,
    semigroup_from_spec,
    serialize_table,
    set_quotient,
    subgroups,
    trace_set,
    translate_set,
)
from .theorems import (
    HUNT_VARIANTS,
    THEOREM_IDS,
    TheoremReport,
    VerifyConfig,
    hunt_counterexample,
    replay,
    verify,
)

__version__ = "0.1.0"
