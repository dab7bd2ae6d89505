"""semsize: size predicates on finite semigroups relative to a filter.

A finite-model laboratory: decide large / thick / prethick / small (and
their filter-relative forms) on finite semigroups with principal filters,
verify the covering theorems exhaustively over instance catalogs, and sweep
partitions of small semigroups for worst-case cover witnesses against the
proved finite cover bound.

Each name below is imported from its module on first use (PEP 562), so a
caller pays only for the modules it reads.
"""

from importlib import import_module

_EXPORTS = {
    "catalog": (
        "CatalogEntry", "build_catalog", "default_catalog", "family_catalog",
        "order_le_catalog",
    ),
    "classify": (
        "PREDICATES", "SizeTables", "SizeVerdict", "classify_all", "delta_tau",
        "is_tau_extrathick", "is_tau_large", "is_tau_prethick", "is_tau_small",
        "is_tau_thick",
    ),
    "errors": (
        "AssociativityError", "BoundViolation", "DimensionError", "EmptyBase",
        "NotAGroup", "NotASubsemigroup", "ProductLawViolation", "SchemaError",
        "SemsizeError", "SizeLimitExceeded", "UnknownFamily",
    ),
    "filters": (
        "PrincipalFilter", "check_hypothesis", "hypothesis_forces_full_base",
        "make_principal", "trivial_filter", "ultrafilter_product",
    ),
    "literal": ("LiteralContext", "literal_oracle"),
    "masks": ("bits", "complement", "elements", "is_subset", "mask_of", "popcount"),
    "partitions": (
        "BoundRecord", "Partition", "enumerate_partitions", "finite_cover_bound",
        "min_cover", "stirling2", "sweep_partitions",
    ),
    "semigroups": (
        "FAMILY_NAMES", "FinSemigroup", "automorphisms", "build_family",
        "build_from_table", "direct_product", "enumerate_semigroups",
        "is_subgroup", "left_quotient", "minimal_left_ideals", "product_set",
        "right_translate", "semigroup_from_spec", "serialize_table",
        "set_quotient", "subgroups", "trace_set", "translate_set",
    ),
    "theorems": (
        "HUNT_VARIANTS", "THEOREM_IDS", "TheoremReport", "VerifyConfig",
        "hunt_counterexample", "replay", "verify",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
