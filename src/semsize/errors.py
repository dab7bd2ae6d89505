"""Exception types shared across the package."""


class SemsizeError(Exception):
    """Base class for all package-specific errors."""


class InputError(SemsizeError, ValueError):
    """An argument no computation can use, such as a zero cell count."""


class DimensionError(SemsizeError):
    """Cayley table does not have the declared shape or entry range."""


class AssociativityError(SemsizeError):
    """Table fails associativity; carries one witnessing triple."""

    def __init__(self, triple, message=None):
        self.triple = tuple(triple)
        a, b, c = self.triple
        super().__init__(
            message or f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
        )


class UnknownFamily(SemsizeError):
    """Family spec names no known construction."""


class SizeLimitExceeded(SemsizeError):
    """Requested computation is above the configured brute-force limit."""


class NotAGroup(SemsizeError):
    """Operation is defined on groups only, and the semigroup is not one."""


class NotASubsemigroup(SemsizeError):
    """A 'within' mask is not closed under the table."""


class EmptyBase(SemsizeError):
    """Filters never contain the empty set."""


class ProductLawViolation(SemsizeError):
    """The two evaluation orders of the ultrafilter product disagreed.

    This signals an implementation bug, never a mathematical failure.
    """


class SchemaError(SemsizeError):
    """Input file does not match the expected JSON layout."""


class BoundViolation(SemsizeError):
    """A proved covering bound was exceeded by an exact sweep (fatal)."""

