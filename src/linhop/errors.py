"""Exception types shared across the package."""


class LinhopError(Exception):
    """Base class for all package errors."""


class DegreeExhausted(LinhopError):
    """No polynomial degree within the cap met the relative-error target."""


class InvalidBound(LinhopError):
    """Non-positive interval bound passed to the degree-bound formula."""


class SizeOverflow(LinhopError):
    """Feature-map rank exceeds the configured cap."""


class DimensionMismatch(LinhopError):
    """Matrix/vector shapes do not agree."""


class EmptyVector(LinhopError):
    """An operation received an empty vector where at least one entry is required."""


class MalformedPatternFile(LinhopError):
    """A pattern file does not follow its format: a bad header, a value that is
    not a number, or fewer entries than the header declares."""


class NonFiniteInput(LinhopError):
    """Pattern data holds a NaN or an infinite entry."""


class NonPositiveNormalizer(LinhopError):
    """An approximated softmax normalizer came out non-positive; refit with a smaller
    relative-error target."""


class SingleMemory(LinhopError):
    """Separation/radius quantities need at least two stored patterns."""


class CostCapExceeded(LinhopError):
    """Brute-force enumeration would exceed the configured cost cap."""


class InvalidParams(LinhopError):
    """Reduction constants violate their defining inequalities."""


class InfeasiblePlant(LinhopError):
    """Requested planted distance cannot be realized with balanced rows."""


class InfeasibleStorage(LinhopError):
    """Sphere radius does not exceed the retrieval error margin."""


class OutOfDomain(LinhopError):
    """Argument outside the mathematical domain of the function."""
