"""Exception types shared across the package."""


class NCSLemmaError(Exception):
    """Base class for all package errors."""


class InvalidInput(NCSLemmaError, ValueError):
    """Non-finite entries or otherwise malformed numeric input."""


class ShapeMismatch(NCSLemmaError, ValueError):
    """Incompatible dimensions between operands."""


class DimensionTooLarge(NCSLemmaError, ValueError):
    """A requested product dimension exceeds the supported size."""


class AsymmetricCoefficients(NCSLemmaError, ValueError):
    """Coefficient blocks violate the A_ij = A_ji^T requirement beyond tolerance."""


class NotPSD(NCSLemmaError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class NotGloballyPSD(NCSLemmaError, ValueError):
    """A polynomial required to be globally positive semidefinite is not."""


class SlaterViolated(NCSLemmaError, ValueError):
    """The strict-feasibility hypothesis fails at the supplied point."""


class PreconditionViolated(NCSLemmaError, ValueError):
    """A documented operation precondition does not hold."""


class SplitFailed(NCSLemmaError, RuntimeError):
    """Rank-one splitting could not produce a verified vector."""


class VerificationFailed(NCSLemmaError, RuntimeError):
    """A constructed certificate or counterexample failed its post-hoc check."""


class WitnessConstructionFailed(NCSLemmaError, RuntimeError):
    """Internal consistency failure while building a negativity witness."""


class ParseError(NCSLemmaError, ValueError):
    """Malformed instance, tuple, or certificate file."""
