"""Exception taxonomy shared across the package."""


class QptError(Exception):
    """Base class for all package-specific errors."""


class InputError(QptError, ValueError):
    """Malformed input: bad shapes, non-finite values, out-of-range options."""


class DomainError(QptError, ValueError):
    """Structurally valid input outside an operation's mathematical domain."""


class CrossPhaseError(DomainError):
    """Two control parameters on opposite sides of the critical point."""


class NumericError(QptError, RuntimeError):
    """A numerical procedure failed to converge or lost required accuracy."""


class ResourceError(QptError, RuntimeError):
    """Requested problem size exceeds a configured resource cap."""
