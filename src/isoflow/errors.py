"""Exception types shared across the package."""


class IsoflowError(Exception):
    """Base class for all package specific failures."""


class InvalidInput(IsoflowError):
    """Malformed, out-of-range, or non-finite numerical input."""


class DimensionMismatch(IsoflowError):
    """Operands live on incompatible spaces."""


class WindowTooSmall(IsoflowError):
    """The requested operation exceeds the exactness window."""


class InvalidShift(IsoflowError):
    """Shift amount outside the representable range."""


class PreconditionFailed(IsoflowError):
    """A documented precondition of the operation does not hold."""


class InternalInconsistency(IsoflowError):
    """A structural identity that must hold exactly was violated.

    Raised only for identities that cannot fail on faithful data; seeing
    this error signals window pollution, not a recoverable condition.
    """
