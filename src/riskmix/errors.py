"""Exception types shared across the package."""


class RiskmixError(Exception):
    """Base class for all riskmix errors."""


class NonexistentMomentError(RiskmixError, ValueError):
    """Requested moment does not exist (diverging integral)."""


class DerivativeCapError(RiskmixError, ValueError):
    """Laplace derivative order exceeds the precision-safe cap."""


class TailUnderflowError(RiskmixError, ArithmeticError):
    """A tail value (a survival probability, a transform level) lies beyond
    double precision at the requested point."""


class UnsupportedModelError(RiskmixError, ValueError):
    """Operation is not available for this mixing law or model family."""
