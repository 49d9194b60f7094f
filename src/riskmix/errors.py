"""Exception types shared across the package."""


class RiskmixError(Exception):
    """Base class for all riskmix errors."""


class NonexistentMomentError(RiskmixError, ValueError):
    """Requested moment does not exist (diverging integral)."""


class DerivativeCapError(RiskmixError, ValueError):
    """A Laplace derivative order needs more memory than the kernel's budget:
    its recurrence rows for a single point exceed the budget, or a stable
    order lies past the largest Bell triangle the kernel builds."""


class TailUnderflowError(RiskmixError, ArithmeticError):
    """A tail value (a survival probability, a transform level) lies beyond
    double precision at the requested point."""


class PrecisionError(RiskmixError, ArithmeticError):
    """A value is beyond double arithmetic at the requested point: it
    overflows a double, or its formula cancels more digits than the result
    could keep."""


class UnsupportedModelError(RiskmixError, ValueError):
    """Operation is not available for this mixing law or model family."""
