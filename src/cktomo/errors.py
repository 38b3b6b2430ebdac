"""Exception types shared across the package."""

__all__ = [
    "CkTomoError",
    "DomainError",
    "DegenerateFrame",
    "NonFinite",
    "KTooSmall",
    "StepTooLarge",
    "UsageError",
]


class CkTomoError(Exception):
    """Base class for all library errors."""


class DomainError(CkTomoError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateFrame(CkTomoError, ValueError):
    """A tomography frame with mu = nu = 0 selects no quadrature direction."""


class NonFinite(CkTomoError, ArithmeticError):
    """A numerical kernel produced or received non-finite values."""


class KTooSmall(CkTomoError, ValueError):
    """|k| below the safe floor: 1/k**2 operator terms would amplify noise."""


class StepTooLarge(CkTomoError, ValueError):
    """Finite-difference step too large for the local tomogram scale."""


class UsageError(CkTomoError):
    """Bad configuration that is the caller's fault, not a numeric failure."""
