"""Exception types shared across the package."""


class HolorisError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HolorisError, ValueError):
    """Invalid experiment configuration (bad schema, inconsistent geometry)."""


class DomainError(HolorisError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericalError(HolorisError, ArithmeticError):
    """A numerical consistency check failed (singular solve, uneven spectrum sequence)."""


class KneeUndefinedError(HolorisError, ValueError):
    """Eigenvalue spectrum has no detectable knee (e.g. all values equal)."""
