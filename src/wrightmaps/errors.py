"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates its documented domain constraint."""


class ConvergenceError(RuntimeError):
    """A series failed to meet its tail tolerance within the term budget, or overflowed."""


class SingularPointError(ArithmeticError):
    """A pointwise quantity is undefined because its denominator vanishes."""
