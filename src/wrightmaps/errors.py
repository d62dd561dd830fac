"""Exception types shared across the package, and its one integer-argument check."""

import math


class DomainError(ValueError):
    """An argument violates its documented domain constraint."""


class ConvergenceError(RuntimeError):
    """A series failed to meet its tail tolerance within the term budget, or overflowed."""


class SingularPointError(ArithmeticError):
    """A pointwise quantity is undefined because its denominator vanishes."""


def check_integer(value, minimum: int, name: str) -> int:
    """`value` as an int if it is a finite integer >= minimum; DomainError otherwise."""
    if not (value >= minimum and value < math.inf and int(value) == value):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)
