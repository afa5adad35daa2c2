"""Exception types shared across the toolkit, and the one check of each input kind."""

import cmath
import math
import operator


class ModeMismatchError(ValueError):
    """Operands are defined on different mode counts (or vector lengths)."""


class DegreeCapError(ValueError):
    """A reordering would exceed the configured maximum monomial degree."""


class OrderingTagError(ValueError):
    """A symbol carries the wrong ordering tag for the requested operation."""


class NonHermitianError(ValueError):
    """The operation is only defined for Hermitian operators/matrices."""


class SingularityError(ArithmeticError):
    """A denominator hit (or came within tolerance of) a pole."""


class NumericalError(ArithmeticError):
    """A numerical invariant failed, e.g. a paired sum that should be real is not."""


class EvenSliceCountError(ValueError):
    """The symmetric-order lattice construction is only defined for odd N."""


def _count(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi]: every count the library takes passes here.

    numpy integers pass; a float (even 8.0) or a bool is a ``TypeError`` and
    a value out of range a ``ValueError``, both naming ``name``.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < lo or (hi is not None and count > hi):
        bound = f"in {lo}..{hi}" if hi is not None else "non-negative" if lo == 0 else f">= {lo}"
        raise ValueError(f"{name} must be {bound}, got {count}")
    return count


def _finite(value, what: str):
    """``value``, real or complex, if finite; else a :class:`NumericalError` naming ``what``."""
    if not cmath.isfinite(value):
        raise NumericalError(f"{what} is not finite: {value}")
    return value


def _inverse_temperature(beta: float) -> None:
    """Every inverse temperature the library takes passes here: 0 < beta < inf."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
