"""Exception types shared across the toolkit."""


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
