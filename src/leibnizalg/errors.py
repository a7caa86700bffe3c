"""Exception types shared across the library."""


class AmbientMismatch(ValueError):
    """Subspaces or vectors from incompatible ambient spaces."""


class FieldMismatch(ValueError):
    """Operands live over different fields."""


class NotAnIdeal(ValueError):
    """A quotient was requested by a subspace that is not an ideal."""


class NotASubalgebra(ValueError):
    """A subalgebra was required (restrict, or a series of a subspace of L) and
    the subspace is not closed under the bracket."""


class Unsupported(Exception):
    """The operation is outside the supported cases (e.g. Frattini of a
    non-nilpotent algebra over Q)."""


class UnsupportedField(Unsupported):
    """The operation has no algorithm for this field (e.g. the oracle over Q)."""


class InternalInconsistency(RuntimeError):
    """A mandatory certificate failed.  Results are never returned uncertified;
    this aborts loudly instead."""


class BudgetExceeded(RuntimeError):
    """An exhaustive scan would exceed the configured subspace budget."""


class TheoremViolation(RuntimeError):
    """An exhaustively-verified theorem failed on concrete data; this can only
    mean an implementation bug and must abort."""
