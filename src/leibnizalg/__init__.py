"""Exact computation with finite-dimensional Leibniz algebras.

Structure-constant algebras over Q and F_p: kernel of squares, liesation,
central/derived series, solvable radical, nilradical, Frattini ideal, plus an
exhaustive small-field oracle and machine verification of the structural
statements relating N(L/I), N(L)/I and (I + N(B))/I.
"""

from .core import (
    LeibnizAlgebra,
    QuotientPresentation,
    bracket_span,
    center,
    check_leibniz,
    direct_sum,
    derived_series,
    embed_subspace,
    ideal_closure,
    is_ideal,
    is_lie,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    leibniz_kernel,
    liesation,
    lower_central_series,
    quotient,
    restrict,
)
from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    FieldMismatch,
    InternalInconsistency,
    NotAnIdeal,
    NotASubalgebra,
    TheoremViolation,
    Unsupported,
    UnsupportedField,
)
from .exactlin import (
    Field,
    QQ,
    Subspace,
)
from .radicals import (
    CertifiedIdeal,
    find_complement_B,
    frattini_ideal,
    nilradical,
    radical,
    verify,
)
from .reports import VerificationReport

__version__ = "0.1.0"
