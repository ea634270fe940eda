"""Exception hierarchy shared by the whole library.

Callers care about three families:

* ``ParseError`` and friends -- malformed expressions or input files.
* ``PreconditionError`` subclasses -- an operation was called outside its
  contract.  These are user errors, not bugs.
* ``TheoremViolation`` -- a mathematically guaranteed postcondition failed.
  That can only mean an implementation bug and is treated as fatal (the CLI
  maps it to its own exit code so CI never swallows it).
"""


class KellerlabError(Exception):
    """Base class for all library errors."""


class ParseError(KellerlabError):
    """Malformed expression or input text.

    ``offset`` is the 1-based character position of the problem when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at position {offset})"
        super().__init__(message)
        self.offset = offset


class BadVariable(ParseError):
    """Variable index outside the declared variable count."""


class DivisorNotUnit(ParseError):
    """Rational literal whose denominator is not invertible in the field."""


class PreconditionError(KellerlabError):
    """Base class for violated operation preconditions."""


class FieldMismatch(PreconditionError):
    """Operands live over different coefficient fields."""


class ArityMismatch(PreconditionError):
    """Dimension or variable-count mismatch between operands."""


class BadIndex(PreconditionError):
    """Variable index out of range."""


class NonSquare(PreconditionError):
    """A square matrix or map was required."""


class DependentInput(PreconditionError):
    """Input columns were required to be linearly independent."""


class SingularMatrix(PreconditionError):
    """A matrix inverse was requested for a singular matrix."""


class NotHomogeneous(PreconditionError):
    """A homogeneous polynomial was required."""


class SingularLinearPart(PreconditionError):
    """The Jacobian at the origin is singular, so the map cannot be inverted."""


class NotNormalized(PreconditionError):
    """The map must have the form x + H with H of order at least 2."""


class NotInvertibleUpToBound(PreconditionError):
    """No polynomial inverse was found within the degree bound."""


class NotStrictlyLowerTriangular(PreconditionError):
    """The matrix must be strictly lower triangular."""


class DependenceViolation(PreconditionError):
    """A component depends on a variable it must not involve."""


class BadSubInverse(PreconditionError):
    """The supplied partial inverse fails its own composition check."""


class InconsistentReduction(PreconditionError):
    """The paired map does not agree with the conjugated map."""


class ZeroDirection(PreconditionError):
    """The direction vector of a line must be nonzero."""


class PreconditionFailed(PreconditionError):
    """A named theorem hypothesis does not hold for the given data."""


class BudgetExceeded(PreconditionError):
    """An exhaustive search would exceed the configured budget; ``what``
    names the units of work that ``required`` counts."""

    def __init__(self, budget, required, what="point evaluations"):
        super().__init__(f"search requires {required} {what}, budget is {budget}")
        self.budget = budget
        self.required = required


class TheoremViolation(KellerlabError):
    """A guaranteed conclusion failed: this signals an implementation bug."""
