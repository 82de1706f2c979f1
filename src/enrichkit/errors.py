"""Exception types shared across the kernel.

Axiom violations are never raised: checkers collect them as witnesses in a
CheckReport.  Exceptions are reserved for malformed input, broken
preconditions, and engine-level disagreements.
"""


class KernelError(Exception):
    """Base class for every error raised by this package.  ``report`` holds
    the failing CheckReport behind the error, or None."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CompositionUndefined(KernelError):
    """Requested composite has mismatched endpoints or no table entry."""


class MalformedTable(KernelError):
    """A table is missing required entries or references unknown ids."""


class IndexOutOfRange(KernelError):
    """A tensor/associator/interchange index falls outside the valid range."""


class UnknownObject(KernelError):
    pass


class UnknownMorphism(KernelError):
    pass


class NotParallel(KernelError):
    """Two functors/transformations do not share source and target."""


class NotComposable(KernelError):
    """Cell frames do not line up for the requested composition."""


class NotSymmetric(KernelError):
    """Symmetric-monoidal input data failed its coherence checks."""


class NotPreorder(KernelError):
    """Relation is not reflexive and transitive."""


class BudgetExhausted(KernelError):
    """Rejection sampling hit its attempt cap without a valid candidate."""


class AgreementFailure(KernelError):
    """Two definitions of the same operation produced different tables.

    On valid input this is an engine bug; on invalid input, a diagnostic.
    """


class InvalidPasting(KernelError):
    """Cells handed to the exchange suite do not form a valid pasting."""


class BaseInvalid(KernelError):
    """The underlying tensor structure failed its checker."""


class SourceTargetInvalid(KernelError):
    """Source or target of a functor/transformation failed its checker."""


class LowerLevelInvalid(KernelError):
    """A constituent structure one level down failed its checker."""


class ParseError(KernelError):
    """Input document is not well-formed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class DanglingReference(KernelError):
    """A document references a name that is never defined."""


class ConstructionFailed(KernelError):
    """A CLI construction produced a structure that failed validation."""
