"""Exception types shared across the package."""

from __future__ import annotations


class ChaseError(Exception):
    """Base class for all errors raised by this package."""


class EmptyBodyError(ChaseError):
    pass


class EmptyHeadError(ChaseError):
    pass


class UnknownTriggerError(ChaseError):
    """The substitution is not a homomorphism of the rule body into the factbase."""


class NotApplicableError(ChaseError):
    """Attempt to extend a derivation with a trigger the variant filters out."""


class KeepNotSubsetError(ChaseError):
    """restrict() called with atoms that are not part of the initial factbase."""


class UnknownTargetError(ChaseError):
    """Ancestor lookup for an atom or trigger that does not occur in the derivation."""


class VariantUnsupportedError(ChaseError):
    """Operation not defined for this chase variant (typically the equivalent chase)."""


class BudgetExceededError(ChaseError):
    """A search ran out of its time or size budget.

    Carries whatever partial counters were accumulated so callers can report
    progress; a verdict is deliberately withheld.
    """

    def __init__(self, message: str, *, steps: int = 0, items: int = 0,
                 elapsed_ms: float = 0.0):
        super().__init__(message)
        self.steps = steps
        self.items = items
        self.elapsed_ms = elapsed_ms


class VersionMismatchError(ChaseError):
    pass


class ReplayFailureError(ChaseError):
    """A trace does not replay to the derivation it claims to describe."""


class InternalVerificationError(ChaseError):
    """An internal certificate check failed; indicates a bug, not bad input."""
