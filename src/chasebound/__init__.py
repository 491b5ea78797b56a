"""Chase engine for existential rules and a k-boundedness decision procedure.

Implements the oblivious, semi-oblivious, restricted and equivalent chase
variants with full rank/ancestor bookkeeping, restriction and breadth-first
completion of derivations, and a sound-and-complete decider for k-boundedness
under the oblivious, semi-oblivious and restricted chases with witness
extraction.
"""

from .boundedness import (
    BoundednessVerdict,
    BoundedQuery,
    Witness,
    check_k_bounded,
    enumerate_representative_factbases,
    shrink_witness,
)
from .budget import Budget
from .dot import export_dot
from .engine import (
    ChaseResult,
    ChaseVariant,
    Derivation,
    DerivationStep,
    HaltReason,
    Trigger,
    VerifyReport,
    breadth_first_completion,
    enumerate_breadth_first_derivations,
    is_applicable,
    rank_triggers,
    restrict,
    run_breadth_first,
    safe_extension,
    verify_derivation,
)
from .errors import (
    BudgetExceededError,
    ChaseError,
    KeepNotSubsetError,
    NotApplicableError,
    ReplayFailureError,
    UnknownTargetError,
    UnknownTriggerError,
    VariantUnsupportedError,
    VersionMismatchError,
)
from .homomorphism import all_homomorphisms, canonical_form, find_homomorphism
from .parser import ParseResult, parse_atom, parse_kb, parse_term, serialize_kb
from .rules import (
    Diagnostic,
    KnowledgeBase,
    Rule,
    RuleSet,
    validate_kb,
)
from .terms import (
    Atom,
    Constant,
    Null,
    Substitution,
    Term,
    Variable,
    atom,
)
from .trace import deserialize_trace, serialize_trace, serialize_witness

__all__ = [name for name in dir() if not name.startswith("_")]
