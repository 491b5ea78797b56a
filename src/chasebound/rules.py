"""Existential rules, rulesets and knowledge bases with derived metadata.

Each rule compiles its own body once, when it is built, into the
homomorphism matcher (``Rule.join``, a ``homomorphism.Join``), together with
the head templates, the compiled head and the frontier slots the engine's so
and r checks read.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import ChaseError, EmptyBodyError, EmptyHeadError
from .homomorphism import Join
from .terms import (
    Atom,
    Null,
    Variable,
    constants_of,
    nulls_of,
    sorted_atoms,
    term_sort_key,
    variables_of,
)


class Rule:
    """A rule (B, H).  Building one checks it, derives the frontier
    vars(B) ∩ vars(H) (``frontier_order`` sorts it by name; frontier keys rely
    on that order), the existentials vars(H) \\ vars(B) and vars(B), and
    compiles the body once as ``join``.  Equality, hashing and pickles use
    the id, body and head alone, so unpickling compiles the join again."""

    __slots__ = ("rule_id", "body", "head", "frontier", "existentials",
                 "frontier_order", "body_vars", "join")

    def __init__(self, rule_id: str, body: Iterable[Atom], head: Iterable[Atom]):
        body = frozenset(body)
        head = frozenset(head)
        if not body:
            raise EmptyBodyError(f"rule {rule_id}: empty body")
        if not head:
            raise EmptyHeadError(f"rule {rule_id}: empty head")
        if nulls_of(body) or nulls_of(head):
            raise ChaseError(f"rule {rule_id}: rules must not contain nulls")
        self.rule_id, self.body, self.head = rule_id, body, head
        self.body_vars = variables_of(body)
        head_vars = variables_of(head)
        self.frontier = self.body_vars & head_vars
        self.existentials = head_vars - self.body_vars
        self.frontier_order = tuple(sorted(self.frontier, key=lambda v: v.name))
        self.join = BodyJoin(self)

    def __reduce__(self):
        return (Rule, (self.rule_id, self.body, self.head))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rule) and (self.rule_id, self.body, self.head) == \
            (other.rule_id, other.body, other.head)

    def __hash__(self) -> int:
        return hash((self.rule_id, self.body, self.head))

    @property
    def is_datalog(self) -> bool:
        return not self.existentials

    def __str__(self) -> str:
        """The rule in source syntax, with its id."""
        b = ", ".join(str(a) for a in sorted_atoms(self.body))
        h = ", ".join(str(a) for a in sorted_atoms(self.head))
        return f"[{self.rule_id}] {b} -> {h}."

    def __repr__(self) -> str:
        return f"Rule({self})"


class BodyJoin(Join):
    """A rule body compiled as a ``Join``, with the rule's head templates and
    frontier slots.

    The body variables are the movable terms, so the image tuples of one
    rule compare as its triggers do; body constants are fixed.
    ``frontier_image`` reads an image tuple's frontier image.  Each head
    template is a predicate with slot numbers into the frontier image
    followed by ``head_terms`` (the existential variables and head
    constants), so the engine fills in a trigger's head from its frontier
    image alone.  An existential rule's head is also compiled as
    ``head_join``, a ``Join`` whose params are the frontier variables in
    ``frontier_order``: the restricted check fills them with a frontier image
    and searches the factbase for the existential variables' images.
    """

    __slots__ = ("head", "head_terms", "head_join", "frontier_image")

    def __init__(self, rule: Rule):
        super().__init__(rule.body)
        head = sorted_atoms(rule.head)
        self.head_terms = tuple(sorted({t for a in head for t in a.args} - rule.frontier,
                                       key=term_sort_key))
        slot = {t: i for i, t in enumerate(rule.frontier_order + self.head_terms)}
        self.head = tuple((a.predicate, tuple(slot[t] for t in a.args)) for a in head)
        self.head_join = Join(head, params=rule.frontier_order) \
            if rule.existentials else None
        frontier = [self.movable.index(v) for v in rule.frontier_order]
        # ``engine.frontier_image`` of an image tuple's trigger.  An
        # itemgetter of one index returns a bare item, not a tuple, so fewer
        # than two slots are read as one slice.
        if len(frontier) < 2:
            frontier = [slice(frontier[0], frontier[0] + 1) if frontier else slice(0)]
        self.frontier_image = itemgetter(*frontier)


class RuleSet:
    """Ordered collection of rules plus derived vocabulary statistics."""

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(rules)
        ids = [r.rule_id for r in self.rules]
        if len(ids) != len(set(ids)):
            raise ChaseError("duplicate rule ids in ruleset")
        self._by_id = {r.rule_id: r for r in self.rules}
        self._index = {r.rule_id: i for i, r in enumerate(self.rules)}
        # b >= 1 even for an empty ruleset so size bounds stay well defined.
        self.b: int = max((len(r.body) for r in self.rules), default=1)
        self.body_predicates: frozenset = frozenset(
            a.predicate for r in self.rules for a in r.body)
        self.rule_constants: frozenset = frozenset(
            c for r in self.rules for c in constants_of(r.body) | constants_of(r.head))
        self.is_datalog: bool = all(r.is_datalog for r in self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, rule_id: str) -> Rule:
        return self._by_id[rule_id]

    def index_of(self, rule_id: str) -> int:
        return self._index[rule_id]

    def arities(self) -> dict[str, int]:
        """First-seen arity per predicate over all rule atoms."""
        seen: dict[str, int] = {}
        for r in self.rules:
            for a in sorted_atoms(r.body) + sorted_atoms(r.head):
                seen.setdefault(a.predicate, a.arity)
        return seen


class KnowledgeBase(NamedTuple):
    factbase: frozenset
    ruleset: RuleSet


class Diagnostic(NamedTuple):
    severity: str  # "error" | "info"
    message: str
    line: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        loc = f"{self.line}:{self.column}: " if self.line is not None else ""
        return f"{loc}{self.severity}: {self.message}"


def validate_kb(kb: KnowledgeBase) -> list[Diagnostic]:
    """Structural diagnostics; an empty list means the KB is well formed."""
    out: list[Diagnostic] = []
    arity: dict[str, int] = {}

    def check_atom(a: Atom, where: str) -> None:
        known = arity.setdefault(a.predicate, a.arity)
        if known != a.arity:
            out.append(Diagnostic(
                "error",
                f"predicate {a.predicate} used with arity {a.arity} in {where} "
                f"but with arity {known} elsewhere"))

    for r in kb.ruleset:
        for a in sorted_atoms(r.body) + sorted_atoms(r.head):
            check_atom(a, f"rule {r.rule_id}")
    for a in sorted_atoms(kb.factbase):
        check_atom(a, "factbase")
        for t in a.args:
            if isinstance(t, Variable):
                out.append(Diagnostic(
                    "error", f"factbase atom {a} contains a variable; "
                             f"use an initial null (_:name) instead"))
            elif isinstance(t, Null) and t.label is None:
                out.append(Diagnostic(
                    "error", f"factbase atom {a} contains a non-initial null"))

    seen_names: dict[str, str] = {}
    for r in kb.ruleset:
        for v in sorted(variables_of(r.body | r.head), key=lambda v: v.name):
            if v.name in seen_names and seen_names[v.name] != r.rule_id:
                out.append(Diagnostic(
                    "info",
                    f"variable {v.name} reused by rules {seen_names[v.name]} "
                    f"and {r.rule_id}; namespaces are kept disjoint internally"))
            else:
                seen_names.setdefault(v.name, r.rule_id)
    return out
