"""Existential rules, rulesets and knowledge bases with derived metadata."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ChaseError, EmptyBodyError, EmptyHeadError
from .terms import (
    Atom,
    InitialNull,
    Null,
    Substitution,
    Variable,
    constants_of,
    nulls_of,
    sorted_atoms,
    term_sort_key,
    variables_of,
)


@dataclass(frozen=True)
class Rule:
    """A rule (B, H); frontier and existential variables are derived fields."""

    rule_id: str
    body: frozenset
    head: frozenset
    frontier: frozenset
    existentials: frozenset
    # Fixed ordering of the frontier (sorted by name); frontier keys rely on it.
    frontier_order: tuple[Variable, ...]
    body_vars: frozenset = frozenset()

    @property
    def is_datalog(self) -> bool:
        return not self.existentials

    def __str__(self) -> str:
        b = ", ".join(str(a) for a in sorted_atoms(self.body))
        h = ", ".join(str(a) for a in sorted_atoms(self.head))
        return f"[{self.rule_id}] {b} -> {h}."

    @cached_property
    def join(self) -> "BodyJoin":
        return BodyJoin(self)


class BodyJoin:
    """A rule body compiled for joins that bind slots, not dicts.

    The body atoms are in atom_sort_key order, with their predicate keys.
    Slot i holds the image of ``variables[i]``; the variables are in
    term_sort_key order, the order of ``Substitution._key``, so the image
    tuples of one rule compare as their triggers do (``image_key``).  Body
    constants sit in the slots after the variables.  For each join order a
    plan says, per body atom and argument, which slot it must equal (a
    constant or a variable bound earlier), which slot it binds, and which slot
    bound by the same atom it must equal.  Head templates (slot numbers, head
    constants after the variables) and frontier slots let the engine check the
    so and datalog-r conditions on an image tuple (``frontier_image``,
    ``frontier_key``, ``head_within``).
    """

    __slots__ = ("body", "keys", "variables", "_slots", "_head", "_head_terms",
                 "_frontier", "frontier_key", "_plans")

    def __init__(self, rule: Rule):
        self.body = tuple(sorted_atoms(rule.body))
        self.keys = tuple((a.predicate, len(a.args)) for a in self.body)
        self.variables = tuple(sorted(rule.body_vars, key=term_sort_key))
        consts = sorted(constants_of(rule.body), key=term_sort_key)
        self._slots = list(self.variables) + consts
        head = sorted_atoms(rule.head)
        self._head_terms = tuple(sorted({t for a in head for t in a.args} - rule.body_vars,
                                        key=term_sort_key))
        slot = {t: i for i, t in enumerate(self.variables + self._head_terms)}
        self._head = tuple((a.predicate, tuple(slot[t] for t in a.args)) for a in head)
        self._frontier = tuple(slot[v] for v in rule.frontier_order)
        # Equal for two image tuples iff their frontier images are; an
        # itemgetter (a bare term for one slot) where there is a frontier.
        self.frontier_key = itemgetter(*self._frontier) if self._frontier else _no_frontier
        self._plans: dict = {}

    def _plan(self, order: tuple) -> tuple:
        plan = self._plans.get(order)
        if plan is None:
            slot = {t: i for i, t in enumerate(self._slots)}
            bound = set(range(len(self.variables), len(self._slots)))
            plan = []
            for pos in order:
                tests, binds, repeats = [], [], []
                here: set = set()
                for i, t in enumerate(self.body[pos].args):
                    s = slot[t]
                    if s in bound:
                        tests.append((i, s))
                    elif s in here:
                        repeats.append((i, s))
                    else:
                        binds.append((i, s))
                        here.add(s)
                bound |= here
                plan.append((pos, tuple(tests), tuple(binds), tuple(repeats)))
            plan = self._plans[order] = tuple(plan)
        return plan

    def matches(self, lists: Sequence[Sequence[Atom]], out: list) -> None:
        """Append to ``out`` the image tuple of every match of ``body[i]``
        onto an atom of ``lists[i]`` for all i, shortest list joined first."""
        if not all(lists):
            return
        order = tuple(sorted(range(len(lists)), key=lambda i: len(lists[i])))
        slots = list(self._slots)
        _join(self._plan(order), 0, lists, slots, len(self.variables), out)

    def image_key(self, images: tuple) -> tuple:
        return tuple(map(term_sort_key, images))

    def substitution(self, images: tuple) -> Substitution:
        return Substitution(zip(self.variables, images))

    def frontier_image(self, images: tuple) -> tuple:
        """``engine.frontier_image`` of the trigger with these images."""
        return tuple(images[s] for s in self._frontier)

    def head_within(self, images: tuple, atoms: frozenset) -> bool:
        """Whether the head under the image tuple lies in ``atoms``; for a
        datalog rule, whose head variables all have images."""
        terms = (images + self._head_terms).__getitem__
        for p, args in self._head:
            if Atom(p, tuple(map(terms, args))) not in atoms:
                return False
        return True


def _no_frontier(images: tuple) -> tuple:
    return ()


def _join(plan: tuple, depth: int, lists: Sequence[Sequence[Atom]], slots: list,
          n: int, out: list) -> None:
    # A slot is bound by one plan step only, so a failed match needs no undo:
    # the next candidate atom overwrites what this one bound.
    pos, tests, binds, repeats = plan[depth]
    leaf = depth + 1 == len(plan)
    for a in lists[pos]:
        args = a.args
        for i, s in tests:
            if args[i] != slots[s]:
                break
        else:
            for i, s in binds:
                slots[s] = args[i]
            for i, s in repeats:
                if args[i] != slots[s]:
                    break
            else:
                if leaf:
                    out.append(tuple(slots[:n]))
                else:
                    _join(plan, depth + 1, lists, slots, n, out)


def derive_rule_metadata(rule_id: str, body: Iterable[Atom], head: Iterable[Atom]) -> Rule:
    """Build a Rule, computing frontier = vars(B) ∩ vars(H) and
    existentials = vars(H) \\ vars(B)."""
    body = frozenset(body)
    head = frozenset(head)
    if not body:
        raise EmptyBodyError(f"rule {rule_id}: empty body")
    if not head:
        raise EmptyHeadError(f"rule {rule_id}: empty head")
    if nulls_of(body) or nulls_of(head):
        raise ChaseError(f"rule {rule_id}: rules must not contain nulls")
    body_vars = variables_of(body)
    head_vars = variables_of(head)
    frontier = body_vars & head_vars
    existentials = head_vars - body_vars
    order = tuple(sorted(frontier, key=lambda v: v.name))
    return Rule(rule_id, body, head, frontier, existentials, order, body_vars)


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


@dataclass(frozen=True)
class KnowledgeBase:
    factbase: frozenset
    ruleset: RuleSet


@dataclass(frozen=True)
class Diagnostic:
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
            elif isinstance(t, Null) and not isinstance(t.provenance, InitialNull):
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
