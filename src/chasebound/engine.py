"""Triggers, derivations and the four chase variants.

A Derivation owns its containers outright: the factbase, the step log, the
atom-to-step map, the applied triggers, the frontier images seen and the null
names.  The private ``_apply`` grows them in place by one step, at the cost
of that step's own atoms; the engine's loops that hand out no intermediate
derivation (the runner, the single-order derivation search, restriction,
completion, verification and trace replay) grow one derivation that way.
The public ``extend`` is pure: it copies the containers, index lists
included, and applies the step to the copy, so the receiver never changes
and no two derivations share a container.  The branching search, which
keeps several derivations alive, uses it.
Atom ranks are fixed at first production; depth is the maximal atom rank, so
a datalog step whose products already exist never increases depth.  The
factbase is an ``IndexedAtoms``, whose one index files each atom by
predicate, by (predicate, rank) and by argument position: a step appends its
new atoms to the lists at their rank, so homomorphism searches against it
never re-index, the restricted chase's check looks only at the atoms that
share a frontier image, and the rank join reads the rank lists.

A trigger's rank is 1 + the maximal rank of its body atoms, so the triggers of
rank κ are the body matches onto atoms of rank <= κ-1 that use at least one
atom of rank κ-1: the semi-naive delta, read from the rank-(κ-1) buckets.
Rank is structural, so one rank join serves every variant and every path.  It
runs each rule's compiled body (``Rule.join``, a ``homomorphism.Join``: the
matcher every homomorphism search runs on), which yields image tuples;
``rank_triggers`` turns them all into triggers.  A rank's candidate stays a
trigger of every later derivation (factbases only grow), so the engine's own
loops check its applicability without re-checking that its body embeds;
``is_applicable`` keeps that check for triggers from outside.

For the oblivious, semi-oblivious and restricted chases non-applicability is
monotone: a trigger that is not applicable stays so as the derivation grows.
So once a rank is exhausted no lower rank needs another look, one forward pass
over a rank's candidates applies all it can, and a candidate that is not
applicable when its rank opens can be dropped before it becomes a trigger.
The so and r conditions depend on a trigger's frontier image alone, so one
check (``_frontier_open``) decides them once per distinct frontier image, on
the rule's compiled head with that image filled in; no null is minted for a
trigger that is never applied.  The equivalent chase is not monotone (a
trigger can wake up again), so it keeps every unapplied candidate, looks at
every rank and rescans a rank's candidates from the start after each step.
One loop (``_grow``) applies a rank's candidates along one order, in place:
it is the runner, and the derivation search wherever one order suffices.

Null naming follows the derivation's variant: trigger-keyed nulls for the
oblivious/restricted/equivalent chases, frontier-keyed nulls for the
semi-oblivious chase (frontier-equal triggers then produce identical atoms).
A replay of a derivation therefore starts from that derivation's variant,
whatever variant's applicability condition it checks.  ``safe_extension`` is
the one place generated nulls are made.  A generated null's own printed form
is a per-process debug name; traces, DOT output, witnesses and diagnostics
print it by a derivation-local name instead (``Derivation.null_names``).
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .budget import Budget
from .errors import (
    ChaseError,
    KeepNotSubsetError,
    NotApplicableError,
    UnknownTargetError,
    UnknownTriggerError,
    VariantUnsupportedError,
)
# ``all_homomorphisms`` is unused here; perfbench/layers.py needs the binding.
from .homomorphism import IndexedAtoms, all_homomorphisms, find_homomorphism  # noqa: F401
from .rules import KnowledgeBase, Rule, RuleSet
from .terms import Atom, Null, Substitution


class ChaseVariant(str, Enum):
    OBLIVIOUS = "o"
    SEMI_OBLIVIOUS = "so"
    RESTRICTED = "r"
    EQUIVALENT = "e"


# What keys each variant's generated nulls (``safe_extension``), as traces record it.
NAMING_MODE = {v: "frontier" if v is ChaseVariant.SEMI_OBLIVIOUS else "trigger"
               for v in ChaseVariant}


class HaltReason(str, Enum):
    TERMINATED = "terminated"
    DEPTH_CAP = "depth_cap"
    STEP_CAP = "step_cap"


class Trigger(NamedTuple):
    rule_id: str
    pi: Substitution

    def __str__(self) -> str:
        return f"({self.rule_id},{self.pi})"


def trigger_sort_key(rs: RuleSet, t: Trigger) -> tuple:
    return rs.index_of(t.rule_id), t.pi.sort_key()


def frontier_image(rule: Rule, pi: Substitution) -> tuple:
    return tuple(pi.apply_term(v) for v in rule.frontier_order)


def safe_extension(trigger: Trigger, rule: Rule, variant: ChaseVariant) -> Substitution:
    """Extend the trigger's substitution, mapping each existential variable to
    a deterministic fresh null keyed by the trigger, or by its frontier image
    for a semi-oblivious derivation.  A datalog rule has no existential
    variable: its substitution is returned as it is."""
    if rule.is_datalog:
        return trigger.pi
    frontier = NAMING_MODE[variant] == "frontier"
    if frontier:
        inner = frontier_image(rule, trigger.pi)
    else:
        inner = tuple(sorted((v.name, t) for v, t in trigger.pi.items()))
    fresh = {z: Null.generated(rule.rule_id, z.name, frontier, inner)
             for z in sorted(rule.existentials, key=lambda v: v.name)}
    return trigger.pi.extended(fresh)


def name_new_nulls(names: dict, step_no: int, produced: frozenset) -> None:
    """Add to ``names`` each null that first appears in step ``step_no``'s
    produced atoms, as ``_:<existential variable>@<step_no>``.  Such a null
    is one of the step's fresh nulls (every other term of a produced atom is
    already in the factbase), so the names of one step are distinct."""
    for a in produced:
        for t in a.args:
            if type(t) is Null and t not in names:
                names[t] = f"_:{t.exvar}@{step_no}"


def show_atom(a: Atom, names: dict) -> str:
    """``a`` printed with the null names of ``names``."""
    return f"{a.predicate}({','.join(names.get(t) or str(t) for t in a.args)})"


class DerivationStep(NamedTuple):
    trigger: Trigger
    produced: frozenset  # genuinely new atoms only (may be empty)
    resulting_factbase_size: int
    trigger_rank: int


class Derivation:
    """One chase derivation: the initial factbase and the step log.

    Everything else is read off the steps: each produced atom maps to the
    step that produced it, so its rank is that step's trigger rank and its
    direct ancestors are that trigger's body image; initial atoms have rank 0
    and no ancestors.  Nulls are keyed by the variant (``safe_extension``).
    The factbase (indexed by predicate, rank and argument position), the
    depth, the applied triggers and the frontier images seen are kept as
    indexes for trigger enumeration and the applicability checks.  The
    instance owns every container it is given (module docstring).
    """

    __slots__ = ("variant", "ruleset", "initial", "steps", "factbase",
                 "_step_of", "_depth", "applied", "_frontier_seen", "_null_names")

    def __init__(self, variant: ChaseVariant, ruleset: RuleSet, initial: frozenset,
                 steps: list, factbase: IndexedAtoms, step_of: dict, depth: int,
                 applied: set, frontier_seen: set):
        self.variant = variant
        self.ruleset = ruleset
        self.initial = initial
        self.steps = steps
        self.factbase = factbase
        self._step_of = step_of
        self._depth = depth
        self.applied = applied
        self._frontier_seen = frontier_seen
        self._null_names = None

    @classmethod
    def start(cls, variant: ChaseVariant, kb: KnowledgeBase) -> "Derivation":
        initial = frozenset(kb.factbase)
        return cls(variant, kb.ruleset, initial, [], IndexedAtoms(initial), {}, 0,
                   set(), set())

    # -- queries ----------------------------------------------------------

    def atom_rank(self, a: Atom) -> int:
        step = self._step_of.get(a)
        if step is not None:
            return step.trigger_rank
        if a in self.initial:
            return 0
        raise UnknownTargetError(f"atom {self.show(a)} does not occur in the derivation")

    def trigger_rank_of(self, trigger: Trigger) -> int:
        return 1 + max(map(self.atom_rank, self._checked_body(trigger)[1]))

    def depth(self) -> int:
        return self._depth

    def null_names(self) -> dict:
        """Printed name of every null in the derivation.

        A null of the initial factbase keeps its input form.  A generated
        null is named by the step whose produced atoms it first appears in
        and its existential variable: ``_:Y@17`` for the ``Y`` null of step
        17 (steps count from 1).  The names depend on the step log alone, so
        a prefix of a derivation names its nulls as the whole does, and
        ``@`` never occurs in an input label.
        """
        if self._null_names is None:
            names = {t: str(t) for a in self.initial for t in a.args
                     if type(t) is Null}
            for i, step in enumerate(self.steps, start=1):
                name_new_nulls(names, i, step.produced)
            self._null_names = names
        return self._null_names

    def show(self, x: Union[Atom, Trigger]) -> str:
        """An atom or trigger of the derivation printed with ``null_names``."""
        names = self.null_names()
        if isinstance(x, Trigger):
            pairs = ",".join(f"{v}:{names.get(t) or t}" for v, t in x.pi.items())
            return f"({x.rule_id},{{{pairs}}})"
        return show_atom(x, names)

    def triggers(self) -> tuple:
        return tuple(s.trigger for s in self.steps)

    def _parents(self, a: Atom) -> frozenset:
        step = self._step_of.get(a)
        return frozenset() if step is None else self._body_image(step.trigger)

    def ancestors(self, target: Union[Atom, Trigger]) -> frozenset:
        """Transitive closure of the direct-ancestor relation.

        For an atom the result excludes the atom itself (initial atoms have no
        ancestors); for a trigger it is the trigger's body image together with
        that image's ancestors, which is the atom set a restriction needs to
        replay the trigger.
        """
        if isinstance(target, Trigger):
            if target not in self.applied:
                raise UnknownTargetError(
                    f"trigger {self.show(target)} is not part of the derivation")
            base = self._body_image(target)
        else:
            if target not in self.factbase:
                raise UnknownTargetError(
                    f"atom {self.show(target)} does not occur in the derivation")
            base = self._parents(target)
        collected = set(base)
        frontier = list(base)
        while frontier:
            for p in self._parents(frontier.pop()):
                if p not in collected:
                    collected.add(p)
                    frontier.append(p)
        return frozenset(collected)

    def trigger_ancestors(self, target: Trigger) -> frozenset:
        """Direct-ancestor closure at the trigger level: the producers of the
        atoms in ``ancestors(target)``."""
        step_of = self._step_of
        return frozenset(step_of[a].trigger for a in self.ancestors(target)
                         if a in step_of)

    def _rule(self, trigger: Trigger) -> Rule:
        try:
            return self.ruleset[trigger.rule_id]
        except KeyError:
            raise UnknownTriggerError(f"unknown rule id {trigger.rule_id}")

    def _body_image(self, trigger: Trigger) -> frozenset:
        return trigger.pi.apply(self._rule(trigger).body)

    def _checked_body(self, trigger: Trigger) -> tuple[Rule, frozenset]:
        """The trigger's rule and body image; UnknownTriggerError unless the
        trigger is a trigger of this derivation: a known rule, a substitution
        whose domain is vars(body), and a body image inside the factbase."""
        rule = self._rule(trigger)
        if trigger.pi.domain() != rule.body_vars:
            raise UnknownTriggerError(
                f"substitution domain differs from vars(body) for rule {rule.rule_id}")
        image = trigger.pi.apply(rule.body)
        if not image <= self.factbase:
            raise UnknownTriggerError(
                f"trigger {self.show(trigger)} body does not embed into the factbase")
        return rule, image

    # -- construction ------------------------------------------------------

    def extend(self, trigger: Trigger, check: bool = True) -> "Derivation":
        """A new derivation: this one plus one immediate derivation step.
        This one is left as it is.

        With ``check`` the variant's applicability condition is enforced
        (NotApplicableError otherwise); restriction replay disables it because
        a restriction is a plain derivation that may violate the condition.
        """
        if check and not is_applicable(self.variant, self, trigger):
            raise NotApplicableError(f"trigger {self.show(trigger)} is not "
                                     f"{self.variant.value}-applicable")
        d = Derivation(self.variant, self.ruleset, self.initial, list(self.steps),
                       self.factbase.copy(), dict(self._step_of), self._depth,
                       set(self.applied), set(self._frontier_seen))
        if self._null_names is not None:
            d._null_names = dict(self._null_names)
        d._apply(trigger)
        return d

    def _apply(self, trigger: Trigger) -> DerivationStep:
        """Append one immediate derivation step in place, without the
        applicability check, and return it.  UnknownTriggerError or
        NotApplicableError (an applied trigger) leave the derivation as it
        is."""
        rule, body_image = self._checked_body(trigger)
        if trigger in self.applied:
            raise NotApplicableError(f"trigger {self.show(trigger)} already applied")
        head = safe_extension(trigger, rule, self.variant).apply(rule.head)
        produced = head - self.factbase
        trank = 1 + max(map(self.atom_rank, body_image))
        self.factbase.grow(produced, trank)
        step = DerivationStep(trigger, produced, len(self.factbase), trank)
        self.steps.append(step)
        self._step_of.update(dict.fromkeys(produced, step))
        if produced:
            self._depth = max(self._depth, trank)
        self.applied.add(trigger)
        self._frontier_seen.add((rule.rule_id, frontier_image(rule, trigger.pi)))
        if self._null_names is not None:
            name_new_nulls(self._null_names, len(self.steps), produced)
        return step


# -- trigger enumeration and applicability ---------------------------------


def _rank_images(d: Derivation, kappa: int) -> Iterator[tuple[Rule, list[tuple]]]:
    """Per rule, in ruleset order, the image tuples (``Rule.join`` slots) of
    its triggers of rank ``kappa``, applied or not, in no particular order.

    Semi-naive join: the body maps onto atoms of rank <= κ-1 and at least one
    body atom onto an atom of rank κ-1.  Each match is produced once, keyed by
    the first body position (in atom_sort_key order) bound to a rank-(κ-1)
    atom: earlier positions take atoms of rank < κ-1, later ones any atom of
    rank <= κ-1.  The delta is a rank bucket; the lower-rank lists are built
    only for the positions that need them, and once every atom has rank < r a
    predicate's whole bucket is its list of atoms of rank < r.
    """
    last = kappa - 1
    index = d.factbase.index
    built: dict = {}

    def below(key: tuple[str, int], r: int) -> list:
        # The atoms of one predicate with rank < r.
        if r > d._depth:
            return index.get(key, [])
        if (key, r) not in built:
            built[key, r] = [a for q in range(r) for a in index.get((key, q), ())]
        return built[key, r]

    for rule in d.ruleset:
        join = rule.join
        keys = join.keys
        images: list[tuple] = []
        for i, key in enumerate(keys):
            delta = index.get((key, last))
            if delta:
                join.matches([below(k, last) for k in keys[:i]] + [delta] +
                             [below(k, kappa) for k in keys[i + 1:]], images)
        if images:
            yield rule, images


def _triggers(rule: Rule, images: list[tuple]) -> list[Trigger]:
    """The triggers of one rule's image tuples, sorted by trigger_sort_key."""
    join = rule.join
    return [Trigger(rule.rule_id, join.substitution(im))
            for im in sorted(images, key=join.image_key)]


def rank_triggers(d: Derivation, kappa: int) -> list[Trigger]:
    """Every trigger of rank ``kappa`` on the derivation, applied or not,
    sorted by trigger_sort_key."""
    return [t for rule, images in _rank_images(d, kappa)
            for t in _triggers(rule, images)]


def _open_triggers(variant: ChaseVariant, d: Derivation, kappa: int,
                   keep_all: bool = False) -> list[Trigger]:
    """The unapplied triggers of rank ``kappa``, sorted by trigger_sort_key.

    For o/so/r only those applicable on ``d``, unless ``keep_all``: by
    monotonicity the others never become applicable as ``d`` grows, so a
    pass over a rank opened on ``d`` would skip them anyway.  Callers still
    check each one when they pick it.  The so and r conditions depend on the
    frontier image alone, so ``_frontier_open`` runs once per distinct
    frontier image, before any trigger is built.  The equivalent chase keeps
    every unapplied trigger: its triggers can wake up again.
    """
    out: list[Trigger] = []
    for rule, images in _rank_images(d, kappa):
        if keep_all or variant in (ChaseVariant.OBLIVIOUS, ChaseVariant.EQUIVALENT):
            # Being applied is all that makes an o trigger inapplicable.
            out += [t for t in _triggers(rule, images) if t not in d.applied]
            continue
        frontiers = list(map(rule.join.frontier_image, images))
        opened = {f for f in set(frontiers) if _frontier_open(variant, d, rule, f)}
        out += _triggers(rule, [im for f, im in zip(frontiers, images) if f in opened])
    return out


def _next_applicable(variant: ChaseVariant, d: Derivation,
                     candidates: list[Trigger], start: int = 0) -> Optional[int]:
    """Position of the first unapplied applicable candidate at or after
    ``start``.  The equivalent chase always scans from 0: its triggers can
    wake up again."""
    if variant is ChaseVariant.EQUIVALENT:
        start = 0
    return next((i for i in range(start, len(candidates))
                 if _applicable(variant, d, candidates[i])), None)


def is_applicable(variant: ChaseVariant, derivation: Derivation,
                  trigger: Trigger) -> bool:
    """Definition of O/SO/R/E-applicability of a trigger on a derivation.

    Raises UnknownTriggerError when the substitution is not a homomorphism of
    the rule body into the current factbase; returns False for a trigger the
    derivation already contains (it cannot extend the derivation).
    """
    derivation._checked_body(trigger)
    return _applicable(variant, derivation, trigger)


def _applicable(variant: ChaseVariant, derivation: Derivation,
                trigger: Trigger) -> bool:
    """``is_applicable`` for a trigger known to be one of the derivation's:
    a candidate from ``rank_triggers`` on it or on a derivation it extends."""
    if trigger in derivation.applied:
        return False
    rule = derivation._rule(trigger)

    if variant is ChaseVariant.OBLIVIOUS:
        return True

    if variant is not ChaseVariant.EQUIVALENT:
        return _frontier_open(variant, derivation, rule, frontier_image(rule, trigger.pi))

    # Equivalent chase: the extension must not fold back onto the factbase.
    # All nulls (including the factbase's own) may move; constants may not.
    head = safe_extension(trigger, rule, derivation.variant).apply(rule.head)
    if head <= derivation.factbase:
        return False
    extended = derivation.factbase | head
    return find_homomorphism(extended, derivation.factbase) is None


def _frontier_open(variant: ChaseVariant, d: Derivation, rule: Rule,
                   frontier: tuple) -> bool:
    """Whether the triggers of ``rule`` with frontier image ``frontier`` are
    so- or r-applicable on ``d``; an applied trigger is not.

    A trigger is r-applicable unless its head has a homomorphism into the
    factbase that fixes the frontier image and moves only the fresh nulls.
    The check runs the rule's compiled head (``BodyJoin.head_join``) with
    the frontier image filled in and the existential variables movable, as
    the fresh nulls would be, up to its first match; no null is minted.  An
    applied frontier-equal trigger has put such a head image in the
    factbase, so it closes the r check at once; it is also the whole so
    condition.
    """
    if (rule.rule_id, frontier) in d._frontier_seen:
        return False
    if variant is ChaseVariant.SEMI_OBLIVIOUS:
        return True
    join = rule.join
    if rule.is_datalog:
        # The head is all fixed: a membership test per atom, stopping at the
        # first missing one, with no set built.
        terms = (frontier + join.head_terms).__getitem__
        for p, args in join.head:
            if Atom(p, tuple(map(terms, args))) not in d.factbase:
                return True
        return False
    return not join.head_join.search(d.factbase.index, frontier, first_only=True)


# -- restriction, verification, completion ----------------------------------


def restrict(derivation: Derivation, keep: frozenset) -> Derivation:
    """Restriction of the derivation induced by ``keep`` ⊆ initial.

    Greedy left-to-right replay: a trigger is retained iff its body embeds in
    the factbase grown from ``keep`` so far; retained triggers keep their
    relative order.  The result is a plain derivation; for the oblivious,
    semi-oblivious and restricted chases it is again a derivation of the same
    variant (heredity), for the equivalent chase it may not be.
    """
    keep = frozenset(keep)
    unknown = keep - derivation.initial
    if unknown:
        names = ", ".join(sorted(map(str, unknown)))
        raise KeepNotSubsetError(f"atoms not in the initial factbase: {names}")
    out = Derivation.start(derivation.variant, KnowledgeBase(keep, derivation.ruleset))
    for step in derivation.steps:
        if out._body_image(step.trigger) <= out.factbase:
            out._apply(step.trigger)
    return out


class VerifyReport(NamedTuple):
    is_valid_variant_derivation: bool
    is_rank_compatible: bool
    is_rank_exhaustive: bool
    is_terminating: bool
    first_violation: Optional[str] = None

    @property
    def is_breadth_first(self) -> bool:
        return self.is_rank_compatible and self.is_rank_exhaustive

    def all_ok(self) -> bool:
        return (self.is_valid_variant_derivation and self.is_rank_compatible
                and self.is_rank_exhaustive and self.is_terminating)


def _applicable_new_triggers(variant: ChaseVariant, d: Derivation,
                             ranks: Optional[Iterable[int]] = None
                             ) -> list[tuple[int, Trigger]]:
    """Every unapplied applicable trigger of ``ranks`` (by default, of any
    rank), with its rank, in trigger_sort_key order."""
    if ranks is None:
        ranks = range(1, d.depth() + 2)
    ranked = [(kappa, t) for kappa in ranks for t in _open_triggers(variant, d, kappa)]
    if variant is ChaseVariant.EQUIVALENT:
        ranked = [(kappa, t) for kappa, t in ranked if _applicable(variant, d, t)]
    ranked.sort(key=lambda p: trigger_sort_key(d.ruleset, p[1]))
    return ranked


def _rank_candidates(variant: ChaseVariant, d: Derivation,
                     keep_all: bool = False) -> tuple[Optional[int], list[Trigger]]:
    """Smallest trigger rank with an applicable trigger left, together with
    that rank's ``_open_triggers`` on ``d`` (with ``keep_all``), sorted
    canonically.  (None, []) when nothing is applicable at any rank.

    ``d`` must be a breadth-first derivation whose last rank is exhausted.
    For o/so/r every lower rank then stays exhausted, so the only rank to look
    at is the last step's rank + 1; the equivalent chase looks at every rank.
    """
    monotone = variant is not ChaseVariant.EQUIVALENT
    if monotone:
        last = d.steps[-1].trigger_rank if d.steps else 0
        ranks = range(last + 1, last + 2)
    else:
        ranks = range(1, d.depth() + 2)
    for kappa in ranks:
        group = _open_triggers(variant, d, kappa, keep_all)
        if (group if monotone and not keep_all
                else _next_applicable(variant, d, group) is not None):
            return kappa, group
    return None, []


def verify_derivation(variant: ChaseVariant, derivation: Derivation) -> VerifyReport:
    """Full replay re-checking applicability, rank compatibility, rank
    exhaustiveness at every last-step-of-rank boundary, and termination.

    A boundary is checked on the replay right before the next rank's first
    step.  While the replay is rank-compatible and the variant is o/so/r, the
    first violated boundary (last step of rank k) can only be violated by
    triggers of rank k: a violator of a lower rank j would, by monotonicity,
    already have violated boundary j.  So each boundary looks at rank k alone,
    and termination at the ranks from the first violated boundary's (or the
    last rank + 1) upwards.  Other replays scan every trigger.
    """
    monotone = variant is not ChaseVariant.EQUIVALENT
    applicability: Optional[str] = None  # the first violation of each kind
    ordering: Optional[str] = None
    exhaustion: Optional[tuple] = None  # boundary() at the first violated one
    last = 0  # the last replayed step's rank; 0 before the first step

    def boundary(prefix: Derivation, step_no: int) -> Optional[tuple]:
        # (step_no, k, rank, trigger): the first trigger of a rank other than
        # k + 1 still applicable after step ``step_no``, the last of rank k.
        k = last
        scan = [k] if monotone and ordering is None else None
        return next(((step_no, k, rank, t) for rank, t
                     in _applicable_new_triggers(variant, prefix, scan)
                     if rank != k + 1), None)

    # Each step is checked on the replay before it is applied to it.
    replay = Derivation.start(derivation.variant,
                              KnowledgeBase(derivation.initial, derivation.ruleset))
    for i, step in enumerate(derivation.steps):
        try:
            rank = replay.trigger_rank_of(step.trigger)
        except UnknownTriggerError as exc:
            return VerifyReport(False, False, False, False,
                                f"step {i + 1}: {exc}")
        if applicability is None and not _applicable(variant, replay, step.trigger):
            applicability = (f"step {i + 1}: trigger {derivation.show(step.trigger)} "
                             f"is not {variant.value}-applicable")
        if last and rank != last and exhaustion is None:
            exhaustion = boundary(replay, i)
        if rank < last and ordering is None:
            ordering = f"step {i + 1}: trigger rank {rank} after rank {last}"
        last = rank
        replay._apply(step.trigger)
    if last and exhaustion is None:
        exhaustion = boundary(replay, len(derivation.steps))

    start = exhaustion[1] if exhaustion else last + 1
    terminating = not _applicable_new_triggers(
        variant, replay, range(start, last + 2) if monotone and ordering is None else None)
    violation = applicability or ordering
    if violation is None and exhaustion:
        step_no, k, rank, t = exhaustion
        violation = (f"after step {step_no} (last of rank {k}): trigger "
                     f"{derivation.show(t)} of rank {rank} is still "
                     f"{variant.value}-applicable")
    return VerifyReport(applicability is None, ordering is None, exhaustion is None,
                        terminating, violation)


def breadth_first_completion(variant: ChaseVariant, restricted: Derivation) -> Derivation:
    """Breadth-first completion of a restriction of a breadth-first derivation.

    Rank by rank: replay the retained triggers of that rank that are still
    applicable, then append every other applicable trigger of that rank in
    deterministic order.  For the oblivious, semi-oblivious and restricted
    chases the result is a breadth-first derivation containing every retained
    trigger with its rank unchanged; the retained triggers appear rank-sorted,
    which is the restriction's own order whenever that order is
    rank-compatible.  (It need not be: a restriction that re-derives a dropped
    initial atom can shift ranks non-uniformly.)
    """
    if variant is ChaseVariant.EQUIVALENT:
        raise VariantUnsupportedError(
            "the equivalent chase is not consistently hereditary; "
            "no completion is defined")
    out = Derivation.start(restricted.variant,
                           KnowledgeBase(restricted.initial, restricted.ruleset))
    max_rank = max((s.trigger_rank for s in restricted.steps), default=0)
    for kappa in range(1, max_rank + 1):
        for step in restricted.steps:
            if step.trigger_rank != kappa or step.trigger in out.applied:
                continue
            if is_applicable(variant, out, step.trigger):
                out._apply(step.trigger)
        # Candidates of this rank are fixed once the previous rank is done;
        # one forward pass re-checks each in turn, since order matters for R
        # and a skipped candidate stays inapplicable.
        for t in _open_triggers(variant, out, kappa):
            if _applicable(variant, out, t):
                out._apply(t)
    return out


# -- breadth-first runner and enumeration -----------------------------------


class ChaseResult(NamedTuple):
    derivation: Derivation
    halt_reason: HaltReason


def _grow(variant: ChaseVariant, d: Derivation, rng: Optional[random.Random], budget: Budget,
          depth_cap: float, step_cap: float) -> tuple[HaltReason, Optional[Trigger]]:
    """Grow ``d`` in place along one breadth-first order: each rank's
    candidates in canonical order, or shuffled by ``rng``, re-checking
    applicability before each step.  Stop before the step past ``step_cap``
    or the first step of a rank past ``depth_cap`` that adds an atom; return
    the halt reason and that untaken depth-cap trigger.  One budget step is
    spent before each rank's candidates and one before each pick."""
    while True:
        budget.spend_step()
        # The shuffle takes as many draws as the list has triggers, so a
        # random run shuffles every unapplied trigger of the rank.
        kappa, candidates = _rank_candidates(variant, d, keep_all=rng is not None)
        if kappa is None:
            return HaltReason.TERMINATED, None
        if rng is not None:
            rng.shuffle(candidates)
        # A skipped o/so/r candidate stays inapplicable, so the pass goes on
        # after the last pick; an equivalent-chase trigger may wake back up,
        # so the E pass restarts at the first candidate.
        i = _next_applicable(variant, d, candidates)
        while i is not None:
            budget.spend_step()
            if len(d.steps) >= step_cap:
                return HaltReason.STEP_CAP, None
            t = candidates[i]
            if kappa > depth_cap:
                rule = d._rule(t)
                if safe_extension(t, rule, d.variant).apply(rule.head) - d.factbase:
                    return HaltReason.DEPTH_CAP, t
            d._apply(t)
            i = _next_applicable(variant, d, candidates, i + 1)


def run_breadth_first(variant: ChaseVariant, kb: KnowledgeBase,
                      policy: str = "det", seed: Optional[int] = None,
                      depth_cap: int = 1_000_000, step_cap: int = 1_000_000) -> ChaseResult:
    """Build one breadth-first derivation.

    Triggers of the current rank are applied in policy order (deterministic or
    seeded-random), re-checking applicability before each application; the
    rank advances once exhausted.  Halts with DEPTH_CAP the moment a new atom
    of rank depth_cap+1 would be created, with STEP_CAP when one more step
    would exceed the step budget.  The derivation grows in place (``_grow``).
    """
    if depth_cap < 1 or step_cap < 1:
        raise ChaseError("caps must be >= 1")
    rng = random.Random(seed) if policy == "random" else None
    d = Derivation.start(variant, kb)
    halt, _ = _grow(variant, d, rng, Budget(), depth_cap, step_cap)
    return ChaseResult(d, halt)


def enumerate_breadth_first_derivations(
        variant: ChaseVariant, kb: KnowledgeBase, depth_target: int,
        budget: Optional[Budget] = None) -> Iterator[Derivation]:
    """The breadth-first derivations that terminate or create a new atom of
    rank ``depth_target`` (a derivation stops right there).

    For the oblivious and semi-oblivious chases the within-rank order does
    not affect the resulting factbase, and the same holds for the restricted
    chase on a datalog ruleset (every product of a rank's candidate ends up
    in the factbase whatever the order).  There the one canonical order is
    grown in place by the runner's loop (``_grow``) and yielded.  Otherwise
    a depth-first search explores all within-rank orders, copying each child
    through ``extend`` and pruning already-visited sets of applied triggers.
    """
    if depth_target < 1:
        raise ChaseError("depth_target must be >= 1")
    budget = budget or Budget()
    if variant in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS) or (
            variant is ChaseVariant.RESTRICTED and kb.ruleset.is_datalog):
        d = Derivation.start(variant, kb)
        _, crossing = _grow(variant, d, None, budget, depth_target - 1, float("inf"))
        if crossing is not None:
            d._apply(crossing)
        yield d
        return
    seen: set = set()

    def expand(d: Derivation, kappa: int, candidates: list[Trigger]) -> Iterator:
        # One search node.  Yields, in visiting order, each derivation to hand
        # out and the (d, kappa, candidates) of each child node, which is
        # searched before the next item.  A child picks any applicable
        # candidate; its own scan starts from the first again.
        budget.spend_step()
        choices = [t for t in candidates if _applicable(variant, d, t)]
        if not choices:
            # Rank exhausted: move to the next rank with applicable triggers.
            kappa2, candidates2 = _rank_candidates(variant, d)
            yield d if kappa2 is None else (d, kappa2, candidates2)
            return
        for t in choices:
            d2 = d.extend(t, check=False)
            state = frozenset(d2.applied)
            if state in seen:
                continue
            seen.add(state)
            if kappa >= depth_target and d2.steps[-1].produced:
                yield d2
            else:
                yield d2, kappa, candidates

    # Depth-first with a stack of lazy nodes, not recursion: a branch is as
    # deep as its step count.
    stack = [expand(Derivation.start(variant, kb), 0, [])]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif isinstance(item, Derivation):
            yield item
        else:
            stack.append(expand(*item))
