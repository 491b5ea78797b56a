"""A certificate of k-boundedness for datalog rule sets, by expansion containment.

On a datalog rule set the breadth-first o, so and r chases create the same
atoms at the same ranks: rank κ is stage κ of naive evaluation (the atoms
derivable by κ rounds of applying every rule at once).  An atom is first
produced by a trigger whose body maps into stage κ-1, so its rank is at most
κ; and every rank-κ trigger's body maps into stage κ-1, so its products are
in stage κ.  The o chase applies every trigger, and a datalog trigger the r
or so chase does not apply has its head in the factbase already, so no
variant misses or delays an atom.  Hence a rule set is X-k-bounded iff no
factbase has an atom in stage k+1 that is not in stage k.

Expansions.  Each rule with a multi-atom head is split into single-head
rules, which have the same stages.  The expansion of depth 0 for a body
predicate p is p(V0, …, Vn) with itself as body.  An expansion of depth j
puts, for one single-head rule, an expansion of depth < j in place of each
body atom, at least one of depth j-1, with their heads unified with the body
atoms (most general unifier; variables renamed apart, constants fixed); its
head is the rule head and its body the union of the parts' bodies under the
unifier.  An atom is in stage j of a factbase F iff it is the image of the
head of an expansion of depth <= j under a homomorphism of its body into F.

Covering.  E' covers E when a homomorphism maps E''s body into E's body
and E''s head onto E's head, fixing constants.  Composing homomorphisms,
wherever E's body maps, E' derives the same head atom, in depth(E') rounds.
Covering is transitive, and it passes through unfolding: if each part E'_i
covers E_i, the expansion built from the E'_i covers the one built from the
E_i (their unifier is more general).  Level j is built from kept expansions
only, and a candidate is dropped when a kept one covers it.  Then every
expansion of depth d is covered by a kept one of depth <= d, by induction on
d: put in place of each of its parts a kept cover of no larger depth; the
result is covered by a kept one by induction if its depth is below d, and
otherwise it was a candidate, so it is kept or covered by a kept one.

Hence if level k+1 keeps nothing, every expansion of depth <= k+1 is
covered by one of depth <= k, every atom of stage k+1 is in stage k, and the
rule set is k-bounded under o, so and r.  Conversely, a kept level-(k+1)
expansion is covered by no expansion of depth <= k, so its head is not in
stage k of its own body with the variables frozen, and the rule set is not
k-bounded.  The decider takes only the first answer, as its verdict, and
examines no factbase.  On the second it runs its search, which finds the
first witness in its own order, so the report is the one it gives without
the certificate.  This is the expansion test for datalog boundedness
(Naughton & Sagiv 1987; Cosmadakis, Gaifman, Kanellakis & Vardi 1988).
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from .budget import Budget
from .homomorphism import IndexedAtoms, find_homomorphism
from .rules import RuleSet
from .terms import Atom, Constant, Variable, sorted_atoms


class Expansion(NamedTuple):
    """An expansion whose variables are ``V0``, ``V1``…, its head's first."""

    head: Atom
    body: IndexedAtoms
    depth: int


def _var(i: int) -> Variable:
    return Variable(f"V{i}", "<expansion>")


def _trivial(predicate: str, arity: int) -> Expansion:
    a = Atom(predicate, tuple(_var(i) for i in range(arity)))
    return Expansion(a, IndexedAtoms((a,)), 0)


def _unfold(body: tuple, head: Atom, parts: tuple) -> Optional[Expansion]:
    """The expansion of the rule ``body -> head`` with ``parts[i]`` in place of
    ``body[i]``, or None when some part's head does not unify with its atom.

    A part's variables are kept apart as (i, variable); the rule's own
    variables are scoped to the rule."""
    parent: dict = {}

    def find(t):
        while t in parent:
            t = parent[t]
        return t

    def key(i: int, t):
        return t if isinstance(t, Constant) else (i, t)

    for i, (b, part) in enumerate(zip(body, parts)):
        for x, y in zip(b.args, part.head.args):
            x, y = find(x), find(key(i, y))
            if x == y:
                continue
            if isinstance(x, Constant):
                if isinstance(y, Constant):
                    return None
                x, y = y, x
            parent[x] = y
    names: dict = {}

    def term(t):
        t = find(t)
        if isinstance(t, Constant):
            return t
        name = names.get(t)
        if name is None:
            name = names[t] = _var(len(names))
        return name

    new_head = Atom(head.predicate, tuple(map(term, head.args)))
    body = IndexedAtoms(Atom(a.predicate, tuple(term(key(i, t)) for t in a.args))
                        for i, part in enumerate(parts) for a in part.body)
    return Expansion(new_head, body, 1 + max(part.depth for part in parts))


def _covers(cover: Expansion, e: Expansion) -> bool:
    """Whether ``cover``'s body maps into ``e``'s body with its head onto
    ``e``'s head.  ``cover``'s head variables are replaced by ``e``'s head
    terms, which the search then keeps fixed.  Its other variables cannot
    clash with them: they are numbered after its head variables, and ``e``'s
    head has no more variables than ``cover``'s when the heads match."""
    theta: dict = {}
    for x, y in zip(cover.head.args, e.head.args):
        if isinstance(x, Constant):
            if x is not y:
                return False
        elif theta.setdefault(x, y) is not y:
            return False
    source = frozenset(Atom(a.predicate, tuple(theta.get(t, t) for t in a.args))
                       for a in cover.body)
    frozen = frozenset(t for t in e.head.args if isinstance(t, Variable))
    return find_homomorphism(source, e.body, frozen) is not None


def _choices(body: tuple, kept: dict, start: dict, end: dict) -> Iterator[tuple]:
    """Each tuple of parts for ``body``, one kept expansion per atom whose
    head has the atom's predicate, at least one from the last level (the
    positions ``start[p]:end[p]`` of ``kept[p]``), each once: keyed by the
    first atom given a last-level part, as in a semi-naive join."""
    for i, b in enumerate(body):
        pools = ([kept[a.predicate][:start[a.predicate]] for a in body[:i]]
                 + [kept[b.predicate][start[b.predicate]:end[b.predicate]]]
                 + [kept[a.predicate][:end[a.predicate]] for a in body[i + 1:]])
        yield from itertools.product(*pools)


def _covered(e: Expansion, kept: list, budget: Budget) -> bool:
    for cover in kept:
        budget.spend_step(poll=True)
        if _covers(cover, e):
            return True
    return False


def prove_bounded(rs: RuleSet, k: int, budget: Budget) -> bool:
    """True when level k+1 of the expansions of the datalog rule set ``rs``
    keeps nothing, so ``rs`` is k-bounded under o, so and r (module
    docstring); False when some level-(k+1) expansion is kept.

    Each expansion built and each covering test spends a step of
    ``budget``, and each test also polls its clock and stop flag.
    """
    rules = [(tuple(sorted_atoms(r.body)), h) for r in rs for h in sorted_atoms(r.head)]
    arities = rs.arities()
    kept = {p: [] for p in arities}  # by head predicate, in the order kept
    for p in sorted(rs.body_predicates):
        kept[p].append(_trivial(p, arities[p]))
    start = dict.fromkeys(kept, 0)
    for depth in range(1, k + 2):
        end = {p: len(es) for p, es in kept.items()}
        if end == start:
            return True
        for body, head in rules:
            for parts in _choices(body, kept, start, end):
                budget.spend_step()
                e = _unfold(body, head, parts)
                if e is None or _covered(e, kept[head.predicate], budget):
                    continue
                if depth == k + 1:
                    return False
                kept[head.predicate].append(e)
        start = end
    return True

