"""k-boundedness decision for the oblivious, semi-oblivious and restricted chases.

A ruleset is X-k-bounded iff no breadth-first X-chase derivation from any
factbase creates an atom of rank k+1.  Consistent heredity shrinks the search
to small representative factbases over the body predicates: every offending
trigger's initial ancestors form such a factbase.  Two size modes exist
because the literature states b^k while the ancestor bound at depth k+1 gives
b^(k+1); the larger ("safe") bound is the default.
"""

from __future__ import annotations

import copy
import itertools
import os
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .budget import Budget
from .engine import (
    ChaseVariant,
    Derivation,
    Trigger,
    enumerate_breadth_first_derivations,
    verify_derivation,
)
from .errors import (
    BudgetExceededError,
    ChaseError,
    InternalVerificationError,
    VariantUnsupportedError,
)
from .expansions import prove_bounded
from .homomorphism import canonical_form
from .rules import KnowledgeBase, RuleSet
from .terms import Atom, Constant, atom_sort_key, term_sort_key


class BoundedQuery:
    """One k-boundedness question with its budget caps, checked when built."""

    __slots__ = ("ruleset", "variant", "k", "witness_bound_mode", "max_ms",
                 "max_search_steps", "max_factbases")

    def __init__(self, ruleset: RuleSet, variant: ChaseVariant, k: int,
                 witness_bound_mode: str = "safe",  # "paper" (b^k) | "safe" (b^(k+1))
                 max_ms: Optional[float] = None,
                 max_search_steps: Optional[int] = None,
                 max_factbases: Optional[int] = None):
        if variant is ChaseVariant.EQUIVALENT:
            raise VariantUnsupportedError(
                "k-boundedness of the equivalent chase is not decided here")
        if k < 0:
            raise ChaseError("k must be >= 0")
        if witness_bound_mode not in ("paper", "safe"):
            raise ChaseError("witness_bound_mode must be 'paper' or 'safe'")
        # ``not cap >= 0`` also rejects NaN, which no elapsed time exceeds.
        if any(cap is not None and not cap >= 0
               for cap in (max_ms, max_search_steps, max_factbases)):
            raise ChaseError("budget caps must be >= 0")
        self.ruleset, self.variant, self.k = ruleset, variant, k
        self.witness_bound_mode = witness_bound_mode
        self.max_ms = max_ms
        self.max_search_steps = max_search_steps
        self.max_factbases = max_factbases

    @property
    def max_atoms(self) -> int:
        exp = self.k if self.witness_bound_mode == "paper" else self.k + 1
        return _atom_cap(self.ruleset.b, exp)  # b >= 1

    def budget(self) -> Budget:
        return Budget(max_ms=self.max_ms, max_steps=self.max_search_steps,
                      max_items=self.max_factbases)


def _atom_cap(b: int, exp: int) -> int:
    # b ** exp capped at 2^63, which no scan or witness comes near; at a huge
    # k the exact power alone takes seconds to build and gigabytes to hold.
    return min(b ** min(exp, 63), 1 << 63)


class Witness(NamedTuple):
    """Self-certifying counterexample: replaying ``derivation`` from
    ``factbase`` reproduces an atom of rank k+1."""

    factbase: frozenset
    derivation: Derivation
    offending_atom: Atom
    minimized_factbase: frozenset


class BoundednessVerdict(NamedTuple):
    bounded: bool
    witness: Optional[Witness]
    factbases_examined: int
    derivations_examined: int


# -- representative factbases -------------------------------------------------


def generic_pool(rs: RuleSet, size: int) -> list[Constant]:
    """``size`` pairwise-distinct generic constants, avoiding rule constants."""
    taken = {c.name for c in rs.rule_constants}
    prefix = "g"
    while any(name.startswith(prefix) for name in taken):
        prefix = "g" + prefix
    return [Constant(f"{prefix}{i:02d}") for i in range(1, size + 1)]


def _body_atom_universe(rs: RuleSet, terms: list[Constant]) -> list[Atom]:
    arities = rs.arities()
    out: list[Atom] = []
    for pred in sorted(rs.body_predicates):
        for combo in itertools.product(terms, repeat=arities[pred]):
            out.append(Atom(pred, tuple(combo)))
    return sorted(out, key=atom_sort_key)


def default_pool_size(rs: RuleSet, max_atoms: int) -> int:
    arities = rs.arities()
    body_arity = max((arities[p] for p in rs.body_predicates), default=1)
    return max_atoms * body_arity


def _cells(rs: RuleSet, max_atoms: int) -> Iterator[tuple[int, int]]:
    # Generated as the scan reaches them: at large k they are far too many to hold.
    yield 0, 0
    for n in range(1, max_atoms + 1) if rs.body_predicates else ():
        for m in range(default_pool_size(rs, n) + 1):
            yield n, m


def cell_factbases(rs: RuleSet, n: int, m: int, budget: Budget) -> Iterator[frozenset]:
    """The representative factbases of ``n`` atoms with exactly ``m`` generic
    constants, one per isomorphism class fixing the rule constants: each
    class's least member as a sorted atom tuple, in lexicographic order.

    The scan is depth first over sorted atom tuples, so it visits the nodes
    (the prefixes) of each size in lexicographic order.  It drops a node
    together with its subtree unless:

    - restricted growth: its generic constants first appear in term order;
    - the ``m - used`` bound: the atoms still to come can hold the generic
      constants still missing (so a leaf has all ``m``);
    - first-atom shape: none of its atoms has a shape (the atom with its
      generic constants renamed in order of first appearance) that sorts
      before its first atom;
    - heredity: at 2 atoms or more, no earlier node of its size has its
      canonical form.  At a leaf this is the dedup itself; a one-atom inner
      node needs none, since restricted growth leaves one node per class.

    No test drops the least member S of a class, or any prefix of it, so
    the leaves kept are the first member of each class in lexicographic
    order, the output of the scan that tests leaves only:

    - S has restricted growth, and so has each prefix of S: if a generic
      constant g first appeared in S where the next unused one h should,
      swapping g and h would leave the atoms before that one as they are and
      make that one smaller, which gives a smaller member.  Each prefix
      completes to S, so it passes the ``m - used`` bound;
    - an atom of S whose shape sorted before S's first atom would, renamed to
      its shape, give a member of the class with a smaller first atom;
    - least membership is hereditary.  If a renaming σ made the prefix T = S
      minus its last atom s smaller, first differing at position i, then σ
      extended to all of S gives sorted(σS) < S: in it σs lands either at a
      position j <= i, below the atom of S there, or after position i, and
      then sorted(σS) agrees with sorted(σT) up to i.  So each prefix of S is
      the least member of its class, and as each size is visited in
      lexicographic order, it is the first node of its canonical form there.

    A canonical form fixes n and m, so no class spans cells.
    """
    if n == 0:
        yield frozenset()
        return
    consts = sorted(rs.rule_constants, key=term_sort_key)
    arities = rs.arities()
    body_arity = max(arities[p] for p in rs.body_predicates)
    generics = sorted(generic_pool(rs, m), key=term_sort_key)
    order = {c: i for i, c in enumerate(generics)}
    universe = _body_atom_universe(rs, consts + generics)
    position = {a: i for i, a in enumerate(universe)}
    # Per atom, the term-order ranks of its generic arguments, left to right,
    # and the universe position of its shape.
    ranks = [tuple(order[t] for t in a.args if t in order) for a in universe]
    shape = []
    for a in universe:
        rename = dict(zip(dict.fromkeys(t for t in a.args if t in order), generics))
        shape.append(position[Atom(a.predicate, tuple(rename.get(t, t) for t in a.args))])
    seen: set[bytes] = set()  # a canonical form fixes the size of its node

    def emit(start: int, chosen: list[Atom], used: int, first: int) -> Iterator[frozenset]:
        # ``generics[:used]`` occur in ``chosen``, and no other generic;
        # ``universe[first]`` is its first atom.
        budget.spend_step()
        size = len(chosen)
        if m - used > (n - size) * body_arity:
            return
        if size > 1 or size == n:
            node = frozenset(chosen)
            key = canonical_form(node, rs.rule_constants, budget)
            if key in seen:
                return
            seen.add(key)
            if size == n:
                budget.spend_item()
                yield node
                return
        for i in range(start, len(universe)):
            if shape[i] < first:
                continue
            grown = used
            for r in ranks[i]:
                if r == grown:
                    grown += 1
                elif r > grown:
                    break
            else:
                yield from emit(i + 1, chosen + [universe[i]], grown,
                                first if chosen else i)

    yield from emit(0, [], 0, 0)


def enumerate_representative_factbases(rs: RuleSet, max_atoms: int,
                                       budget: Optional[Budget] = None
                                       ) -> Iterator[frozenset]:
    """Every factbase of at most ``max_atoms`` atoms over the body predicates,
    up to isomorphism fixing the rule constants, each class once: the empty
    one, then ``cell_factbases`` for n ascending and m ascending within n."""
    budget = budget or Budget()
    for n, m in _cells(rs, max_atoms):
        yield from cell_factbases(rs, n, m, budget)


# -- decision ------------------------------------------------------------------


def search_factbase(variant: ChaseVariant, rs: RuleSet, k: int,
                    factbase: frozenset, budget: Optional[Budget] = None
                    ) -> tuple[Optional[Witness], int]:
    """Look for a breadth-first derivation from ``factbase`` that creates an
    atom of rank k+1; returns (witness or None, derivations examined)."""
    kb = KnowledgeBase(factbase, rs)
    count = 0
    for d in enumerate_breadth_first_derivations(variant, kb, depth_target=k + 1,
                                                 budget=budget):
        count += 1
        if d.depth() >= k + 1:
            step = d.steps[-1]
            offending = min(step.produced, key=atom_sort_key)
            minimized = shrink_witness(factbase, d, step.trigger)
            return Witness(frozenset(factbase), d, offending, minimized), count
    return None, count


def _certify(q: BoundedQuery, witness: Witness) -> None:
    report = verify_derivation(q.variant, witness.derivation)
    if not (report.is_valid_variant_derivation and report.is_rank_compatible):
        raise InternalVerificationError(
            f"witness replay failed: {report.first_violation}")
    if witness.derivation.atom_rank(witness.offending_atom) != q.k + 1:
        raise InternalVerificationError("offending atom does not have rank k+1")
    bound = _atom_cap(q.ruleset.b, q.k + 1)
    if len(witness.minimized_factbase) > bound:
        raise InternalVerificationError(
            f"minimized witness exceeds the ancestor bound b^(k+1) = {bound}")


def _first_witness(q: BoundedQuery, factbases: Iterable[frozenset], budget: Budget
                   ) -> tuple[Optional[Witness], list[int]]:
    """Search the factbases in order up to the first witness; returns it (or
    None) and the derivation count of each factbase searched."""
    counts: list[int] = []
    for fb in factbases:
        witness, n = search_factbase(q.variant, q.ruleset, q.k, fb, budget)
        counts.append(n)
        if witness is not None:
            return witness, counts
    return None, counts


def _verdict(q: BoundedQuery, witness: Optional[Witness],
             counts: list[int]) -> BoundednessVerdict:
    if witness is not None:
        _certify(q, witness)
    return BoundednessVerdict(witness is None, witness, len(counts), sum(counts))


def _scan(q: BoundedQuery, cell: tuple[int, int], budget: Budget) -> tuple:
    return _first_witness(q, cell_factbases(q.ruleset, *cell, budget), budget)


_worker = None  # in a ``--jobs`` worker: the query and a budget with the stop flag


def _start_worker(q: BoundedQuery, budget: Budget, stop) -> None:
    # Ctrl-C is the parent's to take: it sets the stop flag.
    import signal
    global _worker
    budget.stop = stop
    _worker = q, budget
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _scan_in_worker(cell: tuple[int, int]) -> Optional[tuple]:
    """``_scan`` on a copy of the worker's budget and what this scan spent,
    or None if it ran out or the parent set the stop flag, which the budget
    polls too."""
    q, start = _worker
    if start.stop.is_set():
        return None
    budget = copy.copy(start)
    try:
        return (*_scan(q, cell, budget),
                budget.steps - start.steps, budget.items - start.items)
    except BudgetExceededError:
        return None


def check_k_bounded(q: BoundedQuery, jobs: int = 1) -> BoundednessVerdict:
    """Decide X-k-boundedness by examining every representative factbase.

    Not bounded iff some factbase admits a breadth-first derivation creating a
    new atom of rank k+1; the search stops at the first such atom, which is a
    certificate of depth >= k+1.  The witness is re-verified before returning.

    On a datalog rule set the expansion certificate (``prove_bounded``) runs
    first, on the query's budget.  When it proves the rule set bounded, that
    is the verdict, and no factbase is examined.

    Each (n, m) cell is scanned up to its first witness, here on the query's
    budget or in up to ``jobs`` workers (one per core at most) on copies of
    it as it stood when the pool started.  Scans merge in cell order, adding
    each scan's own spend; a cell whose scan ran out or whose spend would
    cross a cap is scanned again here, so neither the report nor a step or
    factbase stop depends on jobs.  Such a scan ends the run, so the workers'
    stop flag is set before it, as it is when the run ends; the workers are
    then waited for, never killed.
    """
    if jobs < 1:
        raise ChaseError("jobs must be >= 1")
    budget = q.budget()
    if q.ruleset.is_datalog and prove_bounded(q.ruleset, q.k, budget):
        return BoundednessVerdict(True, None, 0, 0)
    jobs = min(jobs, os.cpu_count() or 1)
    scans = ((*_scan(q, cell, budget), 0, 0)
             for cell in _cells(q.ruleset, q.max_atoms))
    pool = stop = None
    if jobs > 1:
        from multiprocessing import Event, Pool
        stop = Event()
        pool = Pool(jobs, initializer=_start_worker,
                    initargs=(q, copy.copy(budget), stop))
        # The pool's feeder thread hands out cells until the iterable ends, and
        # ``join`` waits for it; so the feed ends once the stop flag is set.
        scans = pool.imap(_scan_in_worker, itertools.takewhile(
            lambda _: not stop.is_set(), _cells(q.ruleset, q.max_atoms)))
    counts: list[int] = []
    try:
        for cell, scan in zip(_cells(q.ruleset, q.max_atoms), scans):
            if scan is None or not budget.charge(*scan[2:]):
                stop.set()  # only a worker's scan is scanned again
                scan = _scan(q, cell, budget)
            witness, cell_counts = scan[:2]
            counts += cell_counts
            if witness is not None:
                break
    finally:
        if pool is not None:
            stop.set()
            pool.close()
            pool.join()
    return _verdict(q, witness, counts)


def shrink_witness(factbase: frozenset, derivation: Derivation,
                   offending: Union[Atom, Trigger]) -> frozenset:
    """Initial-ancestor restriction of a witness: factbase ∩ ancestors(offending).

    By the ancestor bound this has at most b^rank atoms, and re-running the
    per-factbase search on it re-finds a derivation of the same depth.
    """
    return frozenset(factbase & derivation.ancestors(offending))
