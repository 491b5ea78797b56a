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
        if any(cap is not None and cap < 0
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
        return max(1, self.ruleset.b ** exp)

    def budget(self) -> Budget:
        return Budget(max_ms=self.max_ms, max_steps=self.max_search_steps,
                      max_items=self.max_factbases)


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
    constants, one per isomorphism class fixing the rule constants.

    Candidates are sorted atom tuples, generated in lexicographic order, whose
    generic constants first appear in term order (restricted growth, as in
    orderly generation); canonical form drops the isomorphic duplicates that
    still get through.  A class's first candidate, its lexicographic minimum,
    has restricted growth, so the pruning skips no class and keeps its
    representative.  A canonical form fixes n and m, so no class spans cells.
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
    # Per atom, the term-order ranks of its generic arguments, left to right.
    ranks = [tuple(order[t] for t in a.args if t in order) for a in universe]
    seen: set[bytes] = set()

    def emit(start: int, chosen: list[Atom], used: int) -> Iterator[frozenset]:
        # ``generics[:used]`` occur in ``chosen``, and no other generic.
        budget.spend_step()
        if len(chosen) == n:
            if used == m:
                yield frozenset(chosen)
            return
        if m - used > (n - len(chosen)) * body_arity:
            return
        for i in range(start, len(universe)):
            grown = used
            for r in ranks[i]:
                if r == grown:
                    grown += 1
                elif r > grown:
                    break
            else:
                yield from emit(i + 1, chosen + [universe[i]], grown)

    for candidate in emit(0, [], 0):
        key = canonical_form(candidate, rs.rule_constants, budget)
        if key not in seen:
            seen.add(key)
            budget.spend_item()
            yield candidate


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
    bound = q.ruleset.b ** (q.k + 1)
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


_worker = None  # in a ``--jobs`` worker: the query and an unspent budget with the stop flag


def _start_worker(q: BoundedQuery, budget: Budget, stop) -> None:
    # Ctrl-C is the parent's to take: it sets the stop flag.
    import signal
    global _worker
    budget.stop = stop
    _worker = q, budget
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _scan_in_worker(cell: tuple[int, int]) -> Optional[tuple]:
    """``_scan`` on a copy of the unspent budget and what it spent, or None if
    it ran out or the parent set the stop flag, which the budget polls too."""
    q, unspent = _worker
    if unspent.stop.is_set():
        return None
    budget = copy.copy(unspent)
    try:
        return (*_scan(q, cell, budget), budget.steps, budget.items)
    except BudgetExceededError:
        return None


def check_k_bounded(q: BoundedQuery, jobs: int = 1) -> BoundednessVerdict:
    """Decide X-k-boundedness by examining every representative factbase.

    Not bounded iff some factbase admits a breadth-first derivation creating a
    new atom of rank k+1; the search stops at the first such atom, which is a
    certificate of depth >= k+1.  The witness is re-verified before returning.

    Each (n, m) cell is scanned up to its first witness, here on the query's
    budget or in up to ``jobs`` workers (one per core at most) on
    unspent copies of it.  Scans merge in cell order, adding each spend; a
    cell whose scan ran out or whose spend would cross a cap is scanned again
    here, so neither the report nor a step or factbase stop depends on jobs.
    Such a scan ends the run, so the workers' stop flag is set before it, as
    it is when the run ends; the workers are then waited for, never killed.
    """
    if jobs < 1:
        raise ChaseError("jobs must be >= 1")
    budget = q.budget()
    jobs = min(jobs, os.cpu_count() or 1)
    scans = ((*_scan(q, cell, budget), 0, 0) for cell in _cells(q.ruleset, q.max_atoms))
    pool = stop = None
    if jobs > 1:
        from multiprocessing import Event, Pool
        stop = Event()
        pool = Pool(jobs, initializer=_start_worker, initargs=(q, copy.copy(budget), stop))
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
