"""Reordering constructions: every terminating run admits a rank-friendly twin.

For the oblivious and semi-oblivious chases a terminating derivation reorders
into a breadth-first one of smaller or equal depth; for the restricted chase,
rank-sorting with applicability re-checks yields a terminating rank-compatible
derivation.  The two reorderings are proof devices that no command runs, so
they are built here, on the engine's public steps.
"""

import random
from typing import Optional

from chasebound import (
    ChaseError,
    ChaseVariant,
    Derivation,
    KnowledgeBase,
    Trigger,
    all_homomorphisms,
    is_applicable,
    run_breadth_first,
    verify_derivation,
)
from chasebound.engine import HaltReason, frontier_image
from chasebound.errors import InternalVerificationError

from oracles import random_kb, run_random_exhaustive

V = ChaseVariant


def rank_sort(derivation: Derivation,
              check_variant: Optional[ChaseVariant] = None) -> Derivation:
    """Stable-sort the triggers by rank and replay, re-sorting by the
    replayed ranks until they come out sorted.

    For a terminating oblivious derivation the result is a breadth-first
    terminating derivation of smaller or equal depth.  With ``check_variant``
    the replay re-checks applicability and drops the triggers that became
    redundant; for a terminating restricted-chase derivation and the
    restricted variant it yields a terminating rank-compatible restricted
    derivation.
    """
    order = list(derivation.triggers())
    ranks = {s.trigger: s.trigger_rank for s in derivation.steps}
    for _ in range(5 * len(order) + 10):
        order.sort(key=ranks.__getitem__)
        replayed = Derivation.start(derivation.variant,
                                    KnowledgeBase(derivation.initial, derivation.ruleset))
        for t in order:
            if check_variant is None or is_applicable(check_variant, replayed, t):
                replayed = replayed.extend(t, check=False)
        new_ranks = [s.trigger_rank for s in replayed.steps]
        if new_ranks == sorted(new_ranks):
            return replayed
        # A dropped trigger keeps its last rank.
        ranks.update({s.trigger: s.trigger_rank for s in replayed.steps})
    raise InternalVerificationError("rank_sort did not stabilize")


def so_breadth_first_from(derivation: Derivation) -> Derivation:
    """Breadth-first reordering of a terminating semi-oblivious derivation by
    frontier-equal replacement.

    Layer by layer, each remaining trigger is swapped for a frontier-equal
    trigger applicable on the part already rebuilt; frontier-keyed nulls make
    the replacement produce exactly the same atoms.
    """
    if derivation.variant is not V.SEMI_OBLIVIOUS:
        raise ChaseError("frontier-equal replacement requires the semi-oblivious chase")
    rs = derivation.ruleset
    bf = Derivation.start(V.SEMI_OBLIVIOUS, KnowledgeBase(derivation.initial, rs))
    remaining = list(derivation.triggers())
    while remaining:
        layer: list[tuple[Trigger, Trigger]] = []
        for t in remaining:
            rule = rs[t.rule_id]
            want = frontier_image(rule, t.pi)
            for pi2 in all_homomorphisms(rule.body, bf.factbase):
                cand = Trigger(t.rule_id, pi2)
                if frontier_image(rule, pi2) == want and \
                        is_applicable(V.SEMI_OBLIVIOUS, bf, cand):
                    layer.append((t, cand))
                    break
        if not layer:
            break
        for orig, cand in layer:
            if is_applicable(V.SEMI_OBLIVIOUS, bf, cand):
                bf = bf.extend(cand, check=False)
        done = {orig for orig, _ in layer}
        remaining = [t for t in remaining if t not in done]
    return bf


def terminating_runs(variant, count, seed, step_cap=60):
    rng = random.Random(seed)
    found = []
    attempts = 0
    while len(found) < count and attempts < count * 12:
        attempts += 1
        kb = random_kb(rng)
        res = run_random_exhaustive(variant, kb, seed=rng.randint(0, 10 ** 6),
                                    step_cap=step_cap)
        if res.halt_reason is HaltReason.TERMINATED:
            found.append((kb, res.derivation))
    assert len(found) >= count // 2, "not enough terminating samples"
    return found


def test_oblivious_rank_sort_gives_breadth_first_of_leq_depth():
    for kb, d in terminating_runs(V.OBLIVIOUS, 25, seed=31):
        reordered = rank_sort(d)
        assert set(reordered.triggers()) == set(d.triggers())
        report = verify_derivation(V.OBLIVIOUS, reordered)
        assert report.is_valid_variant_derivation
        assert report.is_breadth_first and report.is_terminating
        assert reordered.depth() <= d.depth()
        # The canonical breadth-first run is another witness of the bound.
        bf = run_breadth_first(V.OBLIVIOUS, kb, depth_cap=20, step_cap=200)
        assert bf.halt_reason is HaltReason.TERMINATED
        assert bf.derivation.depth() <= d.depth()


def test_semi_oblivious_frontier_replacement_gives_breadth_first():
    for kb, d in terminating_runs(V.SEMI_OBLIVIOUS, 25, seed=57):
        reordered = so_breadth_first_from(d)
        # Every original trigger is consumed via a frontier-equal replacement.
        assert len(reordered.steps) == len(d.steps)
        report = verify_derivation(V.SEMI_OBLIVIOUS, reordered)
        assert report.is_valid_variant_derivation
        assert report.is_breadth_first and report.is_terminating
        assert reordered.depth() <= d.depth()
        assert reordered.factbase == d.factbase  # frontier naming: same atoms


def test_restricted_rank_sort_terminating_rank_compatible():
    for kb, d in terminating_runs(V.RESTRICTED, 25, seed=83):
        reordered = rank_sort(d, V.RESTRICTED)
        report = verify_derivation(V.RESTRICTED, reordered)
        assert report.is_valid_variant_derivation
        assert report.is_rank_compatible
        assert report.is_terminating
        assert set(reordered.triggers()) <= set(d.triggers())
