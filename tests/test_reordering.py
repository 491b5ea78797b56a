"""Reordering constructions: every terminating run admits a rank-friendly twin.

For the oblivious and semi-oblivious chases a terminating derivation reorders
into a breadth-first one of smaller or equal depth; for the restricted chase,
rank-sorting with applicability re-checks yields a terminating rank-compatible
derivation.
"""

import random

from chasebound import ChaseVariant, run_breadth_first, verify_derivation
from chasebound.engine import (
    HaltReason,
    rank_sort,
    run_random_exhaustive,
    so_breadth_first_from,
)

from oracles import random_kb

V = ChaseVariant


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
