"""Seeded random-KB property checks at a quick scale.

The acceptance suite reruns the same checks over the full population; this
module keeps a fast regression signal for everyday development.
"""

import random

from chasebound import ChaseVariant, all_homomorphisms, run_breadth_first

from oracles import (
    bounded_run,
    brute_force_homomorphisms,
    check_ancestor_clue,
    check_consistent_heredity,
    check_heredity,
    check_trace_roundtrip,
    oracle_ancestors,
    random_kb,
    random_keep_subsets,
)

V = ChaseVariant
HEREDITARY = (V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED)


def test_ancestor_bound_on_random_runs():
    rng = random.Random(2024)
    for i in range(30):
        kb = random_kb(rng)
        for variant in (*HEREDITARY, V.EQUIVALENT):
            cap = 20 if variant is V.EQUIVALENT else 40
            res = run_breadth_first(variant, kb, depth_cap=3, step_cap=cap)
            assert check_ancestor_clue(res.derivation) == [], (i, variant)


def test_ancestors_match_step_log_fixpoint():
    rng = random.Random(613)
    for i in range(30):
        kb = random_kb(rng)
        for variant in (*HEREDITARY, V.EQUIVALENT):
            cap = 20 if variant is V.EQUIVALENT else 40
            d = run_breadth_first(variant, kb, depth_cap=3, step_cap=cap).derivation
            expected = oracle_ancestors(d)
            assert {at: d.ancestors(at) for at in d.factbase} == expected, (i, variant)
            producer = {at: s.trigger for s in d.steps for at in s.produced}
            for s in d.steps:
                body = s.trigger.pi.apply(d.ruleset[s.trigger.rule_id].body)
                closure = body.union(*(expected[at] for at in body))
                assert d.ancestors(s.trigger) == closure, (i, variant)
                assert d.trigger_ancestors(s.trigger) == \
                    {producer[at] for at in closure if at in producer}, (i, variant)


def test_heredity_on_random_runs():
    rng = random.Random(77)
    for i in range(30):
        kb = random_kb(rng)
        for variant in HEREDITARY:
            d, _ = bounded_run(variant, kb)
            for keep in random_keep_subsets(rng, d.initial):
                assert check_heredity(variant, d, keep) == [], (i, variant)


def test_consistent_heredity_on_random_runs():
    rng = random.Random(404)
    for i in range(30):
        kb = random_kb(rng)
        for variant in HEREDITARY:
            d, _ = bounded_run(variant, kb)
            for keep in random_keep_subsets(rng, d.initial):
                assert check_consistent_heredity(variant, d, keep) == [], \
                    (i, variant)


def test_trace_roundtrip_on_random_runs():
    rng = random.Random(1055)
    for i in range(30):
        kb = random_kb(rng)
        for variant in HEREDITARY:
            res = run_breadth_first(variant, kb, depth_cap=3, step_cap=40)
            assert check_trace_roundtrip(res.derivation, res.halt_reason) == [], \
                (i, variant)


def completed_prefix_factbase(kb, variant, seed=None, policy="det"):
    """Factbase after all fully-completed ranks of one breadth-first run."""
    from chasebound import HaltReason
    from oracles import breadth_first_prefix

    res = run_breadth_first(variant, kb, policy=policy, seed=seed,
                            depth_cap=3, step_cap=40)
    if res.halt_reason is HaltReason.TERMINATED:
        return res.derivation, None
    last = max((s.trigger_rank for s in res.derivation.steps), default=0)
    cut = 3 if res.halt_reason is HaltReason.DEPTH_CAP else last - 1
    return breadth_first_prefix(res.derivation, cut), cut


def test_within_rank_order_independence_for_o_and_so():
    # The canonical-order collapse in the enumerator rests on this: for O and
    # SO, any within-rank order reaches the same factbase with the same ranks.
    rng = random.Random(515)
    for i in range(25):
        kb = random_kb(rng)
        for variant in (V.OBLIVIOUS, V.SEMI_OBLIVIOUS):
            base, cut0 = completed_prefix_factbase(kb, variant)
            for seed in (1, 2):
                other, cut1 = completed_prefix_factbase(kb, variant,
                                                        seed=seed, policy="random")
                cut = min(c for c in (cut0, cut1, 10) if c is not None)
                from oracles import breadth_first_prefix
                lhs = breadth_first_prefix(base, cut)
                rhs = breadth_first_prefix(other, cut)
                assert lhs.factbase == rhs.factbase, (i, variant, seed)
                assert all(lhs.atom_rank(at) == rhs.atom_rank(at)
                           for at in lhs.factbase), (i, variant, seed)


def test_within_rank_order_independence_for_datalog_restricted():
    # Justifies the datalog collapse for the restricted chase: every product
    # of a rank's candidates lands in the factbase whatever the order.
    from oracles import breadth_first_prefix, random_datalog_kb

    rng = random.Random(616)
    for i in range(25):
        kb = random_datalog_kb(rng)
        base, cut0 = completed_prefix_factbase(kb, V.RESTRICTED)
        for seed in (3, 4):
            other, cut1 = completed_prefix_factbase(kb, V.RESTRICTED,
                                                    seed=seed, policy="random")
            cut = min(c for c in (cut0, cut1, 10) if c is not None)
            lhs = breadth_first_prefix(base, cut)
            rhs = breadth_first_prefix(other, cut)
            assert lhs.factbase == rhs.factbase, (i, seed)
            assert all(lhs.atom_rank(at) == rhs.atom_rank(at)
                       for at in lhs.factbase), (i, seed)


def test_homomorphism_kernel_against_brute_force():
    rng = random.Random(9)
    for i in range(60):
        kb = random_kb(rng)
        rules = kb.ruleset.rules
        if not rules:
            continue
        rule = rng.choice(rules)
        got = set(all_homomorphisms(rule.body, kb.factbase))
        want = {s.restrict(rule.body_vars)
                for s in brute_force_homomorphisms(rule.body, kb.factbase)}
        assert got == want, i


def test_random_kbs_do_not_depend_on_the_hash_seed():
    # A seed must give the same KBs in every interpreter, whatever its
    # string-hash seed, so that a failing seeded property test reproduces.
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import random\n"
        "from oracles import random_datalog_kb, random_kb\n"
        "for seed in range(8):\n"
        "    for make in (random_kb, random_datalog_kb):\n"
        "        kb = make(random.Random(seed))\n"
        "        print(sorted(str(a) for a in kb.factbase))\n"
        "        print([str(r) for r in kb.ruleset])\n")
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    outputs = []
    for hashseed in ("1", "2", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
