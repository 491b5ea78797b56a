"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import io
import random
import time
from contextlib import contextmanager
from pathlib import Path

from chasebound import (
    BoundedQuery,
    ChaseVariant,
    Constant,
    Derivation,
    HaltReason,
    KnowledgeBase,
    all_homomorphisms,
    atom,
    check_k_bounded,
    enumerate_breadth_first_derivations,
    restrict,
    run_breadth_first,
    verify_derivation,
)
from chasebound.boundedness import default_pool_size
from chasebound.cli import cli
from chasebound.engine import safe_extension

from conftest import load_example, trig
from oracles import (
    bounded_run,
    brute_force_homomorphisms,
    check_ancestor_clue,
    check_consistent_heredity,
    check_heredity,
    check_trace_roundtrip,
    oracle_check_k_bounded,
    random_kb,
    random_keep_subsets,
    random_single_rule_set,
)

V = ChaseVariant
a, b, c = Constant("a"), Constant("b"), Constant("c")
FIXTURES = Path(__file__).parent / "fixtures"


def quiet_cli(argv) -> int:
    return cli(argv, out=io.StringIO(), err=io.StringIO())


@contextmanager
def criterion(num: int, text: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {text}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {num:02d}] PASS - {text} ({elapsed:.2f}s)")


def test_criterion_01_separation_triad():
    with criterion(1, "chase-variant separation on the three loop KBs"):
        k1, k2, k3 = (load_example(n) for n in ("ex2_k1", "ex2_k2", "ex2_k3"))
        start = time.monotonic()
        r = run_breadth_first(V.OBLIVIOUS, k1, step_cap=50)
        assert r.halt_reason is HaltReason.STEP_CAP and len(r.derivation.steps) == 50
        r = run_breadth_first(V.SEMI_OBLIVIOUS, k1, step_cap=50)
        assert r.halt_reason is HaltReason.TERMINATED and r.derivation.depth() == 1
        r = run_breadth_first(V.SEMI_OBLIVIOUS, k2, step_cap=50)
        assert r.halt_reason is HaltReason.STEP_CAP
        r = run_breadth_first(V.RESTRICTED, k2, step_cap=50)
        assert r.halt_reason is HaltReason.TERMINATED and r.derivation.depth() == 0
        r = run_breadth_first(V.RESTRICTED, k3, step_cap=50)
        assert r.halt_reason is HaltReason.STEP_CAP
        r = run_breadth_first(V.EQUIVALENT, k3, step_cap=50)
        assert r.halt_reason is HaltReason.TERMINATED and r.derivation.depth() == 1
        assert time.monotonic() - start < 1.0


def test_criterion_02_parent_loop_never_halts():
    with criterion(2, "no variant halts on the parent-of loop (depth cap 5)"):
        kb = load_example("ex1")
        start = time.monotonic()
        for variant in V:
            r = run_breadth_first(variant, kb, depth_cap=5, step_cap=10_000)
            assert r.halt_reason is HaltReason.DEPTH_CAP
            assert r.derivation.depth() == 5
        assert time.monotonic() - start < 1.0


def test_criterion_03_datalog_transitivity_decider():
    with criterion(3, "transitivity+join is R-1-bounded, transitivity alone is not"):
        start = time.monotonic()
        pair = load_example("ex3_pair").ruleset
        verdict = check_k_bounded(BoundedQuery(pair, V.RESTRICTED, 1))
        assert verdict.bounded
        exit_code = quiet_cli(["kbounded", "--rules", str(FIXTURES / "ex3_pair.dlp"),
                         "--variant", "r", "--k", "1"])
        assert exit_code == 0

        single = load_example("ex3_single").ruleset
        verdict = check_k_bounded(BoundedQuery(single, V.RESTRICTED, 1))
        assert not verdict.bounded
        w = verdict.witness
        replay = Derivation.start(V.RESTRICTED,
                                  KnowledgeBase(w.factbase, single))
        for step in w.derivation.steps:
            assert replay.variant is V.RESTRICTED
            replay = replay.extend(step.trigger)  # checked: R-applicable
        assert replay.atom_rank(w.offending_atom) == 2
        assert len(w.minimized_factbase) <= single.b ** 2 == 4
        assert time.monotonic() - start < 60.0


def test_criterion_04_existential_loop_decider(tmp_path):
    with criterion(4, "two-cycle head rule: R-1-bounded, not SO/O-1-bounded"):
        start = time.monotonic()
        rs = load_example("ex4").ruleset
        assert check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1)).bounded
        so = check_k_bounded(BoundedQuery(rs, V.SEMI_OBLIVIOUS, 1))
        assert not so.bounded and so.witness is not None
        assert not check_k_bounded(BoundedQuery(rs, V.OBLIVIOUS, 1)).bounded
        witness_file = tmp_path / "w.json"
        assert quiet_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                          "--variant", "so", "--k", "1",
                    "--witness", str(witness_file)]) == 1
        assert witness_file.exists()
        assert quiet_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                          "--variant", "r", "--k", "1"]) == 0
        assert time.monotonic() - start < 30.0


def test_criterion_05_restricted_order_dependence():
    with criterion(5, "restricted-chase enumeration shows order dependence"):
        start = time.monotonic()
        kb = load_example("ex5")
        results = list(enumerate_breadth_first_derivations(
            V.RESTRICTED, kb, depth_target=2))
        terminating = [d for d in results
                       if verify_derivation(V.RESTRICTED, d).is_terminating]
        reaching = [d for d in results if d.depth() >= 2]
        assert terminating and reaching
        assert time.monotonic() - start < 1.0


def test_criterion_06_restriction_reproduces_the_walkthrough():
    with criterion(6, "restriction to p(a,a) keeps the 1st, 3rd and 4th triggers"):
        start = time.monotonic()
        kb = load_example("ex6")
        rs = kb.ruleset
        rule = rs["R"]
        pi1 = trig(rs, "R", {"X": a, "Y": a})
        pi2 = trig(rs, "R", {"X": b, "Y": b})
        d = Derivation.start(V.OBLIVIOUS, kb).extend(pi1).extend(pi2)
        z1 = next(at.args[1] for at in
                  safe_extension(pi1, rule, V.OBLIVIOUS).apply(rule.head))
        pi3 = trig(rs, "R", {"X": a, "Y": z1})
        d = d.extend(pi3)
        z3 = next(at.args[1] for at in d.steps[-1].produced)
        pi4 = trig(rs, "R", {"X": z1, "Y": z3})
        d = d.extend(pi4)
        z4 = next(at.args[1] for at in d.steps[-1].produced)

        restricted = restrict(d, frozenset({atom("p", a, a)}))
        assert restricted.triggers() == (pi1, pi3, pi4)
        assert restricted.factbase == frozenset({
            atom("p", a, a), atom("p", a, z1),
            atom("p", z1, z3), atom("p", z3, z4)})
        assert time.monotonic() - start < 1.0


def test_criterion_07_depth_depends_on_the_order():
    with criterion(7, "two exhaustive datalog runs of depth 2 and 1"):
        start = time.monotonic()
        kb = load_example("ex7")
        rs = kb.ruleset
        d1 = Derivation.start(V.OBLIVIOUS, kb)
        for rid in ("R1", "R2", "R3"):
            d1 = d1.extend(trig(rs, rid, {"X": a}))
        d2 = Derivation.start(V.OBLIVIOUS, kb)
        for rid in ("R1", "R3", "R2"):
            d2 = d2.extend(trig(rs, rid, {"X": a}))
        assert d1.depth() == 2 and d2.depth() == 1
        assert time.monotonic() - start < 1.0


def test_criterion_08_heredity_and_completion():
    with criterion(8, "restrictions stay valid, completions re-insert at rank 2"):
        start = time.monotonic()
        from chasebound import breadth_first_completion

        kb9 = load_example("ex9")
        rs9 = kb9.ruleset
        d9 = Derivation.start(V.SEMI_OBLIVIOUS, kb9)
        for rid, mapping in (("R1", {"X": a, "Y": b}), ("R3", {"X": a, "Y": c}),
                             ("R2", {"X": a, "Y": c}), ("R3", {"X": a, "Y": b})):
            d9 = d9.extend(trig(rs9, rid, mapping))
        r9 = restrict(d9, frozenset({atom("p", a, b)}))
        rep9 = verify_derivation(V.SEMI_OBLIVIOUS, r9)
        assert rep9.is_valid_variant_derivation and not rep9.is_rank_exhaustive
        c9 = breadth_first_completion(V.SEMI_OBLIVIOUS, r9)
        assert verify_derivation(V.SEMI_OBLIVIOUS, c9).is_breadth_first
        added9 = [s for s in c9.steps if s.trigger not in r9.triggers()]
        assert [(s.trigger.rule_id, s.trigger_rank) for s in added9] == [("R2", 2)]

        kb10 = load_example("ex10")
        rs10 = kb10.ruleset
        d10 = Derivation.start(V.RESTRICTED, kb10)
        d10 = d10.extend(trig(rs10, "R1", {"X": a, "Y": b}))
        d10 = d10.extend(trig(rs10, "R3", {"X": a, "Y": b}))
        r10 = restrict(d10, frozenset({atom("p", a, b)}))
        rep10 = verify_derivation(V.RESTRICTED, r10)
        assert rep10.is_valid_variant_derivation and not rep10.is_rank_exhaustive
        c10 = breadth_first_completion(V.RESTRICTED, r10)
        assert verify_derivation(V.RESTRICTED, c10).is_breadth_first
        added10 = [s for s in c10.steps if s.trigger not in r10.triggers()]
        assert [(s.trigger.rule_id, s.trigger_rank) for s in added10] == [("R2", 2)]
        assert time.monotonic() - start < 1.0


def test_criterion_09_equivalent_chase_non_heredity():
    with criterion(9, "equivalent chase reaches depth 3; restriction breaks it"):
        start = time.monotonic()
        kb = load_example("ex11")
        res = run_breadth_first(V.EQUIVALENT, kb, depth_cap=10, step_cap=100)
        d = res.derivation
        assert res.halt_reason is HaltReason.TERMINATED and d.depth() == 3

        def level(rank):
            return frozenset(at for at in d.factbase if d.atom_rank(at) == rank)

        lvl1, lvl2, lvl3 = level(1), level(2), level(3)
        ws = {at.args[0] for at in lvl1 if at.predicate == "r"}
        w_by_target = {at.args[1]: at.args[0]
                       for at in lvl1 if at.predicate == "p"}
        assert set(w_by_target) == {a, b, c} and set(w_by_target.values()) == ws
        assert lvl1 == {atom("t", a), atom("t", b)} | \
            {atom("p", w, t) for t, w in w_by_target.items()} | \
            {atom("r", w) for w in ws}
        w1 = w_by_target[c]
        (u1,) = {at.args[0] for at in lvl2 if at.predicate == "p"}
        assert lvl2 == {atom("q", w1), atom("r", a), atom("r", b),
                        atom("p", u1, w1)}
        assert lvl3 == {atom("q", b)}

        keep = kb.factbase - {atom("s", b)}
        restricted = restrict(d, keep)
        assert not verify_derivation(
            V.EQUIVALENT, restricted).is_valid_variant_derivation

        small = KnowledgeBase(keep, kb.ruleset)
        depths = set()
        for dd in enumerate_breadth_first_derivations(V.EQUIVALENT, small,
                                                      depth_target=3):
            assert verify_derivation(V.EQUIVALENT, dd).is_terminating
            depths.add(dd.depth())
        assert depths == {2}
        assert time.monotonic() - start < 5.0


def test_criterion_10_property_suites():
    with criterion(10, "invariants hold on 200 random KBs (zero violations)"):
        start = time.monotonic()
        rng = random.Random(20260810)
        hereditary = (V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED)
        kernel_checked = 0
        for i in range(200):
            kb = random_kb(rng)
            # (a) ancestor bound on every engine output, all four variants
            for variant in (*hereditary, V.EQUIVALENT):
                cap = 20 if variant is V.EQUIVALENT else 40
                res = run_breadth_first(variant, kb, depth_cap=3, step_cap=cap)
                assert check_ancestor_clue(res.derivation) == [], (i, variant)
                # (d) bit-identical trace replay
                assert check_trace_roundtrip(res.derivation,
                                             res.halt_reason) == [], (i, variant)
            # (b) heredity and (c) consistent heredity over random keeps
            for variant in hereditary:
                d, _ = bounded_run(variant, kb)
                for keep in random_keep_subsets(rng, d.initial):
                    assert check_heredity(variant, d, keep) == [], (i, variant)
                    assert check_consistent_heredity(variant, d, keep) == [], \
                        (i, variant)
            # (e) homomorphism kernel against brute-force enumeration,
            # including targets with nulls (grown factbases)
            grown = run_breadth_first(V.OBLIVIOUS, kb, depth_cap=2,
                                      step_cap=15).derivation.factbase
            for rule in kb.ruleset:
                for target in (kb.factbase, grown):
                    got = set(all_homomorphisms(rule.body, target))
                    want = {s.restrict(rule.body_vars)
                            for s in brute_force_homomorphisms(rule.body, target)}
                    assert got == want, (i, rule.rule_id)
                    kernel_checked += 1
        assert kernel_checked >= 200
        assert time.monotonic() - start < 600.0


def test_criterion_11_decider_cross_validation():
    with criterion(11, "oracle decider (no dedup, bigger pool) agrees everywhere"):
        start = time.monotonic()
        # Fixture rulesets: paper mode keeps the oracle's brute enumeration at
        # desk scale; both sides use the same mode so the comparison is exact.
        single = load_example("ex3_single").ruleset
        pair = load_example("ex3_pair").ruleset
        ex4 = load_example("ex4").ruleset
        fixtures = [
            BoundedQuery(single, V.RESTRICTED, 1, witness_bound_mode="paper"),
            BoundedQuery(pair, V.RESTRICTED, 1, witness_bound_mode="paper"),
            BoundedQuery(ex4, V.RESTRICTED, 1),
            BoundedQuery(ex4, V.SEMI_OBLIVIOUS, 1),
            BoundedQuery(ex4, V.OBLIVIOUS, 1),
        ]
        for q in fixtures:
            pool = default_pool_size(q.ruleset, q.max_atoms) + 1
            assert oracle_check_k_bounded(q, pool).bounded == \
                check_k_bounded(q).bounded, q

        rng = random.Random(1789)
        agreements = 0
        for i in range(50):
            rs = random_single_rule_set(rng)
            variant = rng.choice([V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED])
            q = BoundedQuery(rs, variant, 1, witness_bound_mode="paper")
            pool = default_pool_size(rs, q.max_atoms) + 1
            assert oracle_check_k_bounded(q, pool).bounded == \
                check_k_bounded(q).bounded, (i, variant)
            agreements += 1
        assert agreements == 50
        assert time.monotonic() - start < 900.0
