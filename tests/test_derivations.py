import pytest

from chasebound import (
    ChaseVariant,
    Constant,
    Derivation,
    HaltReason,
    KnowledgeBase,
    breadth_first_completion,
    enumerate_breadth_first_derivations,
    restrict,
    run_breadth_first,
    verify_derivation,
)
from chasebound.engine import safe_extension
from chasebound.errors import (
    KeepNotSubsetError,
    UnknownTargetError,
    VariantUnsupportedError,
)
from chasebound.terms import atom, terms_of

from conftest import load_example, trig
from oracles import oracle_breadth_first_derivations

V = ChaseVariant
a, b, c = Constant("a"), Constant("b"), Constant("c")


def build_example6():
    kb = load_example("ex6")
    rs = kb.ruleset
    rule = rs["R"]
    d = Derivation.start(V.OBLIVIOUS, kb)
    pi1 = trig(rs, "R", {"X": a, "Y": a})
    pi2 = trig(rs, "R", {"X": b, "Y": b})
    z1 = safe_extension(pi1, rule, V.OBLIVIOUS).apply(rule.head)
    z_pi1 = next(at.args[1] for at in z1)
    d = d.extend(pi1).extend(pi2)
    pi3 = trig(rs, "R", {"X": a, "Y": z_pi1})
    d = d.extend(pi3)
    z_pi3 = next(at.args[1] for at in d.steps[-1].produced)
    pi4 = trig(rs, "R", {"X": z_pi1, "Y": z_pi3})
    d = d.extend(pi4)
    z_pi4 = next(at.args[1] for at in d.steps[-1].produced)
    return kb, d, (pi1, pi2, pi3, pi4), (z_pi1, z_pi3, z_pi4)


def test_example6_restriction_triggers_and_factbase():
    kb, d, (pi1, pi2, pi3, pi4), (z1, z3, z4) = build_example6()
    assert len(d.factbase) == 6
    # The third trigger chains off a rank-1 atom, so its product has rank 2.
    assert d.atom_rank(atom("p", z1, z3)) == 2
    g = frozenset({atom("p", a, a)})
    restricted = restrict(d, g)
    assert restricted.triggers() == (pi1, pi3, pi4)
    expected = g | {atom("p", a, z1), atom("p", z1, z3), atom("p", z3, z4)}
    assert restricted.factbase == expected


def test_restrict_with_full_initial_is_identity():
    kb, d, triggers, _ = build_example6()
    restricted = restrict(d, d.initial)
    assert restricted.triggers() == d.triggers()
    assert restricted.factbase == d.factbase


def test_restrict_requires_subset():
    kb, d, _, _ = build_example6()
    with pytest.raises(KeepNotSubsetError,
                       match=r"^atoms not in the initial factbase: p\(a,b\)$"):
        restrict(d, frozenset({atom("p", a, b)}))


def test_example6_ancestors():
    kb, d, (pi1, pi2, pi3, pi4), (z1, z3, z4) = build_example6()
    deep = atom("p", z3, z4)
    anc = d.ancestors(deep)
    assert anc & d.initial == {atom("p", a, a)}
    assert d.ancestors(atom("p", a, a)) == frozenset()
    with pytest.raises(UnknownTargetError):
        d.ancestors(atom("p", c, c))
    # Ancestor bound: |initial ∩ ancestors| <= b^rank throughout.
    bsize = kb.ruleset.b
    for at in d.factbase:
        rank = d.atom_rank(at)
        assert len(d.ancestors(at) & d.initial) <= bsize ** rank


def test_trigger_level_ancestors():
    kb, d, (pi1, pi2, pi3, pi4), _ = build_example6()
    assert d.trigger_ancestors(pi4) == {pi3, pi1}
    assert d.trigger_ancestors(pi1) == frozenset()


def test_example7_depths():
    kb = load_example("ex7")
    rs = kb.ruleset
    pi = {"X": a}
    d1 = Derivation.start(V.OBLIVIOUS, kb)
    for rid in ("R1", "R2", "R3"):
        d1 = d1.extend(trig(rs, rid, pi))
    d2 = Derivation.start(V.OBLIVIOUS, kb)
    for rid in ("R1", "R3", "R2"):
        d2 = d2.extend(trig(rs, rid, pi))
    assert d1.depth() == 2
    assert d2.depth() == 1
    empty = Derivation.start(V.OBLIVIOUS, kb)
    assert empty.depth() == 0


# -- breadth-first runner -----------------------------------------------------


def test_example8_breadth_first_restricted_never_terminates():
    kb = load_example("ex8")
    for cap in (2, 4, 7):
        res = run_breadth_first(V.RESTRICTED, kb, depth_cap=cap, step_cap=500)
        assert res.halt_reason is HaltReason.DEPTH_CAP


def test_empty_factbase_yields_the_empty_derivation():
    kb = load_example("ex4")
    empty = KnowledgeBase(frozenset(), kb.ruleset)
    for variant in V:
        res = run_breadth_first(variant, empty)
        assert res.halt_reason is HaltReason.TERMINATED
        assert res.derivation.depth() == 0 and not res.derivation.steps


def test_example2_k2_restricted_terminates_at_depth_zero():
    kb = load_example("ex2_k2")
    res = run_breadth_first(V.RESTRICTED, kb)
    assert res.halt_reason is HaltReason.TERMINATED
    assert res.derivation.depth() == 0
    assert len(res.derivation.steps) == 0


def test_example4_restricted_vs_semi_oblivious():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    assert res.halt_reason is HaltReason.TERMINATED
    assert res.derivation.depth() == 1
    fb = res.derivation.factbase
    assert atom("p", a, b) in fb and len(fb) == 3
    # p(b,z0) and p(z0,b) for a single fresh z0
    z0s = terms_of(fb) - {a, b}
    assert len(z0s) == 1

    so = run_breadth_first(V.SEMI_OBLIVIOUS, kb, depth_cap=4, step_cap=500)
    assert so.halt_reason is HaltReason.DEPTH_CAP


def test_run_below_caps_is_breadth_first_and_terminating():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    report = verify_derivation(V.RESTRICTED, res.derivation)
    assert report.all_ok()


def test_random_policy_is_seed_deterministic():
    kb = load_example("ex11")
    r1 = run_breadth_first(V.RESTRICTED, kb, policy="random", seed=7,
                           depth_cap=3, step_cap=60)
    r2 = run_breadth_first(V.RESTRICTED, kb, policy="random", seed=7,
                           depth_cap=3, step_cap=60)
    assert r1.derivation.triggers() == r2.derivation.triggers()
    assert r1.derivation.factbase == r2.derivation.factbase


# -- enumeration ---------------------------------------------------------------


def test_example5_order_dependence():
    kb = load_example("ex5")
    results = list(enumerate_breadth_first_derivations(V.RESTRICTED, kb,
                                                       depth_target=2))
    terminating, capped = [], []
    for d in results:
        if d.depth() >= 2:
            capped.append(d)
        else:
            report = verify_derivation(V.RESTRICTED, d)
            assert report.is_terminating
            terminating.append(d)
    assert terminating and capped
    assert any(d.depth() == 1 for d in terminating)


def test_state_dedup_preserves_reachable_factbases():
    # The visited-state pruning must not lose outcomes: the set of reachable
    # final factbases matches the unpruned reference enumeration.  On ex8 the
    # pruning keeps 3 of 36 branches under r and 4 of 10 under e.
    for name, variant in (("ex5", V.RESTRICTED), ("ex8", V.RESTRICTED),
                          ("ex8", V.EQUIVALENT)):
        kb = load_example(name)
        pruned = {d.factbase for d in enumerate_breadth_first_derivations(
            variant, kb, depth_target=3)}
        assert pruned == {d.factbase for d in oracle_breadth_first_derivations(
            variant, kb, depth_target=3)}


def test_datalog_enumeration_is_single_branch():
    kb = load_example("ex3_pair")
    kb = KnowledgeBase(frozenset({atom("p", a, b), atom("p", b, c)}), kb.ruleset)
    for variant in (V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED):
        results = list(enumerate_breadth_first_derivations(variant, kb,
                                                           depth_target=5))
        assert len(results) == 1
        assert verify_derivation(variant, results[0]).is_terminating


# -- heredity: examples 9 and 10 ----------------------------------------------


def build_example9():
    kb = load_example("ex9")
    rs = kb.ruleset
    d = Derivation.start(V.SEMI_OBLIVIOUS, kb)
    d = d.extend(trig(rs, "R1", {"X": a, "Y": b}))
    d = d.extend(trig(rs, "R3", {"X": a, "Y": c}))
    d = d.extend(trig(rs, "R2", {"X": a, "Y": c}))
    d = d.extend(trig(rs, "R3", {"X": a, "Y": b}))
    return kb, d


def test_example9_so_restriction_loses_breadth_firstness():
    kb, d = build_example9()
    assert verify_derivation(V.SEMI_OBLIVIOUS, d).is_breadth_first
    assert d.depth() == 2
    restricted = restrict(d, frozenset({atom("p", a, b)}))
    assert [t.rule_id for t in restricted.triggers()] == ["R1", "R3"]
    report = verify_derivation(V.SEMI_OBLIVIOUS, restricted)
    assert report.is_valid_variant_derivation  # heredity
    assert report.is_rank_compatible
    assert not report.is_rank_exhaustive      # (R2, X->a) wakes up at rank 2
    assert restricted.depth() == 2


def test_example9_completion_reinserts_missing_trigger():
    kb, d = build_example9()
    restricted = restrict(d, frozenset({atom("p", a, b)}))
    completed = breadth_first_completion(V.SEMI_OBLIVIOUS, restricted)
    report = verify_derivation(V.SEMI_OBLIVIOUS, completed)
    assert report.is_valid_variant_derivation and report.is_breadth_first
    added = [t for t in completed.triggers() if t not in restricted.triggers()]
    assert [t.rule_id for t in added] == ["R2"]
    assert completed.trigger_rank_of(added[0]) in (2,)
    # The restriction stays a subderivation with unchanged trigger ranks.
    rank_in = {s.trigger: s.trigger_rank for s in completed.steps}
    retained = [s for s in restricted.steps]
    positions = [completed.triggers().index(s.trigger) for s in retained]
    assert positions == sorted(positions)
    for s in retained:
        assert rank_in[s.trigger] == s.trigger_rank


def build_example10():
    kb = load_example("ex10")
    rs = kb.ruleset
    d = Derivation.start(V.RESTRICTED, kb)
    d = d.extend(trig(rs, "R1", {"X": a, "Y": b}))
    d = d.extend(trig(rs, "R3", {"X": a, "Y": b}))
    return kb, d


def test_example10_restricted_restriction_and_completion():
    kb, d = build_example10()
    assert verify_derivation(V.RESTRICTED, d).all_ok()
    restricted = restrict(d, frozenset({atom("p", a, b)}))
    report = verify_derivation(V.RESTRICTED, restricted)
    assert report.is_valid_variant_derivation
    assert not report.is_rank_exhaustive
    completed = breadth_first_completion(V.RESTRICTED, restricted)
    report2 = verify_derivation(V.RESTRICTED, completed)
    assert report2.is_valid_variant_derivation and report2.is_breadth_first
    added = [t for t in completed.triggers() if t not in restricted.triggers()]
    assert [t.rule_id for t in added] == ["R2"]
    assert completed.steps[-1].trigger_rank == 2


def test_completion_of_full_restriction_is_identity():
    kb, d = build_example10()
    restricted = restrict(d, d.initial)
    completed = breadth_first_completion(V.RESTRICTED, restricted)
    assert completed.triggers() == d.triggers()


def test_completion_rejects_equivalent_chase():
    kb, d = build_example10()
    with pytest.raises(VariantUnsupportedError):
        breadth_first_completion(V.EQUIVALENT, restrict(d, d.initial))


def test_restriction_rank_shift_corner():
    # Dropping an initial atom that a retained head re-produces shifts ranks
    # non-uniformly: the restriction of a breadth-first derivation is then not
    # rank-compatible, so it cannot be a subsequence of any breadth-first
    # derivation.  The completion still contains every retained trigger with
    # its restriction rank, in rank-sorted order.
    from chasebound import parse_kb

    src = """
        q(a). r(a,a).
        [G1] r(X,Y) -> q(X), p(X).
        [G2] r(X,Y) -> k(X).
        [G3] q(X) -> m(X).
        [G4] m(X) -> n(X).
        [G5] k(X) -> o(X).
    """
    kb = parse_kb(src).kb
    rs = kb.ruleset
    d = Derivation.start(V.OBLIVIOUS, kb)
    d = d.extend(trig(rs, "G1", {"X": a, "Y": a}))
    d = d.extend(trig(rs, "G2", {"X": a, "Y": a}))
    for rid in ("G3", "G4", "G5"):
        d = d.extend(trig(rs, rid, {"X": a}))
    assert verify_derivation(V.OBLIVIOUS, d).is_breadth_first
    assert [s.trigger_rank for s in d.steps] == [1, 1, 1, 2, 2]

    restricted = restrict(d, frozenset({atom("r", a, a)}))
    assert [s.trigger_rank for s in restricted.steps] == [1, 1, 2, 3, 2]
    report = verify_derivation(V.OBLIVIOUS, restricted)
    assert report.is_valid_variant_derivation
    assert not report.is_rank_compatible

    completed = breadth_first_completion(V.OBLIVIOUS, restricted)
    assert verify_derivation(V.OBLIVIOUS, completed).is_breadth_first
    order = [(s.trigger.rule_id, s.trigger_rank) for s in completed.steps]
    assert order == [("G1", 1), ("G2", 1), ("G3", 2), ("G5", 2), ("G4", 3)]


# -- example 11: the equivalent chase ------------------------------------------


def rank_level(d, rank):
    return frozenset(at for at in d.factbase if d.atom_rank(at) == rank)


def test_example11_equivalent_chase_levels():
    kb = load_example("ex11")
    res = run_breadth_first(V.EQUIVALENT, kb, depth_cap=10, step_cap=100)
    assert res.halt_reason is HaltReason.TERMINATED
    d = res.derivation
    assert d.depth() == 3
    assert len(d.factbase) == 17
    assert [len(rank_level(d, r)) for r in range(4)] == [4, 8, 4, 1]

    # Exact per-rank contents.  The listing (up to null names) is
    #   1: t(a), t(b), p(w1,c), r(w1), p(w2,b), r(w2), p(w3,a), r(w3)
    #   2: q(w1), r(a), r(b), p(u1,w1)
    #   3: q(b)
    # and the null carrying q at rank 2 must be the one with p(.,c) at rank 1.
    level1, level2, level3 = (rank_level(d, r) for r in (1, 2, 3))
    ws = {at.args[0] for at in level1 if at.predicate == "r"}
    assert len(ws) == 3
    w_by_target = {at.args[1]: at.args[0] for at in level1 if at.predicate == "p"}
    assert set(w_by_target) == {a, b, c}
    assert set(w_by_target.values()) == ws
    assert level1 == {atom("t", a), atom("t", b)} | \
        {atom("p", w, t) for t, w in w_by_target.items()} | \
        {atom("r", w) for w in ws}

    w1 = w_by_target[c]
    (u1,) = {at.args[0] for at in level2 if at.predicate == "p"}
    assert u1 not in ws
    assert level2 == {atom("q", w1), atom("r", a), atom("r", b),
                      atom("p", u1, w1)}
    assert level3 == {atom("q", b)}


def test_example11_restriction_is_not_an_e_derivation():
    kb = load_example("ex11")
    res = run_breadth_first(V.EQUIVALENT, kb, depth_cap=10, step_cap=100)
    keep = kb.factbase - {atom("s", b)}
    restricted = restrict(res.derivation, keep)
    # Still produces r(a), r(b) and a copy atom p(u1,w1), but no q atoms
    # before rank 3, and no rank-3 step at all.
    assert restricted.depth() == 2
    preds2 = sorted(at.predicate for at in restricted.factbase
                    if restricted.atom_rank(at) == 2)
    assert preds2 == ["p", "r", "r"]
    assert not any(at.predicate == "q" for at in restricted.factbase)
    report = verify_derivation(V.EQUIVALENT, restricted)
    assert not report.is_valid_variant_derivation  # non-heredity

    # From the reduced factbase, every exhaustive equivalent-chase derivation
    # has depth 2: no branch of the breadth-first search reaches 3.
    small = KnowledgeBase(keep, kb.ruleset)
    depths = set()
    for dd in enumerate_breadth_first_derivations(V.EQUIVALENT, small,
                                                  depth_target=3):
        assert verify_derivation(V.EQUIVALENT, dd).is_terminating
        depths.add(dd.depth())
    assert depths == {2}
