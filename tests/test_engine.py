import pytest

from chasebound import (
    ChaseVariant,
    Constant,
    Derivation,
    Rule,
    Substitution,
    Trigger,
    Variable,
    VerifyReport,
    atom,
    enumerate_breadth_first_derivations,
    is_applicable,
    parse_kb,
    run_breadth_first,
    safe_extension,
    verify_derivation,
)
from chasebound.errors import (
    ChaseError,
    NotApplicableError,
    UnknownTargetError,
    UnknownTriggerError,
)
from chasebound.homomorphism import IndexedAtoms

from conftest import EXAMPLE_SOURCES, load_example, trig
from oracles import enumerate_triggers

V = ChaseVariant
a, b, c = Constant("a"), Constant("b"), Constant("c")


def test_enumerate_triggers_on_loop():
    kb = load_example("ex2_k1")
    triggers = enumerate_triggers(kb.factbase, kb.ruleset)
    assert len(triggers) == 1
    (t,) = triggers
    assert t.pi.apply(kb.ruleset[t.rule_id].body) == {atom("p", a, a)}


def test_enumerate_triggers_empty_factbase():
    kb = load_example("ex2_k1")
    assert enumerate_triggers(frozenset(), kb.ruleset) == []


def test_enumerate_triggers_transitivity():
    kb = load_example("ex3_single")
    fb = frozenset({atom("p", a, b), atom("p", b, c)})
    triggers = enumerate_triggers(fb, kb.ruleset)
    assert len(triggers) == 1  # only the chaining embedding exists


def test_safe_extension_trigger_key_serialization():
    # A trigger-keyed null records the whole body substitution, sorted by
    # variable name; a frontier-keyed one records the frontier image.
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rule = Rule("R1", {atom("p", y, x)}, {atom("p", x, z)})
    t = Trigger("R1", Substitution({x: a, y: b}))
    n = safe_extension(t, rule, V.OBLIVIOUS).apply_term(z)
    assert (n.label, n.rule_id, n.exvar, n.frontier, n.inner, n.depth) == \
        (None, "R1", "z", False, (("x", a), ("y", b)), 1)
    n = safe_extension(t, rule, V.SEMI_OBLIVIOUS).apply_term(z)
    assert (n.label, n.rule_id, n.exvar, n.frontier, n.inner, n.depth) == \
        (None, "R1", "z", True, (a,), 1)


def test_safe_extension_frontier_key_idempotence():
    kb = load_example("ex2_k1")
    rule = kb.ruleset["R1"]
    t1 = trig(kb.ruleset, "R1", {"X": a, "Y": a})
    t2 = trig(kb.ruleset, "R1", {"X": a, "Y": b})  # frontier-equal: X -> a
    e1 = safe_extension(t1, rule, V.SEMI_OBLIVIOUS)
    e2 = safe_extension(t2, rule, V.SEMI_OBLIVIOUS)
    assert e1.apply(rule.head) == e2.apply(rule.head)


def test_safe_extension_datalog_is_identity():
    kb = load_example("ex3_single")
    rule = kb.ruleset["tc"]
    t = trig(kb.ruleset, "tc", {"X": a, "Y": b, "Z": c})
    assert safe_extension(t, rule, V.OBLIVIOUS) == t.pi


def test_o_applicable_but_not_so():
    kb = load_example("ex2_k1")
    d = Derivation.start(V.SEMI_OBLIVIOUS, kb)
    first = trig(kb.ruleset, "R1", {"X": a, "Y": a})
    d = d.extend(first)
    (new_atom,) = d.steps[-1].produced
    z0 = new_atom.args[1]
    again = trig(kb.ruleset, "R1", {"X": a, "Y": z0})
    assert is_applicable(V.OBLIVIOUS, d, again)
    assert not is_applicable(V.SEMI_OBLIVIOUS, d, again)


def test_so_applicable_but_not_r():
    kb = load_example("ex2_k2")
    d = Derivation.start(V.RESTRICTED, kb)
    t = trig(kb.ruleset, "R1", {"X": a, "Y": a})
    assert is_applicable(V.SEMI_OBLIVIOUS, d, t)
    assert not is_applicable(V.RESTRICTED, d, t)


def test_r_applicable_but_not_e():
    kb = load_example("ex2_k3")
    d = Derivation.start(V.RESTRICTED, kb)
    w = next(iter(kb.factbase)).args[1]
    first = trig(kb.ruleset, "R1", {"X": a, "Y": w})
    d = d.extend(first)
    z0 = next(at.args[1] for at in d.steps[-1].produced if at.args[0] == w)
    nxt = trig(kb.ruleset, "R1", {"X": w, "Y": z0})
    assert is_applicable(V.RESTRICTED, d, nxt)
    d_e = Derivation.start(V.EQUIVALENT, kb).extend(first, check=False)
    assert not is_applicable(V.EQUIVALENT, d_e, nxt)


def test_unknown_trigger_raises():
    kb = load_example("ex2_k1")
    d = Derivation.start(V.OBLIVIOUS, kb)
    with pytest.raises(UnknownTriggerError):
        is_applicable(V.OBLIVIOUS, d, trig(kb.ruleset, "R1", {"X": a, "Y": b}))
    with pytest.raises(UnknownTriggerError):
        is_applicable(V.OBLIVIOUS, d, trig(kb.ruleset, "R1", {"X": a}))


def test_verify_reports_a_step_that_does_not_replay():
    # A derivation built by hand whose initial factbase lacks the first
    # step's body: its replay stops at that step.
    kb = load_example("ex1")
    d = run_breadth_first(V.RESTRICTED, kb, step_cap=2).derivation
    bare = Derivation(V.RESTRICTED, kb.ruleset, frozenset(), d.steps, IndexedAtoms(),
                      {}, 0, frozenset(), frozenset())
    assert verify_derivation(V.RESTRICTED, bare) == VerifyReport(
        False, False, False, False,
        "step 1: trigger (R1,{X:alice}) body does not embed into the factbase")


def test_foreign_targets_and_unknown_rules_are_rejected():
    kb = load_example("ex2_k1")
    d = Derivation.start(V.OBLIVIOUS, kb)
    with pytest.raises(UnknownTargetError,
                       match=r"^atom p\(b,b\) does not occur in the derivation$"):
        d.atom_rank(atom("p", b, b))
    with pytest.raises(UnknownTargetError,
                       match=r"^trigger \(R1,\{X:a,Y:a\}\) is not part of the derivation$"):
        d.ancestors(trig(kb.ruleset, "R1", {"X": a, "Y": a}))
    with pytest.raises(UnknownTriggerError, match="^unknown rule id R9$"):
        d.extend(Trigger("R9", Substitution({})), check=False)


@pytest.mark.parametrize("search, message", [
    (lambda kb: run_breadth_first(V.OBLIVIOUS, kb, depth_cap=0), "caps must be >= 1"),
    (lambda kb: run_breadth_first(V.OBLIVIOUS, kb, step_cap=0), "caps must be >= 1"),
    (lambda kb: next(enumerate_breadth_first_derivations(V.OBLIVIOUS, kb, depth_target=0)),
     "depth_target must be >= 1"),
], ids=["depth-cap", "step-cap", "depth-target"])
def test_search_limits_below_one_are_rejected(search, message):
    with pytest.raises(ChaseError, match=f"^{message}$"):
        search(load_example("ex2_k1"))


def test_substitution_beyond_body_vars_is_no_trigger():
    # The body image p(a,a) embeds, but a trigger's substitution has domain
    # exactly vars(body): the extra variable W makes this no trigger.
    kb = load_example("ex2_k1")
    d = Derivation.start(V.OBLIVIOUS, kb)
    t = trig(kb.ruleset, "R1", {"X": a, "Y": a, "W": b})
    with pytest.raises(UnknownTriggerError):
        d.extend(t, check=False)
    with pytest.raises(UnknownTriggerError):
        d.trigger_rank_of(t)


def test_extend_example1_products_and_ranks():
    kb = load_example("ex1")
    d = Derivation.start(V.OBLIVIOUS, kb)
    (t,) = enumerate_triggers(kb.factbase, kb.ruleset)
    d = d.extend(t)
    assert len(d.factbase) == 3
    produced = d.steps[-1].produced
    assert {at.predicate for at in produced} == {"parentOf", "human"}
    assert all(d.atom_rank(at) == 1 for at in produced)
    assert d.depth() == 1


def test_noop_step_is_recorded_and_depth_unchanged():
    kb = load_example("ex7")
    rs = kb.ruleset
    d = Derivation.start(V.OBLIVIOUS, kb)
    d = d.extend(trig(rs, "R1", {"X": a}))   # q(a) at rank 1
    d = d.extend(trig(rs, "R3", {"X": a}))   # r(a) at rank 1
    d = d.extend(trig(rs, "R2", {"X": a}))   # r(a) again: no-op at rank 2
    assert d.steps[-1].produced == frozenset()
    assert d.steps[-1].trigger_rank == 2
    assert d.depth() == 1
    assert len(d.steps) == 3


def test_extend_rejects_duplicate_trigger():
    kb = load_example("ex2_k1")
    d = Derivation.start(V.OBLIVIOUS, kb)
    t = trig(kb.ruleset, "R1", {"X": a, "Y": a})
    d = d.extend(t)
    with pytest.raises(NotApplicableError):
        d.extend(t, check=False)


def test_not_applicable_raises_on_checked_extend():
    kb = load_example("ex2_k2")
    d = Derivation.start(V.RESTRICTED, kb)
    with pytest.raises(NotApplicableError):
        d.extend(trig(kb.ruleset, "R1", {"X": a, "Y": a}))


def test_restricted_datalog_fast_path_matches_extension_path(monkeypatch):
    # The restricted check runs once per frontier image, on the head with
    # that image filled in: a membership loop for a datalog rule, a search
    # that moves the existential variables otherwise.  Its definitional
    # reference mints the trigger's fresh nulls, lets only them move and
    # searches for a homomorphism.  Both must give the same verdict on every
    # trigger, and the same traces and decider answers when the reference
    # replaces the check.
    import random

    import chasebound.engine as engine
    from chasebound import (BoundedQuery, check_k_bounded, find_homomorphism,
                            run_breadth_first, serialize_trace)
    from oracles import random_datalog_kb, random_kb

    def reference(d, t):
        rule = d._rule(t)
        extension = safe_extension(t, rule, d.variant)
        head = extension.apply(rule.head)
        fresh = frozenset(extension.apply_term(z) for z in rule.existentials)
        frozen = frozenset(x for at in head for x in at.args) - fresh
        return find_homomorphism(head, d.factbase, frozen) is None

    check = engine._frontier_open

    def reference_check(variant, d, rule, frontier):
        if variant is not V.RESTRICTED:
            return check(variant, d, rule, frontier)
        # The head image depends on the frontier image and the fresh nulls only.
        return reference(d, Trigger(rule.rule_id,
                                    Substitution(zip(rule.frontier_order, frontier))))

    kbs = [random_datalog_kb(random.Random(seed)) for seed in range(20)]
    kbs += [random_kb(random.Random(seed)) for seed in range(40)]
    assert any(kb.ruleset.rule_constants for kb in kbs[:20])
    # A mixed ruleset (datalog and existential rules) with a rule constant.
    assert any(kb.ruleset.rule_constants and not kb.ruleset.is_datalog
               and any(r.is_datalog for r in kb.ruleset) for kb in kbs[20:])

    def runs():
        traces = []
        for kb in kbs:
            res = run_breadth_first(V.RESTRICTED, kb, depth_cap=3, step_cap=40)
            traces.append(serialize_trace(res.derivation, res.halt_reason))
        verdicts = []
        for name, k in (("ex3_single", 1), ("ex4", 2), ("ex2_k2", 1)):
            v = check_k_bounded(BoundedQuery(load_example(name).ruleset, V.RESTRICTED, k))
            verdicts.append((v.bounded, v.witness and v.witness.derivation.triggers()))
        return traces, verdicts

    expected = runs()
    # (datalog rule, applicable, applied) -> triggers seen; every kind of
    # verdict must occur, on datalog and on existential rules.
    seen: dict = {}
    for kb in kbs:
        run = run_breadth_first(V.RESTRICTED, kb, depth_cap=3, step_cap=40).derivation
        d = Derivation.start(V.RESTRICTED, kb)
        for step in [*run.steps, None]:
            for t in enumerate_triggers(d.factbase, d.ruleset):
                verdict = engine._applicable(V.RESTRICTED, d, t)
                assert verdict == reference(d, t), t
                key = (d._rule(t).is_datalog, verdict, t in d.applied)
                seen[key] = seen.get(key, 0) + 1
            if step is not None:
                d = d.extend(step.trigger)
    assert {(True, True, False), (True, False, False), (False, True, False),
            (False, False, False), (False, False, True)} <= set(seen), seen
    monkeypatch.setattr(engine, "_frontier_open", reference_check)
    assert runs() == expected


# Heads the compiled restricted check must get right: a repeated frontier
# variable (H1), a head constant (H2), two frontier variables that p(a,a) maps
# to one term (H3), a repeated existential shared by two atoms (H4) and an
# empty frontier (H5).  The s and u facts satisfy some heads from the start.
HEAD_KB = parse_kb("""
    p(a,a). p(a,b). p(b,c). q(a). q(b). s(b,b,c). s(b,c,a). u(a,c). u(c,c).
    [H1] q(X) -> s(X,X,Z).
    [H2] q(X) -> s(X,c,Z).
    [H3] p(X,Y) -> s(X,Y,Z).
    [H4] p(X,Y) -> u(X,Z), u(Z,Z), s(Y,Z,X).
    [H5] q(X) -> w(Z), u(Z,Z).
""").kb


def test_compiled_head_check_matches_the_find_homomorphism_oracle(monkeypatch):
    # Every frontier image the restricted chase checks, on every fixture, 30
    # seeded random KBs and HEAD_KB: the compiled check and the head check as
    # first written give the same verdict, judged on the derivation as it is
    # at the call (the runner grows it in place).
    import random

    import chasebound.engine as engine
    from oracles import oracle_head_check, random_kb

    check = engine._frontier_open
    verdicts: dict = {}

    def compared(variant, d, rule, frontier):
        verdict = check(variant, d, rule, frontier)
        if variant is V.RESTRICTED:
            assert verdict == oracle_head_check(d, rule, frontier), (rule, frontier)
            key = (rule.rule_id, verdict) if d.ruleset is HEAD_KB.ruleset \
                else (rule.is_datalog, verdict)
            verdicts[key] = verdicts.get(key, 0) + 1
        return verdict

    monkeypatch.setattr(engine, "_frontier_open", compared)
    kbs = [load_example(name) for name in EXAMPLE_SOURCES]
    kbs += [random_kb(random.Random(seed)) for seed in range(30)]
    kbs.append(HEAD_KB)
    for kb in kbs:
        run_breadth_first(V.RESTRICTED, kb, depth_cap=4, step_cap=40)
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(verdicts)
    assert {(f"H{i}", v) for i in range(1, 6) for v in (True, False)} <= set(verdicts)


def test_restricted_parent_loop_scales_linearly(monkeypatch):
    # Counts the atoms the one matcher visits instead of timing: those of the
    # restricted check's homomorphism search and of the rank join.  The check
    # looks the frozen frontier image up in the factbase's argument-position
    # index and each rank's delta is one atom, so every step of the parent
    # loop visits a bounded number of atoms, however long the loop has run.
    from chasebound import homomorphism, run_breadth_first

    calls = [0]
    matches = homomorphism.Join.matches

    class Visited(list):
        def __iter__(self):
            for a in list.__iter__(self):
                calls[0] += 1
                yield a

    def counting_matches(join, lists, *args):
        return matches(join, [Visited(atoms) for atoms in lists], *args)

    monkeypatch.setattr(homomorphism.Join, "matches", counting_matches)
    kb = load_example("ex1")
    counts = []
    for steps in (100, 200):
        calls[0] = 0
        res = run_breadth_first(V.RESTRICTED, kb, step_cap=steps)
        assert len(res.derivation.steps) == steps
        counts.append(calls[0])
    assert 0 < counts[1] <= 2 * counts[0], counts
