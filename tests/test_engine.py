import pytest

from chasebound import (
    ChaseVariant,
    Constant,
    Derivation,
    NamingMode,
    Substitution,
    Trigger,
    Variable,
    atom,
    derive_rule_metadata,
    enumerate_triggers,
    is_applicable,
    safe_extension,
)
from chasebound.errors import NotApplicableError, UnknownTriggerError

from conftest import load_example, trig

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
    # Lowercase variable names here pin the exact serialized null form:
    # _:R1#{x:a,y:a}#z
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rule = derive_rule_metadata("R1", {atom("p", x, y)}, {atom("p", x, z)})
    t = Trigger("R1", Substitution({x: a, y: a}))
    ext = safe_extension(t, rule, NamingMode.TRIGGER)
    assert str(ext.apply_term(z)) == "_:R1#{x:a,y:a}#z"


def test_safe_extension_frontier_key_idempotence():
    kb = load_example("ex2_k1")
    rule = kb.ruleset["R1"]
    t1 = trig(kb.ruleset, "R1", {"X": a, "Y": a})
    t2 = trig(kb.ruleset, "R1", {"X": a, "Y": b})  # frontier-equal: X -> a
    e1 = safe_extension(t1, rule, NamingMode.FRONTIER)
    e2 = safe_extension(t2, rule, NamingMode.FRONTIER)
    assert e1.apply(rule.head) == e2.apply(rule.head)


def test_safe_extension_datalog_is_identity():
    kb = load_example("ex3_single")
    rule = kb.ruleset["tc"]
    t = trig(kb.ruleset, "tc", {"X": a, "Y": b, "Z": c})
    assert safe_extension(t, rule, NamingMode.TRIGGER) == t.pi


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
    # For a datalog rule the restricted check compares pi(head) with the
    # factbase directly; the extension path it skips must give the same
    # verdict on every trigger and the same traces.
    import random

    import chasebound.engine as engine
    from chasebound import (BoundedQuery, check_k_bounded, run_breadth_first,
                            serialize_trace)
    from oracles import random_datalog_kb, random_kb

    fast = engine._applicable

    def extension_path(variant, d, t):
        verdict = fast(variant, d, t)
        rule = d._rule(t)
        if variant is V.RESTRICTED and rule.is_datalog and t not in d.applied:
            head = safe_extension(t, rule, d.naming_mode).apply(rule.head)
            return not head <= d.factbase
        return verdict

    kbs = [random_datalog_kb(random.Random(seed)) for seed in range(20)]
    # A mixed ruleset (datalog and existential rules) with a rule constant.
    mixed = next(kb for kb in (random_kb(random.Random(seed)) for seed in range(100))
                 if kb.ruleset.rule_constants
                 and any(r.is_datalog for r in kb.ruleset)
                 and not all(r.is_datalog for r in kb.ruleset))
    kbs.append(mixed)
    assert any(kb.ruleset.rule_constants for kb in kbs[:-1])

    def runs():
        traces = []
        for kb in kbs:
            res = run_breadth_first(V.RESTRICTED, kb, depth_cap=3, step_cap=40)
            traces.append(serialize_trace(res.derivation, res.halt_reason))
        verdict = check_k_bounded(
            BoundedQuery(load_example("ex3_single").ruleset, V.RESTRICTED, 1))
        return traces, verdict.bounded, verdict.witness.derivation.triggers()

    expected = runs()
    for kb in kbs:
        d = run_breadth_first(V.RESTRICTED, kb, depth_cap=3, step_cap=40).derivation
        for t in enumerate_triggers(d.factbase, d.ruleset):
            assert fast(V.RESTRICTED, d, t) == extension_path(V.RESTRICTED, d, t)
    monkeypatch.setattr(engine, "_applicable", extension_path)
    assert runs() == expected


def test_restricted_parent_loop_scales_linearly(monkeypatch):
    # Counts atom comparisons instead of timing: those of the homomorphism
    # search and the atoms the rank join visits.  The restricted check looks
    # the frozen frontier image up in the factbase's argument-position index
    # and each rank's delta is one atom, so every step of the parent loop
    # compares a bounded number of atoms, however long the loop has run.
    from chasebound import homomorphism, rules, run_breadth_first

    calls = [0]
    match = homomorphism._match_atom
    matches = rules.BodyJoin.matches

    def counting(*args):
        calls[0] += 1
        return match(*args)

    class Visited(list):
        def __iter__(self):
            for a in list.__iter__(self):
                calls[0] += 1
                yield a

    def counting_matches(join, lists, out):
        return matches(join, [Visited(atoms) for atoms in lists], out)

    monkeypatch.setattr(homomorphism, "_match_atom", counting)
    monkeypatch.setattr(rules.BodyJoin, "matches", counting_matches)
    kb = load_example("ex1")
    counts = []
    for steps in (100, 200):
        calls[0] = 0
        res = run_breadth_first(V.RESTRICTED, kb, step_cap=steps)
        assert len(res.derivation.steps) == steps
        counts.append(calls[0])
    assert 0 < counts[1] <= 2 * counts[0], counts
