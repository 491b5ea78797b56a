import pytest

from chasebound import (
    ChaseVariant,
    Constant,
    Diagnostic,
    KnowledgeBase,
    Null,
    Rule,
    RuleSet,
    Variable,
    atom,
    find_homomorphism,
    parse_kb,
    run_breadth_first,
    validate_kb,
)
from chasebound.errors import ChaseError, EmptyBodyError, EmptyHeadError

from conftest import load_example

x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_frontier_and_existentials():
    # p(x,y) -> p(y,z), p(z,y): frontier {y}, existential {z}
    r = Rule("r", {atom("p", x, y)}, {atom("p", y, z), atom("p", z, y)})
    assert r.frontier == {y}
    assert r.existentials == {z}

    # p(x,y) -> p(y,y): frontier {y}, datalog
    r2 = Rule("r2", {atom("p", x, y)}, {atom("p", y, y)})
    assert r2.frontier == {y}
    assert r2.existentials == frozenset()
    assert r2.is_datalog

    # identity rule: frontier is everything
    r3 = Rule("r3", {atom("p", x, y)}, {atom("p", x, y)})
    assert r3.frontier == {x, y}
    assert r3.existentials == frozenset()


def test_frontier_subset_of_body_and_head_partition():
    r = Rule("r", {atom("p", x, y)}, {atom("p", y, z), atom("p", z, y)})
    head_vars = {t for a in r.head for t in a.args if isinstance(t, Variable)}
    assert r.frontier | r.existentials == head_vars
    assert r.frontier <= r.body_vars


def test_empty_parts_rejected():
    with pytest.raises(EmptyBodyError, match="^rule r: empty body$"):
        Rule("r", set(), {atom("p", x, x)})
    with pytest.raises(EmptyHeadError, match="^rule r: empty head$"):
        Rule("r", {atom("p", x, x)}, set())
    with pytest.raises(ChaseError, match="^rule r: rules must not contain nulls$"):
        Rule("r", {atom("p", x, Null("w"))}, {atom("q", x)})


def test_rules_are_values_of_id_body_and_head():
    first, second = (load_example("ex3_pair").ruleset for _ in range(2))
    assert first.rules == second.rules
    assert list(map(hash, first)) == list(map(hash, second))
    tc = first["tc"]
    assert tc is not second["tc"] and tc.join is not second["tc"].join
    assert Rule("other", tc.body, tc.head) != tc


def test_ruleset_stats_on_examples():
    ex3 = load_example("ex3_pair").ruleset
    assert ex3.b == 2
    assert ex3.body_predicates == {"p"}
    assert ex3.rule_constants == frozenset()

    single = load_example("ex2_k1").ruleset
    assert single.b == 1

    ex11 = load_example("ex11").ruleset
    assert ex11.b == 4
    assert ex11.body_predicates == {"s", "p", "r", "t"}


def test_stats_invariant_under_reordering():
    rs = load_example("ex11").ruleset
    reordered = RuleSet(tuple(reversed(rs.rules)))
    assert reordered.b == rs.b
    assert reordered.body_predicates == rs.body_predicates


def test_validate_clean_kb():
    kb = load_example("ex1")
    assert validate_kb(kb) == []


def test_validate_arity_conflict():
    rs = RuleSet([Rule("r", {atom("p", x)}, {atom("q", x)})])
    kb = KnowledgeBase(frozenset({atom("p", Constant("a"), Constant("b"))}), rs)
    diags = validate_kb(kb)
    assert any(d.severity == "error" and "arity" in d.message for d in diags)


def test_validate_variable_in_factbase():
    # The parser rejects a variable in a fact itself, so only a KB built by
    # hand gets here.
    kb = KnowledgeBase(frozenset({atom("p", Constant("a"), x)}), RuleSet([]))
    assert validate_kb(kb) == [Diagnostic(
        "error", "factbase atom p(a,x) contains a variable; "
                 "use an initial null (_:name) instead")]


def test_validate_generated_nulls_in_factbase():
    # Generated nulls have no text form, but a KB built from a derivation's
    # factbase can still hold them; only initial nulls belong in a factbase.
    kb = load_example("ex2_k3")
    d = run_breadth_first(ChaseVariant.RESTRICTED, kb, depth_cap=2).derivation
    # One diagnostic per generated null in an atom's arguments.
    generated = [t for a in d.factbase for t in a.args
                 if isinstance(t, Null) and t.label is None]
    assert len(generated) >= 3
    diags = validate_kb(KnowledgeBase(frozenset(d.factbase), kb.ruleset))
    assert len(diags) == len(generated)
    assert all(d.severity == "error" and d.message.endswith("contains a non-initial null")
               for d in diags)
    assert validate_kb(KnowledgeBase(d.initial, kb.ruleset)) == []


def test_variable_reuse_across_rules_is_scoped_and_reported():
    result = parse_kb("p(a,b). [A] p(X,Y) -> q(X). [B] q(X) -> r(X).")
    assert result.kb is not None
    infos = [d for d in result.diagnostics if d.severity == "info"]
    assert any("reused" in d.message for d in infos)
    rule_a, rule_b = result.kb.ruleset.rules
    # Scoping keeps the namespaces disjoint even though the names collide.
    assert not (rule_a.body_vars & rule_b.body_vars)
    # Renaming preserves homomorphism results: each body still embeds where
    # its unscoped twin would.
    fb = result.kb.factbase
    assert find_homomorphism(rule_a.body, fb) is not None
    assert find_homomorphism(rule_b.body, frozenset({atom("q", Constant("a"))})) \
        is not None
