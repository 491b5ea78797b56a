import pytest

from chasebound import (
    ChaseVariant,
    Constant,
    Null,
    atom,
    parse_atom,
    parse_kb,
    parse_term,
    run_breadth_first,
    serialize_kb,
)
from chasebound.parser import ParseError
from chasebound.terms import nulls_of, term_sort_key

from conftest import EXAMPLE_SOURCES, load_example


def test_example1_parses_to_expected_shape():
    result = parse_kb("human(alice). human(X) -> parentOf(Y,X), human(Y).")
    assert result.ok
    kb = result.kb
    assert kb.factbase == {atom("human", Constant("alice"))}
    (rule,) = kb.ruleset.rules
    assert rule.rule_id == "R1"
    assert {a.predicate for a in rule.head} == {"parentOf", "human"}
    assert len(rule.existentials) == 1


def test_empty_input():
    result = parse_kb("")
    assert result.ok
    assert result.kb.factbase == frozenset()
    assert len(result.kb.ruleset) == 0


def test_syntax_error_has_position():
    result = parse_kb("p(a,b")
    assert result.kb is None
    (diag,) = result.diagnostics
    assert diag.severity == "error"
    assert diag.line == 1
    assert diag.column >= 5


@pytest.mark.parametrize("text, diagnostic", [
    ("p(a).\n  Q(b).", "2:3: error: predicate names must start lowercase"),
    ("p(a).\n[R1] p(b).", "2:1: error: facts cannot carry a rule id"),
    ("p(a).\np(b), q(c).", "2:1: error: facts are single atoms"),
    ("p(a).\np(b) q(c).", "2:6: error: expected '->' or '.'"),
    ("p(a).\np(X,_:w) -> q(X).", "2:1: error: rule R1: rules must not contain nulls"),
], ids=["uppercase-predicate", "fact-with-rule-id", "fact-of-two-atoms",
        "no-arrow-or-dot", "null-in-rule"])
def test_statement_errors_have_message_and_position(text, diagnostic):
    result = parse_kb(text)
    assert result.kb is None
    assert [str(d) for d in result.diagnostics] == [diagnostic]


def test_comments_and_whitespace():
    result = parse_kb("% a comment\np(a,b).   % trailing\n\n[R9] p(X,Y) -> p(Y,X).")
    assert result.ok
    assert result.kb.ruleset.rules[0].rule_id == "R9"


def test_initial_null_fact():
    result = parse_kb("p(a,_:w).")
    assert result.ok
    assert result.kb.factbase == {atom("p", Constant("a"), Null("w"))}


def test_variable_in_fact_is_an_error():
    result = parse_kb("p(a,X).")
    assert result.kb is None
    assert any("variable" in d.message for d in result.diagnostics)


def test_auto_ids_skip_explicit_ones():
    result = parse_kb("[R1] p(X,Y) -> q(X). p(X,Y) -> r(X).")
    assert result.ok
    assert [r.rule_id for r in result.kb.ruleset] == ["R1", "R2"]


def test_duplicate_rule_ids_rejected():
    result = parse_kb("[R1] p(X,Y) -> q(X). [R1] p(X,Y) -> r(X).")
    assert result.kb is None


def test_arity_conflict_diagnostic():
    result = parse_kb("p(a). p(X,Y) -> p(X).")
    assert result.kb is None
    assert any("arity" in d.message for d in result.diagnostics)


@pytest.mark.parametrize("name", sorted(EXAMPLE_SOURCES))
def test_round_trip_fixpoint(name):
    first = parse_kb(EXAMPLE_SOURCES[name])
    assert first.ok
    text1 = serialize_kb(first.kb)
    second = parse_kb(text1)
    assert second.ok
    assert serialize_kb(second.kb) == text1
    assert second.kb.factbase == first.kb.factbase
    assert [r.rule_id for r in second.kb.ruleset] == \
        [r.rule_id for r in first.kb.ruleset]
    for r1, r2 in zip(first.kb.ruleset, second.kb.ruleset):
        assert r1.body == r2.body and r1.head == r2.head


def test_term_round_trip_with_generated_nulls():
    # Only an initial null has a text form.  A generated null is a flat
    # record whose inner terms are the interned terms themselves, and its
    # debug name does not parse.
    w = parse_term("_:w")
    assert w is Null("w") and parse_term(str(w)) is w
    d = run_breadth_first(ChaseVariant.OBLIVIOUS, load_example("ex2_k3"),
                          depth_cap=2).derivation
    deep = max(nulls_of(d.factbase), key=term_sort_key)
    assert (deep.rule_id, deep.exvar, deep.frontier, deep.depth) == ("R1", "Z", False, 2)
    (x_name, x_image), (y_name, child) = deep.inner
    assert (x_name, x_image, y_name) == ("X", w, "Y")
    assert child.inner == (("X", Constant("a")), ("Y", w)) and child.depth == 1
    with pytest.raises(ParseError):
        parse_term(str(deep))


def test_parse_atom_helper():
    assert parse_atom("p(a,_:w)") == atom("p", Constant("a"), Null("w"))
    with pytest.raises(Exception):
        parse_atom("p(a,")
