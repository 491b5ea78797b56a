"""Shared fixtures: the running examples used throughout the literature on
chase termination, as parseable knowledge bases."""

from __future__ import annotations

import pytest

from chasebound import KnowledgeBase, RuleSet, Substitution, Trigger, Variable, parse_kb

EXAMPLE_SOURCES = {
    # Parent-of loop: no chase variant terminates.
    "ex1": "human(alice). human(X) -> parentOf(Y,X), human(Y).",
    # Separation triad: O vs SO, SO vs R, R vs E.
    "ex2_k1": "p(a,a). p(X,Y) -> p(X,Z).",
    "ex2_k2": "p(a,a). p(X,Y) -> p(Y,Z).",
    "ex2_k3": "p(a,_:w). p(X,Y) -> p(X,X), p(Y,Z).",
    # Datalog transitivity alone (unbounded) and with the join rule (bounded).
    "ex3_single": "[tc] p(X,Y), p(Y,Z) -> p(X,Z).",
    "ex3_pair": "[tc] p(X,Y), p(Y,Z) -> p(X,Z).\n[join] p(X,Y), p(U,Z) -> p(X,Z).",
    # The transitivity body with an existential head: no datalog proof applies,
    # so the decider searches its factbases (at r, k=1 the 232 classes of ex3_pair).
    "ex3_exists": "[R] p(X,Y), p(Y,Z) -> q(X,W).",
    # Existential loop that only the restricted (and core) chase tames.
    "ex4": "p(a,b). p(X,Y) -> p(Y,Z), p(Z,Y).",
    # Restricted chase order dependence.
    "ex5": "p(a,b). [R1] p(X,Y) -> p(Y,Z). [R2] p(X,Y) -> p(Y,Y).",
    # Restriction walkthrough.
    "ex6": "p(a,a). p(b,b). [R] p(X,Y) -> p(Y,Z).",
    # Exhaustive derivations of different depth.
    "ex7": "p(a). [R1] p(X) -> q(X). [R2] q(X) -> r(X). [R3] p(X) -> r(X).",
    # Breadth-first restricted chase cannot terminate, another order can.
    "ex8": "p(a,b). [R1] p(X,Y) -> p(Y,Z). [R2] p(X,Y) -> q(Y,Z). [R3] q(Y,Z) -> p(Y,Y).",
    # Semi-oblivious heredity counterexample to breadth-firstness.
    "ex9": "p(a,b). r(a,c). [R1] p(X,Y) -> r(X,Y). [R2] r(X,Y) -> q(X,Z). "
           "[R3] r(X,Y) -> t(Y).",
    # Restricted-chase variant of the same phenomenon.
    "ex10": "p(a,b). q(a,c). [R1] p(X,Y) -> r(X,Y). [R2] r(X,Y) -> q(X,Z). "
            "[R3] r(X,Y) -> t(X).",
    # The equivalent chase is not (consistently) hereditary.
    "ex11": """
        s(b). p(a,a). p(a,b). p(b,c).
        [R1] s(Y), p(Y,Z), p(W,Z), r(W) -> q(W).
        [R2] p(X,Y), p(Y,Z) -> t(Y).
        [R3] p(X,X), p(X,Y), p(Y,Z) -> p(W,Z), r(W).
        [R4] t(Y) -> r(Y).
        [R5] p(X,Y) -> p(U,X).
    """,
}


def load_example(name: str) -> KnowledgeBase:
    result = parse_kb(EXAMPLE_SOURCES[name])
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.kb


def _kb_fixture(name: str):
    @pytest.fixture(name=name)
    def fixture():
        return load_example(name)
    return fixture


for _name in EXAMPLE_SOURCES:
    globals()[_name] = _kb_fixture(_name)


def trig(rs: RuleSet, rule_id: str, mapping: dict[str, object]) -> Trigger:
    """Build a trigger from plain variable names (scoped to the rule)."""
    sub = Substitution({Variable(name, rule_id): term
                        for name, term in mapping.items()})
    return Trigger(rule_id, sub)
