import pickle
import random
from functools import cmp_to_key

import pytest

from chasebound import (
    Atom,
    ChaseVariant,
    Constant,
    FrontierKey,
    GeneratedNull,
    InitialNull,
    Null,
    Substitution,
    TriggerKey,
    Variable,
    atom,
    parse_kb,
    run_breadth_first,
)
from chasebound.terms import term_sort_key

from conftest import EXAMPLE_SOURCES, load_example
from oracles import oracle_term_cmp, random_kb

a, b = Constant("a"), Constant("b")
x, y = Variable("x"), Variable("y")


def test_apply_rewrites_argument_wise():
    sub = Substitution({x: a, y: a})
    assert sub.apply({atom("p", x, y)}) == {atom("p", a, a)}


def test_empty_substitution_is_identity():
    atoms = frozenset({atom("p", a, b), atom("q", x)})
    assert Substitution().apply(atoms) == atoms


def test_apply_merges_collapsing_atoms():
    # Both atoms rewrite to the same ground atom; set semantics merge them.
    sub = Substitution({x: a, y: a})
    result = sub.apply({atom("p", x, y), atom("p", y, x)})
    assert result == {atom("p", a, a)}
    assert len(result) == 1


def test_constants_never_in_domain():
    with pytest.raises(ValueError):
        Substitution({a: b})


def test_null_equality_is_structural_and_interned():
    key = TriggerKey((("x", a), ("y", a)))
    n1 = Null(GeneratedNull("R1", key, "z"))
    n2 = Null(GeneratedNull("R1", TriggerKey((("x", a), ("y", a))), "z"))
    assert n1 is n2
    n3 = Null(GeneratedNull("R1", key, "w"))
    assert n1 != n3
    assert Null(InitialNull("w")) != n1


def test_null_serialization():
    key = TriggerKey((("x", a), ("y", a)))
    n = Null(GeneratedNull("R1", key, "z"))
    assert str(n) == "_:R1#{x:a,y:a}#z"
    assert str(Null(InitialNull("w"))) == "_:w"


def test_atom_arity_and_str():
    at = atom("p", a, Null(InitialNull("w")))
    assert at.arity == 2
    assert str(at) == "p(a,_:w)"


def test_substitution_equality_and_hash():
    s1 = Substitution({x: a, y: b})
    s2 = Substitution({y: b, x: a})
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != Substitution({x: a})


def test_variable_scopes_are_distinct():
    assert Variable("X", "R1") != Variable("X", "R2")
    assert Variable("X", "R1") == Variable("X", "R1")


def test_terms_and_atoms_are_interned():
    assert Constant("a") is Constant("a")
    assert Variable("X", "R1") is Variable("X", "R1")
    assert Variable("X", "R1") is not Variable("X", "R2")
    assert Variable("X") is not Variable("X", "R1")
    assert Atom("p", [a]) is Atom("p", (a,)) is atom("p", a)
    assert Atom("p", (a, b)) is not Atom("p", (b, a))


def test_unpickling_returns_the_interned_object():
    null = Null(GeneratedNull("R1", TriggerKey((("x", a),)), "z"))
    for value in (a, Variable("X", "R1"), Atom("p", (a, null)), null):
        assert pickle.loads(pickle.dumps(value)) is value


def test_substitution_restrict_and_extend():
    s = Substitution({x: a, y: b})
    assert s.restrict([x]) == Substitution({x: a})
    assert s.extended({y: a}) == Substitution({x: a, y: a})
    assert s.apply_term(Variable("z")) == Variable("z")


def _run_terms(variant, kb, depth_cap, step_cap):
    d = run_breadth_first(variant, kb, depth_cap=depth_cap, step_cap=step_cap).derivation
    terms = {t for a in d.factbase for t in a.args}
    for step in d.steps:
        for k, v in step.trigger.pi.items():
            terms.update((k, v))
    return terms


def test_term_sort_key_matches_structural_oracle():
    # Every variant on every example, so trigger- and frontier-keyed nulls of
    # the same rule and depth meet; seeded random KBs; and two parallel chains
    # whose equally deep nulls differ only at the bottom.
    terms = set()
    for name in EXAMPLE_SOURCES:
        for variant in ChaseVariant:
            terms |= _run_terms(variant, load_example(name), 4, 40)
    rng = random.Random(7)
    for _ in range(30):
        kb = random_kb(rng)
        for variant in ChaseVariant:
            terms |= _run_terms(variant, kb, 3, 30)
    chains = parse_kb("human(alice). human(bob). human(X) -> parent(Y,X), human(Y).").kb
    terms |= _run_terms(ChaseVariant.RESTRICTED, chains, 60, 200)
    assert max(t.depth for t in terms if isinstance(t, Null)) >= 50
    assert any(isinstance(t, Null) and isinstance(t.provenance.key, FrontierKey)
               for t in terms)

    pool = sorted(terms, key=str)
    rng.shuffle(pool)
    assert sorted(pool, key=term_sort_key) == sorted(pool, key=cmp_to_key(oracle_term_cmp))
    for _ in range(20_000):
        s, t = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.05:
            t = s
        ks, kt = term_sort_key(s), term_sort_key(t)
        assert (ks < kt) == (oracle_term_cmp(s, t) < 0), (s, t)
        assert (ks == kt) == (s == t) == (not ks < kt and not kt < ks), (s, t)
