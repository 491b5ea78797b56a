import pickle
import random
import re
from functools import cmp_to_key

import pytest

from chasebound import (
    Atom,
    ChaseVariant,
    Constant,
    Null,
    Substitution,
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
    inner = (("x", a), ("y", a))
    n1 = Null.generated("R1", "z", False, inner)
    n2 = Null.generated("R1", "z", False, (("x", a), ("y", a)))
    assert n1 is n2
    assert n1 != Null.generated("R1", "w", False, inner)
    assert n1 != Null.generated("R1", "z", True, (a,))
    assert Null("w") is Null("w") != n1


def test_null_serialization():
    # A null is a flat record; a generated one prints a short debug name.
    n = Null.generated("R1", "z", False, (("x", a), ("y", a)))
    assert (n.label, n.rule_id, n.exvar, n.frontier, n.inner, n.depth) == \
        (None, "R1", "z", False, (("x", a), ("y", a)), 1)
    assert re.fullmatch(r"_:z#\d+", str(n))
    outer = Null.generated("R2", "v", True, (a, n))
    assert (outer.frontier, outer.inner, outer.depth) == (True, (a, n), 2)
    assert outer.inner[1] is n
    assert str(outer) != str(n)
    w = Null("w")
    assert (w.label, w.rule_id, w.exvar, w.frontier, w.inner, w.depth) == \
        ("w", None, None, False, (), 0)
    assert str(w) == "_:w"


def test_atom_arity_and_str():
    at = atom("p", a, Null("w"))
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
    null = Null.generated("R1", "z", False, (("x", a),))
    for value in (a, Variable("X", "R1"), Atom("p", (a, null)), null, Null("w")):
        assert pickle.loads(pickle.dumps(value)) is value


@pytest.mark.parametrize("variant, frontier", [
    (ChaseVariant.SEMI_OBLIVIOUS, True),
    (ChaseVariant.RESTRICTED, False),
])
def test_generated_nulls_of_a_run_unpickle_to_the_interned_object(variant, frontier):
    # so keys its nulls by frontier image, r by the whole trigger; ``--jobs``
    # ships both kinds between processes by pickling.
    d = run_breadth_first(variant, load_example("ex1"), depth_cap=4, step_cap=10).derivation
    nulls = {t for a in d.factbase for t in a.args if isinstance(t, Null)}
    assert max(n.depth for n in nulls) == 4
    assert all(n.frontier is frontier for n in nulls)
    for n in nulls:
        assert pickle.loads(pickle.dumps(n)) is n


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
    assert any(isinstance(t, Null) and t.frontier for t in terms)

    pool = sorted(terms, key=term_sort_key)
    rng.shuffle(pool)
    assert sorted(pool, key=term_sort_key) == sorted(pool, key=cmp_to_key(oracle_term_cmp))
    for _ in range(20_000):
        s, t = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.05:
            t = s
        ks, kt = term_sort_key(s), term_sort_key(t)
        assert (ks < kt) == (oracle_term_cmp(s, t) < 0), (s, t)
        assert (ks == kt) == (s == t) == (not ks < kt and not kt < ks), (s, t)
