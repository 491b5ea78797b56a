import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasebound import (
    Atom,
    Constant,
    Null,
    Substitution,
    Variable,
    all_homomorphisms,
    atom,
    canonical_form,
    find_homomorphism,
)
from chasebound.budget import Budget
from chasebound.errors import BudgetExceededError
from chasebound.homomorphism import IndexedAtoms

from oracles import (
    brute_force_homomorphisms,
    check_sound_homomorphism,
    core,
    homomorphic_equivalent,
    is_isomorphic,
)

a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y, z = Variable("x"), Variable("y"), Variable("z")
w, n0, n1 = Null("w"), Null("n0"), Null("n1")


def test_find_homomorphism_body_onto_loop():
    sub = find_homomorphism(frozenset({atom("p", x, y)}),
                            frozenset({atom("p", a, a)}))
    assert sub is not None
    assert sub.apply_term(x) == a and sub.apply_term(y) == a


def test_identity_homomorphism_with_everything_frozen():
    atoms = frozenset({atom("p", a, w), atom("q", n0)})
    sub = find_homomorphism(atoms, atoms, frozen=frozenset({w, n0}))
    assert sub is not None and len(sub) == 0


def test_head_folds_while_frontier_null_stays_fixed():
    # Fresh head nulls may move but the frontier image z0 must stay put.
    z0, z1 = Null("z0"), Null("z1")
    source = frozenset({atom("p", z0, z1), atom("p", z1, z0)})
    target = frozenset({atom("p", a, b), atom("p", b, z0), atom("p", z0, b)})
    sub = find_homomorphism(source, target, frozen=frozenset({z0}))
    assert sub is not None
    assert sub.apply_term(z1) == b


def test_all_homomorphisms_counts():
    single = frozenset({atom("p", x, y)})
    two = frozenset({atom("p", a, b), atom("p", b, c)})
    assert len(all_homomorphisms(single, two)) == 2
    chain = frozenset({atom("p", x, y), atom("p", y, z)})
    subs = all_homomorphisms(chain, two)
    assert len(subs) == 1
    assert subs[0].apply_term(x) == a and subs[0].apply_term(z) == c
    assert all_homomorphisms(frozenset({atom("q", x)}), two) == []
    # The empty source maps into any target once, by the empty substitution.
    for target in (frozenset(), two, IndexedAtoms(two)):
        assert find_homomorphism(frozenset(), target) == Substitution()
        assert all_homomorphisms(frozenset(), target) == [Substitution()]


def test_all_homomorphisms_matches_brute_force_on_random_inputs():
    rng = random.Random(4821)
    preds = [("p", 2), ("q", 1)]
    terms = [a, b, x, y, z]
    for _ in range(200):
        def rand_atoms(n):
            out = set()
            for _ in range(n):
                name, arity = rng.choice(preds)
                out.add(Atom(name, tuple(rng.choice(terms) for _ in range(arity))))
            return frozenset(out)
        source = rand_atoms(rng.randint(1, 4))
        target_terms = [a, b, c, n0, n1]
        target = frozenset(
            Atom(name, tuple(rng.choice(target_terms) for _ in range(arity)))
            for name, arity in (rng.choice(preds) for _ in range(rng.randint(1, 4))))
        got = {s for s in all_homomorphisms(source, target)}
        want = {s.restrict({t for at in source for t in at.args
                            if not isinstance(t, Constant)})
                for s in brute_force_homomorphisms(source, target)}
        assert got == want
        first = find_homomorphism(source, target)
        assert first in got if got else first is None


def test_indexed_target_with_frozen_terms_matches_plain_target_and_brute_force():
    # On an IndexedAtoms target a source atom with a frozen argument searches
    # only the target atoms with that term at that position; the answers must
    # be those of the plain-frozenset path and of brute force.
    rng = random.Random(4822)
    preds = [("p", 2), ("q", 1), ("r", 3)]
    movable = [x, y, w, n0]

    def rand_atoms(terms, n):
        out = set()
        for _ in range(n):
            name, arity = rng.choice(preds)
            out.add(Atom(name, tuple(rng.choice(terms) for _ in range(arity))))
        return out

    found = 0
    for _ in range(300):
        source = frozenset(rand_atoms([a, b] + movable, rng.randint(1, 3)))
        frozen = frozenset(rng.sample(movable, rng.randint(0, len(movable))))
        target_atoms = sorted(rand_atoms([a, b, c, x, w, n0, n1], rng.randint(1, 12)),
                              key=str)
        # Grow the indexed target in two parts, as a derivation does.
        cut = rng.randint(0, len(target_atoms))
        indexed = IndexedAtoms(target_atoms[:cut]).with_atoms(
            frozenset(target_atoms[cut:]), 1)
        plain = frozenset(target_atoms)
        assert indexed == plain

        got = all_homomorphisms(source, indexed, frozen)
        assert got == all_homomorphisms(source, plain, frozen)
        moved = {t for at in source for t in at.args
                 if not isinstance(t, Constant) and t not in frozen}
        want = {s.restrict(moved)
                for s in brute_force_homomorphisms(source, plain, frozen)}
        assert set(got) == want
        sub = find_homomorphism(source, indexed, frozen)
        assert (sub is None) == (find_homomorphism(source, plain, frozen) is None) \
            == (not want)
        assert sub is None or sub in got
        found += sub is not None
    assert 30 < found < 270


def test_is_isomorphic_swapped_constants():
    left = frozenset({atom("p", Constant("c1"), Constant("c2"))})
    right = frozenset({atom("p", Constant("c2"), Constant("c1"))})
    generic = frozenset({Constant("c1"), Constant("c2")})
    assert is_isomorphic(left, right, renameable=generic)
    assert not is_isomorphic(left, right)  # constants fixed by default


def test_is_isomorphic_identity_and_negative():
    atoms = frozenset({atom("p", a, w), atom("q", w)})
    assert is_isomorphic(atoms, atoms)
    assert not is_isomorphic(frozenset({atom("p", a, a)}),
                             frozenset({atom("p", a, b)}),
                             renameable=frozenset({a, b}))


def test_core_folds_redundant_atoms():
    z0 = Null("z0")
    atoms = frozenset({atom("p", a, w), atom("p", a, a), atom("p", w, z0)})
    assert core(atoms) == frozenset({atom("p", a, a)})


def test_core_of_ground_set_is_itself():
    atoms = frozenset({atom("p", a, b), atom("q", c)})
    assert core(atoms) == atoms


def test_core_properties_on_random_sets():
    rng = random.Random(97)
    consts = [a, b]
    nulls = [Null(f"m{i}") for i in range(3)]
    for _ in range(100):
        pool = consts + nulls
        atoms = frozenset(
            Atom("p", (rng.choice(pool), rng.choice(pool)))
            for _ in range(rng.randint(1, 4)))
        reduced = core(atoms)
        assert core(reduced) == reduced
        assert homomorphic_equivalent(atoms, reduced)
        # No homomorphism into any strict subset: that is the defining property.
        for at in reduced:
            assert find_homomorphism(reduced, reduced - {at}) is None


def test_equivalent_sets_have_isomorphic_cores():
    rng = random.Random(1234)
    nulls = [Null(f"k{i}") for i in range(4)]
    pool = [a, b] + nulls
    seen = 0
    for _ in range(300):
        s1 = frozenset(Atom("p", (rng.choice(pool), rng.choice(pool)))
                       for _ in range(rng.randint(1, 3)))
        s2 = frozenset(Atom("p", (rng.choice(pool), rng.choice(pool)))
                       for _ in range(rng.randint(1, 3)))
        if homomorphic_equivalent(s1, s2):
            seen += 1
            assert is_isomorphic(core(s1), core(s2))
    assert seen > 5  # the sample actually exercised the property


def test_canonical_form_symmetry_and_fixed_terms():
    c1, c2 = Constant("c1"), Constant("c2")
    assert canonical_form(frozenset({atom("p", c1, c2)})) == \
        canonical_form(frozenset({atom("p", c2, c1)}))
    fixed = frozenset({a})
    assert canonical_form(frozenset({atom("p", a, c1)}), fixed) != \
        canonical_form(frozenset({atom("p", c1, a)}), fixed)
    assert canonical_form(frozenset()) == b"<empty>"


def test_canonical_form_agrees_with_pairwise_isomorphism():
    consts = [Constant(f"c{i}") for i in range(4)]
    generic = frozenset(consts)
    universe = [Atom("p", (s, t)) for s in consts for t in consts]
    sets = [frozenset(combo) for combo in itertools.combinations(universe, 2)]
    by_canon = {}
    for s in sets:
        by_canon.setdefault(canonical_form(s), []).append(s)
    # Classes by canonical form must be exactly the classes by the
    # backtracking isomorphism oracle.
    for group in by_canon.values():
        for s1, s2 in itertools.combinations(group, 2):
            assert is_isomorphic(s1, s2, renameable=generic)
    reps = [group[0] for group in by_canon.values()]
    for s1, s2 in itertools.combinations(reps, 2):
        assert not is_isomorphic(s1, s2, renameable=generic)


def _cycle(n: int) -> frozenset:
    consts = [Constant(f"d{i}") for i in range(n)]
    return frozenset(Atom("p", (consts[i], consts[(i + 1) % n])) for i in range(n))


def test_canonical_form_budget():
    # Every node of the ordering search spends a step of the caller's budget.
    with pytest.raises(BudgetExceededError) as stop:
        canonical_form(_cycle(9), budget=Budget(max_steps=50))
    assert str(stop.value) == "steps limit reached after 51 steps / 0 items"


def test_canonical_form_polls_the_stop_flag():
    import threading

    budget = Budget()
    budget.stop = threading.Event()
    budget.stop.set()
    with pytest.raises(BudgetExceededError) as stop:
        canonical_form(_cycle(9), budget=budget)
    assert str(stop.value) == "stop limit reached after 64 steps / 0 items"


def test_homomorphism_soundness_assertions_hold():
    # Every substitution find_homomorphism and all_homomorphisms return maps
    # the source into the target and moves no constant or frozen term, on
    # plain and indexed targets; the first case is one where frozen nulls
    # make the check nontrivial.
    rng = random.Random(4823)
    preds = [("p", 2), ("q", 1)]

    def rand_atoms(terms, n):
        return frozenset(Atom(name, tuple(rng.choice(terms) for _ in range(arity)))
                         for name, arity in (rng.choice(preds) for _ in range(n)))

    cases = [(frozenset({atom("p", w, n0)}),
              frozenset({atom("p", w, a), atom("p", b, a)}), frozenset({w}))]
    for _ in range(300):
        source = rand_atoms([a, b, x, y, w, n0], rng.randint(1, 3))
        target = rand_atoms([a, b, c, w, n0, n1], rng.randint(1, 8))
        cases.append((source, target, frozenset(rng.sample([x, y, w, n0], rng.randint(0, 2)))))
    returned = 0
    for source, target, frozen in cases:
        for tgt in (target, IndexedAtoms(target)):
            subs = all_homomorphisms(source, tgt, frozen)
            first = find_homomorphism(source, tgt, frozen)
            assert (first is None) == (not subs)
            assert first is None or first in subs
            for sub in subs + ([first] if first is not None else []):
                check_sound_homomorphism(sub, source, tgt, frozen)
                returned += 1
    assert returned > 300


@st.composite
def small_atom_sets(draw):
    pool = [a, b, n0, n1, w]
    n = draw(st.integers(min_value=1, max_value=4))
    atoms = set()
    for _ in range(n):
        pred = draw(st.sampled_from(["p", "q"]))
        arity = 2 if pred == "p" else 1
        args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        atoms.add(Atom(pred, args))
    return frozenset(atoms)


@settings(max_examples=60, deadline=None)
@given(small_atom_sets())
def test_core_equivalent_and_idempotent(atoms):
    reduced = core(atoms)
    assert homomorphic_equivalent(atoms, reduced)
    assert core(reduced) == reduced


@settings(max_examples=60, deadline=None)
@given(small_atom_sets(), small_atom_sets())
def test_canonical_form_iff_isomorphic(s1, s2):
    # canonical_form with an empty fixed set treats every term as a generic
    # label, so the matching oracle call lets every term be renamed.
    renameable = frozenset(t for s in (s1, s2) for at in s for t in at.args)
    same = canonical_form(s1) == canonical_form(s2)
    assert same == is_isomorphic(s1, s2, renameable=renameable)
