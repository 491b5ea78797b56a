"""The rank-by-rank engine against full-rescan oracles on seeded random KBs.

The breadth-first runner, the completion and ``verify_derivation`` enumerate
one rank at a time through ``rank_triggers`` and search the factbase through
its carried index; the runner makes one forward pass over a rank's candidates
(the equivalent chase rescans them).  Each of these is checked here against
the whole-factbase computation it replaces (``oracles.oracle_*``,
``oracles.enumerate_triggers``, a fresh ``sorted_atoms`` index).
"""

import itertools
import random

from chasebound import (
    ChaseVariant,
    Derivation,
    HaltReason,
    KnowledgeBase,
    Rule,
    RuleSet,
    is_applicable,
    parse_atom,
    parse_kb,
    rank_triggers,
    run_breadth_first,
    serialize_trace,
    verify_derivation,
)
from chasebound import engine
from chasebound.engine import (
    _applicable,
    _rank_candidates,
    frontier_image,
    name_new_nulls,
)
from chasebound.terms import Null, sorted_atoms

from conftest import EXAMPLE_SOURCES, load_example
from oracles import (
    enumerate_triggers,
    oracle_rank_candidates,
    oracle_run_breadth_first,
    oracle_verify_derivation,
    random_datalog_kb,
    random_kb,
    run_random_exhaustive,
)

V = ChaseVariant
HEREDITARY = (V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED)


def prefixes(derivation):
    """The derivation after 0, 1, ..., len(steps) steps, rebuilt by replay."""
    d = Derivation.start(derivation.variant,
                         KnowledgeBase(derivation.initial, derivation.ruleset))
    yield d
    for step in derivation.steps:
        d = d.extend(step.trigger, check=False)
        yield d


def replay_order(derivation, order):
    """Apply ``order`` from the derivation's start, skipping triggers whose
    body does not embed (yet) or that were applied already."""
    d = next(prefixes(derivation))
    for t in order:
        body = t.pi.apply(d.ruleset[t.rule_id].body)
        if t not in d.applied and body <= d.factbase:
            d = d.extend(t, check=False)
    return d


def fresh_index(d):
    """The factbase's index built afresh: each atom by predicate, by
    (predicate, rank) with its rank from ``atom_rank``, and by argument
    position."""
    index = {}
    for a in sorted_atoms(d.factbase):
        key = (a.predicate, len(a.args))
        for k in [key, (key, d.atom_rank(a))] + [(*key, i, t) for i, t in enumerate(a.args)]:
            index.setdefault(k, []).append(a)
    return index


def breadth_first_runs(seed, count=25, step_cap=30, variants=HEREDITARY):
    rng = random.Random(seed)
    for i in range(count):
        kb = random_kb(rng)
        for variant in variants:
            yield i, variant, run_breadth_first(variant, kb, depth_cap=3, step_cap=step_cap)


def random_order_runs(seed, count=25, step_cap=30):
    """Fair random-order runs: not rank-first, so an atom of a low rank can
    come after atoms of higher ranks."""
    rng = random.Random(seed)
    for i in range(count):
        kb = random_kb(rng)
        for variant in HEREDITARY:
            yield i, variant, run_random_exhaustive(variant, kb, seed=i, step_cap=step_cap)


def _rule(rule_id, body, head):
    return Rule(rule_id, map(parse_atom, body), map(parse_atom, head))


# Join edge cases: a repeated variable inside one atom (J1), a body constant
# (J2), a 3-atom body (J3) and ``q`` at two arities, which ``parse_kb``
# rejects but the engine keys apart by (predicate, arity).
JOIN_KB = KnowledgeBase(
    frozenset(map(parse_atom, ["p(a,a)", "p(a,b)", "p(b,b)", "q(a)", "q(a,b)", "r(b,c)"])),
    RuleSet([_rule("J1", ["p(X,X)"], ["q(X)"]),
             _rule("J2", ["r(X,c)", "p(Y,X)"], ["q(Y,X)"]),
             _rule("J3", ["q(X)", "p(X,Y)", "q(X,Y)"], ["r(Y,Z)", "p(Z,Y)"]),
             _rule("J4", ["r(X,Y)", "p(Y,X)"], ["r(Y,c)"])]))


def join_kb_runs():
    for variant in V:
        yield "join", variant, run_breadth_first(variant, JOIN_KB, depth_cap=3, step_cap=30)
        yield "join", variant, run_random_exhaustive(variant, JOIN_KB, seed=1, step_cap=30)


def sorted_lists(index):
    return {key: sorted_atoms(atoms) for key, atoms in index.items()}


def test_carried_index_matches_rebuild():
    # A carried list holds its key's atoms once each; only the fresh build
    # promises an order.  The random-order runs are not rank-compatible: they
    # file atoms of a low rank after atoms of higher ranks.
    random_runs = list(random_order_runs(31))
    assert any(rank_incompatible(res.derivation) for *_, res in random_runs)
    checked = 0
    for i, variant, res in itertools.chain(breadth_first_runs(31), random_runs,
                                           join_kb_runs()):
        for d in prefixes(res.derivation):
            assert sorted_lists(d.factbase.index) == fresh_index(d), (i, variant)
            checked += 1
    assert checked > 500


def snapshot(d):
    """Everything a derivation owns, as values that later growth cannot
    change."""
    return (frozenset(d.factbase), sorted_lists(d.factbase.index), tuple(d.steps),
            frozenset(d.applied), {a: d.atom_rank(a) for a in d.factbase},
            dict(d.null_names()))


def check_own_state(d, before):
    # The state is as recorded, and its index and null names agree with a
    # rebuild from the steps.
    assert snapshot(d) == before
    assert sorted_lists(d.factbase.index) == fresh_index(d)
    names = {t: str(t) for a in d.initial for t in a.args if isinstance(t, Null)}
    for i, step in enumerate(d.steps, start=1):
        name_new_nulls(names, i, step.produced)
    assert d.null_names() == names


def test_extend_leaves_its_receiver_as_it_is():
    # ``extend`` copies what the derivation owns and ``_apply`` grows a
    # derivation in place, so a shared container would show here: two
    # branches from one prefix, one of them grown further in place, and the
    # prefix, each branch and the grown one must keep their own state.
    kbs = [load_example(name) for name in EXAMPLE_SOURCES]
    kbs += [random_kb(random.Random(seed)) for seed in range(20)]
    checked = 0
    for kb in kbs:
        for variant in V:
            run = run_breadth_first(variant, kb, depth_cap=3, step_cap=12).derivation
            prefix = list(prefixes(run))[len(run.steps) // 2]
            open_triggers = [t for t in enumerate_triggers(prefix.factbase, kb.ruleset)
                             if t not in prefix.applied]
            if len(open_triggers) < 2:
                continue
            before = snapshot(prefix)
            first = prefix.extend(open_triggers[0], check=False)
            second = prefix.extend(open_triggers[1], check=False)
            second_before = snapshot(second)
            grown = first.extend(open_triggers[1], check=False)
            grown_before = snapshot(grown)
            more = [t for t in enumerate_triggers(first.factbase, kb.ruleset)
                    if t not in first.applied]
            for t in more[:3]:
                first._apply(t)
            check_own_state(prefix, before)
            check_own_state(second, second_before)
            check_own_state(grown, grown_before)
            check_own_state(first, snapshot(first))
            checked += 1
    assert checked >= 40, checked


def rank_incompatible(derivation):
    ranks = [s.trigger_rank for s in derivation.steps]
    return ranks != sorted(ranks)


def test_rank_triggers_match_rank_filter():
    # The random-order runs are not rank-compatible, so below the depth the
    # lists of lower-rank atoms are not whole predicate buckets.
    random_runs = list(random_order_runs(37))
    assert sum(rank_incompatible(res.derivation) for *_, res in random_runs) >= 5
    for i, variant, res in itertools.chain(breadth_first_runs(32), random_runs,
                                           join_kb_runs()):
        for d in prefixes(res.derivation):
            every = enumerate_triggers(d.factbase, d.ruleset)
            for kappa in range(0, d.depth() + 3):
                want = [t for t in every if d.trigger_rank_of(t) == kappa]
                assert rank_triggers(d, kappa) == want, (i, variant, kappa)


def test_trusted_applicability_matches_is_applicable():
    # The engine's loops skip the body-embedding check for candidates from
    # rank_triggers on the same derivation or on a prefix of it.
    runs = itertools.chain(breadth_first_runs(38, count=12, step_cap=15),
                           random_order_runs(39, count=12, step_cap=15))
    checked = 0
    for i, variant, res in runs:
        parent_candidates = []
        for d in prefixes(res.derivation):
            candidates = [t for kappa in range(1, d.depth() + 2)
                          for t in rank_triggers(d, kappa)]
            for t in dict.fromkeys(candidates + parent_candidates):
                for check in V:
                    assert _applicable(check, d, t) == \
                        is_applicable(check, d, t), (i, variant, check, t)
                    checked += 1
            parent_candidates = candidates
    assert checked > 1000


# ``join``'s head p(X,Z) leaves out the body variables Y and U, so on this
# diamond its rank-1 images share frontier images, (a,d) among the open ones
# and (a,b) among the closed: the datalog-r check runs once per frontier image
# and must keep exactly what the per-trigger check keeps.
EX3_PAIR_KB = KnowledgeBase(
    frozenset(map(parse_atom, ["p(a,b)", "p(a,c)", "p(b,d)", "p(c,d)"])),
    load_example("ex3_pair").ruleset)


def test_rank_candidates_match_oracle_at_rank_boundaries():
    shared = 0
    ex3_pair_runs = (("ex3_pair", variant, run_breadth_first(variant, EX3_PAIR_KB))
                     for variant in V)
    for i, variant, res in itertools.chain(breadth_first_runs(33, variants=tuple(V)),
                                           ex3_pair_runs):
        steps = res.derivation.steps
        # The runner asks for the next rank after the last step of a rank;
        # the final state counts only when the run exhausted it.
        for n, d in enumerate(prefixes(res.derivation)):
            if n == len(steps):
                exhausted = res.halt_reason is HaltReason.TERMINATED
            else:
                exhausted = n == 0 or steps[n].trigger_rank != steps[n - 1].trigger_rank
            if exhausted:
                kappa, group = oracle_rank_candidates(variant, d)
                if kappa is not None:
                    assert [t for t in rank_triggers(d, kappa) if t not in d.applied] == \
                        group, (i, variant, n)
                # A random run shuffles all of them.
                assert _rank_candidates(variant, d, keep_all=True) == (kappa, group), \
                    (i, variant, n)
                # For o/so/r the engine drops what is not applicable when the
                # rank opens: by monotonicity it never becomes applicable.  An
                # equivalent-chase trigger can wake up, so e keeps them all.
                if variant is not V.EQUIVALENT:
                    group = [t for t in group if is_applicable(variant, d, t)]
                assert _rank_candidates(variant, d) == (kappa, group), \
                    (i, variant, n)
                if i == "ex3_pair" and variant is V.RESTRICTED and kappa is not None:
                    join = d.ruleset["join"]
                    images = [frontier_image(join, t.pi) for t in rank_triggers(d, kappa)
                              if t.rule_id == "join" and t not in d.applied]
                    shared += len(set(images)) < len(images)
    assert shared


# An equivalent-chase trigger that wakes up within its rank: (R1,{X:v1,Y:w})
# is not applicable at first (v1, w fold onto v2, b), applying the later
# (R2,{X:v1,Y:w}) adds g(w) and makes it applicable, and applying the last,
# (R2,{X:v2,Y:b}), would make it inapplicable again.
WAKING_KB = parse_kb("p(_:v1,_:w). p(_:v2,b). q(b).\n"
                     "p(X,Y) -> q(Y).\np(X,Y) -> g(Y).\n").kb


def test_runner_matches_rescan_oracle():
    # The oracle rescans a rank's candidates from the first after every
    # application; the runner's forward pass must pick the same triggers.
    rng = random.Random(36)
    kbs = [WAKING_KB] + [make(rng) for _ in range(12)
                         for make in (random_kb, random_datalog_kb)] + [JOIN_KB]
    for i, kb in enumerate(kbs):
        for variant in V:
            for policy, seed in (("det", None), ("random", i)):
                res = run_breadth_first(variant, kb, policy, seed,
                                        depth_cap=3, step_cap=20)
                d, halt = oracle_run_breadth_first(variant, kb, policy, seed,
                                                   depth_cap=3, step_cap=20)
                assert serialize_trace(res.derivation, res.halt_reason) == \
                    serialize_trace(d, halt), (i, variant, policy)


def test_random_policy_joins_each_rank_once(monkeypatch):
    # The shuffled list is the rank's one join, as the det run's list is.
    kb = parse_kb("human(alice). human(bob). human(X) -> parent(Y,X), human(Y).").kb
    rank_images = engine._rank_images
    calls = {}
    for policy in ("det", "random"):
        ranks = calls[policy] = []
        monkeypatch.setattr(engine, "_rank_images",
                            lambda d, kappa: ranks.append(kappa) or rank_images(d, kappa))
        run_breadth_first(V.RESTRICTED, kb, policy, seed=7, step_cap=60)
    assert calls["det"] == calls["random"] != []


def mutations(rng, derivation):
    """The derivation with one step dropped and with two steps swapped."""
    order = list(derivation.triggers())
    if len(order) < 2:
        return
    drop = rng.randrange(len(order))
    yield replay_order(derivation, order[:drop] + order[drop + 1:])
    i, j = sorted(rng.sample(range(len(order)), 2))
    order[i], order[j] = order[j], order[i]
    yield replay_order(derivation, order)


def assert_verify_matches_oracle(derivation, label):
    for variant in HEREDITARY:
        assert verify_derivation(variant, derivation) == \
            oracle_verify_derivation(variant, derivation), (label, variant)


def test_verify_matches_oracle_on_breadth_first_runs_and_mutations():
    rng = random.Random(34)
    for i, variant, res in breadth_first_runs(34):
        assert_verify_matches_oracle(res.derivation, (i, variant))
        for m in mutations(rng, res.derivation):
            assert_verify_matches_oracle(m, (i, variant, "mutated"))


def test_verify_matches_oracle_on_random_order_runs_and_mutations():
    rng = random.Random(35)
    for i in range(25):
        kb = random_kb(rng)
        for variant in HEREDITARY:
            res = run_random_exhaustive(variant, kb, seed=i, step_cap=30)
            assert_verify_matches_oracle(res.derivation, (i, variant))
            for m in mutations(rng, res.derivation):
                assert_verify_matches_oracle(m, (i, variant, "mutated"))
