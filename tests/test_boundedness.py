import itertools
import pickle
import random
import re

import pytest

from chasebound import (
    Atom,
    BoundedQuery,
    ChaseVariant,
    Constant,
    Derivation,
    KnowledgeBase,
    RuleSet,
    atom,
    check_k_bounded,
    enumerate_representative_factbases,
    parse_kb,
    rank_triggers,
    run_breadth_first,
    shrink_witness,
    verify_derivation,
)
from chasebound.boundedness import (
    _cells,
    _certify,
    cell_factbases,
    generic_pool,
    search_factbase,
)
from chasebound.budget import Budget
from chasebound.errors import (
    BudgetExceededError,
    ChaseError,
    InternalVerificationError,
    VariantUnsupportedError,
)
from chasebound.terms import atom_sort_key, sorted_atoms

from conftest import EXAMPLE_SOURCES, load_example
from oracles import is_isomorphic, oracle_check_k_bounded

V = ChaseVariant
a, b = Constant("a"), Constant("b")


def test_equivalent_variant_rejected():
    rs = load_example("ex4").ruleset
    with pytest.raises(VariantUnsupportedError):
        BoundedQuery(rs, V.EQUIVALENT, 1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(k=-1), "k must be >= 0"),
    (dict(witness_bound_mode="tight"), "witness_bound_mode must be 'paper' or 'safe'"),
    (dict(max_ms=-1), "budget caps must be >= 0"),
    (dict(max_search_steps=-1), "budget caps must be >= 0"),
    (dict(max_factbases=-1), "budget caps must be >= 0"),
], ids=["k", "mode", "ms", "steps", "factbases"])
def test_query_rejects_bad_parameters(kwargs, message):
    args = dict(ruleset=load_example("ex4").ruleset, variant=V.RESTRICTED, k=1)
    with pytest.raises(ChaseError, match=f"^{re.escape(message)}$"):
        BoundedQuery(**{**args, **kwargs})


def test_query_survives_pickling():
    # Worker processes get the query pickled; its rules compile their joins
    # again there and must find the same triggers.
    q = BoundedQuery(load_example("ex3_pair").ruleset, V.RESTRICTED, 1, max_factbases=9)
    again = pickle.loads(pickle.dumps(q))
    assert again.ruleset.rules == q.ruleset.rules
    assert (again.variant, again.k, again.max_factbases) == (V.RESTRICTED, 1, 9)
    fb = frozenset({atom("p", a, b), atom("p", b, a)})
    triggers = [rank_triggers(Derivation.start(V.RESTRICTED, KnowledgeBase(fb, rs)), 1)
                for rs in (q.ruleset, again.ruleset)]
    assert triggers[0] == triggers[1] != []


# -- representative factbases ---------------------------------------------------


def test_representative_factbases_single_unary_body_rule():
    rs = parse_kb("p(X,Y) -> p(Y,Z).").kb.ruleset
    assert rs.b == 1
    reps = list(enumerate_representative_factbases(rs, 1))
    assert reps[0] == frozenset()
    nonempty = [fb for fb in reps if fb]
    # Up to isomorphism there are exactly two 1-atom factbases: a loop and an edge.
    assert len(nonempty) == 2
    shapes = {len({t for at in fb for t in at.args}) for fb in nonempty}
    assert shapes == {1, 2}


def test_representative_factbases_empty_ruleset():
    rs = RuleSet([])
    assert list(enumerate_representative_factbases(rs, 2)) == [frozenset()]


def test_rule_constants_are_never_relabeled():
    rs = parse_kb("q(a), p(X,Y) -> r(X).").kb.ruleset
    reps = list(enumerate_representative_factbases(rs, 2))
    with_a = [fb for fb in reps if any(a in at.args for at in fb)]
    assert with_a
    # q(a) and q(g) for a generic g are distinct classes precisely because a
    # stays fixed.
    qa = frozenset({atom("q", a)})
    q_other = [fb for fb in reps
               if len(fb) == 1 and next(iter(fb)).predicate == "q"
               and a not in next(iter(fb)).args]
    assert qa in reps
    assert q_other


def test_generic_names_skip_a_rule_constant_prefix():
    # The rule constant g takes the prefix "g", so generic constants are
    # named gg01, gg02, ...; the verdicts still match the oracle's.
    one_rank = "[R1] p(X), q(g) -> r(X)."
    two_ranks = one_rank + " [R2] r(X), p(X) -> s(X)."
    for source, bounded in ((one_rank, True), (two_ranks, False)):
        rs = parse_kb(source).kb.ruleset
        assert generic_pool(rs, 2) == [Constant("gg01"), Constant("gg02")]
        for variant in (V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED):
            q = BoundedQuery(rs, variant, 1)
            assert check_k_bounded(q).bounded is bounded
            assert oracle_check_k_bounded(q, extended_pool=5).bounded is bounded
    reps = list(enumerate_representative_factbases(rs, 1))
    assert frozenset({atom("p", Constant("gg01"))}) in reps


def test_representative_factbases_cover_all_classes():
    # Cross-check the generator against brute-force enumeration + the
    # pairwise isomorphism oracle on a binary predicate with 2 atoms.
    rs = parse_kb("p(X,Y), p(Y,Z) -> p(X,Z).").kb.ruleset
    reps = list(enumerate_representative_factbases(rs, 2))
    consts = [Constant(f"e{i}") for i in range(5)]
    universe = [atom("p", s, t) for s in consts for t in consts]
    brute = [frozenset(), *(frozenset(c) for n in (1, 2)
                            for c in itertools.combinations(universe, n))]
    for fb in brute:
        ren = frozenset(t for at in fb for t in at.args) | \
            frozenset(t for rep in reps for at in rep for t in at.args)
        matches = [rep for rep in reps if len(rep) == len(fb)
                   and is_isomorphic(fb, rep, renameable=ren)]
        assert len(matches) == 1  # every class covered exactly once


def test_representative_factbases_match_unpruned_oracle():
    # Restricted growth only skips candidates that are not the lexicographic
    # minimum of their class, so the yielded sequence is the same, element
    # for element, as the unpruned generator's.
    from oracles import (oracle_representative_factbases, random_kb,
                         random_single_rule_set)

    cases = [("ex3_pair", load_example("ex3_pair").ruleset, 4),
             ("ex3_single", load_example("ex3_single").ruleset, 4),
             ("ex11", load_example("ex11").ruleset, 3),
             # Rule constants on either side of the generic names.
             ("constants",
              parse_kb("p(h,X), q(X,zz) -> q(X,X).").kb.ruleset, 3)]
    for seed in range(12):
        rng = random.Random(seed)
        cases.append((f"random_kb/{seed}", random_kb(rng).ruleset, 3))
        cases.append((f"single_rule/{seed}", random_single_rule_set(rng), 3))
    for name, rs, size in cases:
        assert list(enumerate_representative_factbases(rs, size)) == \
            list(oracle_representative_factbases(rs, size)), name


def _scan(cell_scan, rs, max_atoms, cap=None):
    """The first ``cap`` factbases that ``cell_scan`` yields over the cells
    of up to ``max_atoms`` atoms in order, on one budget."""
    budget = Budget()
    return list(itertools.islice(itertools.chain.from_iterable(
        cell_scan(rs, n, m, budget) for n, m in _cells(rs, max_atoms)), cap))


def test_pruned_scan_matches_the_leaf_only_scan():
    # The heredity and first-atom-shape prunes drop only subtrees without a
    # class's least member, so every cell yields the leaf-only scan's list.
    from oracles import random_body_rule_set, reference_cell_factbases

    # Fixtures at k <= 1 in full (ex9's k=1 is one atom, so up to 4 atoms
    # here), and at k=2 (ex11: k=1, 16 atoms) up to a factbase cap.
    for name, max_atoms, cap in (("ex3_pair", 4, None), ("ex3_pair", 8, 1000),
                                 ("ex9", 4, None), ("ex11", 4, None),
                                 ("ex11", 16, 2000)):
        rs = load_example(name).ruleset
        assert _scan(cell_factbases, rs, max_atoms, cap) == \
            _scan(reference_cell_factbases, rs, max_atoms, cap), (name, max_atoms)

    # Random rule sets: every cell of their k <= 1 scans with at most 4
    # atoms and 6 generic constants, up to its first 150 factbases.
    with_constants = 0
    for seed in range(24):
        rs = random_body_rule_set(random.Random(seed), constants=seed % 2 == 1)
        with_constants += bool(rs.rule_constants)
        for n, m in _cells(rs, BoundedQuery(rs, V.RESTRICTED, 1).max_atoms):
            if n <= 4 and m <= 6:
                fast = cell_factbases(rs, n, m, Budget())
                assert list(itertools.islice(fast, 150)) == list(itertools.islice(
                    reference_cell_factbases(rs, n, m), 150)), (seed, n, m)
    assert with_constants >= 8


def test_representatives_are_least_members_and_hereditary():
    # Brute force over every renaming of a cell's generic constants: each
    # representative is the least member of its class as a sorted atom
    # tuple, and without its last atom it is its smaller class's
    # representative (the heredity the scan's pruning rests on).
    from oracles import random_body_rule_set

    def key(atoms):
        return [atom_sort_key(x) for x in sorted_atoms(atoms)]

    # Rule sets and atom counts: a cell's representatives number up to about
    # a hundred thousand at 4 atoms with rule constants or ternary atoms.
    cases = [(load_example("ex3_pair").ruleset, 4), (load_example("ex9").ruleset, 4),
             (parse_kb("[r] p(X,Y), q(Y,a) -> q(X,b), p(b,X).").kb.ruleset, 3)]
    cases += [(random_body_rule_set(random.Random(seed), constants=seed % 2 == 1,
                                    max_arity=2), 4) for seed in range(8)]
    for rs, size in cases:
        reps: dict = {}
        for n, m in _cells(rs, size):
            if m > 4:
                continue
            generics = generic_pool(rs, m)
            reps[n, m] = list(cell_factbases(rs, n, m, Budget()))
            for fb in reps[n, m]:
                for image in itertools.permutations(generics):
                    rename = dict(zip(generics, image))
                    renamed = [Atom(x.predicate, tuple(rename.get(t, t) for t in x.args))
                               for x in fb]
                    assert key(renamed) >= key(fb), (fb, image)
                if n > 1:
                    smaller = sorted_atoms(fb)[:-1]
                    used = {t for x in smaller for t in x.args} & set(generics)
                    assert frozenset(smaller) in reps[n - 1, len(used)], fb


def test_lower_level_factbases_are_a_prefix_of_the_next_level():
    # Level k's representative factbases (at its witness size cap) come out
    # element for element as the first ones of level k+1, so a search over
    # ascending k can enumerate once at the largest level it reaches.
    def reps(rs, k):
        return enumerate_representative_factbases(
            rs, BoundedQuery(rs, V.RESTRICTED, k).max_atoms)

    def levels(rs, k):
        lower = list(reps(rs, k))
        return lower, list(itertools.islice(reps(rs, k + 1), len(lower)))

    for name in EXAMPLE_SOURCES:
        lower, upper = levels(load_example(name).ruleset, 0)
        assert lower == upper, name
    lower, upper = levels(load_example("ex3_pair").ruleset, 1)
    assert len(lower) == 232 and lower == upper


# -- the decider ----------------------------------------------------------------


def test_transitivity_with_join_rule_is_restricted_1_bounded():
    rs = load_example("ex3_pair").ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1))
    # The datalog proof is the verdict: no factbase is examined.
    assert verdict == (True, None, 0, 0)


def test_transitivity_alone_is_not_restricted_1_bounded():
    rs = load_example("ex3_single").ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1))
    assert not verdict.bounded
    w = verdict.witness
    assert w is not None
    # Deterministic factbase order makes the witness reproducible.
    again = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1)).witness
    assert again.factbase == w.factbase
    assert again.derivation.triggers() == w.derivation.triggers()
    # Self-certifying: replay reaches a rank-2 atom.
    assert w.derivation.atom_rank(w.offending_atom) == 2
    report = verify_derivation(V.RESTRICTED, w.derivation)
    assert report.is_valid_variant_derivation and report.is_rank_compatible
    assert len(w.minimized_factbase) <= rs.b ** 2 == 4


@pytest.mark.parametrize("field, message", [
    ("derivation", "witness replay failed: step 5: trigger .* is not r-applicable"),
    ("offending_atom", re.escape("offending atom does not have rank k+1")),
    ("minimized_factbase",
     re.escape("minimized witness exceeds the ancestor bound b^(k+1) = 4")),
])
def test_certify_rejects_a_doctored_witness(field, message):
    rs = load_example("ex3_single").ruleset
    q = BoundedQuery(rs, V.RESTRICTED, 1)
    w = check_k_bounded(q).witness
    _certify(q, w)
    doctored = {
        # The oblivious chase applies triggers the restricted chase may not.
        "derivation": run_breadth_first(
            V.OBLIVIOUS, KnowledgeBase(w.factbase, rs), depth_cap=2).derivation,
        "offending_atom": min(w.factbase, key=atom_sort_key),  # rank 0
        "minimized_factbase":  # b^(k+1) = 4 atoms at most
            frozenset(atom("p", Constant(f"c{i}"), a) for i in range(5)),
    }[field]
    with pytest.raises(InternalVerificationError, match=message):
        _certify(q, w._replace(**{field: doctored}))


def test_example4_verdicts_per_variant():
    rs = load_example("ex4").ruleset
    assert check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1)).bounded
    so = check_k_bounded(BoundedQuery(rs, V.SEMI_OBLIVIOUS, 1))
    assert not so.bounded and so.witness is not None
    assert len(so.witness.factbase) == 1
    o = check_k_bounded(BoundedQuery(rs, V.OBLIVIOUS, 1))
    assert not o.bounded


def test_shrink_witness_transitivity_chain():
    rs = load_example("ex3_single").ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1))
    w = verdict.witness
    offending_trigger = w.derivation.steps[-1].trigger
    shrunk = shrink_witness(w.factbase, w.derivation, offending_trigger)
    assert shrunk == w.minimized_factbase
    # Atom-level shrinking agrees: the offending atom's ancestors are exactly
    # its producing trigger's body closure.
    assert shrink_witness(w.factbase, w.derivation, w.offending_atom) == shrunk
    # Re-running the per-factbase search on the shrunken factbase still finds
    # a depth-2 derivation.
    again, _ = search_factbase(V.RESTRICTED, rs, 1, shrunk)
    assert again is not None


def test_shrink_witness_singleton_for_unary_body():
    rs = load_example("ex4").ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.SEMI_OBLIVIOUS, 0))
    assert not verdict.bounded
    w = verdict.witness
    offending_trigger = w.derivation.steps[-1].trigger
    assert len(shrink_witness(w.factbase, w.derivation, offending_trigger)) == 1


def test_witness_survives_head_predicate_padding():
    # Adding atoms over head-only predicates to a witness factbase never
    # hides the witness.
    kb = parse_kb("[R1] p(X,Y) -> p(Y,Z). [R2] p(X,Y) -> s(X).").kb
    rs = kb.ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.SEMI_OBLIVIOUS, 1))
    assert not verdict.bounded
    padded = verdict.witness.factbase | {atom("s", Constant("zz1")),
                                         atom("s", a)}
    again, _ = search_factbase(V.SEMI_OBLIVIOUS, rs, 1, padded)
    assert again is not None


def test_monotonicity_in_k():
    rs4 = load_example("ex4").ruleset
    assert check_k_bounded(BoundedQuery(rs4, V.RESTRICTED, 1)).bounded
    assert check_k_bounded(BoundedQuery(rs4, V.RESTRICTED, 2)).bounded
    rs3 = load_example("ex3_pair").ruleset
    assert check_k_bounded(BoundedQuery(rs3, V.RESTRICTED, 1,
                                        witness_bound_mode="paper")).bounded
    assert check_k_bounded(BoundedQuery(rs3, V.RESTRICTED, 2,
                                        witness_bound_mode="paper")).bounded


def test_deep_k_does_not_recurse_per_rank():
    # The derivation search is a loop over a stack of nodes: a branch of 500
    # ranks must not nest 500 interpreter frames.  test_cli.py runs the same
    # query through the CLI, which also prints the witness.
    rs = parse_kb("human(X) -> parentOf(Y,X), human(Y).").kb.ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 500))
    assert not verdict.bounded
    assert verdict.witness.derivation.depth() == 501


def test_paper_mode_misses_the_transitivity_witness():
    # The surfaced size-bound discrepancy: with factbases capped at b^k the
    # depth-2 chain witness (3 atoms > b^1 = 2) is out of reach, while the
    # default safe mode (b^(k+1)) finds it.
    rs = load_example("ex3_single").ruleset
    paper = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1,
                                         witness_bound_mode="paper"))
    assert paper.bounded
    safe = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1))
    assert not safe.bounded


def test_oracle_agrees_on_fixtures():
    rs3 = load_example("ex3_single").ruleset
    q = BoundedQuery(rs3, V.RESTRICTED, 1, witness_bound_mode="paper")
    assert oracle_check_k_bounded(q, extended_pool=5).bounded == \
        check_k_bounded(q).bounded
    rs4 = load_example("ex4").ruleset
    for variant in (V.RESTRICTED, V.SEMI_OBLIVIOUS, V.OBLIVIOUS):
        q = BoundedQuery(rs4, variant, 1)
        assert oracle_check_k_bounded(q, extended_pool=4).bounded == \
            check_k_bounded(q).bounded


def test_oracle_requires_strictly_larger_pool():
    rs = load_example("ex4").ruleset
    with pytest.raises(Exception):
        oracle_check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1), extended_pool=2)


def test_empty_ruleset_is_bounded():
    q = BoundedQuery(RuleSet([]), V.RESTRICTED, 0)
    assert check_k_bounded(q).bounded
    assert oracle_check_k_bounded(q, extended_pool=3).bounded


def test_budget_exceeded_withholds_verdict():
    rs = load_example("ex3_pair").ruleset
    q = BoundedQuery(rs, V.RESTRICTED, 1, max_search_steps=50)
    with pytest.raises(BudgetExceededError) as exc:
        check_k_bounded(q)
    assert exc.value.steps > 0


def test_time_budget_env_default():
    budget = Budget(max_ms=0.0001)
    with pytest.raises(BudgetExceededError):
        for _ in range(100_000):
            budget.spend_item()


def test_representative_enumeration_budget():
    rs = load_example("ex3_pair").ruleset
    budget = Budget(max_steps=25)
    with pytest.raises(BudgetExceededError):
        list(enumerate_representative_factbases(rs, 4, budget))


def test_parallel_jobs_agree():
    rs = load_example("ex4").ruleset
    for variant in (V.RESTRICTED, V.SEMI_OBLIVIOUS):
        seq = check_k_bounded(BoundedQuery(rs, variant, 1))
        par = check_k_bounded(BoundedQuery(rs, variant, 1), jobs=2)
        assert seq.bounded == par.bounded
        assert par.factbases_examined == seq.factbases_examined
        assert par.derivations_examined == seq.derivations_examined
        if seq.witness:
            assert par.witness.factbase == seq.witness.factbase


def forbid_worker_start(monkeypatch):
    import multiprocessing.process

    def no_start(process):
        raise AssertionError("no worker process may start")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)


def test_worker_count_is_bounded_by_the_cores(monkeypatch):
    import os

    q = BoundedQuery(load_example("ex3_exists").ruleset, V.RESTRICTED, 1)
    seq = check_k_bounded(q)
    assert seq.factbases_examined == 232
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    forbid_worker_start(monkeypatch)
    assert check_k_bounded(q, jobs=8) == seq


def test_proven_run_starts_no_worker(monkeypatch):
    # Nor does a factbase cap stop it: no factbase is examined.
    forbid_worker_start(monkeypatch)
    for k in (1, 2):
        q = BoundedQuery(load_example("ex3_pair").ruleset, V.RESTRICTED, k,
                         max_factbases=0)
        assert check_k_bounded(q, jobs=2) == (True, None, 0, 0)


def test_time_cap_stops_the_workers():
    import multiprocessing
    import time

    q = BoundedQuery(load_example("ex3_exists").ruleset, V.RESTRICTED, 2,
                     max_ms=300)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        check_k_bounded(q, jobs=2)
    assert time.monotonic() - start < 5.0
    assert multiprocessing.active_children() == []


def test_leaving_the_pool_kills_no_worker(monkeypatch):
    # Killing a worker can leave a queue lock held, and terminate() then
    # hangs; the pool is left by stopping the workers and joining them.
    import multiprocessing
    import multiprocessing.pool

    def no_terminate(pool):
        raise AssertionError("Pool.terminate() called")

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", no_terminate)
    q = BoundedQuery(load_example("ex3_single").ruleset, V.RESTRICTED, 1)
    seq, par = check_k_bounded(q), check_k_bounded(q, jobs=2)
    assert not seq.bounded and par._replace(witness=None) == seq._replace(witness=None)
    assert par.witness._replace(derivation=None) == seq.witness._replace(derivation=None)
    assert par.witness.derivation.triggers() == seq.witness.derivation.triggers()
    assert multiprocessing.active_children() == []

    q = BoundedQuery(load_example("ex3_exists").ruleset, V.RESTRICTED, 1,
                     max_factbases=100)
    for jobs in (1, 2):
        with pytest.raises(BudgetExceededError) as stop:
            check_k_bounded(q, jobs=jobs)
        assert str(stop.value) == "items limit reached after 3834 steps / 101 items"
    assert multiprocessing.active_children() == []
