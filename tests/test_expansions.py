"""The datalog expansion certificate against the plain factbase search and the
unpruned oracle: it may only ever answer "bounded" where both find no
witness.  Where it holds, the decider examines no factbase; elsewhere its
report must be the one the plain search gives."""

import random

import pytest

from chasebound import (
    BoundedQuery,
    ChaseVariant,
    check_k_bounded,
    enumerate_representative_factbases,
    parse_kb,
)
from chasebound.boundedness import _first_witness, _verdict, default_pool_size
from chasebound.budget import Budget
from chasebound.errors import BudgetExceededError
from chasebound.expansions import prove_bounded

from conftest import load_example
from oracles import oracle_check_k_bounded, random_datalog_kb

V = ChaseVariant
VARIANTS = (V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED)


def plain_search(q: BoundedQuery):
    """Every representative factbase searched, with no certificate first."""
    budget = q.budget()
    factbases = enumerate_representative_factbases(q.ruleset, q.max_atoms, budget)
    return _verdict(q, *_first_witness(q, factbases, budget))


def comparable(verdict):
    # A Derivation has no value equality; its trigger sequence stands for it.
    w = verdict.witness
    return verdict._replace(witness=w and w._replace(derivation=w.derivation.triggers()))


def oracle_query(q: BoundedQuery) -> BoundedQuery:
    # The unpruned oracle is feasible up to 2 atoms; above that it runs at the
    # paper bound b^k, which can only miss witnesses.
    mode = "safe" if q.ruleset.b ** (q.k + 1) <= 2 else "paper"
    return BoundedQuery(q.ruleset, q.variant, q.k, witness_bound_mode=mode,
                        max_search_steps=q.max_search_steps)


def oracle(q: BoundedQuery):
    return oracle_check_k_bounded(q, default_pool_size(q.ruleset, q.max_atoms) + 1)


def agrees(verdict, plain, proven: bool) -> bool:
    """The decider's report is the plain search's, except that a proven run
    examined nothing."""
    if proven:
        plain = plain._replace(factbases_examined=0, derivations_examined=0)
    return comparable(verdict) == comparable(plain)


def check_against_search(q: BoundedQuery) -> bool:
    """The certificate's answer, after checking the decider's report against
    the plain search and the certificate against both searches."""
    proven = prove_bounded(q.ruleset, q.k, Budget())
    verdict = check_k_bounded(q)
    assert agrees(verdict, plain_search(q), proven)
    assert verdict.bounded or not proven
    oq = oracle_query(q)
    assert oracle(oq).bounded == check_k_bounded(oq).bounded
    assert oracle(oq).bounded or not proven
    return proven


@pytest.mark.parametrize("name, proven_from", [
    ("ex3_pair", 1), ("ex3_single", None), ("ex7", 1)])
def test_certificate_agrees_with_the_search_on_fixtures(name, proven_from):
    rs = load_example(name).ruleset
    for variant in VARIANTS:
        for k in (0, 1):
            proven = check_against_search(BoundedQuery(rs, variant, k))
            assert proven == (proven_from is not None and k >= proven_from)


@pytest.mark.parametrize("source, proven_at", [
    # A rule constant: p(b,a) gives p(a,b) at rank 1, and p(a,b) nothing.
    ("[c] p(X,a) -> p(a,X).", {0: False, 1: True}),
    # Rule constants in an unbounded chain: the certificate fails, and the
    # search finds the witness.
    ("[r] p(X,a), q(X,Y) -> p(Y,a).", {0: False, 1: False}),
    # A two-atom head, split into two single-head rules.
    ("[h] p(X) -> q(X), r(X). [g] q(X) -> s(X).", {0: False, 1: False, 2: True}),
    # A repeated head variable.
    ("[rep] p(X,Y) -> p(X,X).", {0: False, 1: True}),
], ids=["rule-constant", "constant-chain", "two-atom-head", "repeated-head-variable"])
def test_certificate_agrees_with_the_search_on_hand_cases(source, proven_at):
    rs = parse_kb(source).kb.ruleset
    for variant in VARIANTS:
        for k, proven in proven_at.items():
            assert check_against_search(BoundedQuery(rs, variant, k)) is proven


def test_certificate_agrees_with_the_search_on_random_datalog():
    # Each search is capped at a fixed step count, and capped runs are
    # tallied: the pinned tallies show how many cases were really compared.
    tally = {"proven": 0, "searched": 0, "search capped": 0,
             "oracle": 0, "oracle capped": 0}
    for seed in range(40):
        rs = random_datalog_kb(random.Random(seed)).ruleset
        for k in (0, 1):
            for variant in (V.OBLIVIOUS, V.RESTRICTED):
                q = BoundedQuery(rs, variant, k, max_search_steps=20_000)
                proven = prove_bounded(rs, k, Budget())
                tally["proven"] += proven
                try:
                    plain, verdict = plain_search(q), check_k_bounded(q)
                except BudgetExceededError:
                    tally["search capped"] += 1
                else:
                    tally["searched"] += 1
                    assert agrees(verdict, plain, proven), (seed, k, variant)
                    assert plain.bounded or not proven, (seed, k, variant)
                try:
                    bounded = oracle(oracle_query(q)).bounded
                except BudgetExceededError:
                    tally["oracle capped"] += 1
                else:
                    tally["oracle"] += 1
                    assert bounded or not proven, (seed, k, variant)
    assert tally == {"proven": 36, "searched": 148, "search capped": 12,
                     "oracle": 158, "oracle capped": 2}


def test_certificate_spends_the_budget_and_polls_at_each_test():
    rs = load_example("ex3_pair").ruleset
    budget = Budget()
    assert prove_bounded(rs, 1, budget) and budget.steps == 69
    with pytest.raises(BudgetExceededError, match="^steps limit reached after 69 steps"):
        prove_bounded(rs, 1, Budget(max_steps=68))
    # A time cap is read at every covering test, not only every 64 steps.
    with pytest.raises(BudgetExceededError, match="^time limit reached after 2 steps"):
        prove_bounded(rs, 1, Budget(max_ms=0))
