"""Independent oracles and random generators shared by the property suites.

Everything here is deliberately naive: brute-force assignment enumeration,
exhaustive replay checks.  The point is to validate the engine against code
that shares none of its search logic.
"""

from __future__ import annotations

import itertools
import random

from chasebound import (
    Atom,
    BoundedQuery,
    BoundednessVerdict,
    ChaseError,
    ChaseResult,
    ChaseVariant,
    Constant,
    Derivation,
    KnowledgeBase,
    Null,
    Rule,
    RuleSet,
    Substitution,
    Term,
    Trigger,
    UnknownTriggerError,
    Variable,
    VerifyReport,
    all_homomorphisms,
    deserialize_trace,
    find_homomorphism,
    is_applicable,
    parse_kb,
    restrict,
    run_breadth_first,
    serialize_trace,
    verify_derivation,
)
from chasebound.boundedness import (
    _body_atom_universe,
    _first_witness,
    _verdict,
    default_pool_size,
    generic_pool,
)
from chasebound.budget import Budget
from chasebound.engine import (
    HaltReason,
    _applicable_new_triggers,
    breadth_first_completion,
    safe_extension,
    trigger_sort_key,
)
from chasebound.homomorphism import canonical_form
from chasebound.terms import sorted_atoms, term_sort_key

V = ChaseVariant


# -- structural reference for the term order ------------------------------------

_KIND_ORDER = {Constant: 0, Variable: 1, Null: 2}


def _cmp_str(a: str, b: str) -> int:
    return -1 if a < b else (1 if a > b else 0)


def oracle_term_cmp(a, b) -> int:
    """Three-way comparator defining the term order ``term_sort_key`` encodes:
    constants < variables < nulls; nulls by depth, then structurally."""
    if a is b:
        return 0
    ta, tb = type(a), type(b)
    if ta is not tb:
        return -1 if _KIND_ORDER[ta] < _KIND_ORDER[tb] else 1
    if ta is Constant:
        return _cmp_str(a.name, b.name)
    if ta is Variable:
        c = _cmp_str(a.name, b.name)
        return c if c else _cmp_str(a.scope or "", b.scope or "")
    if a.depth != b.depth:
        return -1 if a.depth < b.depth else 1
    return _oracle_null_cmp(a, b)


def _oracle_null_cmp(p, q) -> int:
    pi, qi = p.label is not None, q.label is not None
    if pi != qi:
        return -1 if pi else 1
    if pi:
        return _cmp_str(p.label, q.label)
    c = _cmp_str(p.rule_id, q.rule_id) or _cmp_str(p.exvar, q.exvar)
    if c:
        return c
    pk, qk = p.inner, q.inner
    pt, qt = p.frontier, q.frontier
    if pt != qt:
        return -1 if not pt else 1
    if len(pk) != len(qk):
        return -1 if len(pk) < len(qk) else 1
    if pt:
        for x, y in zip(pk, qk):
            c = oracle_term_cmp(x, y)
            if c:
                return c
        return 0
    for (n1, t1), (n2, t2) in zip(pk, qk):
        c = _cmp_str(n1, n2) or oracle_term_cmp(t1, t2)
        if c:
            return c
    return 0


# -- isomorphism and cores ------------------------------------------------------

def homomorphic_equivalent(a: frozenset, b: frozenset) -> bool:
    """Logical equivalence of two atom sets (homomorphisms both ways)."""
    return (find_homomorphism(a, b) is not None
            and find_homomorphism(b, a) is not None)


def is_isomorphic(a: frozenset, b: frozenset,
                  renameable: frozenset | None = None) -> bool:
    """True iff a bijective term renaming maps ``a`` onto ``b``.

    By default only variables and nulls are renameable (constants are fixed,
    matching the textbook notion).  Passing ``renameable`` explicitly allows
    treating chosen constants as generic labels; renaming is always within the
    same term kind.  This search is independent of canonical_form so the two
    can cross-check each other.
    """
    if len(a) != len(b):
        return False
    if renameable is None:
        renameable = frozenset(t for s in (a, b) for at in s for t in at.args
                               if not isinstance(t, Constant))

    by_pred_a: dict[tuple[str, int], list[Atom]] = {}
    for at in sorted_atoms(a):
        by_pred_a.setdefault((at.predicate, len(at.args)), []).append(at)
    by_pred_b: dict[tuple[str, int], list[Atom]] = {}
    for at in sorted_atoms(b):
        by_pred_b.setdefault((at.predicate, len(at.args)), []).append(at)
    if set(by_pred_a) != set(by_pred_b):
        return False
    if any(len(by_pred_a[k]) != len(by_pred_b[k]) for k in by_pred_a):
        return False

    source = sorted_atoms(a)
    used: set[Atom] = set()
    fwd: dict = {}
    rev: dict = {}

    def try_map(s: Term, t: Term) -> tuple | None:
        if s in renameable:
            if _KIND_ORDER[type(s)] != _KIND_ORDER[type(t)] or t not in renameable:
                return None
            if s in fwd:
                return () if fwd[s] == t else None
            if t in rev:
                return None
            fwd[s] = t
            rev[t] = s
            return (s, t)
        return () if s == t else None

    def match(pos: int) -> bool:
        if pos == len(source):
            return True
        src = source[pos]
        for tgt in by_pred_b[(src.predicate, len(src.args))]:
            if tgt in used:
                continue
            added: list[tuple] = []
            ok = True
            for s, t in zip(src.args, tgt.args):
                r = try_map(s, t)
                if r is None:
                    ok = False
                    break
                if r:
                    added.append(r)
            if ok:
                used.add(tgt)
                if match(pos + 1):
                    return True
                used.discard(tgt)
            for s, t in added:
                del fwd[s]
                del rev[t]
        return False

    return match(0)


def core(atoms: frozenset) -> frozenset:
    """A minimal subset of ``atoms`` equivalent to it.

    Greedy single-atom removals: look for a homomorphism into the set minus
    one atom and replace the set by the image.  A fixpoint of this loop admits
    no homomorphism into any strict subset, i.e. it is a core.
    """
    current = frozenset(atoms)
    changed = True
    while changed:
        changed = False
        for a in sorted_atoms(current):
            sub = find_homomorphism(current, current - {a})
            if sub is not None:
                current = sub.apply(current)
                changed = True
                break
    return current


def brute_force_homomorphisms(source, target, frozen=frozenset()):
    """Enumerate every assignment of non-frozen source variables/nulls to
    target terms and keep those that map source into target."""
    source = frozenset(source)
    target = frozenset(target)
    movable = sorted({t for at in source for t in at.args
                      if not isinstance(t, Constant) and t not in frozen},
                     key=str)
    targets = sorted({t for at in target for t in at.args}, key=str)
    found = []
    for combo in itertools.product(targets, repeat=len(movable)):
        sub = Substitution(dict(zip(movable, combo)))
        if sub.apply(source) <= target:
            found.append(sub)
    return found


def check_sound_homomorphism(sub, source, target, frozen=frozenset()) -> None:
    """Soundness of one substitution the homomorphism kernel returned: the
    image of ``source`` lies in ``target``, and no constant or frozen term is
    in its domain."""
    assert sub.apply(source) <= target, "homomorphism image escapes the target"
    assert not any(isinstance(k, Constant) or k in frozen for k, _ in sub.items()), \
        "homomorphism moved a frozen term"


def oracle_head_check(d: Derivation, rule: Rule, frontier: tuple) -> bool:
    """Whether the triggers of ``rule`` with frontier image ``frontier`` are
    r-applicable on ``d``, by the check as first written: the head with the
    frontier image filled in and the existential variables left as
    variables has no homomorphism into the factbase (a plain frozenset copy,
    so no index is read) that keeps the frontier image fixed.  An applied
    trigger with that frontier image has put such a head image in the
    factbase, so it needs no separate test."""
    head = Substitution(zip(rule.frontier_order, frontier)).apply(rule.head)
    return find_homomorphism(head, frozenset(d.factbase), frozenset(frontier)) is None


# -- random knowledge bases -----------------------------------------------------

_CONSTS = [Constant(n) for n in ("a", "b", "c")]
_VARS = ["X", "Y", "Z", "W"]


def random_kb(rng: random.Random, max_rules: int = 3, max_body: int = 2,
              max_initial: int = 3) -> KnowledgeBase:
    """A small KB: arity <= 2, shared vocabulary between facts and rules."""
    arity = {"p": rng.choice((1, 2)), "q": rng.choice((1, 2)),
             "r": rng.choice((1, 2))}
    preds = sorted(arity)

    def rand_atom(pool):
        pred = rng.choice(preds)
        return Atom(pred, tuple(rng.choice(pool) for _ in range(arity[pred])))

    rules = []
    for i in range(rng.randint(1, max_rules)):
        rule_id = f"G{i + 1}"
        variables = [Variable(v, rule_id) for v in _VARS]
        body_pool = variables[:3] + [_CONSTS[0]]
        body = {rand_atom(body_pool) for _ in range(rng.randint(1, max_body))}
        head_pool = variables + _CONSTS[:2]
        head = {rand_atom(head_pool) for _ in range(rng.randint(1, 2))}
        rules.append(Rule(rule_id, body, head))

    # Ground an instantiation of the first rule's body so the KB is never
    # inert; pad with random facts up to the initial-size limit.
    # Variables are drawn in name order, so a seed gives the same KB under
    # every hash seed.
    grounding = Substitution({v: rng.choice(_CONSTS)
                              for v in sorted(rules[0].body_vars,
                                              key=lambda v: v.name)})
    facts = set(grounding.apply(rules[0].body))
    while len(facts) < max_initial and rng.random() < 0.5:
        facts.add(rand_atom(_CONSTS))
    return KnowledgeBase(frozenset(facts), RuleSet(rules))


def random_datalog_kb(rng: random.Random) -> KnowledgeBase:
    """Like random_kb but heads reuse body variables only (no existentials)."""
    kb = random_kb(rng)
    rules = []
    for rule in kb.ruleset:
        pool = sorted(rule.body_vars, key=lambda v: v.name) or [_CONSTS[0]]
        fixes = {v: rng.choice(pool)
                 for v in sorted(rule.existentials, key=lambda v: v.name)}
        head = Substitution(fixes).apply(rule.head)
        rules.append(Rule(rule.rule_id, rule.body, head))
    return KnowledgeBase(kb.factbase, RuleSet(rules))


def random_single_rule_set(rng: random.Random) -> RuleSet:
    """One rule over unary/binary predicates, used for decider cross-checks."""
    arity = {"p": rng.choice((1, 2)), "q": rng.choice((1, 2))}
    variables = [Variable(v, "G1") for v in _VARS]

    def rand_atom(pool):
        pred = rng.choice(sorted(arity))
        return Atom(pred, tuple(rng.choice(pool) for _ in range(arity[pred])))

    body = {rand_atom(variables[:3]) for _ in range(rng.randint(1, 2))}
    head = {rand_atom(variables)}
    return RuleSet([Rule("G1", body, head)])


def random_body_rule_set(rng: random.Random, constants: bool,
                         max_arity: int = 3) -> RuleSet:
    """One rule over two predicates of arity 1 to ``max_arity`` with one or two body
    atoms, plus, with ``constants``, a body atom that may hold the rule
    constants ``a`` and ``zz`` (they sort on either side of the generic
    names), and a head that may hold ``b``.  Only the body predicates and the
    rule constants matter to the representative-factbase scan."""
    arity = {p: rng.randint(1, max_arity) for p in ("p", "q")}

    def text(pool):
        pred = rng.choice(sorted(arity))
        return f"{pred}({','.join(rng.choice(pool) for _ in range(arity[pred]))})"

    body = [text(_VARS[:3]) for _ in range(rng.randint(1, 2))]
    head = text(_VARS)
    if constants:
        body.append(text(_VARS[:3] + ["a", "zz"]))
        head = text(_VARS + ["b"])
    return parse_kb(f"[r] {', '.join(body)} -> {head}.").kb.ruleset


def run_random_exhaustive(variant: ChaseVariant, kb: KnowledgeBase,
                          seed: int, step_cap: int = 200) -> ChaseResult:
    """Fair random-order run: picks any applicable trigger, not rank-first.

    A run that stops because nothing is applicable is exhaustive, hence
    terminating; useful for exercising the reordering propositions.
    """
    rng = random.Random(seed)
    d = Derivation.start(variant, kb)
    while len(d.steps) < step_cap:
        apps = [t for _, t in _applicable_new_triggers(variant, d)]
        if not apps:
            return ChaseResult(d, HaltReason.TERMINATED)
        d = d.extend(rng.choice(apps), check=False)
    return ChaseResult(d, HaltReason.STEP_CAP)


# -- property checks -------------------------------------------------------------


def breadth_first_prefix(derivation: Derivation, max_rank: int) -> Derivation:
    """Replay only the steps of trigger rank <= max_rank; on a breadth-first
    run this prefix is breadth-first even when the run was cut by a cap."""
    out = Derivation.start(derivation.variant,
                           KnowledgeBase(derivation.initial, derivation.ruleset))
    for step in derivation.steps:
        if step.trigger_rank <= max_rank:
            out = out.extend(step.trigger, check=False)
    return out


def oracle_ancestors(derivation: Derivation) -> dict:
    """Every atom's ancestors by a naive fixpoint over the step log: an atom's
    parents are the body image of the step whose ``produced`` holds it, and
    its ancestors are its parents together with their ancestors."""
    parents = {at: frozenset() for at in derivation.initial}
    for step in derivation.steps:
        rule = derivation.ruleset[step.trigger.rule_id]
        for at in step.produced:
            parents[at] = step.trigger.pi.apply(rule.body)
    ancestors = dict(parents)
    changed = True
    while changed:
        changed = False
        for at, known in ancestors.items():
            grown = known.union(*(ancestors[p] for p in known))
            if grown != known:
                ancestors[at] = grown
                changed = True
    return ancestors


def check_ancestor_clue(derivation: Derivation) -> list[str]:
    """Lemma-style bound: a rank-k atom (or trigger) has at most b^k initial
    ancestors."""
    b = derivation.ruleset.b
    bad = []
    for at in derivation.factbase:
        rank = derivation.atom_rank(at)
        count = len(derivation.ancestors(at) & derivation.initial)
        if count > b ** rank:
            bad.append(f"atom {at}: {count} > {b}^{rank}")
    for step in derivation.steps:
        count = len(derivation.ancestors(step.trigger) & derivation.initial)
        if count > b ** step.trigger_rank:
            bad.append(f"trigger {step.trigger}: {count} > {b}^{step.trigger_rank}")
    return bad


def random_keep_subsets(rng: random.Random, initial, count: int = 2):
    atoms = sorted(initial, key=str)
    for _ in range(count):
        yield frozenset(at for at in atoms if rng.random() < 0.6)


def check_heredity(variant: ChaseVariant, derivation: Derivation,
                   keep) -> list[str]:
    restricted = restrict(derivation, keep)
    report = verify_derivation(variant, restricted)
    if not report.is_valid_variant_derivation:
        return [f"restriction not a {variant.value}-derivation: "
                f"{report.first_violation}"]
    return []


def check_consistent_heredity(variant: ChaseVariant, derivation: Derivation,
                              keep) -> list[str]:
    """Completion must be breadth-first and contain every retained trigger
    with its restriction rank preserved and within-rank order intact.

    The full subsequence property is required only when the restriction is
    itself rank-compatible: dropping an initial atom that a retained head
    re-produces can shift ranks non-uniformly, making the restriction of a
    breadth-first derivation non-rank-compatible, and then no breadth-first
    derivation can contain it in its original order (the completion contains
    its rank-sorted reordering instead).
    """
    restricted = restrict(derivation, keep)
    completed = breadth_first_completion(variant, restricted)
    bad = []
    report = verify_derivation(variant, completed)
    if not (report.is_valid_variant_derivation and report.is_breadth_first):
        bad.append(f"completion not breadth-first: {report.first_violation}")
    seq = completed.triggers()
    ranks = {s.trigger: s.trigger_rank for s in completed.steps}
    positions_by_rank: dict[int, list[int]] = {}
    positions = []
    for step in restricted.steps:
        if step.trigger not in seq:
            bad.append(f"retained trigger {step.trigger} dropped by completion")
            continue
        pos = seq.index(step.trigger)
        positions.append(pos)
        positions_by_rank.setdefault(step.trigger_rank, []).append(pos)
        if ranks[step.trigger] != step.trigger_rank:
            bad.append(f"trigger {step.trigger} changed rank "
                       f"{step.trigger_rank} -> {ranks[step.trigger]}")
    for rank, group in positions_by_rank.items():
        if group != sorted(group):
            bad.append(f"rank-{rank} retained triggers were reordered")
    restricted_ranks = [s.trigger_rank for s in restricted.steps]
    rank_compatible = all(restricted_ranks[i] <= restricted_ranks[i + 1]
                          for i in range(len(restricted_ranks) - 1))
    if rank_compatible and positions != sorted(positions):
        bad.append("restriction is not a subsequence of its completion")
    return bad


def check_trace_roundtrip(derivation: Derivation, halt) -> list[str]:
    text = serialize_trace(derivation, halt)
    replayed, halt2 = deserialize_trace(text)
    bad = []
    if serialize_trace(replayed, halt2) != text:
        bad.append("trace bytes differ after replay")
    if replayed.factbase != derivation.factbase:
        bad.append("factbase differs after replay")
    if any(replayed.atom_rank(at) != derivation.atom_rank(at)
           for at in derivation.factbase):
        bad.append("ranks differ after replay")
    return bad


def bounded_run(variant: ChaseVariant, kb: KnowledgeBase, depth_cap: int = 3,
                step_cap: int = 40):
    """A breadth-first derivation cut at a completed-rank boundary.

    Terminated runs come back whole.  A depth-capped run has completed ranks
    1..depth_cap (the cut drops the overflowing rank's no-op steps); a
    step-capped run stopped mid-rank, so the last started rank goes too.
    """
    res = run_breadth_first(variant, kb, depth_cap=depth_cap, step_cap=step_cap)
    if res.halt_reason is HaltReason.TERMINATED:
        return res.derivation, True
    last_rank = max((s.trigger_rank for s in res.derivation.steps), default=0)
    cut = depth_cap if res.halt_reason is HaltReason.DEPTH_CAP else last_rank - 1
    return breadth_first_prefix(res.derivation, cut), False


# -- full-rescan references for the engine's rank-by-rank paths ----------------


def enumerate_triggers(factbase: frozenset, rs: RuleSet) -> list[Trigger]:
    """All triggers of all rules on the whole factbase, in trigger_sort_key
    order: the reference ``rank_triggers`` is checked against."""
    return [Trigger(rule.rule_id, pi)
            for rule in rs for pi in all_homomorphisms(rule.body, factbase)]


def oracle_applicable_new_triggers(variant: ChaseVariant,
                                   d: Derivation) -> list[tuple[int, object]]:
    """Every unapplied applicable trigger on the whole factbase, with its rank."""
    out = []
    for t in enumerate_triggers(d.factbase, d.ruleset):
        if t in d.applied:
            continue
        if is_applicable(variant, d, t):
            out.append((d.trigger_rank_of(t), t))
    return out


def oracle_rank_candidates(variant: ChaseVariant, d: Derivation):
    """Smallest rank with an applicable trigger, with all unapplied triggers
    of that rank sorted canonically; every rank is rescanned."""
    by_rank: dict[int, list] = {}
    for t in enumerate_triggers(d.factbase, d.ruleset):
        if t in d.applied:
            continue
        by_rank.setdefault(d.trigger_rank_of(t), []).append(t)
    for rank in sorted(by_rank):
        group = sorted(by_rank[rank], key=lambda t: trigger_sort_key(d.ruleset, t))
        if any(is_applicable(variant, d, t) for t in group):
            return rank, group
    return None, []


def oracle_run_breadth_first(variant: ChaseVariant, kb: KnowledgeBase,
                             policy: str = "det", seed=None,
                             depth_cap: int = 1_000_000, step_cap: int = 1_000_000):
    """Breadth-first runner that takes each rank's candidates from
    ``oracle_rank_candidates`` and, after every application, rescans them
    from the first for the next applicable one.  It stops at the depth cap
    before a step whose head, computed here, adds an atom to the factbase."""
    rng = random.Random(seed) if policy == "random" else None
    d = Derivation.start(variant, kb)
    while True:
        kappa, candidates = oracle_rank_candidates(variant, d)
        if kappa is None:
            return d, HaltReason.TERMINATED
        if rng is not None:
            rng.shuffle(candidates)
        while True:
            pick = next((t for t in candidates
                         if t not in d.applied and is_applicable(variant, d, t)), None)
            if pick is None:
                break
            if len(d.steps) >= step_cap:
                return d, HaltReason.STEP_CAP
            if kappa > depth_cap:
                rule = d.ruleset[pick.rule_id]
                if safe_extension(pick, rule, d.variant).apply(rule.head) - d.factbase:
                    return d, HaltReason.DEPTH_CAP
            d = d.extend(pick, check=False)


def oracle_breadth_first_derivations(variant: ChaseVariant, kb: KnowledgeBase,
                                     depth_target: int):
    """Every branch of the search over within-rank orders, unpruned: at each
    step any applicable candidate of the current rank may go next, and a
    branch ends when it terminates or creates an atom of rank
    ``depth_target``.  Candidates come from ``oracle_rank_candidates``."""
    def walk(d, kappa, candidates):
        picks = [t for t in candidates if is_applicable(variant, d, t)]
        if not picks:
            kappa, candidates = oracle_rank_candidates(variant, d)
            if kappa is None:
                yield d
            else:
                yield from walk(d, kappa, candidates)
        for t in picks:
            d2 = d.extend(t, check=False)
            if kappa >= depth_target and d2.steps[-1].produced:
                yield d2
            else:
                yield from walk(d2, kappa, candidates)

    yield from walk(Derivation.start(variant, kb), 0, [])


def oracle_verify_derivation(variant: ChaseVariant, derivation: Derivation) -> VerifyReport:
    """Replay, then check every rank boundary and termination by full scans."""
    violations: list[str] = []
    valid = True
    replay = Derivation.start(derivation.variant,
                              KnowledgeBase(derivation.initial, derivation.ruleset))
    prefixes: list[Derivation] = []
    for i, step in enumerate(derivation.steps):
        try:
            ok = is_applicable(variant, replay, step.trigger)
        except UnknownTriggerError as exc:
            return VerifyReport(False, False, False, False,
                                f"step {i + 1}: {exc}")
        if not ok:
            valid = False
            violations.append(
                f"step {i + 1}: trigger {derivation.show(step.trigger)} is not "
                f"{variant.value}-applicable")
        replay = replay.extend(step.trigger, check=False)
        prefixes.append(replay)

    ranks = [s.trigger_rank for s in replay.steps]
    rank_compatible = all(ranks[i] <= ranks[i + 1] for i in range(len(ranks) - 1))
    if not rank_compatible:
        bad = next(i for i in range(len(ranks) - 1) if ranks[i] > ranks[i + 1])
        violations.append(
            f"step {bad + 2}: trigger rank {ranks[bad + 1]} after rank {ranks[bad]}")

    rank_exhaustive = True
    for i, prefix in enumerate(prefixes):
        is_boundary = i == len(prefixes) - 1 or ranks[i + 1] != ranks[i]
        if not is_boundary:
            continue
        k = ranks[i]
        for rank, t in oracle_applicable_new_triggers(variant, prefix):
            if rank != k + 1:
                rank_exhaustive = False
                violations.append(
                    f"after step {i + 1} (last of rank {k}): trigger {derivation.show(t)} of "
                    f"rank {rank} is still {variant.value}-applicable")
                break
        if not rank_exhaustive:
            break

    terminating = not oracle_applicable_new_triggers(variant, replay)
    return VerifyReport(valid, rank_compatible, rank_exhaustive, terminating,
                        violations[0] if violations else None)


# -- unpruned reference for the representative-factbase enumeration ------------


def oracle_representative_factbases(rs: RuleSet, max_atoms: int,
                                    budget: Budget | None = None):
    """Every labelled candidate whose generic constants are exactly a pool
    prefix, in lexicographic order, deduplicated through canonical forms and
    nothing else: the first candidate of each class is its representative."""
    budget = budget or Budget()
    yield frozenset()
    if max_atoms < 1 or not rs.body_predicates:
        return
    pool = generic_pool(rs, default_pool_size(rs, max_atoms))
    consts = sorted(rs.rule_constants, key=term_sort_key)
    fixed = frozenset(consts)
    arities = rs.arities()
    body_arity = max(arities[p] for p in rs.body_predicates)
    seen: set[bytes] = set()

    for n in range(1, max_atoms + 1):
        for m in range(0, min(len(pool), n * body_arity) + 1):
            need = frozenset(pool[:m])
            universe = _body_atom_universe(rs, consts + pool[:m])

            def emit(start, chosen, used):
                budget.spend_step()
                if len(chosen) == n:
                    if used >= need:
                        yield frozenset(chosen)
                    return
                missing = len(need - used)
                slots = (n - len(chosen)) * body_arity
                if missing > slots:
                    return
                for i in range(start, len(universe)):
                    a = universe[i]
                    yield from emit(i + 1, chosen + [a],
                                    used | {t for t in a.args if t in need})

            for candidate in emit(0, [], frozenset()):
                key = canonical_form(candidate, fixed)
                if key not in seen:
                    seen.add(key)
                    budget.spend_item()
                    yield candidate


def reference_cell_factbases(rs: RuleSet, n: int, m: int, budget: Budget | None = None):
    """``cell_factbases`` without its inner-node prunes: the restricted-growth
    scan that canonicalizes leaves only, each class's first leaf kept."""
    budget = budget or Budget()
    if n == 0:
        yield frozenset()
        return
    consts = sorted(rs.rule_constants, key=term_sort_key)
    arities = rs.arities()
    body_arity = max(arities[p] for p in rs.body_predicates)
    generics = sorted(generic_pool(rs, m), key=term_sort_key)
    order = {c: i for i, c in enumerate(generics)}
    universe = _body_atom_universe(rs, consts + generics)
    ranks = [tuple(order[t] for t in a.args if t in order) for a in universe]
    seen: set[bytes] = set()

    def emit(start, chosen, used):
        budget.spend_step()
        if len(chosen) == n:
            if used == m:
                yield frozenset(chosen)
            return
        if m - used > (n - len(chosen)) * body_arity:
            return
        for i in range(start, len(universe)):
            grown = used
            for r in ranks[i]:
                if r == grown:
                    grown += 1
                elif r > grown:
                    break
            else:
                yield from emit(i + 1, chosen + [universe[i]], grown)

    for candidate in emit(0, [], 0):
        key = canonical_form(candidate, rs.rule_constants, budget)
        if key not in seen:
            seen.add(key)
            budget.spend_item()
            yield candidate


# -- unpruned reference for the decider -------------------------------------------


def all_small_factbases(rs: RuleSet, max_atoms: int, pool_size: int,
                        budget: Budget | None = None):
    """Brute enumeration without isomorphism deduplication."""
    budget = budget or Budget()
    pool = generic_pool(rs, pool_size)
    consts = sorted(rs.rule_constants, key=term_sort_key)
    universe = _body_atom_universe(rs, consts + pool)
    yield frozenset()
    for n in range(1, max_atoms + 1):
        for combo in itertools.combinations(universe, n):
            budget.spend_step()
            yield frozenset(combo)


def oracle_check_k_bounded(q: BoundedQuery, extended_pool: int) -> BoundednessVerdict:
    """The decision without isomorphism deduplication and with a strictly
    larger constant pool; cross-validates the representative enumeration and
    the canonical dedup at desk scale."""
    default = default_pool_size(q.ruleset, q.max_atoms)
    if extended_pool <= default:
        raise ChaseError(
            f"oracle pool must exceed the default pool size {default}")
    budget = q.budget()
    factbases = all_small_factbases(q.ruleset, q.max_atoms, extended_pool, budget)
    return _verdict(q, *_first_witness(q, factbases, budget))
