"""Homomorphism search, isomorphism, cores and canonical forms for atom sets.

The searcher is a plain backtracking matcher over per-source-atom candidate
lists.  Source atoms are ordered by selectivity (fewest candidate target atoms
first, ties broken by atom_sort_key) so results are deterministic and pruning
happens early.  Constants are always frozen; nulls and variables are
remappable unless explicitly frozen.

Candidates come from a per-predicate index of the target, each list sorted by
atom_sort_key.  An ``IndexedAtoms`` target carries that index with it and is
searched as is; a chase derivation's factbase is one, grown step by step by
sorted insertion of the new atoms only.  It also carries an argument-position
index, (predicate, arity, position, term) -> the predicate's atoms with that
term at that position, in the same order; a source atom with a frozen argument
(a constant or a ``frozen`` term) takes the shortest of these lists, so the
restricted chase's check, whose frontier image is frozen, looks only at atoms
that share it.  Any other target is indexed afresh by predicate on every call.
The engine joins rule bodies against atoms of chosen ranks with its own
compiled join (``rules.BodyJoin``), not with this searcher.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CanonicalBudgetError
from .terms import (
    Atom,
    Constant,
    Substitution,
    Term,
    Variable,
    atom_sort_key,
    sorted_atoms,
)

def predicate_key(a: Atom) -> tuple[str, int]:
    return a.predicate, len(a.args)


def _predicate_keys(a: Atom) -> tuple:
    return (predicate_key(a),)


def _position_keys(a: Atom) -> Iterator[tuple]:
    return ((a.predicate, len(a.args), i, t) for i, t in enumerate(a.args))


def _build_index(atoms: Iterable[Atom], keys=_predicate_keys) -> dict[tuple, list[Atom]]:
    """Each key of ``keys(a)`` -> the atoms filed under it, sorted by
    atom_sort_key: by default (predicate, arity) -> that predicate's atoms."""
    index: dict[tuple, list[Atom]] = {}
    for a in sorted_atoms(atoms):
        for key in keys(a):
            index.setdefault(key, []).append(a)
    return index


def _insort_all(lists: dict, keys: Iterable, a: Atom, grown: set) -> None:
    """Insert ``a`` in sort order into ``lists[key]`` for each key, copying a
    list shared with the parent instance the first time it grows."""
    for key in keys:
        if key not in grown:
            lists[key] = list(lists.get(key, ()))
            grown.add(key)
        bisect.insort(lists[key], a, key=atom_sort_key)


class IndexedAtoms(frozenset):
    """A frozenset of atoms carrying its per-predicate and argument-position
    indexes.

    Set operators return plain frozensets (and ``frozenset(x)`` copies one
    without the indexes); ``with_atoms`` is the way to grow an instance while
    keeping it indexed.  The index lists are shared between instances and
    must not be mutated.
    """

    __slots__ = ("index", "positions")

    def __new__(cls, atoms: Iterable[Atom] = (), index: Optional[dict] = None,
                positions: Optional[dict] = None):
        self = super().__new__(cls, atoms)
        self.index = _build_index(self) if index is None else index
        self.positions = _build_index(self, _position_keys) if positions is None \
            else positions
        return self

    def with_atoms(self, new: frozenset) -> "IndexedAtoms":
        """This set plus ``new``; only the lists the new atoms fall in are
        copied, and each new atom is inserted in sort order."""
        new = new - self
        if not new:
            return self
        index = dict(self.index)
        positions = dict(self.positions)
        grown: set = set()
        for a in new:
            _insort_all(index, _predicate_keys(a), a, grown)
            _insort_all(positions, _position_keys(a), a, grown)
        return IndexedAtoms(self | new, index, positions)


def _is_frozen(term: Term, frozen: frozenset) -> bool:
    return isinstance(term, Constant) or term in frozen


def _match_atom(src: Atom, tgt: Atom, binding: dict, frozen: frozenset) -> Optional[list[Term]]:
    """Try to extend ``binding`` so that binding(src) == tgt; returns newly
    bound source terms (for undo) or None when the atoms do not match."""
    new: list[Term] = []
    for s, t in zip(src.args, tgt.args):
        if _is_frozen(s, frozen):
            if s != t:
                break
        elif s in binding:
            if binding[s] != t:
                break
        else:
            binding[s] = t
            new.append(s)
    else:
        return new
    for s in new:
        del binding[s]
    return None


def _search(source: list[Atom], candidates: list[Sequence[Atom]], binding: dict,
            frozen: frozenset, pos: int, results: list[dict], first_only: bool) -> bool:
    if pos == len(source):
        results.append(dict(binding))
        return first_only
    src = source[pos]
    for tgt in candidates[pos]:
        new = _match_atom(src, tgt, binding, frozen)
        if new is None:
            continue
        if _search(source, candidates, binding, frozen, pos + 1, results, first_only):
            return True
        for s in new:
            del binding[s]
    return False


def _run_search(pairs: Iterable[tuple[Atom, Sequence[Atom]]], frozen: frozenset,
                first_only: bool) -> list[dict]:
    """Match each source atom onto one of its candidates, most selective
    source atom first."""
    ordered = sorted(pairs, key=lambda p: (len(p[1]), atom_sort_key(p[0])))
    results: list[dict] = []
    _search([src for src, _ in ordered], [cands for _, cands in ordered], {},
            frozen, 0, results, first_only)
    return results


def _target_pairs(source: Iterable[Atom], target: frozenset,
                  frozen: frozenset) -> list:
    """Each source atom with its candidate target atoms: its predicate's
    bucket, or on an ``IndexedAtoms`` target the shortest of that bucket and
    the position lists of its frozen arguments."""
    if not isinstance(target, IndexedAtoms):
        index = _build_index(target)
        return [(a, index.get(predicate_key(a), ())) for a in source]
    index, positions = target.index, target.positions
    return [(a, min([index.get(predicate_key(a), ())] +
                    [positions.get(key, ()) for key in _position_keys(a)
                     if _is_frozen(key[3], frozen)], key=len))
            for a in source]


def find_homomorphism(source: frozenset, target: frozenset,
                      frozen: frozenset = frozenset()) -> Optional[Substitution]:
    """First homomorphism from ``source`` to ``target``, or None.

    The returned substitution is the identity on ``frozen`` and on constants
    (identity entries are simply absent from its domain).
    """
    results = _run_search(_target_pairs(source, target, frozen), frozen, first_only=True)
    return Substitution(results[0]) if results else None


def all_homomorphisms(source: frozenset, target: frozenset,
                      frozen: frozenset = frozenset()) -> list[Substitution]:
    """Every distinct homomorphism, in a deterministic (sorted) order."""
    results = _run_search(_target_pairs(source, target, frozen), frozen, first_only=False)
    return sorted(map(Substitution, results), key=Substitution.sort_key)


def homomorphic_equivalent(a: frozenset, b: frozenset) -> bool:
    """Logical equivalence of two atom sets (homomorphisms both ways)."""
    return (find_homomorphism(a, b) is not None
            and find_homomorphism(b, a) is not None)


def _term_kind(t: Term) -> int:
    if isinstance(t, Constant):
        return 0
    if isinstance(t, Variable):
        return 1
    return 2


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
    fwd: dict[Term, Term] = {}
    rev: dict[Term, Term] = {}

    def try_map(s: Term, t: Term) -> Optional[tuple]:
        if s in renameable:
            if _term_kind(s) != _term_kind(t) or t not in renameable:
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


def _label_line(a: Atom, labels: dict[Term, str], counters: list[int]) -> str:
    parts = []
    for t in a.args:
        label = labels.get(t)
        if label is None:
            kind = _term_kind(t)
            label = labels[t] = f"{'knv'[kind]}{counters[kind]}"
            counters[kind] += 1
        parts.append(label)
    return f"{a.predicate}({','.join(parts)})"


def canonical_form(atoms: frozenset, fixed: frozenset = frozenset(),
                   max_nodes: int = 500_000) -> bytes:
    """Canonical byte encoding, equal for two sets iff they are isomorphic by
    a renaming that is the identity on ``fixed``.

    Minimizes the serialized form over all atom orderings; the induced
    first-appearance labeling of non-fixed terms makes the result independent
    of the original names.  Constants not listed in ``fixed`` are treated as
    generic labels (renameable within their kind), which is what the
    representative-factbase enumeration needs.  Raises CanonicalBudgetError
    when the ordering search exceeds ``max_nodes`` visited nodes.
    """
    # Fixed constants keep their names; every other term is labelled on
    # first appearance.
    fixed_labels = {t: f"!{t.name}" for t in fixed if isinstance(t, Constant)}
    atoms_list = sorted_atoms(atoms)
    if not atoms_list:
        return b"<empty>"

    best: list[Optional[tuple[str, ...]]] = [None]
    nodes = [0]

    def extend(prefix: tuple[str, ...], remaining: list[Atom],
               labels: dict[Term, str], counters: list[int]) -> None:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise CanonicalBudgetError(
                f"canonical_form exceeded {max_nodes} search nodes")
        if best[0] is not None and prefix > best[0][:len(prefix)]:
            return
        if not remaining:
            if best[0] is None or prefix < best[0]:
                best[0] = prefix
            return
        for i, a in enumerate(remaining):
            labels2 = dict(labels)
            counters2 = list(counters)
            line = _label_line(a, labels2, counters2)
            extend(prefix + (line,), remaining[:i] + remaining[i + 1:],
                   labels2, counters2)

    extend((), atoms_list, fixed_labels, [0, 0, 0])
    assert best[0] is not None
    return "\n".join(best[0]).encode("ascii")
