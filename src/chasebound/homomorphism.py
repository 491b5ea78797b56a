"""Homomorphism search and canonical forms for atom sets.

There is one backtracking matcher, ``Join``: a source atom set compiled once
into slots (one per movable term; constants and ``frozen`` terms are fixed)
and, per join order, a plan of slot tests and binds, run over one candidate
list per source atom, shortest list first (ties in atom_sort_key order), so
results are deterministic and pruning happens early.  ``find_homomorphism``
and ``all_homomorphisms`` compile their source into one; the engine's rank
join (``rules.BodyJoin``) and the restricted chase's check run on it too.
Constants are always fixed; nulls and variables are movable unless frozen.

Candidates come from a per-predicate index of the target.  An
``IndexedAtoms`` target carries that index with it and is searched as is; a
chase derivation's factbase is one, grown step by step by appending the new
atoms only.  It also carries an argument-position index, (predicate, arity,
position, term) -> the predicate's atoms with that term at that position; a
source atom with a fixed argument takes the shortest of these lists, so the
restricted chase's check, whose frontier image is frozen, looks only at atoms
that share it.  Any other target is indexed afresh by predicate on every call.
An index list is a search structure, not an output: what a search returns in
an order (``all_homomorphisms``) is sorted on the way out.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import CanonicalBudgetError
from .terms import (
    Atom,
    Constant,
    Substitution,
    Term,
    Variable,
    sorted_atoms,
    term_sort_key,
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


def _append_all(lists: dict, keys: Iterable, a: Atom, grown: set) -> None:
    """Append ``a`` to ``lists[key]`` for each key, copying a list shared
    with the parent instance the first time it grows."""
    for key in keys:
        if key not in grown:
            lists[key] = list(lists.get(key, ()))
            grown.add(key)
        lists[key].append(a)


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
        copied, and the new atoms are appended to them in sort order, so the
        lists, and the order a search visits them in, are the same in every
        process."""
        new = new - self
        if not new:
            return self
        index = dict(self.index)
        positions = dict(self.positions)
        grown: set = set()
        for a in sorted_atoms(new):
            _append_all(index, _predicate_keys(a), a, grown)
            _append_all(positions, _position_keys(a), a, grown)
        return IndexedAtoms(self | new, index, positions)


def _is_frozen(term: Term, frozen: frozenset) -> bool:
    return isinstance(term, Constant) or term in frozen


class Join:
    """A source atom set compiled for backtracking joins that bind slots, not
    dicts.

    The atoms are in atom_sort_key order, with their predicate keys.  Slot i
    holds the image of ``movable[i]``: the terms that are neither constants
    nor ``frozen``, in term_sort_key order, the order of
    ``Substitution._key``, so a join's image tuples compare as their
    substitutions do (``image_key``).  The fixed terms sit in the slots after
    them, each holding itself.  For each join order a plan says, per atom and
    argument, which slot it must equal (a fixed term or a term bound earlier),
    which slot it binds, and which slot bound by the same atom it must equal.
    """

    __slots__ = ("atoms", "keys", "movable", "_slots", "_plans")

    def __init__(self, atoms: Iterable[Atom], frozen: frozenset = frozenset()):
        self.atoms = tuple(sorted_atoms(atoms))
        self.keys = tuple(map(predicate_key, self.atoms))
        terms = dict.fromkeys(t for a in self.atoms for t in a.args)
        fixed = [t for t in terms if _is_frozen(t, frozen)]
        self.movable = tuple(sorted(terms.keys() - fixed, key=term_sort_key))
        self._slots = list(self.movable) + fixed
        self._plans: dict = {}

    def _plan(self, order: tuple) -> tuple:
        slot = {t: i for i, t in enumerate(self._slots)}
        bound = set(range(len(self.movable), len(self._slots)))
        plan = []
        for pos in order:
            tests, binds, repeats = [], [], []
            here: set = set()
            for i, t in enumerate(self.atoms[pos].args):
                s = slot[t]
                if s in bound:
                    tests.append((i, s))
                elif s in here:
                    repeats.append((i, s))
                else:
                    binds.append((i, s))
                    here.add(s)
            bound |= here
            plan.append((pos, tuple(tests), tuple(binds), tuple(repeats)))
        return tuple(plan)

    def matches(self, lists: Sequence[Sequence[Atom]], out: list,
                first_only: bool = False) -> None:
        """Append to ``out`` the image tuple of every match of ``atoms[i]``
        onto an atom of ``lists[i]`` for all i (only the first one with
        ``first_only``), shortest list joined first.  No atoms match once,
        with the empty tuple."""
        if not all(lists):
            return
        order = tuple(sorted(range(len(lists)), key=lambda i: len(lists[i])))
        plan = self._plans.get(order)
        if plan is None:
            plan = self._plans[order] = self._plan(order)
        if plan:
            _join(plan, 0, lists, list(self._slots), len(self.movable), out, first_only)
        else:
            out.append(())

    def image_key(self, images: tuple) -> tuple:
        return tuple(map(term_sort_key, images))

    def substitution(self, images: tuple) -> Substitution:
        return Substitution(zip(self.movable, images))


def _join(plan: tuple, depth: int, lists: Sequence[Sequence[Atom]], slots: list,
          n: int, out: list, first_only: bool) -> bool:
    # A slot is bound by one plan step only, so a failed match needs no undo:
    # the next candidate atom overwrites what this one bound.  True once
    # ``first_only`` has its match.
    pos, tests, binds, repeats = plan[depth]
    leaf = depth + 1 == len(plan)
    for a in lists[pos]:
        args = a.args
        for i, s in tests:
            if args[i] != slots[s]:
                break
        else:
            for i, s in binds:
                slots[s] = args[i]
            for i, s in repeats:
                if args[i] != slots[s]:
                    break
            else:
                if leaf:
                    out.append(tuple(slots[:n]))
                    if first_only:
                        return True
                elif _join(plan, depth + 1, lists, slots, n, out, first_only):
                    return True
    return False


def _target_lists(join: Join, target: frozenset, frozen: frozenset) -> list:
    """Each source atom's candidate target atoms: its predicate's bucket, or
    on an ``IndexedAtoms`` target the shortest of that bucket and the
    position lists of its fixed arguments."""
    if not isinstance(target, IndexedAtoms):
        index = _build_index(target)
        return [index.get(key, ()) for key in join.keys]
    index, positions = target.index, target.positions
    return [min([index.get(predicate_key(a), ())] +
                [positions.get(key, ()) for key in _position_keys(a)
                 if _is_frozen(key[3], frozen)], key=len)
            for a in join.atoms]


def _homomorphisms(source: frozenset, target: frozenset, frozen: frozenset,
                   first_only: bool) -> tuple[Join, list]:
    join = Join(source, frozen)
    images: list = []
    join.matches(_target_lists(join, target, frozen), images, first_only)
    return join, images


def find_homomorphism(source: frozenset, target: frozenset,
                      frozen: frozenset = frozenset()) -> Optional[Substitution]:
    """First homomorphism from ``source`` to ``target``, or None.

    The returned substitution is the identity on ``frozen`` and on constants
    (identity entries are simply absent from its domain).
    """
    join, images = _homomorphisms(source, target, frozen, first_only=True)
    return join.substitution(images[0]) if images else None


def all_homomorphisms(source: frozenset, target: frozenset,
                      frozen: frozenset = frozenset()) -> list[Substitution]:
    """Every distinct homomorphism, in a deterministic (sorted) order."""
    join, images = _homomorphisms(source, target, frozen, first_only=False)
    return [join.substitution(im) for im in sorted(images, key=join.image_key)]


def _term_kind(t: Term) -> int:
    if isinstance(t, Constant):
        return 0
    if isinstance(t, Variable):
        return 1
    return 2


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
