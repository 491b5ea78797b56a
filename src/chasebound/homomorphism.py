"""Homomorphism search and canonical forms for atom sets.

There is one backtracking matcher, ``Join``: a source atom set compiled once
into slots (one per movable term; constants, ``frozen`` terms and ``params``
are fixed) and, per join order, a plan of slot tests and binds, run over one
candidate list per source atom, shortest list first (ties in atom_sort_key
order), so results are deterministic and pruning happens early.
``find_homomorphism`` and ``all_homomorphisms`` compile their source into
one; the engine's rank join (``rules.BodyJoin``) runs on it too, and so does
the restricted chase's check, a rule head compiled once with its frontier
variables as params, which each check fills with a frontier image.
Constants are always fixed; nulls and variables are movable unless frozen.

Candidates come from the target's one index, an ``IndexedAtoms``: each atom
is filed under (predicate, arity), under ((predicate, arity), rank) and under
(predicate, arity, position, term) for each argument.  A source atom takes
the shortest of its predicate's list and the position lists of its fixed
arguments, so the restricted chase's check, whose frontier image is fixed,
looks only at atoms that share it.  A chase derivation's factbase is one,
grown in place step by step by appending the new atoms at their rank (a
search steps back by popping them), and the engine's rank join reads the
rank lists; any other target is indexed afresh (at rank 0) on every call.
Every instance owns its index lists: ``IndexedAtoms.copy`` copies them, so
nothing changes a list another instance reads.  An index list is a search
structure, not an output: what a search returns in an order
(``all_homomorphisms``) is sorted on the way out.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence

from .budget import Budget
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


def _keys(a: Atom, rank: int) -> list:
    """(predicate, arity), ((predicate, arity), rank) and, per argument,
    (predicate, arity, position, term): the index keys of ``a`` at ``rank``."""
    key = predicate_key(a)
    return [key, (key, rank)] + [(*key, i, t) for i, t in enumerate(a.args)]


def _file(index: dict, atoms: Iterable[Atom], rank: int) -> None:
    """Append ``atoms`` to ``index`` in sort order, each under its ``_keys``."""
    for a in sorted_atoms(atoms):
        for k in _keys(a, rank):
            index.setdefault(k, []).append(a)


class IndexedAtoms(set):
    """A set of atoms carrying one index: each atom is filed by predicate, by
    (predicate, rank) and by argument position (``_file``).

    The constructor files its atoms at rank 0, ``grow`` adds atoms in place
    at a given rank, and ``shrink`` takes the last ``grow`` back.  The index
    and its lists belong to this instance alone: ``copy`` copies every list,
    so growing one instance never changes another.  Set operators return
    plain sets (and ``frozenset(x)`` copies one without the index).
    """

    __slots__ = ("index",)

    def __init__(self, atoms: Iterable[Atom] = ()):
        super().__init__(atoms)
        self.index: dict = {}
        _file(self.index, self, 0)

    def grow(self, new: Collection[Atom], rank: int) -> None:
        """Add the atoms of ``new``, none of them in the set yet, at ``rank``:
        each is appended to its lists in sort order, so the lists, and the
        order a search visits them in, are the same in every process."""
        self.update(new)
        _file(self.index, new, rank)

    def shrink(self, atoms: Collection[Atom], rank: int) -> None:
        """Undo the last ``grow(atoms, rank)``: pop each atom off the end of
        its lists, in reverse sort order, and drop the lists left empty."""
        self.difference_update(atoms)
        for a in reversed(sorted_atoms(atoms)):
            for k in _keys(a, rank):
                self.index[k].pop()
                if not self.index[k]:
                    del self.index[k]

    def copy(self) -> "IndexedAtoms":
        other = IndexedAtoms()
        other.update(self)
        other.index = {k: list(atoms) for k, atoms in self.index.items()}
        return other


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
    them: first the ``params``, which ``search`` fills with the terms it is
    given, then the constants and ``frozen`` terms, each holding itself.  For
    each join order a plan says, per atom and argument, which slot it must
    equal (a fixed term or a term bound earlier), which slot it binds, and
    which slot bound by the same atom it must equal.
    """

    __slots__ = ("atoms", "keys", "movable", "_slots", "_fixed", "_plans")

    def __init__(self, atoms: Iterable[Atom], frozen: frozenset = frozenset(),
                 params: tuple = ()):
        self.atoms = tuple(sorted_atoms(atoms))
        self.keys = tuple(map(predicate_key, self.atoms))
        terms = dict.fromkeys(t for a in self.atoms for t in a.args)
        fixed = list(params) + [t for t in terms
                                if _is_frozen(t, frozen) and t not in params]
        self.movable = tuple(sorted(terms.keys() - fixed, key=term_sort_key))
        self._slots = list(self.movable) + fixed
        slot = {t: i for i, t in enumerate(self._slots)}
        # Per atom, the (position, slot) of each fixed argument.
        self._fixed = tuple(tuple((i, slot[t]) for i, t in enumerate(a.args)
                                  if slot[t] >= len(self.movable))
                            for a in self.atoms)
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
                first_only: bool = False, slots: Optional[list] = None) -> None:
        """Append to ``out`` the image tuple of every match of ``atoms[i]``
        onto an atom of ``lists[i]`` for all i (only the first one with
        ``first_only``), shortest list joined first; the fixed slots hold
        what ``slots`` holds there (by default, their own terms).  No atoms
        match once, with the empty tuple."""
        if not all(lists):
            return
        order = tuple(sorted(range(len(lists)), key=lambda i: len(lists[i])))
        plan = self._plans.get(order)
        if plan is None:
            plan = self._plans[order] = self._plan(order)
        if plan:
            _join(plan, 0, lists, list(self._slots if slots is None else slots),
                  len(self.movable), out, first_only)
        else:
            out.append(())

    def search(self, index: dict, params: tuple = (),
               first_only: bool = False) -> list:
        """The image tuples of the matches onto the atoms ``index`` files
        (an ``IndexedAtoms`` index), with the params' slots holding
        ``params``.  Each atom's candidates are the shortest of its
        predicate's list and the position lists of its fixed arguments."""
        slots = self._slots
        if params:
            n = len(self.movable)
            slots = slots[:n] + list(params) + slots[n + len(params):]
        lists = [min([index.get(key, ())] +
                     [index.get((*key, i, slots[s]), ()) for i, s in fixed], key=len)
                 for key, fixed in zip(self.keys, self._fixed)]
        out: list = []
        self.matches(lists, out, first_only, slots)
        return out

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


def _homomorphisms(source: frozenset, target: frozenset, frozen: frozenset,
                   first_only: bool) -> tuple[Join, list]:
    if not isinstance(target, IndexedAtoms):
        target = IndexedAtoms(target)
    join = Join(source, frozen)
    return join, join.search(target.index, first_only=first_only)


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
                   budget: Optional[Budget] = None) -> bytes:
    """Canonical byte encoding, equal for two sets iff they are isomorphic by
    a renaming that is the identity on ``fixed``.

    Minimizes the serialized form over all atom orderings; the induced
    first-appearance labeling of non-fixed terms makes the result independent
    of the original names.  Constants not listed in ``fixed`` are treated as
    generic labels (renameable within their kind), which is what the
    representative-factbase enumeration needs.  Each node of the ordering
    search spends a step of ``budget`` (BudgetExceededError when it runs out).
    """
    # Fixed constants keep their names; every other term is labelled on
    # first appearance.
    fixed_labels = {t: f"!{t.name}" for t in fixed if isinstance(t, Constant)}
    atoms_list = sorted_atoms(atoms)
    if not atoms_list:
        return b"<empty>"

    budget = budget or Budget()
    best: list[Optional[tuple[str, ...]]] = [None]

    def extend(prefix: tuple[str, ...], remaining: list[Atom],
               labels: dict[Term, str], counters: list[int]) -> None:
        budget.spend_step()
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
