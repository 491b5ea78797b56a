"""Terms, atoms and substitutions: the ground vocabulary the other modules use.

All types here are immutable values.  Constants, variables, nulls and atoms
are interned (hash-consed): building one from the same parts returns the same
object, so equality is identity and hashing is the built-in identity hash,
both done in C.  Unpickling re-interns, so worker processes and pickles share
the objects too.  A generated null is a flat record of the rule, the
existential variable and the trigger (or frontier image) that make it, so the
same trigger always re-creates the identical null, which is what makes replay
bit-exact.

A null's inner terms can be earlier nulls, so its depth grows with the
derivation.  Terms order by plain tuple keys (``term_sort_key``), never by
printed strings; a null's key holds the keys of its inner terms, so it is
built once, at interning, and cached.  The order of two nulls' inner keys,
once found, is remembered too (``_inner_less``), so ordering nulls of equal
depth never walks the same pair of chains twice.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Union


class Constant:
    """Interned constant, one object per name."""

    __slots__ = ("name",)
    _interned: dict = {}

    def __new__(cls, name: str) -> "Constant":
        self = cls._interned.get(name)
        if self is None:
            self = cls._interned[name] = super().__new__(cls)
            self.name = name
        return self

    def __reduce__(self):
        return (Constant, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"


class Variable:
    """Interned variable, one object per (name, scope)."""

    # ``scope`` is the rule id; it keeps variable namespaces of distinct
    # rules disjoint even when the source text reuses names.  Not part of the
    # printed form.
    __slots__ = ("name", "scope")
    _interned: dict = {}

    def __new__(cls, name: str, scope: Optional[str] = None) -> "Variable":
        self = cls._interned.get((name, scope))
        if self is None:
            self = cls._interned[name, scope] = super().__new__(cls)
            self.name = name
            self.scope = scope
        return self

    def __reduce__(self):
        return (Variable, (self.name, self.scope))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, {self.scope!r})"


class _Inner:
    """The inner terms' keys at the end of a generated null's sort key.  Each
    null builds its key once, so equality is identity, and the other fields
    settle most comparisons in C.  Inner keys nest one level per null depth,
    so ordering walks them in a loop where tuple comparison would recurse.
    ``less`` maps each other inner key this one was ordered against to
    whether this one is smaller (``_inner_less``)."""

    __slots__ = ("keys", "less")

    def __init__(self, keys: tuple):
        self.keys = keys
        self.less: dict = {}

    def __lt__(self, other: "_Inner") -> bool:
        return _inner_less(self, other)

    def __gt__(self, other: "_Inner") -> bool:
        return _inner_less(other, self)


def _inner_less(x: _Inner, y: _Inner) -> bool:
    """``x.keys < y.keys`` in tuple order.  Two distinct nulls have unequal
    keys, and where the first unequal pair is a pair of inner keys, it
    decides the order of the keys around it.  So every pair of inner keys met
    on the way down is remembered with the answer, and its reverse with the
    opposite one; comparing nulls whose inner nulls were compared before, as
    the trigger sort does on parallel null chains rank after rank, stops at
    the first remembered pair."""
    path = []
    while type(x) is _Inner:
        known = x.less.get(y)
        if known is not None:
            result = known
            break
        path.append((x, y))
        x, y = _first_difference(x.keys, y.keys)
    else:
        result = x < y
    for x, y in path:
        x.less[y] = result
        y.less[x] = not result
    return result


def _first_difference(a: tuple, b: tuple) -> tuple:
    """The first unequal pair of items of ``a`` and ``b``, descending into
    nested plain tuples; their lengths when one is a prefix of the other."""
    while True:
        for x, y in zip(a, b):
            if x is not y and x != y:
                break
        else:
            return len(a), len(b)
        if type(x) is not tuple or type(y) is not tuple:
            return x, y
        a, b = x, y


class Null:
    """Interned labelled unknown, one flat record per null.

    An initial null (``_:w`` in the input) is its ``label``.  A generated null
    is its ``rule_id``, existential variable ``exvar``, key kind
    (``frontier``) and ``inner`` terms: the trigger's body substitution as
    (variable name, term) pairs sorted by name for a trigger key, the
    trigger's frontier image for a frontier key.  Inner nulls are interned
    objects, so the record never nests another record.  ``depth`` and the
    sort key are computed once, at interning.

    A generated null prints as a short debug form, its existential variable
    and a per-process interning number (``_:Z#17``); outputs name it by
    ``engine.Derivation.null_names`` instead.
    """

    __slots__ = ("label", "rule_id", "exvar", "frontier", "inner", "depth", "_key", "_str")
    _interned: dict = {}

    def __new__(cls, label: str) -> "Null":
        """The initial null ``_:label``."""
        self = cls._interned.get(label)
        if self is None:
            self = cls._interned[label] = super().__new__(cls)
            self.label, self.rule_id, self.exvar, self.frontier, self.inner = \
                label, None, None, False, ()
            self.depth = 0
            self._key = (2, 0, 0, label)
            self._str = f"_:{label}"
        return self

    @classmethod
    def generated(cls, rule_id: str, exvar: str, frontier: bool, inner: tuple) -> "Null":
        """The null a trigger of ``rule_id`` makes for ``exvar``."""
        record = (rule_id, exvar, frontier, inner)
        self = cls._interned.get(record)
        if self is None:
            self = super().__new__(cls)
            self.label = None
            self.rule_id, self.exvar, self.frontier, self.inner = record
            terms = inner if frontier else [t for _, t in inner]
            self.depth = 1 + max((t.depth for t in terms if type(t) is Null), default=0)
            children = [term_sort_key(t) for t in inner] if frontier else \
                [x for name, t in inner for x in (name, term_sort_key(t))]
            self._key = (2, self.depth, 1, rule_id, exvar, int(frontier),
                         len(inner), _Inner(tuple(children)))
            self._str = f"_:{exvar}#{len(cls._interned)}"
            cls._interned[record] = self
        return self

    def __reduce__(self):
        if self.label is not None:
            return (Null, (self.label,))
        return (Null.generated, (self.rule_id, self.exvar, self.frontier, self.inner))

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"Null({self})"


Term = Union[Constant, Variable, Null]


def term_sort_key(term: Term) -> tuple:
    """Deterministic total order over terms: constants < variables < nulls.

    Nulls order by depth, then initial before generated, then rule id,
    existential variable, key kind (trigger before frontier), key length and
    the keys of the inner terms.  A null's key is the one cached at interning.
    """
    if type(term) is Null:
        return term._key
    if type(term) is Constant:
        return (0, term.name)
    return (1, term.name, term.scope or "")


class Atom:
    """Predicate applied to terms, interned on (predicate, args): equal atoms
    are the same object, so equality is identity."""

    __slots__ = ("predicate", "args", "_key")
    _interned: dict = {}

    def __new__(cls, predicate: str, args: Iterable[Term]) -> "Atom":
        if type(args) is not tuple:
            args = tuple(args)
        self = cls._interned.get((predicate, args))
        if self is None:
            self = cls._interned[predicate, args] = super().__new__(cls)
            self.predicate = predicate
            self.args = args
            self._key = None
        return self

    def __reduce__(self):
        return (Atom, (self.predicate, self.args))

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Atom({self})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def sort_key(self) -> tuple:
        if self._key is None:
            self._key = (self.predicate, len(self.args),
                         tuple(term_sort_key(t) for t in self.args))
        return self._key


def atom(predicate: str, *args: Term) -> Atom:
    return Atom(predicate, tuple(args))


def atom_sort_key(a: Atom) -> tuple:
    return a.sort_key()


def sorted_atoms(atoms: Iterable[Atom]) -> list[Atom]:
    return sorted(atoms, key=atom_sort_key)


def terms_of(atoms: Iterable[Atom]) -> frozenset:
    return frozenset(t for a in atoms for t in a.args)


def variables_of(atoms: Iterable[Atom]) -> frozenset:
    return frozenset(t for a in atoms for t in a.args if isinstance(t, Variable))


def nulls_of(atoms: Iterable[Atom]) -> frozenset:
    return frozenset(t for a in atoms for t in a.args if isinstance(t, Null))


def constants_of(atoms: Iterable[Atom]) -> frozenset:
    return frozenset(t for a in atoms for t in a.args if isinstance(t, Constant))


class Substitution:
    """Finite mapping from variables/nulls to terms; identity everywhere else.

    Constants are never in the domain.  Application is homomorphic over atom
    structure.  Instances are immutable and hashable so they can identify
    triggers.
    """

    __slots__ = ("_map", "_key", "_hash")

    def __init__(self, mapping: Mapping[Term, Term] | Iterable[tuple[Term, Term]] = ()):
        items = dict(mapping)
        for k in items:
            if isinstance(k, Constant):
                raise ValueError(f"constant {k} cannot be in a substitution domain")
        self._map = items
        self._key = tuple(sorted(items.items(), key=lambda kv: term_sort_key(kv[0])))
        self._hash = hash(self._key)

    def __reduce__(self):
        return (Substitution, (self._key,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, term: Term) -> bool:
        return term in self._map

    def __str__(self) -> str:
        return "{" + ",".join(f"{k}:{v}" for k, v in self._key) + "}"

    def __repr__(self) -> str:
        return f"Substitution({self})"

    def items(self) -> Iterator[tuple[Term, Term]]:
        return iter(self._key)

    def sort_key(self) -> tuple:
        """Orders substitutions by their (domain, image) key pairs in domain order."""
        return tuple((term_sort_key(k), term_sort_key(v)) for k, v in self._key)

    def domain(self) -> frozenset:
        return frozenset(self._map)

    def apply_term(self, term: Term) -> Term:
        return self._map.get(term, term)

    def apply_atom(self, a: Atom) -> Atom:
        return Atom(a.predicate, tuple(self._map.get(t, t) for t in a.args))

    def apply(self, atoms: Iterable[Atom]) -> frozenset:
        """Rewrite every atom argument-wise; duplicates merge (set semantics)."""
        return frozenset(self.apply_atom(a) for a in atoms)

    def restrict(self, keys: Iterable[Term]) -> "Substitution":
        keep = set(keys)
        return Substitution({k: v for k, v in self._map.items() if k in keep})

    def extended(self, extra: Mapping[Term, Term]) -> "Substitution":
        merged = dict(self._map)
        merged.update(extra)
        return Substitution(merged)

