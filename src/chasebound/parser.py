"""Text format for knowledge bases.

Grammar (comments start with ``%``)::

    fact     p(a,b).
    rule     [id] body -> head.        id optional, auto-named R1, R2, ...
    atoms    comma-separated; identifiers starting lowercase are
             constants/predicates, starting uppercase are variables
    nulls    _:w              initial null (only in facts)

Only initial nulls have a text form.  The nulls a derivation generates are
named derivation-locally in traces (``_:Z@3``, see ``trace.py``), and replay
looks those names up instead of parsing them.

Head variables absent from the body are existentially quantified.  Rules are
renamed apart after parsing by scoping every rule variable with its rule id.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ChaseError
from .rules import (
    Diagnostic,
    KnowledgeBase,
    Rule,
    RuleSet,
    validate_kb,
)
from .terms import (
    Atom,
    Constant,
    Null,
    Term,
    Variable,
    sorted_atoms,
)


class ParseError(ChaseError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str  # IDENT | PUNCT | NULLSTART | EOF
    text: str
    line: int
    column: int


_PUNCT1 = "(),.[]"


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("_:", i):
            tokens.append(Token("NULLSTART", "_:", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            tokens.append(Token("PUNCT", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            tokens.append(Token("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.fail(f"expected {want!r}, found {tok.text!r}")
        return self.next()

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "NULLSTART":
            return self.null()
        if tok.kind == "IDENT":
            self.next()
            if tok.text[0].isupper():
                return Variable(tok.text)
            return Constant(tok.text)
        raise self.fail("expected a term")

    def null(self) -> Null:
        self.expect("NULLSTART")
        return Null(self.expect("IDENT").text)

    # -- atoms and statements ----------------------------------------------

    def atom(self) -> Atom:
        pred = self.expect("IDENT")
        if pred.text[0].isupper():
            raise self.fail("predicate names must start lowercase", pred)
        self.expect("PUNCT", "(")
        args = [self.term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.term())
        self.expect("PUNCT", ")")
        return Atom(pred.text, tuple(args))

    def atom_list(self) -> list[Atom]:
        atoms = [self.atom()]
        while self.peek().text == ",":
            self.next()
            atoms.append(self.atom())
        return atoms


class ParseResult(NamedTuple):
    kb: Optional[KnowledgeBase]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.kb is not None and not any(
            d.severity == "error" for d in self.diagnostics)


def _scope_rule(rule_id: str, atoms: list[Atom]) -> list[Atom]:
    return [Atom(a.predicate,
                 tuple(Variable(t.name, rule_id) if isinstance(t, Variable) else t
                       for t in a.args))
            for a in atoms]


def parse_kb(text: str) -> ParseResult:
    """Parse a knowledge base; on syntax errors the result carries only
    diagnostics (with line/column), never a partial KB."""
    diagnostics: list[Diagnostic] = []
    facts: list[Atom] = []
    raw_rules: list[tuple[Optional[str], list[Atom], list[Atom], Token]] = []
    try:
        p = _Parser(text)
        while p.peek().kind != "EOF":
            start = p.peek()
            rule_id: Optional[str] = None
            if start.kind == "PUNCT" and start.text == "[":
                p.next()
                rule_id = p.expect("IDENT").text
                p.expect("PUNCT", "]")
            first = p.atom_list()
            tok = p.peek()
            if tok.kind == "PUNCT" and tok.text == "->":
                p.next()
                head = p.atom_list()
                p.expect("PUNCT", ".")
                raw_rules.append((rule_id, first, head, start))
            elif tok.kind == "PUNCT" and tok.text == ".":
                p.next()
                if rule_id is not None:
                    raise p.fail("facts cannot carry a rule id", start)
                if len(first) != 1:
                    raise p.fail("facts are single atoms", start)
                facts.extend(first)
            else:
                raise p.fail("expected '->' or '.'")
    except ParseError as exc:
        diagnostics.append(Diagnostic("error", exc.message, exc.line, exc.column))
        return ParseResult(None, diagnostics)

    used_ids = {rid for rid, _, _, _ in raw_rules if rid is not None}
    rules: list[Rule] = []
    auto = 0
    for rid, body, head, start in raw_rules:
        if rid is None:
            auto += 1
            while f"R{auto}" in used_ids:
                auto += 1
            rid = f"R{auto}"
            used_ids.add(rid)
        try:
            rules.append(Rule(rid, _scope_rule(rid, body), _scope_rule(rid, head)))
        except ChaseError as exc:
            diagnostics.append(Diagnostic("error", str(exc), start.line, start.column))
            return ParseResult(None, diagnostics)

    for a in facts:
        for t in a.args:
            if isinstance(t, Variable):
                diagnostics.append(Diagnostic(
                    "error", f"fact {a} contains variable {t.name}; "
                             f"use an initial null (_:{t.name.lower()})"))
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)

    try:
        rs = RuleSet(rules)
    except ChaseError as exc:
        diagnostics.append(Diagnostic("error", str(exc)))
        return ParseResult(None, diagnostics)
    kb = KnowledgeBase(frozenset(facts), rs)
    diagnostics.extend(validate_kb(kb))
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(kb, diagnostics)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect("EOF")
    return t


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    a = p.atom()
    p.expect("EOF")
    return a


def parse_atoms(text: str) -> list[Atom]:
    """A comma-separated atom list in source syntax, e.g. ``p(a,b), q(c)``."""
    p = _Parser(text)
    atoms = p.atom_list()
    p.expect("EOF")
    return atoms


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text form: facts sorted, rules in ruleset order with explicit
    ids.  parse(serialize(parse(t))) is a fixpoint."""
    lines = [f"{a}." for a in sorted_atoms(kb.factbase)]
    lines.extend(str(r) for r in kb.ruleset)
    return "\n".join(lines) + ("\n" if lines else "")
