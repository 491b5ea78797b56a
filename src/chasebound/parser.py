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

import re
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
    offset: int


# One alternative per lexeme: blanks, a comment, a null marker, punctuation,
# a word, or any other character.  ``re`` compiles it on first use.
_LEXEME = (r"[ \t\r\n]+|(?P<COMMENT>%.*)|(?P<NULLSTART>_:)"
           r"|(?P<PUNCT>->|[(),.\[\]])|(?P<IDENT>\w+)|(?P<ERROR>.)")


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``; only ``\\n`` ends a line."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    eof = len(text)
    for m in re.finditer(_LEXEME, text):
        kind, offset = m.lastgroup, m.start()
        if kind == "ERROR" or (kind == "IDENT" and not text[offset].isalpha()):
            raise ParseError(f"unexpected character {text[offset]!r}",
                             *_position(text, offset))
        if kind == "COMMENT":
            if m.end() == len(text):
                eof = offset  # the end of input sits at a trailing comment
        elif kind:
            tokens.append(Token(kind, m.group(), offset))
    tokens.append(Token("EOF", "", eof))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
        return ParseError(message, *_position(self.text, tok.offset))

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
            diagnostics.append(Diagnostic("error", str(exc),
                                          *_position(text, start.offset)))
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


def _parse_whole(text: str, parse):
    p = _Parser(text)
    result = parse(p)
    p.expect("EOF")
    return result


def parse_term(text: str) -> Term:
    return _parse_whole(text, _Parser.term)


def parse_atom(text: str) -> Atom:
    return _parse_whole(text, _Parser.atom)


def parse_atoms(text: str) -> list[Atom]:
    """A comma-separated atom list in source syntax, e.g. ``p(a,b), q(c)``."""
    return _parse_whole(text, _Parser.atom_list)


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text form: facts sorted, rules in ruleset order with explicit
    ids.  parse(serialize(parse(t))) is a fixpoint."""
    lines = [f"{a}." for a in sorted_atoms(kb.factbase)]
    lines.extend(str(r) for r in kb.ruleset)
    return "\n".join(lines) + ("\n" if lines else "")
