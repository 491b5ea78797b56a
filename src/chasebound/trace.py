"""Versioned trace documents: serialize a derivation, replay it bit-exactly.

Traces are human-readable JSON with sorted keys.  Atoms and substitution
terms print each generated null by its derivation-local name
(``Derivation.null_names``: ``_:Y@17`` is the ``Y`` null that step 17
produced), so a trace grows linearly with its steps.  Replay rebuilds the derivation from the recorded triggers alone,
names each step's new nulls the same way as it goes, and cross-checks every
recorded step (produced atoms, rank, factbase size); any mismatch is a
corruption signal and raises ReplayFailureError.  Witness files produced by
the decider are trace documents with a few extra keys, so they replay the
same way.

This is format version 2.  Version 1 printed each generated null with the
whole trigger that made it; it is not read any more (VersionMismatchError).
"""

from __future__ import annotations

import json
from typing import Optional

from .engine import (
    NAMING_MODE,
    ChaseVariant,
    Derivation,
    HaltReason,
    Trigger,
    show_atom,
)
from .errors import ChaseError, ReplayFailureError, VersionMismatchError
from .parser import ParseError, parse_kb, parse_term
from .rules import KnowledgeBase
from .terms import Substitution, Variable, sorted_atoms

TRACE_FORMAT_VERSION = 2


def trace_document(derivation: Derivation,
                   halt_reason: Optional[HaltReason] = None) -> dict:
    names = derivation.null_names()
    doc = {
        "format_version": TRACE_FORMAT_VERSION,
        "variant": derivation.variant.value,
        "naming_mode": NAMING_MODE[derivation.variant],
        "halt_reason": halt_reason.value if halt_reason else None,
        "rules": [str(r) for r in derivation.ruleset],
        "initial": [str(a) for a in sorted_atoms(derivation.initial)],
        "steps": [
            {
                "rule": s.trigger.rule_id,
                "substitution": {str(v): names.get(t) or str(t)
                                 for v, t in s.trigger.pi.items()},
                "produced": [show_atom(a, names) for a in sorted_atoms(s.produced)],
                "trigger_rank": s.trigger_rank,
                "factbase_size": s.resulting_factbase_size,
            }
            for s in derivation.steps
        ],
    }
    return doc


def serialize_trace(derivation: Derivation,
                    halt_reason: Optional[HaltReason] = None) -> str:
    return json.dumps(trace_document(derivation, halt_reason),
                      indent=2, sort_keys=True) + "\n"


def _parse_ruleset_and_initial(doc: dict) -> KnowledgeBase:
    source = "\n".join(f"{a}." for a in doc["initial"])
    source += "\n" + "\n".join(doc["rules"])
    result = parse_kb(source)
    if not result.ok:
        problems = "; ".join(str(d) for d in result.diagnostics)
        raise ReplayFailureError(f"trace ruleset/initial do not parse: {problems}")
    return result.kb


# Value type of every key a trace document (or one of its steps) must have.
_DOC_FIELDS = {"variant": str, "naming_mode": str, "rules": list, "initial": list,
               "steps": list}
_STEP_FIELDS = {"rule": str, "substitution": dict, "produced": list,
                "trigger_rank": int, "factbase_size": int}


def _check_fields(obj, fields: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise ReplayFailureError(f"{where} is not a JSON object")
    for key, kind in fields.items():
        value = obj.get(key)
        # JSON true and false decode as bool, which is an int subclass.
        if not isinstance(value, kind) or kind is int and isinstance(value, bool):
            raise ReplayFailureError(
                f"{where}: \"{key}\" is missing or not a JSON {kind.__name__}")


def _check_shape(doc: dict) -> None:
    """ReplayFailureError unless ``doc`` has the keys and value types of a
    trace document, so that replay never trips over a malformed one."""
    _check_fields(doc, _DOC_FIELDS, "trace")
    texts = doc["rules"] + doc["initial"]
    for i, step in enumerate(doc["steps"], start=1):
        _check_fields(step, _STEP_FIELDS, f"step {i}")
        texts += step["produced"] + list(step["substitution"].values())
    if not all(isinstance(t, str) for t in texts):
        raise ReplayFailureError("trace: a rule, atom or term is not a JSON string")


def _enum(kind, value):
    try:
        return kind(value)
    except ValueError:
        raise ReplayFailureError(f"unknown {kind.__name__} {value!r}")


def _reject_unknown_term(step_no: int, name: str, text: str) -> None:
    """ReplayFailureError for a substitution term absent from the factbase
    replayed so far, which no trigger of the derivation can use.  Text without
    ``@`` (which only generated null names contain) is parsed only to tell
    malformed text apart; no trigger is built from it."""
    if "@" not in text:
        try:
            parse_term(text)
        except ParseError as exc:
            raise ReplayFailureError(
                f"step {step_no}: substitution does not parse: {exc}")
    raise ReplayFailureError(
        f"step {step_no}: substitution term for {name} does not occur in the factbase")


def deserialize_trace(text: str) -> tuple[Derivation, Optional[HaltReason]]:
    """Replay a trace document into a Derivation; bit-exact or it raises."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReplayFailureError(f"trace is not valid JSON: {exc}")
    except RecursionError:
        raise ReplayFailureError("trace nests too deeply to decode")
    if not isinstance(doc, dict):
        raise ReplayFailureError("trace is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != TRACE_FORMAT_VERSION:  # 2.0 == 2 too
        raise VersionMismatchError(
            f"trace format version {version!r}, expected {TRACE_FORMAT_VERSION}")
    _check_shape(doc)
    kb = _parse_ruleset_and_initial(doc)
    variant = _enum(ChaseVariant, doc["variant"])
    if doc["naming_mode"] != NAMING_MODE[variant]:
        raise ReplayFailureError(
            f"naming mode {doc['naming_mode']!r} does not match variant "
            f"{variant.value!r}, whose nulls are {NAMING_MODE[variant]}-keyed")
    d = Derivation.start(variant, kb)
    # Every term of a valid trigger occurs in the factbase replayed so far, so
    # terms are looked up by their printed names, which the derivation
    # assigns to each step's new nulls as it grows.
    names = d.null_names()
    terms = {str(t): t for a in kb.factbase for t in a.args}
    for i, step in enumerate(doc["steps"], start=1):
        rule_id = step["rule"]
        for name, text in step["substitution"].items():
            if text not in terms:
                _reject_unknown_term(i, name, text)
        mapping = {Variable(name, rule_id): terms[text]
                   for name, text in step["substitution"].items()}
        try:
            new = d._apply(Trigger(rule_id, Substitution(mapping)))
        except ChaseError as exc:
            raise ReplayFailureError(f"step {i}: {exc}")
        terms.update((names.get(t) or str(t), t) for a in new.produced for t in a.args)
        produced = {show_atom(a, names) for a in new.produced}
        if produced != set(step["produced"]):
            raise ReplayFailureError(
                f"step {i}: produced atoms diverge from the recorded ones")
        if new.trigger_rank != step["trigger_rank"]:
            raise ReplayFailureError(
                f"step {i}: trigger rank {new.trigger_rank} != recorded "
                f"{step['trigger_rank']}")
        if new.resulting_factbase_size != step["factbase_size"]:
            raise ReplayFailureError(f"step {i}: factbase size diverges")
    halt = _enum(HaltReason, doc["halt_reason"]) if doc.get("halt_reason") else None
    return d, halt


def witness_document(k: int, bound_mode: str, witness) -> dict:
    doc = trace_document(witness.derivation)
    doc.update({
        "kind": "witness",
        "k": k,
        "bound_mode": bound_mode,
        "offending_atom": witness.derivation.show(witness.offending_atom),
        "minimized_factbase": [str(a) for a in sorted_atoms(witness.minimized_factbase)],
    })
    return doc


def serialize_witness(k: int, bound_mode: str, witness) -> str:
    return json.dumps(witness_document(k, bound_mode, witness),
                      indent=2, sort_keys=True) + "\n"
