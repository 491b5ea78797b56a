import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasebound import (
    BoundedQuery,
    ChaseVariant,
    check_k_bounded,
    deserialize_trace,
    restrict,
    run_breadth_first,
    serialize_trace,
    serialize_witness,
    verify_derivation,
)
from chasebound.errors import ReplayFailureError, VersionMismatchError
from chasebound.terms import Constant, atom

from conftest import load_example
from oracles import random_kb

V = ChaseVariant
a = Constant("a")


def roundtrip(result):
    text = serialize_trace(result.derivation, result.halt_reason)
    d2, halt = deserialize_trace(text)
    return text, d2, halt


def test_round_trip_identity_on_engine_output():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    text, d2, halt = roundtrip(res)
    assert halt == res.halt_reason
    assert d2.factbase == res.derivation.factbase
    assert d2.triggers() == res.derivation.triggers()
    assert {at: d2.atom_rank(at) for at in d2.factbase} == \
        {at: res.derivation.atom_rank(at) for at in res.derivation.factbase}
    # Bit-exact: serializing the replay reproduces the same bytes.
    assert serialize_trace(d2, halt) == text


def test_deep_trace_round_trips_and_verifies():
    # The trace names each generated null by step and existential variable,
    # and replay looks those names up without parsing anything per level.
    res = run_breadth_first(V.RESTRICTED, load_example("ex1"), step_cap=400,
                            depth_cap=2000)
    text, d2, halt = roundtrip(res)
    assert len(d2.steps) == 400 and d2.depth() == 400
    assert serialize_trace(d2, halt) == text
    report = verify_derivation(V.RESTRICTED, d2)
    assert report.is_valid_variant_derivation
    assert report.is_rank_compatible and report.is_rank_exhaustive
    assert not report.is_terminating


def test_round_trip_preserves_null_names():
    kb = load_example("ex2_k1")
    res = run_breadth_first(V.SEMI_OBLIVIOUS, kb, step_cap=10)
    text, d2, _ = roundtrip(res)
    assert {str(at) for at in d2.factbase} == \
        {str(at) for at in res.derivation.factbase}


def test_example6_trace_has_four_steps_and_final_factbase():
    from test_derivations import build_example6
    _, d, _, (z1, z3, z4) = build_example6()
    doc = json.loads(serialize_trace(d))
    assert len(doc["steps"]) == 4
    replayed, _ = deserialize_trace(serialize_trace(d))
    assert replayed.factbase == d.factbase
    assert len(replayed.factbase) == 6
    for chained in (atom("p", a, z1), atom("p", z1, z3), atom("p", z3, z4)):
        assert chained in replayed.factbase


def test_example6_style_trace_of_restriction():
    kb = load_example("ex6")
    res = run_breadth_first(V.OBLIVIOUS, kb, depth_cap=2, step_cap=10)
    restricted = restrict(res.derivation, frozenset({atom("p", a, a)}))
    text = serialize_trace(restricted)
    d2, halt = deserialize_trace(text)
    assert halt is None
    assert d2.factbase == restricted.factbase


def test_tampered_substitution_fails_replay():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    doc = json.loads(serialize_trace(res.derivation, res.halt_reason))
    doc["steps"][0]["substitution"]["X"] = "b"  # not a body embedding any more
    with pytest.raises(ReplayFailureError):
        deserialize_trace(json.dumps(doc))


def test_tampered_products_fail_replay():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    doc = json.loads(serialize_trace(res.derivation, res.halt_reason))
    doc["steps"][0]["produced"] = ["p(a,a)"]
    with pytest.raises(ReplayFailureError):
        deserialize_trace(json.dumps(doc))


def test_invalid_json_fails_replay():
    res = run_breadth_first(V.RESTRICTED, load_example("ex4"))
    text = serialize_trace(res.derivation, res.halt_reason)
    with pytest.raises(ReplayFailureError,
                       match="^trace is not valid JSON: Expecting ',' delimiter"):
        deserialize_trace(text[:-3])


@pytest.mark.parametrize("path, value, message", [
    (("steps", 0), "x", "step 1 is not a JSON object"),
    (("initial", 0), 5, "trace: a rule, atom or term is not a JSON string"),
    (("variant",), "x", "unknown ChaseVariant 'x'"),
    (("steps", 0, "trigger_rank"), 2, "step 1: trigger rank 1 != recorded 2"),
    (("steps", 0, "factbase_size"), 4, "step 1: factbase size diverges"),
], ids=["step-not-object", "atom-not-string", "unknown-variant",
        "tampered-trigger-rank", "tampered-factbase-size"])
def test_malformed_or_tampered_trace_fails_replay(path, value, message):
    res = run_breadth_first(V.RESTRICTED, load_example("ex4"))
    doc = json.loads(serialize_trace(res.derivation, res.halt_reason))
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    with pytest.raises(ReplayFailureError, match="^" + re.escape(message) + "$"):
        deserialize_trace(json.dumps(doc))


def test_thousand_step_trace_is_under_a_megabyte_and_verifies():
    res = run_breadth_first(V.RESTRICTED, load_example("ex1"), step_cap=1000,
                            depth_cap=2000)
    text, d2, halt = roundtrip(res)
    assert len(text.encode("utf-8")) < 1_000_000
    assert serialize_trace(d2, halt) == text
    report = verify_derivation(V.RESTRICTED, d2)
    assert report.is_valid_variant_derivation and report.is_rank_exhaustive


def test_generated_nulls_are_named_by_step_and_existential_variable():
    res = run_breadth_first(V.RESTRICTED, load_example("ex1"), step_cap=3)
    steps = json.loads(serialize_trace(res.derivation))["steps"]
    assert [s["substitution"] for s in steps] == [
        {"X": "alice"}, {"X": "_:Y@1"}, {"X": "_:Y@2"}]
    assert steps[2]["produced"] == ["human(_:Y@3)", "parentOf(_:Y@3,_:Y@2)"]


def test_initial_nulls_keep_their_input_form():
    res = run_breadth_first(V.RESTRICTED, load_example("ex2_k3"), step_cap=4)
    doc = json.loads(serialize_trace(res.derivation))
    assert doc["initial"] == ["p(a,_:w)"]
    assert any("_:w" in at for s in doc["steps"] for at in s["produced"])


def test_renamed_null_in_substitution_fails_replay():
    res = run_breadth_first(V.RESTRICTED, load_example("ex1"), step_cap=3)
    doc = json.loads(serialize_trace(res.derivation))
    doc["steps"][2]["substitution"]["X"] = "_:Y@3"  # not produced yet
    with pytest.raises(ReplayFailureError, match="does not occur in the factbase"):
        deserialize_trace(json.dumps(doc))


def test_version_mismatch():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    doc = json.loads(serialize_trace(res.derivation, res.halt_reason))
    # Version 1 printed every null with its whole provenance; no replay path
    # for it is kept.
    for version in (1, 99):
        doc["format_version"] = version
        with pytest.raises(VersionMismatchError):
            deserialize_trace(json.dumps(doc))


def test_keep_atom_parsing_handles_commas_inside_terms():
    from chasebound.terms import Null
    from chasebound.parser import parse_atoms

    got = parse_atoms("p(a,b), q(_:w, _:v), r(a)")
    assert atom("p", a, Constant("b")) in got
    assert atom("q", Null("w"), Null("v")) in got
    assert atom("r", a) in got
    assert len(got) == 3


def test_witness_file_replays_as_a_trace():
    rs = load_example("ex3_single").ruleset
    verdict = check_k_bounded(BoundedQuery(rs, V.RESTRICTED, 1))
    text = serialize_witness(1, "safe", verdict.witness)
    doc = json.loads(text)
    assert doc["kind"] == "witness"
    assert doc["k"] == 1
    d2, _ = deserialize_trace(text)
    assert d2.depth() == 2
    # The offending atom is printed with the witness derivation's null names.
    assert d2.atom_rank(next(at for at in d2.factbase
                             if d2.show(at) == doc["offending_atom"])) == 2


GENERATED_NAME = re.compile(r"_:(\w+)@\d+")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from([V.OBLIVIOUS, V.SEMI_OBLIVIOUS, V.RESTRICTED]))
def test_trace_round_trips_on_random_kbs(seed, variant):
    res = run_breadth_first(variant, random_kb(random.Random(seed)),
                            depth_cap=3, step_cap=30)
    d = res.derivation
    text = serialize_trace(d, res.halt_reason)
    d2, halt = deserialize_trace(text)
    assert d2.triggers() == d.triggers()
    assert d2.factbase == d.factbase
    assert {at: d2.atom_rank(at) for at in d2.factbase} == \
        {at: d.atom_rank(at) for at in d.factbase}
    assert serialize_trace(d2, halt) == text

    # Renaming one null in a step's produced atoms to a name no null of that
    # step can have breaks the replay's cross-check.
    doc = json.loads(text)
    found = next(((i, j, m) for i, step in enumerate(doc["steps"], start=1)
                  for j, at in enumerate(step["produced"])
                  for m in [GENERATED_NAME.search(at)] if m), None)
    if found is not None:
        i, j, m = found
        produced = doc["steps"][i - 1]["produced"]
        at = produced[j]
        produced[j] = at[:m.start()] + f"_:{m.group(1)}@{i + 1}" + at[m.end():]
        with pytest.raises(ReplayFailureError, match=f"step {i}: produced atoms"):
            deserialize_trace(json.dumps(doc))
