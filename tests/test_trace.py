import json

import pytest

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
    # Each generated null's printed name nests its whole provenance; replay
    # must not parse it once per level.
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


def test_version_mismatch():
    kb = load_example("ex4")
    res = run_breadth_first(V.RESTRICTED, kb)
    doc = json.loads(serialize_trace(res.derivation, res.halt_reason))
    doc["format_version"] = 99
    with pytest.raises(VersionMismatchError):
        deserialize_trace(json.dumps(doc))


def test_keep_atom_parsing_handles_commas_inside_terms():
    from chasebound.terms import GeneratedNull, Null, TriggerKey
    from chasebound.parser import parse_atoms

    n = Null(GeneratedNull("R1", TriggerKey((("X", a), ("Y", Constant("b")))), "Z"))
    spec = f"p(a,b), q({n}), r(a)"
    got = parse_atoms(spec)
    assert atom("p", a, Constant("b")) in got
    assert atom("q", n) in got
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
    assert d2.atom_rank(next(at for at in d2.factbase
                             if str(at) == doc["offending_atom"])) == 2
