from chasebound import ChaseVariant, Derivation, export_dot, run_breadth_first

from conftest import load_example
from test_derivations import build_example6

V = ChaseVariant


def test_example11_dot_counts():
    kb = load_example("ex11")
    res = run_breadth_first(V.EQUIVALENT, kb, depth_cap=10, step_cap=100)
    dot = export_dot(res.derivation)
    assert dot.count("[label=") == 17
    assert dot.count("rank=same") == 4  # ranks 0..3


def test_empty_derivation_has_only_rank0_nodes():
    kb = load_example("ex4")
    dot = export_dot(Derivation.start(V.RESTRICTED, kb))
    assert dot.count("[label=") == 1
    assert "->" not in dot.replace("rankdir", "")


def test_example6_edge_count():
    _, d, _, _ = build_example6()
    dot = export_dot(d)
    assert dot.count("[label=") == 6
    # One body atom producing one atom per step: 4 ancestor edges.
    assert dot.count("[color=") == 4


def test_dot_is_deterministic():
    kb = load_example("ex11")
    res = run_breadth_first(V.EQUIVALENT, kb, depth_cap=10, step_cap=100)
    assert export_dot(res.derivation) == export_dot(res.derivation)


def test_deep_dot_grows_linearly():
    # Labels name generated nulls by step, so they do not grow with depth.
    res = run_breadth_first(V.RESTRICTED, load_example("ex1"), step_cap=300,
                            depth_cap=2000)
    dot = export_dot(res.derivation)
    assert len(dot.encode("utf-8")) < 150_000
    assert '[label="human(_:Y@300)\\nrank 300"]' in dot
