import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chasebound.cli import cli
from chasebound.errors import InternalVerificationError
from chasebound.terms import Constant, Null, term_sort_key
from chasebound.trace import deserialize_trace

from conftest import EXAMPLE_SOURCES

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def kb_file(tmp_path):
    def write(name, extra=""):
        path = tmp_path / f"{name}.dlp"
        path.write_text(EXAMPLE_SOURCES[name] + extra, encoding="utf-8")
        return str(path)
    return write


def test_fixture_files_match_inline_sources():
    for name in EXAMPLE_SOURCES:
        assert (FIXTURES / f"{name}.dlp").exists()


def test_run_cap_reached_is_exit_1(kb_file):
    code, out, _ = run_cli(["run", "--kb", kb_file("ex1"), "--variant", "o",
                            "--max-depth", "5"])
    assert code == 1
    assert "halt: depth_cap" in out


def test_run_terminated_with_trace_and_dot(kb_file, tmp_path):
    trace = tmp_path / "out.trace.json"
    dot = tmp_path / "out.dot"
    code, out, _ = run_cli(["run", "--kb", kb_file("ex4"), "--variant", "r",
                            "--trace", str(trace), "--dot", str(dot)])
    assert code == 0
    assert "halt: terminated" in out and "depth: 1" in out
    assert json.loads(trace.read_text())["variant"] == "r"
    assert dot.read_text().startswith("digraph")


def test_run_determinism_byte_identical_traces(kb_file, tmp_path):
    traces = []
    for i in range(2):
        path = tmp_path / f"t{i}.json"
        code, _, _ = run_cli(["run", "--kb", kb_file("ex11"), "--variant", "r",
                              "--policy", "random", "--seed", "11",
                              "--max-depth", "3", "--max-steps", "50",
                              "--trace", str(path)])
        assert code == 1
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


def test_run_determinism_across_processes(kb_file, tmp_path):
    # Hash randomization must not leak into outputs: two fresh interpreters
    # with different hash seeds produce identical bytes.
    traces = []
    for i, hashseed in enumerate(("1", "31337")):
        path = tmp_path / f"p{i}.json"
        # The child imports chasebound the way this process does, installed
        # or not: pytest's own pythonpath setting does not reach it.
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "chasebound.cli", "run",
             "--kb", kb_file("ex11"), "--variant", "r",
             "--policy", "random", "--seed", "3",
             "--max-depth", "3", "--max-steps", "60", "--trace", str(path)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


def test_kbounded_bounded_exit_0():
    code, out, _ = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                            "--variant", "r", "--k", "1"])
    assert code == 0
    assert "bounded: true" in out


def test_kbounded_unbounded_writes_witness(tmp_path):
    witness = tmp_path / "w.json"
    code, out, _ = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                            "--variant", "so", "--k", "1",
                            "--witness", str(witness)])
    assert code == 1
    assert "bounded: false" in out
    doc = json.loads(witness.read_text())
    assert doc["kind"] == "witness" and doc["k"] == 1


def test_kbounded_deep_witness_prints_its_offending_atom(tmp_path):
    # The offending null is 501 levels deep; it is printed by its name in the
    # witness derivation.
    rules = tmp_path / "parent.dlp"
    rules.write_text("human(X) -> parentOf(Y,X), human(Y).\n", encoding="utf-8")
    witness = tmp_path / "w.json"
    code, out, err = run_cli(["kbounded", "--rules", str(rules), "--variant", "r",
                              "--k", "500", "--witness", str(witness)])
    assert (code, err) == (1, "")
    assert "bounded: false" in out
    assert "offending_atom: human(_:Y@501)\n" in out
    doc = json.loads(witness.read_text())
    assert doc["offending_atom"] == "human(_:Y@501)"
    assert doc["steps"][-1]["produced"] == ["human(_:Y@501)",
                                            "parentOf(_:Y@501,_:Y@500)"]
    code, out, _ = run_cli(["verify", "--trace", str(witness)])
    assert "valid_variant_derivation: true" in out


def test_two_parallel_chains_run_to_depth_1000(tmp_path):
    # Two null chains of equal depth differ only at their bottom constant, so
    # ordering their nulls walks 1000 levels of keys: that must be a loop.
    kb = tmp_path / "two.dlp"
    kb.write_text("human(alice). human(bob). human(X) -> parent(Y,X), human(Y).\n",
                  encoding="utf-8")
    trace = tmp_path / "t.json"
    code, out, err = run_cli(["run", "--kb", str(kb), "--variant", "r",
                              "--max-steps", "2000", "--max-depth", "2000",
                              "--trace", str(trace)])
    assert (code, err) == (1, "")
    assert "steps: 2000\n" in out and "depth: 1000\n" in out
    d, _ = deserialize_trace(trace.read_text(encoding="utf-8"))
    deepest = {t for a in d.factbase for t in a.args
               if type(t) is Null and t.depth == 1000}
    assert len(deepest) == 2

    def bottom(null):
        while type(null) is Null:
            ((_, null),) = null.inner
        return null

    first, second = sorted(deepest, key=term_sort_key)
    assert (bottom(first), bottom(second)) == (Constant("alice"), Constant("bob"))
    assert max(second._key, first._key) is second._key  # ``>`` loops too

    # The deep trace round-trips: it verifies, and so does its restriction to
    # alice's chain, whose 1000 steps the completion needs nothing added to.
    restricted = tmp_path / "alice.json"
    code, out, _ = run_cli(["restrict", "--trace", str(trace), "--keep", "human(alice)",
                            "--complete", "--out", str(restricted)])
    assert code == 0
    assert "retained_steps: 1000\n" in out and "completed_steps: 1000\n" in out
    for path in (trace, restricted):
        code, out, _ = run_cli(["verify", "--trace", str(path)])
        assert code == 1
        for line in ("valid_variant_derivation: true", "rank_compatible: true",
                     "rank_exhaustive: true", "terminating: false"):
            assert line + "\n" in out, (path.name, line)


def test_kbounded_witness_bytes_do_not_depend_on_jobs(tmp_path):
    paths = [tmp_path / "w1.json", tmp_path / "w2.json"]
    for jobs, path in zip(("1", "2"), paths):
        code, _, _ = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                              "--variant", "o", "--k", "2", "--jobs", jobs,
                              "--witness", str(path)])
        assert code == 1
    assert "@" in paths[0].read_text()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_ex2_k2_oblivious_trace_grows_linearly(tmp_path):
    # Two nulls in every trigger's substitution made each printed null about
    # 1.6 times as long as its predecessor.
    per_step = {}
    for steps in (15, 60):
        trace = tmp_path / f"t{steps}.json"
        code, _, _ = run_cli(["run", "--kb", str(FIXTURES / "ex2_k2.dlp"),
                              "--variant", "o", "--max-steps", str(steps),
                              "--trace", str(trace)])
        assert code == 1
        deserialize_trace(trace.read_text(encoding="utf-8"))
        per_step[steps] = trace.stat().st_size / steps
    assert per_step[60] <= 2 * per_step[15]


def test_kbounded_budget_exit_3():
    code, _, err = run_cli(["kbounded", "--rules", str(FIXTURES / "ex3_pair.dlp"),
                            "--variant", "r", "--k", "1",
                            "--budget-steps", "40"])
    assert code == 3
    assert err.splitlines()[-1] == \
        "budget exceeded: steps limit reached after 41 steps / 0 items"


@pytest.mark.parametrize("cap, last_line", [
    (["--budget-steps", "40"], "steps limit reached after 41 steps / 4 items"),
    (["--budget-steps", "500"], "steps limit reached after 501 steps / 25 items"),
    (["--budget-steps", "5000"], "steps limit reached after 5001 steps / 118 items"),
    (["--budget-factbases", "100"],
     "items limit reached after 3834 steps / 101 items"),
    (["--budget-factbases", "0"], "items limit reached after 6 steps / 1 items"),
], ids=["steps-40", "steps-500", "steps-5000", "factbases-100", "factbases-0"])
def test_kbounded_budget_stops_do_not_depend_on_jobs(cap, last_line):
    for jobs in ("1", "2"):
        code, _, err = run_cli(["kbounded", "--rules", str(FIXTURES / "ex3_exists.dlp"),
                                "--variant", "r", "--k", "1", "--jobs", jobs] + cap)
        assert code == 3, jobs
        assert err.splitlines()[-1] == "budget exceeded: " + last_line, jobs


@pytest.mark.parametrize("k", ["2", "40"])
def test_kbounded_proven_datalog_answers_at_once(k):
    # The datalog proof holds for ex3_pair from k=1; it is the verdict, under
    # every variant and job count, and no factbase is examined.
    import time

    for variant in ("o", "so", "r"):
        for jobs in ("1", "2"):
            start = time.monotonic()
            code, out, _ = run_cli(["kbounded", "--rules", str(FIXTURES / "ex3_pair.dlp"),
                                    "--variant", variant, "--k", k, "--jobs", jobs])
            assert time.monotonic() - start < 1.0, (variant, jobs)
            assert code == 0, (variant, jobs)
            assert out.endswith("bounded: true\nfactbases_examined: 0\n"
                                "derivations_examined: 0\n"), (variant, jobs)


@pytest.mark.parametrize("flag, value", [
    ("--budget-ms", "-1"), ("--budget-steps", "-1"), ("--budget-factbases", "-1"),
    # No elapsed time exceeds NaN, so it would remove the cap.
    ("--budget-ms", "nan"),
], ids=["--budget-ms", "--budget-steps", "--budget-factbases", "--budget-ms-nan"])
def test_kbounded_negative_budget_cap_is_usage_error(flag, value):
    code, out, err = run_cli(["kbounded", "--rules", str(FIXTURES / "ex3_pair.dlp"),
                              "--variant", "r", "--k", "1", flag, value])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: budget caps must be >= 0"


def test_kbounded_rejects_variant_e():
    code, _, _ = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                          "--variant", "e", "--k", "1"])
    assert code == 2


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.dlp"
    bad.write_text("p(a,b", encoding="utf-8")
    code, _, err = run_cli(["run", "--kb", str(bad), "--variant", "o"])
    assert code == 2
    assert "error" in err
    code, out, err = run_cli(["kbounded", "--rules", str(bad), "--variant", "r",
                              "--k", "1"])
    assert (code, out) == (2, "")
    assert err == f"{bad}:1:6: error: expected ')', found ''\n"


def test_restrict_and_verify_round(kb_file, tmp_path):
    trace = tmp_path / "full.json"
    run_cli(["run", "--kb", kb_file("ex6"), "--variant", "o",
             "--max-depth", "2", "--max-steps", "10", "--trace", str(trace)])
    out_path = tmp_path / "restricted.json"
    code, out, _ = run_cli(["restrict", "--trace", str(trace),
                            "--keep", "p(a,a)", "--out", str(out_path)])
    assert code == 0
    code, out, _ = run_cli(["verify", "--trace", str(out_path)])
    # A restriction of an oblivious run replays fine but needs no flags to
    # hold beyond validity; exit reflects the full report.
    assert "valid_variant_derivation: true" in out


def test_restrict_unknown_keep_atom_is_usage_error(kb_file, tmp_path):
    trace = tmp_path / "full.json"
    run_cli(["run", "--kb", kb_file("ex6"), "--variant", "o",
             "--max-depth", "2", "--max-steps", "10", "--trace", str(trace)])
    code, _, err = run_cli(["restrict", "--trace", str(trace),
                            "--keep", "p(zzz,zzz)", "--out",
                            str(tmp_path / "x.json")])
    assert code == 2
    assert err == "error: atoms not in the initial factbase: p(zzz,zzz)\n"


def test_restrict_malformed_keep_reports_column_in_argument(kb_file, tmp_path):
    trace = tmp_path / "full.json"
    run_cli(["run", "--kb", kb_file("ex6"), "--variant", "o",
             "--max-depth", "2", "--max-steps", "10", "--trace", str(trace)])
    code, _, err = run_cli(["restrict", "--trace", str(trace),
                            "--keep", "p(a,a), q(a", "--out",
                            str(tmp_path / "x.json")])
    assert code == 2
    assert err.startswith("error: 1:12: expected ')'")


def test_restrict_complete_inserts_missing_trigger(tmp_path):
    trace = tmp_path / "ex10.json"
    code, _, _ = run_cli(["run", "--kb", str(FIXTURES / "ex10.dlp"),
                          "--variant", "r", "--trace", str(trace)])
    assert code == 0
    # The restriction alone misses (R2,{X:a,Y:b}), which completion adds.
    restricted = tmp_path / "restricted.json"
    run_cli(["restrict", "--trace", str(trace), "--keep", "p(a,b)",
             "--out", str(restricted)])
    code, out, _ = run_cli(["verify", "--trace", str(restricted)])
    assert code == 1
    assert out.splitlines()[-1] == (
        "first_violation: after step 2 (last of rank 2): trigger "
        "(R2,{X:a,Y:b}) of rank 2 is still r-applicable")
    completed = tmp_path / "completed.json"
    code, out, _ = run_cli(["restrict", "--trace", str(trace),
                            "--keep", "p(a,b)", "--complete",
                            "--out", str(completed)])
    assert code == 0
    code, out, _ = run_cli(["verify", "--trace", str(completed)])
    assert code == 0
    assert "rank_exhaustive: true" in out


def test_verify_tampered_trace_exit_1(kb_file, tmp_path):
    trace = tmp_path / "t.json"
    run_cli(["run", "--kb", kb_file("ex4"), "--variant", "r",
             "--trace", str(trace)])
    doc = json.loads(trace.read_text())
    doc["steps"][0]["substitution"]["X"] = "b"
    trace.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(["verify", "--trace", str(trace)])
    assert code == 1
    assert "replay: failed" in out


def test_kbounded_jobs_flag(tmp_path):
    code, out, _ = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                            "--variant", "r", "--k", "1", "--jobs", "2"])
    assert code == 0
    assert "bounded: true" in out


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_kbounded_jobs_below_one_is_usage_error(jobs):
    code, out, err = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                              "--variant", "r", "--k", "1", "--jobs", jobs])
    assert code == 2
    assert "error: jobs must be >= 1" in err and not out


@pytest.mark.parametrize("name", ["ex3_single", "ex10", "ex8", "ex11"])
def test_kbounded_jobs_prints_the_sequential_report(name):
    for variant in ("o", "so", "r"):
        argv = ["kbounded", "--rules", str(FIXTURES / f"{name}.dlp"),
                "--variant", variant, "--k", "1"]
        assert run_cli(argv + ["--jobs", "2"])[:2] == run_cli(argv)[:2]


def test_unexpected_exception_exits_4_without_traceback(kb_file):
    # The engine raising anything but a ChaseError is a bug; the entry point
    # reports it by type.
    script = (
        "import sys\n"
        "import chasebound.cli as cli\n"
        "def fail(*args, **kwargs):\n"
        "    raise RecursionError('maximum recursion depth exceeded')\n"
        "cli.run_breadth_first = fail\n"
        f"sys.argv = ['chasebound', 'run', '--kb', {kb_file('ex1')!r}, '--variant', 'o']\n"
        "cli.main()\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True)
    assert proc.returncode == 4
    assert "internal error: RecursionError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_internal_verification_failure_exits_4(monkeypatch):
    import chasebound.cli as cli_module

    def fail(*args, **kwargs):
        raise InternalVerificationError("witness replay failed: step 1")

    monkeypatch.setattr(cli_module, "check_k_bounded", fail)
    code, out, err = run_cli(["kbounded", "--rules", str(FIXTURES / "ex4.dlp"),
                              "--variant", "r", "--k", "1"])
    assert (code, out) == (4, "")
    assert err.splitlines()[-1] == \
        "internal verification failure: witness replay failed: step 1"


def test_importing_the_cli_leaves_the_process_pool_out():
    # Every command imports chasebound.cli; only ``kbounded --jobs N`` needs
    # a process pool, so only it pays for the import.  The records are named
    # tuples and plain classes, so no command pays for ``dataclasses`` and the
    # ``inspect`` it loads.  Only what the import adds counts: the
    # interpreter's start-up may have loaded some of these already.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "before = set(sys.modules)\n"
         "import chasebound.cli\n"
         "print([m for m in ('concurrent.futures', 'dataclasses', 'inspect',\n"
         "                   'multiprocessing') if m in set(sys.modules) - before])"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_tracer_installs_and_traces_the_cli():
    # perfbench/layers.py rebinds the kernels wherever chasebound imported
    # them by name, and refuses to install when a binding it needs is gone.
    # The restricted check runs the rule's compiled head, so neither ``run``
    # nor ``kbounded`` on ex3_exists calls find_homomorphism; the datalog
    # proof on ex3_pair does.
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    script = (
        "import io, sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import layers\n"
        "import chasebound.cli as cli\n"
        "tracer = layers.Tracer()\n"
        "layers.install(tracer)\n"
        "out = io.StringIO()\n"
        "names = ('homomorphism.find_homomorphism', 'homomorphism.canonical_form',\n"
        "         'boundedness.search_factbase')\n"
        "def called():\n"
        "    return [tracer.stats[name].calls > 0 for name in names]\n"
        f"print(cli.cli(['run', '--kb', {str(FIXTURES / 'ex1.dlp')!r}, '--variant', 'r',\n"
        "               '--max-steps', '20'], out, out))\n"
        f"print(cli.cli(['kbounded', '--rules', {str(FIXTURES / 'ex3_exists.dlp')!r},\n"
        "               '--variant', 'r', '--k', '1'], out, out))\n"
        "print(called())\n"
        f"print(cli.cli(['kbounded', '--rules', {str(FIXTURES / 'ex3_pair.dlp')!r},\n"
        "               '--variant', 'r', '--k', '1'], out, out))\n"
        "print(called())\n")
    # -B: no bytecode cache is left in perfbench/.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n0\n[False, True, True]\n0\n[True, True, True]\n"


def test_usage_error_unknown_subcommand():
    assert run_cli(["frobnicate"])[0] == 2


def _mangled_trace(tmp_path, kb_file, mangle):
    """A ``run`` trace of ex4 whose document ``mangle`` rewrote."""
    trace = tmp_path / "t.json"
    run_cli(["run", "--kb", kb_file("ex4"), "--variant", "r",
             "--trace", str(trace)])
    doc = mangle(json.loads(trace.read_text()))
    trace.write_text(json.dumps(doc), encoding="utf-8")
    return str(trace)


def _verify_document(tmp_path, kb_file, mangle):
    return run_cli(["verify", "--trace", _mangled_trace(tmp_path, kb_file, mangle)])


def test_verify_version_1_trace_is_usage_error(kb_file, tmp_path):
    def version_1(doc):
        doc["format_version"] = 1
        return doc
    code, out, err = _verify_document(tmp_path, kb_file, version_1)
    assert (code, out) == (2, "")
    assert err == "error: trace format version 1, expected 2\n"


def test_verify_trace_without_variant_is_replay_failure(kb_file, tmp_path):
    def drop_variant(doc):
        del doc["variant"]
        return doc
    code, out, _ = _verify_document(tmp_path, kb_file, drop_variant)
    assert code == 1
    assert out.startswith("replay: failed (") and '"variant"' in out


def test_restrict_trace_without_variant_is_replay_failure(kb_file, tmp_path):
    def drop_variant(doc):
        del doc["variant"]
        return doc
    trace = _mangled_trace(tmp_path, kb_file, drop_variant)
    code, out, _ = run_cli(["restrict", "--trace", trace, "--keep", "p(a,b)",
                            "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert out.startswith("replay: failed (") and '"variant"' in out
    assert not (tmp_path / "r.json").exists()


def test_verify_step_substitution_list_is_replay_failure(kb_file, tmp_path):
    def listify(doc):
        step = doc["steps"][0]
        step["substitution"] = list(step["substitution"].items())
        return doc
    code, out, _ = _verify_document(tmp_path, kb_file, listify)
    assert code == 1
    assert out.startswith("replay: failed (step 1:")


def test_verify_top_level_list_is_replay_failure(kb_file, tmp_path):
    code, out, _ = _verify_document(tmp_path, kb_file, lambda doc: [doc])
    assert code == 1
    assert out.startswith("replay: failed (")


def test_verify_unparsable_substitution_term_is_replay_failure(kb_file, tmp_path):
    def garble(doc):
        doc["steps"][0]["substitution"]["X"] = "(("
        return doc
    code, out, _ = _verify_document(tmp_path, kb_file, garble)
    assert code == 1
    assert out.startswith("replay: failed (step 1: substitution does not parse")


def test_verify_trace_with_foreign_naming_mode_is_replay_failure(tmp_path):
    # The variant fixes how nulls are keyed; a trace claiming another naming
    # mode does not replay, even when (datalog) it names no null.
    def frontier(doc):
        assert doc["variant"] == "r" and doc["naming_mode"] == "trigger"
        doc["naming_mode"] = "frontier"
        return doc
    trace = tmp_path / "t.json"
    run_cli(["run", "--kb", str(FIXTURES / "ex7.dlp"), "--variant", "r",
             "--trace", str(trace)])
    trace.write_text(json.dumps(frontier(json.loads(trace.read_text()))),
                     encoding="utf-8")
    code, out, _ = run_cli(["verify", "--trace", str(trace)])
    assert code == 1
    assert out.startswith("replay: failed (naming mode 'frontier'")


@pytest.mark.parametrize("command", ["verify", "restrict"])
def test_trace_not_utf8_is_replay_failure(command, tmp_path):
    trace = tmp_path / "t.json"
    trace.write_bytes(b'{"format_version": 1, "variant": "\xff"}')
    argv = [command, "--trace", str(trace)]
    if command == "restrict":
        argv += ["--keep", "p(a)", "--out", str(tmp_path / "r.json")]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out.startswith("replay: failed (trace is not UTF-8:") and not err


def test_deeply_nested_trace_is_replay_failure(tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run_cli(["verify", "--trace", str(trace)])
    assert code == 1
    assert out.startswith("replay: failed (trace nests too deeply") and not err


def test_run_kb_not_utf8_is_read_error(tmp_path):
    kb = tmp_path / "kb.dlp"
    kb.write_bytes(b"p(\xff).\n")
    code, out, err = run_cli(["run", "--kb", str(kb), "--variant", "o"])
    assert code == 2
    assert err.startswith(f"error: cannot read {kb}: ") and not out


@pytest.mark.parametrize("variant, total, derivations", [
    ("r", 14556, 479), ("o", 13729, 232), ("so", 13552, 232)], ids=["r", "o", "so"])
def test_kbounded_canonical_budget_exits_3(variant, total, derivations):
    # --budget-steps counts every search node, canonical-form nodes included:
    # at r the run takes 14,556 steps, of which 11,310 are canonical_form's,
    # 1,360 the enumeration's and 1,886 the derivation search's.  Under o and
    # so the search grows one order per factbase, spending a step before
    # each rank's candidates and before each pick.
    argv = ["kbounded", "--rules", str(FIXTURES / "ex3_exists.dlp"),
            "--variant", variant, "--k", "1", "--budget-steps"]
    code, out, err = run_cli(argv + [str(total - 1)])
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == \
        f"budget exceeded: steps limit reached after {total} steps / 231 items"
    code, out, _ = run_cli(argv + [str(total)])
    assert code == 0 and out.endswith(
        "bounded: true\nfactbases_examined: 232\n"
        f"derivations_examined: {derivations}\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_exits_130_without_traceback(jobs):
    import signal
    import time

    proc = subprocess.Popen(
        [sys.executable, "-m", "chasebound.cli", "kbounded",
         "--rules", str(FIXTURES / "ex3_exists.dlp"), "--variant", "r", "--k", "2",
         "--jobs", jobs],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    time.sleep(1.5)
    os.killpg(proc.pid, signal.SIGINT)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 130, err
    assert err.splitlines()[-1] == "interrupted"
    assert "Traceback" not in err
    # The workers were joined before the command exited: its session is empty.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_time_budget_holds_at_large_k_in_bounded_memory(jobs):
    # At k=40 the decider's (n, m) cells are far too many to hold; they are
    # generated as the scan reaches them, so the time cap ends the run
    # within a 1 GiB address space.  On ex3_exists the time goes to the
    # factbase scan; on ex3_single it goes to the datalog proof's deep
    # levels.  At k=10^9 the size cap b^(k+1) is computed without building
    # the exact power, a billion-bit integer.
    import resource
    import signal
    import time

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for rules, k in (("ex3_exists", "40"), ("ex3_single", "40"),
                     ("ex3_exists", "1000000000")):
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "chasebound.cli", "kbounded",
             "--rules", str(FIXTURES / f"{rules}.dlp"), "--variant", "r", "--k", k,
             "--budget-ms", "500", "--jobs", jobs],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True, preexec_fn=limit_memory)
        try:
            _, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        elapsed = time.monotonic() - start
        assert proc.returncode == 3, (rules, k, err)
        assert err.splitlines()[-1].startswith("budget exceeded: time limit reached")
        assert elapsed < 3.0, (rules, k)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


@pytest.mark.parametrize("command", ["verify", "restrict"])
@pytest.mark.parametrize("levels", [300, 1500])
def test_deep_unknown_null_in_substitution_is_replay_failure(
        command, levels, kb_file, tmp_path):
    # Generated nulls have no text form, so the nested form of one (which
    # trace format 1 wrote) does not parse, however deep it is.
    def deepen(doc):
        name = "a"
        for _ in range(levels):
            name = f"_:R1#{{X:{name},Y:b}}#Z"
        doc["steps"][0]["substitution"]["X"] = name
        return doc
    argv = [command, "--trace", _mangled_trace(tmp_path, kb_file, deepen)]
    if command == "restrict":
        argv += ["--keep", "p(a,b)", "--out", str(tmp_path / "r.json")]
    code, out, err = run_cli(argv)
    assert code == 1 and not err
    assert out == ("replay: failed (step 1: substitution does not parse: "
                   "1:5: unexpected character '#')\n")


def test_generated_null_text_in_a_fact_is_a_parse_error(tmp_path):
    kb = tmp_path / "kb.dlp"
    kb.write_text("p(a).\np(_:R1#{X:a}#Z).\n", encoding="utf-8")
    code, out, err = run_cli(["run", "--kb", str(kb), "--variant", "o"])
    assert (code, out) == (2, "")
    assert err == f"{kb}:2:7: error: unexpected character '#'\n"


def test_restrict_keep_with_generated_null_text_is_usage_error(kb_file, tmp_path):
    trace = tmp_path / "full.json"
    run_cli(["run", "--kb", kb_file("ex4"), "--variant", "r", "--trace", str(trace)])
    code, out, err = run_cli(["restrict", "--trace", str(trace),
                              "--keep", "q(a,_:R1#{X:a}#Y)", "--out",
                              str(tmp_path / "r.json")])
    assert (code, out) == (2, "")
    assert err == "error: 1:9: unexpected character '#'\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["verify", "restrict"])
def test_trace_initial_with_generated_null_text_is_replay_failure(
        command, kb_file, tmp_path):
    def generated_initial(doc):
        doc["initial"].append("p(b,_:R1#(b)#Z)")
        return doc
    argv = [command, "--trace", _mangled_trace(tmp_path, kb_file, generated_initial)]
    if command == "restrict":
        argv += ["--keep", "p(a,b)", "--out", str(tmp_path / "r.json")]
    code, out, err = run_cli(argv)
    assert code == 1 and not err
    assert out == ("replay: failed (trace ruleset/initial do not parse: "
                   "2:9: error: unexpected character '#')\n")
