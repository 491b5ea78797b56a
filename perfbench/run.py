"""The chasebound benchmark: time the CLI on one seeded workload.

    python3 perfbench/run.py --workload {loop-r,decide-r} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every operation is a fresh interpreter started
by this process, one at a time, exactly as a CLI user starts it.  Ops are
never repeated inside one interpreter: ``engine._enumerate_triggers_cached``,
``homomorphism._candidates_by_predicate`` (both ``lru_cache``s keyed by whole
factbases) and ``Null._interned`` survive between calls, so a second
in-process run of the same input measures a warm program no CLI user sees.

With ``--trace 0`` the last stdout line reports the end-to-end metrics: the
median wall time of each of the workload's two commands, the set-up time of
an op process and the peak memory of the op process tree.  With
``--trace 1`` each traceable command runs twice per iteration, untraced and
traced, and the line reports the per-layer counters of the traced runs and
the tracing overhead.  Outputs are checked against answers the program does
not supply; a failed op contributes no timing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import PROBE_OPS, WORKLOADS, Op, parse_report, write_inputs

ROOT = Path(__file__).resolve().parent.parent
OP_SCRIPT = Path(__file__).resolve().parent / "op.py"
SETUP_SAMPLES = 3  # before the window; one more before every op in it
# Every op is killed once the whole invocation has run this long.
HARD_LIMIT_S = 170.0
MB = 1e6


def _metric(fn: str, stat: str, name: str = "", per: tuple[str, str] | None = None,
            unit: str = ""):
    """A per-layer metric: ``stat`` of function ``fn`` summed over the traced
    ops, optionally divided by another function's stat (0 when that is 0)."""
    unit = unit or ("ratio" if per else "s" if stat == "self_s" else "count")
    return f"{fn}.{name or stat}", (unit, fn, stat, per)


# A stat record is {"calls", "self_s", "out"}; ``out`` counts a function's
# useful outcomes: true results, homomorphisms found, triggers or results
# returned, items yielded, trace bytes written.
IS_APPLICABLE = "engine.is_applicable"
FIND_HOM = "homomorphism.find_homomorphism"
CANONICAL = "homomorphism.canonical_form"
REPRESENTATIVES = "boundedness.enumerate_representative_factbases"
LAYER_METRICS = dict([
    _metric(IS_APPLICABLE, "calls"),
    _metric(IS_APPLICABLE, "self_s"),
    _metric(IS_APPLICABLE, "out", "applicable_ratio", per=(IS_APPLICABLE, "calls")),
    _metric("engine.enumerate_triggers", "calls"),
    _metric("engine.enumerate_triggers", "self_s"),
    _metric("engine.enumerate_triggers", "out", "triggers_out"),
    _metric("homomorphism.all_homomorphisms", "calls"),
    _metric("homomorphism.all_homomorphisms", "self_s"),
    _metric("homomorphism.all_homomorphisms", "out", "results_out"),
    _metric(FIND_HOM, "calls"),
    _metric(FIND_HOM, "self_s"),
    _metric(FIND_HOM, "out", "found_ratio", per=(FIND_HOM, "calls")),
    _metric("engine.Derivation.extend", "calls"),
    _metric("engine.Derivation.extend", "self_s"),
    _metric(CANONICAL, "calls"),
    _metric(CANONICAL, "self_s"),
    _metric(REPRESENTATIVES, "self_s"),
    _metric(REPRESENTATIVES, "out", "classes_out"),
    _metric(REPRESENTATIVES, "out", "class_ratio", per=(CANONICAL, "calls")),
    _metric("boundedness.search_factbase", "calls"),
    _metric("boundedness.search_factbase", "self_s"),
    _metric("engine.enumerate_breadth_first_derivations", "out", "yielded"),
    _metric("budget.Budget.spend_step", "calls"),
    _metric("trace.serialize_trace", "self_s"),
    _metric("trace.serialize_trace", "out", "bytes_out", unit="bytes"),
    _metric("trace.deserialize_trace", "self_s"),
    _metric("parser.parse_term", "calls"),
    _metric("parser.parse_term", "self_s"),
    _metric("engine.verify_derivation", "self_s"),
    _metric("parser.parse_kb", "self_s"),
])
LAYER_MODULES = ("engine", "homomorphism", "boundedness", "trace", "parser")


@dataclass
class OpRun:
    op: Op
    wall_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str
    stderr: str
    problems: list[str]
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # No budget cap from the caller's environment, and bytecode caches on,
        # as for an installed CLI, so set-up does not time compilation.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("CHASEBOUND_BUDGET_MS", "PYTHONDONTWRITEBYTECODE")}

    def spawn(self, args: list[str], tag: str) -> tuple[float, int, int, str, str]:
        """Run op.py with ``args``; (wall s, max RSS KiB, exit code, out, err).

        The RSS is the largest of the process and its reaped descendants."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(OP_SCRIPT), *args],
                                    stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss, proc.returncode,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def run_op(self, op: Op, traced: bool = False) -> OpRun:
        layers_path = self.work / f"{op.name}.layers.json"
        layers_path.unlink(missing_ok=True)
        args = ["--layers", str(layers_path)] if traced else []
        wall, rss, code, out, err = self.spawn([*args, "--", *op.argv(self.work)], op.name)
        problems = op.check(parse_report(out), code)
        if "Traceback" in err:
            problems.append("traceback: " + err.strip().splitlines()[-1])
        layers = json.loads(layers_path.read_text()) if traced and layers_path.exists() else None
        if traced and layers is None:
            problems.append("no layer counters written")
        return OpRun(op, wall, rss, code, out, err, problems, layers)

    def setup_time(self, workload: str, seed: int) -> float:
        wall, _, code, _, err = self.spawn(
            ["--setup", workload, str(seed), str(self.work / "setup")], "setup")
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()}")
        return wall


def sum_layers(runs: list[OpRun]) -> dict:
    total: dict[str, dict] = {}
    for run in runs:
        for name, stat in run.layers.items():
            acc = total.setdefault(name, {"calls": 0, "self_s": 0.0, "out": 0})
            for key in acc:
                acc[key] += stat[key]
    return total


def layer_values(stats: dict, overhead_s: float) -> dict[str, float]:
    empty = {"calls": 0, "self_s": 0.0, "out": 0}
    values = {}
    for metric, (_, fn, stat, per) in LAYER_METRICS.items():
        value = stats.get(fn, empty)[stat]
        if per:
            base = stats.get(per[0], empty)[per[1]]
            value = value / base if base else 0.0
        values[metric] = value
    values["cli.self_s"] = stats.get("cli", empty)["self_s"]
    for module in LAYER_MODULES:
        values[f"{module}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith(module + "."))
    values["tracing.overhead_s"] = overhead_s
    return values


def layer_unit(metric: str) -> str:
    if metric in LAYER_METRICS:
        return LAYER_METRICS[metric][0]
    return "ratio" if metric.endswith("_ratio") else "s"


def run_probe(bench: Bench) -> tuple[bool, bool, str]:
    """(op failed, output wrong, description) for the 400-step replay probe."""
    run, verify = PROBE_OPS
    produced = bench.run_op(run)
    if not produced.ok:
        return True, True, f"probe run failed: {produced.problems}"
    replay = bench.run_op(verify)
    if replay.ok:
        return False, False, "probe verify passed"
    if "RecursionError" in replay.stderr:
        return True, False, "probe verify failed with the known RecursionError"
    return True, True, f"probe verify failed: {replay.problems}"


def counts_of(runs: list[OpRun], work: Path) -> dict:
    """Seed-independent counts of one iteration, for the seed invariance check."""
    counts = {}
    for run in runs:
        report = parse_report(run.stdout)
        for key in ("halt", "steps", "depth", "factbase_size", "bounded",
                    "factbases_examined", "derivations_examined", "terminating"):
            if key in report:
                counts[f"{run.op.name}.{key}"] = report[key]
    for trace in sorted(work.glob("*.trace.json")):
        if not trace.name.startswith("probe"):
            counts[f"{trace.name}.bytes"] = trace.stat().st_size
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chasebound" / "cli.py").is_file():
        print(f"error: no chasebound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    work = ROOT / "perfbench" / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    bench = Bench(work, started + HARD_LIMIT_S)
    try:
        write_inputs(workload, args.seed, work)
        bench.setup_time(workload.name, args.seed)  # warm-up: bytecode caches
        setup = [bench.setup_time(workload.name, args.seed) for _ in range(SETUP_SAMPLES)]
        probe_failed, probe_wrong, probe_note = run_probe(bench)
        print(f"probe: {probe_note}")

        ops = [op for op in workload.ops if op.traceable or not args.trace]
        iterations: list[list[OpRun]] = []
        counts: dict | None = None
        window = time.perf_counter()
        # The host's speed drifts over seconds; set-ups sampled between the
        # ops see the same mix of fast and slow periods as the ops do.
        while time.perf_counter() - window < args.seconds:
            runs = []
            for op in ops:
                setup.append(bench.setup_time(workload.name, args.seed))
                runs.append(bench.run_op(op))
                if args.trace:
                    runs.append(bench.run_op(op, traced=True))
            iterations.append(runs)
            if workload.same_fields:
                reports = [parse_report(r.stdout) for r in runs]
                for key in workload.same_fields:
                    if len({rep.get(key) for rep in reports}) != 1:
                        runs[-1].problems.append(f"{key} differs between commands")
            for run in runs:
                print(f"op {run.op.name}{' traced' if run.layers else ''}: "
                      f"{run.wall_s:.4f} s, {run.maxrss_kb * 1024 / MB:.1f} MB, "
                      f"exit {run.exit_code}, {'ok' if run.ok else run.problems}")
            if counts is None and all(r.ok for r in runs):
                counts = counts_of(runs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass

    all_runs = [r for runs in iterations for r in runs]
    attempted = len(all_runs)
    failed = sum(not r.ok for r in all_runs)
    print(f"counts: {json.dumps(counts, sort_keys=True)}")
    print(f"iterations: {len(iterations)}, ops attempted: {attempted}, failed: {failed}, "
          f"probe failed: {int(probe_failed)}")

    metrics: dict[str, dict] = {}

    def put(name: str, samples: list[float], unit: str) -> None:
        if samples:
            metrics[name] = {"value": statistics.median(samples), "unit": unit}

    if args.trace:
        values: dict[str, list[float]] = {}
        for runs in iterations:
            if not all(r.ok for r in runs):
                continue
            plain = [r for r in runs if r.layers is None]
            traced = [r for r in runs if r.layers is not None]
            overhead = sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
            for name, value in layer_values(sum_layers(traced), overhead).items():
                values.setdefault(name, []).append(value)
        for name, samples in values.items():
            put(name, samples, layer_unit(name))
        # Each distinct op counts once, as failed if it failed in any
        # iteration, and the probe counts as one more op, so the ratio does not
        # depend on how many iterations fit in the window.
        failed_ops = {r.op.name for r in all_runs if not r.ok}
        metrics["ops_failed_ratio"] = {
            "value": (len(failed_ops) + probe_failed) / (len(ops) + 1), "unit": "ratio"}
    else:
        put("setup_s", setup, "s")
        for index, name in enumerate(("first_cmd_s", "second_cmd_s")):
            put(name, [runs[index].wall_s for runs in iterations if runs[index].ok], "s")
        put("peak_rss_mb", [max(r.maxrss_kb for r in runs) * 1024 / MB
                            for runs in iterations if all(r.ok for r in runs)], "MB")

    correct = failed == 0 and not probe_wrong
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
