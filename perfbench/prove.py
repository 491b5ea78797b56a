"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py [--seeds 10] [--trace 0|1] [--out results.json]

Run from the repository root.  Reads the command, run length, workloads and
bounds from BENCHMARK.json, runs every workload once per seed (seeds 1, 2, ...,
one run at a time), and prints for every metric the median and the spread: the
distance between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them.  A spread at or above a third
of the metric's bound is marked; ``setup_s`` is exempt, as in the acceptance
rule.  The counts each run prints (steps, depth, factbase size, verdict,
trace bytes, and with ``--trace 1`` the per-layer call and output counts)
must be identical for every seed; the exit code is 1 otherwise,
or when a run is incorrect or fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, list]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    counts = next((json.loads(line[len("counts: "):]) for line in lines
                   if line.startswith("counts: ")), None)
    ops = [line for line in lines if line.startswith("op ")]
    result = json.loads(lines[-1])
    if counts is not None:
        # float: a median over an even number of iterations is a float.
        counts.update((name, float(m["value"])) for name, m in result["metrics"].items()
                      if m["unit"] in ("count", "bytes"))
    return result, counts, ops


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)
    record: dict[str, dict] = {}
    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            result, counts, ops = run_once(spec, workload, seed, args.trace)
            results.append({"seed": seed, "result": result, "counts": counts,
                            "ops": ops})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        if any(not r["result"]["correct"] or r["result"]["failed"] for r in results):
            print(f"{workload}: INCORRECT OR FAILED RUNS")
            ok = False
        if len({json.dumps(r["counts"], sort_keys=True) for r in results}) != 1:
            print(f"{workload}: COUNTS DIFFER BETWEEN SEEDS")
            ok = False
        summary = {}
        for name, first in results[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in results]
            summary[name] = {"unit": first["unit"], "median": statistics.median(values)}
            line = f"  {workload:9s} {name:58s} median {summary[name]['median']:.6g} {first['unit']}"
            if len(values) >= 2:
                summary[name]["spread"] = s = spread(values)
                line += f"  spread {s:.4f}"
                bound = bounds.get(name)
                if bound is not None and name != "setup_s" and s >= bound / 3:
                    line += f"  >= bound/3 ({bound / 3:.4f})"
            print(line)
        record[workload] = {"summary": summary, "runs": results}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
