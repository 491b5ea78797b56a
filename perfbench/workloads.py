"""Seeded benchmark inputs, the CLI commands run on them, and output checks.

The seed only renames constants and predicates (neither input has more than
one fact, so there is no fact order to shuffle).  The new names have a fixed length, so trace sizes do not depend on the seed, and
keep the sort order of the names they replace, so the engine's canonical
trigger order, and with it every operation count, is the same for every seed.
Expected answers come from closed forms or from comparing two commands, never
from the program under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

NAME_LEN = 8
LOOP_STEPS = 300
# A 400-step parent-loop trace cannot be verified (the replay parser recurses
# once per nesting level of a null's printed name); the probe keeps that
# known defect visible in every benchmark invocation.
PROBE_STEPS = 400


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct lowercase identifiers of length NAME_LEN, in sorted order."""
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice(string.ascii_lowercase) + "".join(
            rng.choices(string.ascii_lowercase + string.digits, k=NAME_LEN - 1)))
    return sorted(names)


def loop_kb(rng: random.Random) -> str:
    alice, human, parent = fresh_names(rng, 3)
    return f"{human}({alice}).\n{human}(X) -> {parent}(Y,X), {human}(Y).\n"


def pair_rules(rng: random.Random) -> str:
    (pred,) = fresh_names(rng, 1)
    return (f"[tc] {pred}(X,Y), {pred}(Y,Z) -> {pred}(X,Z).\n"
            f"[join] {pred}(X,Y), {pred}(U,Z) -> {pred}(X,Z).\n")


def parse_report(stdout: str) -> dict[str, str]:
    """The CLI's ``key: value`` report lines."""
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key.strip()] = value.strip()
    return report


def expect(report: dict[str, str], **wanted) -> list[str]:
    return [f"{key}: {report.get(key)!r} != {str(value)!r}"
            for key, value in wanted.items() if report.get(key) != str(value)]


def check_loop_run(report: dict[str, str], exit_code: int,
                   steps: int = LOOP_STEPS) -> list[str]:
    """The parent loop gains one parent and one human per step until the cap."""
    problems = expect(report, variant="r", halt="step_cap", steps=steps,
                      depth=steps, factbase_size=2 * steps + 1)
    if exit_code != 1:
        problems.append(f"exit {exit_code} != 1")
    return problems


def check_verify(report: dict[str, str], exit_code: int) -> list[str]:
    """A replayed loop prefix is a valid, rank-exhaustive, non-terminating run."""
    problems = expect(report, variant="r", valid_variant_derivation="true",
                      rank_compatible="true", rank_exhaustive="true",
                      terminating="false")
    if exit_code != 1:
        problems.append(f"exit {exit_code} != 1")
    return problems


def check_decide(report, exit_code):
    problems = expect(report, variant="r", k=1, bounded="true")
    if exit_code != 0:
        problems.append(f"exit {exit_code} != 0")
    return problems


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload, run in its own interpreter."""

    name: str
    argv: Callable[[Path], list[str]]  # work directory -> CLI arguments
    check: Callable[[dict, int], list[str]]
    traceable: bool = True  # False for commands that fan out to worker processes


@dataclass(frozen=True)
class Workload:
    name: str
    input_name: str
    make_input: Callable[[random.Random], str]
    ops: tuple[Op, Op]
    # Fields of the two reports that must agree (the decider's two job counts).
    same_fields: tuple[str, ...] = ()


def _run(kb: str, trace: str, *extra: str) -> Callable[[Path], list[str]]:
    return lambda w: ["run", "--kb", str(w / kb), "--variant", "r", *extra,
                      "--trace", str(w / trace)]


def _verify(trace: str) -> Callable[[Path], list[str]]:
    return lambda w: ["verify", "--trace", str(w / trace)]


def _kbounded(jobs: int) -> Callable[[Path], list[str]]:
    return lambda w: ["kbounded", "--rules", str(w / "pair.dlp"), "--variant", "r",
                      "--k", "1", "--jobs", str(jobs)]


WORKLOADS = {
    "loop-r": Workload("loop-r", "loop.dlp", loop_kb, (
        Op("run", _run("loop.dlp", "loop.trace.json", "--max-steps", str(LOOP_STEPS)),
           check_loop_run),
        Op("verify", _verify("loop.trace.json"), check_verify))),
    "decide-r": Workload("decide-r", "pair.dlp", pair_rules, (
        Op("kbounded-jobs1", _kbounded(1), check_decide),
        Op("kbounded-jobs2", _kbounded(2), check_decide, traceable=False)),
        same_fields=("bounded", "factbases_examined")),
}

# The probe: run the loop past the replay parser's recursion limit, verify it.
PROBE_OPS = (
    Op("probe-run", _run("loop.dlp", "probe.trace.json", "--max-steps", str(PROBE_STEPS)),
       partial(check_loop_run, steps=PROBE_STEPS)),
    Op("probe-verify", _verify("probe.trace.json"), check_verify),
)


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    """The workload's input, plus the loop input the probe needs."""
    work.mkdir(parents=True, exist_ok=True)
    (work / workload.input_name).write_text(
        workload.make_input(random.Random(seed)), encoding="utf-8")
    if workload.input_name != "loop.dlp":
        (work / "loop.dlp").write_text(loop_kb(random.Random(seed)), encoding="utf-8")
