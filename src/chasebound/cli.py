"""Command-line interface.

Exit codes: 0 success / bounded / terminated; 1 expected negative result
(not bounded, cap reached, verification report with violations); 2 usage or
parse error; 3 budget exceeded; 4 internal verification failure or any
other unexpected exception; 130 interrupted (Ctrl-C, SIGINT).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .boundedness import BoundedQuery, check_k_bounded
from .engine import (
    ChaseVariant,
    HaltReason,
    breadth_first_completion,
    restrict,
    run_breadth_first,
    verify_derivation,
)
from .dot import export_dot
from .errors import (
    BudgetExceededError,
    ChaseError,
    InternalVerificationError,
    ReplayFailureError,
)
from .parser import parse_atoms, parse_kb
from .trace import deserialize_trace, serialize_trace, serialize_witness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130


def _load_kb(path: str, err):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=err)
        return None
    result = parse_kb(text)
    for d in result.diagnostics:
        print(f"{path}:{d}", file=err)
    if not result.ok:
        return None
    return result.kb


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _cmd_run(args, out, err) -> int:
    kb = _load_kb(args.kb, err)
    if kb is None:
        return EXIT_USAGE
    variant = ChaseVariant(args.variant)
    result = run_breadth_first(variant, kb, policy=args.policy, seed=args.seed,
                               depth_cap=args.max_depth, step_cap=args.max_steps)
    d = result.derivation
    print(f"variant: {variant.value}", file=out)
    print(f"halt: {result.halt_reason.value}", file=out)
    print(f"steps: {len(d.steps)}", file=out)
    print(f"depth: {d.depth()}", file=out)
    print(f"factbase_size: {len(d.factbase)}", file=out)
    if args.trace:
        _write(args.trace, serialize_trace(d, result.halt_reason))
    if args.dot:
        _write(args.dot, export_dot(d))
    return EXIT_OK if result.halt_reason is HaltReason.TERMINATED else EXIT_NEGATIVE


def _cmd_kbounded(args, out, err) -> int:
    kb = _load_kb(args.rules, err)
    if kb is None:
        return EXIT_USAGE
    if kb.factbase:
        print("note: factbase atoms in the rules file are ignored", file=err)
    variant = ChaseVariant(args.variant)
    query = BoundedQuery(kb.ruleset, variant, args.k,
                         witness_bound_mode=args.bound_mode,
                         max_ms=args.budget_ms,
                         max_search_steps=args.budget_steps,
                         max_factbases=args.budget_factbases)
    verdict = check_k_bounded(query, jobs=args.jobs)
    print(f"variant: {variant.value}", file=out)
    print(f"k: {args.k}", file=out)
    print(f"bounded: {str(verdict.bounded).lower()}", file=out)
    print(f"factbases_examined: {verdict.factbases_examined}", file=out)
    print(f"derivations_examined: {verdict.derivations_examined}", file=out)
    if verdict.witness is not None:
        w = verdict.witness
        print(f"witness_factbase_size: {len(w.factbase)}", file=out)
        print(f"witness_minimized_size: {len(w.minimized_factbase)}", file=out)
        print(f"offending_atom: {w.derivation.show(w.offending_atom)}", file=out)
        if args.witness:
            _write(args.witness,
                   serialize_witness(args.k, args.bound_mode, w))
    return EXIT_OK if verdict.bounded else EXIT_NEGATIVE


def _load_trace(path: str, out):
    """The derivation a trace file records, or None after reporting why it
    does not replay."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return deserialize_trace(text)[0]
    except UnicodeDecodeError as exc:
        reason = f"trace is not UTF-8: {exc}"
    except ReplayFailureError as exc:
        reason = str(exc)
    print(f"replay: failed ({reason})", file=out)
    return None


def _cmd_restrict(args, out, err) -> int:
    derivation = _load_trace(args.trace, out)
    if derivation is None:
        return EXIT_NEGATIVE
    keep = frozenset(parse_atoms(args.keep))
    unknown = keep - derivation.initial
    if unknown:
        names = ", ".join(str(a) for a in sorted(unknown, key=str))
        print(f"error: atoms not in the initial factbase: {names}", file=err)
        return EXIT_USAGE
    restricted = restrict(derivation, keep)
    result = restricted
    if args.complete:
        result = breadth_first_completion(derivation.variant, restricted)
    _write(args.out, serialize_trace(result))
    print(f"retained_steps: {len(restricted.steps)}", file=out)
    if args.complete:
        print(f"completed_steps: {len(result.steps)}", file=out)
    return EXIT_OK


def _cmd_verify(args, out, err) -> int:
    derivation = _load_trace(args.trace, out)
    if derivation is None:
        return EXIT_NEGATIVE
    report = verify_derivation(derivation.variant, derivation)
    print(f"variant: {derivation.variant.value}", file=out)
    print(f"valid_variant_derivation: {str(report.is_valid_variant_derivation).lower()}",
          file=out)
    print(f"rank_compatible: {str(report.is_rank_compatible).lower()}", file=out)
    print(f"rank_exhaustive: {str(report.is_rank_exhaustive).lower()}", file=out)
    print(f"terminating: {str(report.is_terminating).lower()}", file=out)
    if report.first_violation:
        print(f"first_violation: {report.first_violation}", file=out)
    return EXIT_OK if report.all_ok() else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chasebound",
        description="Chase runner and k-boundedness decider for existential rules")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one breadth-first chase")
    run.add_argument("--kb", required=True)
    run.add_argument("--variant", choices=["o", "so", "r", "e"], required=True)
    run.add_argument("--policy", choices=["det", "random"], default="det")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--max-depth", type=int, default=1000)
    run.add_argument("--max-steps", type=int, default=10000)
    run.add_argument("--trace")
    run.add_argument("--dot")
    run.set_defaults(func=_cmd_run)

    kb = sub.add_parser("kbounded", help="decide k-boundedness of a ruleset")
    kb.add_argument("--rules", required=True)
    kb.add_argument("--variant", choices=["o", "so", "r"], required=True)
    kb.add_argument("--k", type=int, required=True)
    kb.add_argument("--bound-mode", choices=["paper", "safe"], default="safe")
    kb.add_argument("--witness")
    kb.add_argument("--jobs", type=int, default=1)
    kb.add_argument("--budget-ms", type=float, default=None)
    kb.add_argument("--budget-steps", type=int, default=None)
    kb.add_argument("--budget-factbases", type=int, default=None)
    kb.set_defaults(func=_cmd_kbounded)

    restr = sub.add_parser("restrict", help="restrict a trace to initial atoms")
    restr.add_argument("--trace", required=True)
    restr.add_argument("--keep", required=True,
                       help='comma-separated atoms, e.g. "p(a,b), q(c)"')
    restr.add_argument("--complete", action="store_true",
                       help="breadth-first completion of the restriction")
    restr.add_argument("--out", required=True)
    restr.set_defaults(func=_cmd_restrict)

    ver = sub.add_parser("verify", help="replay a trace and report its properties")
    ver.add_argument("--trace", required=True)
    ver.set_defaults(func=_cmd_verify)
    return parser


def cli(argv: Optional[list[str]] = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args, out, err)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=err)
        return EXIT_BUDGET
    except InternalVerificationError as exc:
        print(f"internal verification failure: {exc}", file=err)
        return EXIT_INTERNAL
    except (ChaseError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except Exception as exc:
        # Any other exception is a bug; report it by type, without a traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=err)
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
