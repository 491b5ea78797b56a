"""One benchmark operation in a fresh interpreter.

    python op.py [--layers STATS.json] -- <chasebound CLI arguments>
    python op.py --setup WORKLOAD SEED WORKDIR

The first form behaves like the ``chasebound`` console script; with
``--layers`` it traces the program's layers and writes their counters to
STATS.json.  The second form does the set-up an operation needs (start the
interpreter, import the CLI, generate the seeded input) and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--layers")
    parser.add_argument("--setup", nargs=3, metavar=("WORKLOAD", "SEED", "WORKDIR"))
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    import chasebound.cli

    if args.setup:
        from workloads import WORKLOADS, write_inputs
        workload, seed, workdir = args.setup
        write_inputs(WORKLOADS[workload], int(seed), Path(workdir))
        return 0
    if not args.layers:
        return chasebound.cli.cli(args.cli_args)

    import layers
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        return tracer.wrap("cli", chasebound.cli.cli)(args.cli_args)
    finally:
        Path(args.layers).write_text(json.dumps(tracer.report()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
