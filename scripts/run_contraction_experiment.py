#!/usr/bin/env python3
"""Run the demo contraction experiment end to end.

Builds the wave, runs the perturbed simulation, checks the identity suite,
and scans the Poincare threshold, writing everything under one output
directory.  Any CLI flag can be appended, e.g.

    python scripts/run_contraction_experiment.py --override solver.t_end=10
"""

import sys
from pathlib import Path

from contraction_lab.cli import build_parser, main

CONFIG = Path(__file__).parent / "configs" / "contraction_demo.json"


def run(argv):
    base = ["--config", str(CONFIG), "--out", "out/contraction_demo", *argv]
    for command in ("wave", "identities", "poincare", "simulate"):
        code = main(base + [command])
        if code != 0:
            print(f"{command} exited with {code}", file=sys.stderr)
            return code
    # an --out among argv overrides the default; the CLI writes to the last one
    out = build_parser().parse_args(base + ["simulate"]).out
    print(f"all outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
