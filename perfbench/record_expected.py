"""Record the Poincare scan results that the verify workload checks against.

    python3 perfbench/record_expected.py      (from the root of a checkout)

Run it on the commit that defines or re-baselines the benchmark, never on a
change under test: the file holds the parent's answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import inputs

sys.path.insert(0, str(Path.cwd() / "src"))
from contraction_lab.config import ExperimentConfig  # noqa: E402
from contraction_lab.poincare import scan_delta_star  # noqa: E402


def main() -> int:
    scans = {}
    for seed in inputs.POINCARE_SEEDS:
        data = inputs.verify_config(0)
        data["poincare"]["seed"] = seed
        cfg = ExperimentConfig.from_dict(data)
        p = cfg.data["poincare"]
        result = scan_delta_star(M=p["M"], n_samples=p["n_samples"], delta_grid=cfg.poincare_delta_grid(),
                                 seed=seed, n_cells=p["y_cells"])
        scans[str(seed)] = {
            "delta_star_empirical": result.delta_star_empirical,
            "pass_counts": result.pass_counts,
        }
    settings = {k: v for k, v in p.items() if k != "seed"}
    lines = [f'  "{seed}": {json.dumps(scan)}' for seed, scan in scans.items()]
    inputs.EXPECTED_POINCARE.write_text(
        f'{{"poincare": {json.dumps(settings)},\n "scans": {{\n' + ",\n".join(lines) + "\n}}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
