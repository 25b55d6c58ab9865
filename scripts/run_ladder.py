#!/usr/bin/env python3
"""Run the single-factor-change ablation ladder for far-field adaptation.

The close-talk, ts-same-data and ts-more-data stages are the adaptation study:
the unadapted close-talk teacher against students adapted by teacher-student
learning on train_count and train_count + extra_count unlabeled parallel pairs.

Usage:
    python3 scripts/run_ladder.py --out runs/ladder --seeds 0 1 2 3 4
    python3 scripts/run_ladder.py --seeds 0 1 2 3 4 --train-count 40 --extra-count 40
"""

import argparse
import json
from pathlib import Path

import numpy as np

from farspot.pipeline import LadderConfig, ablation_ladder


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--train-count", type=int, default=60)
    ap.add_argument("--extra-count", type=int, default=60)
    ap.add_argument("--test-count", type=int, default=40)
    ap.add_argument("--out", default=None,
                    help="directory for per-seed checkpoints and reports and a summary")
    args = ap.parse_args()

    reports = []
    for seed in args.seeds:
        report = ablation_ladder(LadderConfig(
            seed=seed, train_count=args.train_count, extra_count=args.extra_count,
            test_count=args.test_count,
            out_dir=None if args.out is None else str(Path(args.out) / f"seed{seed}"),
        ))
        reports.append(report)
        print(f"seed {seed}:\n{report.format_text()}\n")

    stages = [r.stage for r in reports[0].rows]
    summary = {
        stage: float(np.median([r.far_fer for rep in reports for r in rep.rows
                                if r.stage == stage]))
        for stage in stages
    }
    summary["majority-class"] = float(np.median([rep.majority_fer for rep in reports]))
    print(f"median far-FER over seeds {args.seeds}:")
    for stage, fer in summary.items():
        print(f"  {stage.ljust(14)}  {fer:.4f}")
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "summary.json").write_text(
            json.dumps({"seeds": args.seeds, "median_far_fer": summary}, indent=2) + "\n"
        )


if __name__ == "__main__":
    main()
