#!/usr/bin/env python3
"""Paired benchmark runs of a change against its parent commit.

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_6.json

The parent's committed files are exported with `git archive` into a
temporary directory; the change is this checkout's working tree, or the
committed files of --change REV.  For every workload of BENCHMARK.json the
script runs `perfbench/run.py` (with the benchmark's run length) on both
sides for ten pairs, pair i with seed 10 + i, alternating which side runs
first: the fixed design of the paired-run rule of perfbench/NOTES.md.  It writes, per workload and end-to-end metric, each
side's median and quartiles, how many pairs the change won (ties count for
neither), whether that is a gain by the paired-run rule of
perfbench/NOTES.md (at least 9 wins in 10 and a median difference larger
than the parent's interquartile range) and whether the change stays within
the metric's bound; per run, the metrics, the check counts and the output
digests; and the environment that perfbench reported, with the host's CPU
model.

Run it on an otherwise idle host: both sides share its CPUs with anything
else that runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 10
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, unpacked under dest."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def cpu_model() -> str:
    """The `model name` of /proc/cpuinfo where there is one, else platform.processor()."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its details record and its result record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    load = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "loadavg_1m_before": load,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs_sha256": details["outputs_sha256"],
        "quality": details["quality"],
        "walls_s": details["walls_s"],
        "environment": details["environment"],
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "change_wins": wins,
        "relative_change": (c["median"] - p["median"]) / p["median"],
        "gain": (wins >= math.ceil(WIN_SHARE * len(parent))
                 and gain > p["q3"] - p["q1"]),
        "within_bound": -gain <= metric["bound"] * p["median"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--change", default=None,
                    help="change revision (default: this checkout's working tree)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": export(args.parent, Path(tmp) / "parent")}
        sides["change"] = ROOT if args.change is None else export(args.change, Path(tmp) / "change")
        record = {
            "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
            "change": ({"rev": "working tree", "commit": git("rev-parse", "HEAD")}
                       if args.change is None else
                       {"rev": args.change, "commit": git("rev-parse", args.change)}),
            "host": {"cpu_model": cpu_model()},
            "command": bench["command"],
            "run_seconds": bench["run_seconds"],
            "pairs": PAIRS,
            "rule": (f"gain: the change wins at least {WIN_SHARE:.0%} of the pairs (ties count "
                     "for neither) and the medians differ by more than the parent's q3 - q1; "
                     "within_bound: the change's median is not worse than the parent's by "
                     "more than the metric's bound; quartiles are "
                     "statistics.quantiles(method='inclusive')"),
            "workloads": {},
        }
        for workload in workloads:
            runs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, bench["run_seconds"])
                    print(f"{workload} pair {i} {side}: wall_s "
                          f"{pair[side]['metrics']['wall_s']:.3f}", file=sys.stderr)
                pair["outputs_equal"] = (pair["parent"]["outputs_sha256"]
                                         == pair["change"]["outputs_sha256"])
                runs.append(pair)
            record["workloads"][workload] = {
                "metrics": {m["name"]: judge(m, [r["parent"]["metrics"][m["name"]] for r in runs],
                                             [r["change"]["metrics"][m["name"]] for r in runs])
                            for m in bench["end_to_end"]},
                "outputs_equal_pairs": sum(r["outputs_equal"] for r in runs),
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in sides},
                "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in sides},
                "runs": runs,
            }
        record["environment"] = runs[0]["change"]["environment"]
        record["elapsed_s"] = time.time() - started
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:15s} {name:12s} {m['parent']['median']:9.3f} -> "
                  f"{m['change']['median']:9.3f} ({m['relative_change']:+.1%}) "
                  f"wins {m['change_wins']}/{PAIRS} gain={m['gain']} "
                  f"within_bound={m['within_bound']}")
        print(f"{workload:15s} outputs equal in {w['outputs_equal_pairs']}/{PAIRS} pairs; "
              f"failed checks parent {w['failed']['parent']}, change {w['failed']['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
