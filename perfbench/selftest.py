"""Tiny-size self-test of the benchmark (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

Runs every workload at the tiny input size and checks that
- every end-to-end metric of BENCHMARK.json is emitted with its unit, and
  the outputs pass their checks;
- another workload seed gives other inputs;
- the traced run emits every per-layer metric of BENCHMARK.json with its
  unit and the outputs are bit-identical to the untraced run's;
- each of the seven layers shows work in a workload of BENCHMARK.json.
Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# kws_score is not in BENCHMARK.json (see NOTES.md) but is kept working
WORKLOADS = ("kws_compress", "kws_score", "farfield_adapt")
LAYERS = ("simkit", "featkit", "netcore", "criteria", "kws", "pipeline", "cli")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(details record, result) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit "
                             f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expect_metrics(problems: list, what: str, metrics: dict, spec: list) -> None:
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{what}: {m['name']} missing")
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{what}: {m['name']} is {got}, want unit {m['unit']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    layers_seen = set()
    benchmarked = {x["name"] for x in spec["workloads"]}
    for w in WORKLOADS:
        details, result = bench(w, 0, 0)
        expect_metrics(problems, f"{w} trace 0", result["metrics"], spec["end_to_end"])
        if not result["correct"] or result["attempted"] < 1:
            problems.append(f"{w}: output checks failed: {details['failures']}")

        other, _ = bench(w, 1, 0)
        if other["inputs_sha256"] == details["inputs_sha256"]:
            problems.append(f"{w}: seeds 0 and 1 gave the same inputs")

        traced_details, traced = bench(w, 0, 1)
        if traced_details["outputs_sha256"] != details["outputs_sha256"]:
            problems.append(f"{w}: tracing changed the outputs")
        expect_metrics(problems, f"{w} trace 1", traced["metrics"], spec["per_layer"])
        if w in benchmarked:
            layers_seen |= {layer for layer in LAYERS
                            if traced["metrics"].get(f"{layer}.self_s", {}).get("value", 0) > 0}
        print(f"{w}: done", flush=True)

    for layer in LAYERS:
        if layer not in layers_seen:
            problems.append(f"no benchmarked workload shows work in layer {layer}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
