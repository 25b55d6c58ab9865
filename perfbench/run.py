"""farspot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kws_compress --seed 0 --seconds 30 --trace 0

Run from the root of a farspot checkout; the program is imported from its
`src/`.  The run sets the workload up several times (set-up time is the
median), then repeats the timed job on that state until --seconds have
passed (at least twice), checks every output and checks that each repeat
gives bit-identical outputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with tracing off.
--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics from the traced ones (see spans.py) and the tracing overhead.

The next-to-last line of stdout is a JSON record of the environment, the
inputs and the quality figures with their trivial baselines; the last line
is the result.  Exit code 0 when a result was printed, 1 when the job
crashed, 2 when the program's source is missing, 3 when the run was stopped
(SIGTERM, or no result after HARD_LIMIT_S seconds).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import faulthandler
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
MIN_REPEATS = 2
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# A run has to end within 180 s.  No repeat or set-up starts that would end
# after LATE_S (a slow host gets fewer repeats, not a longer run), and a run
# still going after HARD_LIMIT_S is stopped with the stacks on stderr.
LATE_S = 110.0
HARD_LIMIT_S = 160
PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>

# BLAS threads are pinned to 1 for every workload and every commit, so the
# pool workers of farfield_adapt (one per CPU) never oversubscribe the CPUs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("kws_compress", "kws_score", "farfield_adapt"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-test")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)  # never below the median
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def install_stop_handlers(work: Path) -> None:
    """On SIGTERM or at HARD_LIMIT_S: kill the pool workers, wait for them,
    remove the work files and exit 3.  Unwinding instead could block in the
    very pool call that hangs.

    Every process this run forks (the corpus pool workers) is tied to it: it
    gets SIGKILL when the run ends, however the run ends, and one forked
    while the run is stopping (a pool replacing a killed worker) exits at
    once.  Forked workers inherit the signal handler and die as they would
    without it."""
    main_pid = os.getpid()
    stopping = False
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux: no parent-death signal
        prctl = None

    def in_forked_child():
        if stopping:
            os._exit(0)
        if prctl is not None:
            prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != main_pid:  # the run ended before prctl
                os._exit(0)

    def stop(signum, frame):
        nonlocal stopping
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        stopping = True
        if signum == signal.SIGALRM:
            print(f"perfbench: no result after {HARD_LIMIT_S} s; stacks:", file=sys.stderr)
            faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        else:
            print(f"perfbench: stopped by signal {signum}", file=sys.stderr)
        for _ in range(100):  # until no worker is left, replacements included
            children = multiprocessing.active_children()
            if not children:
                break
            for child in children:
                child.kill()
            for child in children:
                child.join(5)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # unless another run still uses it
        sys.stderr.flush()
        os._exit(3)

    os.register_at_fork(after_in_child=in_forked_child)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGALRM, stop)
    signal.alarm(HARD_LIMIT_S)


def run(args) -> int:
    process_start = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "farspot" / "__init__.py").is_file():
        print(f"perfbench: no farspot source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import farspot

    import spans
    import workloads

    setup, job_fn, verify = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][args.size]
    checks = workloads.Checks()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    install_stop_handlers(work)
    setup_s, input_digests = [], []

    def timed_setup():
        d = work / f"setup{len(setup_s)}"
        d.mkdir()
        t0 = time.perf_counter()
        state, digest = setup(args.seed, size, d)
        setup_s.append(time.perf_counter() - t0)
        input_digests.append(digest)
        return state

    try:
        state = timed_setup()
        tracer = spans.Tracer(work / "spool") if args.trace else None

        walls = {False: [], True: []}
        layer_runs, latency_runs = [], []
        first = None
        started = time.perf_counter()
        repeat = 0
        while True:
            traced = tracer is not None and repeat % 2 == 1
            d = work / f"job{repeat}"
            d.mkdir()
            if traced:
                tracer.reset()
                tracer.install(farspot)
            t0 = time.perf_counter()
            try:
                job = job_fn(state, d)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.remove()
            walls[traced].append(wall)
            if traced:
                layer_runs.append(tracer.layer_metrics())
            else:
                latency_runs.append(job.latencies_ms)

            quality, digests = verify(state, d, job, checks)
            if first is None:
                first = (quality, digests)
            else:
                for key, value in digests.items():
                    checks(value == first[1][key], f"repeat {repeat}: {key} not bit-identical")
                checks(quality == first[0], f"repeat {repeat}: quality figures differ")
            shutil.rmtree(d)
            if len(setup_s) < SETUPS:
                # the other set-ups run between repeats, so that their median
                # spans more of the host's speed swings than back-to-back ones
                timed_setup()
            repeat += 1
            now = time.perf_counter()
            if repeat >= MIN_REPEATS and len(setup_s) == SETUPS and now - started + wall > args.seconds:
                break
            measured = walls[False] and (tracer is None or walls[True])
            if measured and now - process_start + wall + max(setup_s) > LATE_S:
                break
        checks(len(set(input_digests)) == 1, "set-up inputs differ between set-ups")
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed; no result", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # unless another run still uses it
        except OSError:
            pass

    # A single-utterance timing is milliseconds long, so one timing mostly
    # measures what else the host was doing; an utterance's latency is the
    # fastest of its timings over passes and repeats.  Even so the latencies
    # move with the host's speed far more than the job walls, so they are in
    # the details record and not among the gated metrics.  Job walls are
    # seconds long and are reported as medians over the repeats.
    latencies = [min(ms for run in per_utt for ms in run) for per_utt in zip(*latency_runs)]
    tail_ms, tail_pct = tail(latencies)
    wall_s = statistics.median(walls[False])
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "utts_per_s": (job.utterances / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if tracer is not None:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["trace_overhead_s"] = statistics.median(walls[True]) - wall_s
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "environment": environment(),
        "inputs_sha256": input_digests[0], "outputs_sha256": first[1],
        "repeats": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "walls_s": walls[False], "traced_walls_s": walls[True], "setups_s": setup_s,
        "utt_ms": {"p50": statistics.median(latencies), "tail": tail_ms,
                   "tail_percentile": tail_pct, "samples": len(latencies)},
        "quality": first[0],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "error_rate": len(checks.failures) / checks.attempted,
        "failures": checks.failures,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
