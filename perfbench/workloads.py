"""The three benchmark workloads.

Each workload is one closed batch job run in this process, in three steps:

setup    builds the inputs from the workload seed (not timed as the job);
run      the timed job, once, on the set-up state;
verify   checks the job's outputs after the timer stops and returns the
         quality figures and the digests of outputs that must repeat
         bit-identically when the job is run again on the same state.

kws_compress   training-bound: CTC teacher, hard-label CTC student and a
               distilled student (pipeline.kws_compression_experiment), then
               single-utterance spotting with the distilled student.
kws_score      inference only: batch scoring of a far-field WAV corpus and
               the `farspot spot` path per utterance, with a CTC teacher
               trained in setup.
farfield_adapt the on-disk CLI path: synth, simulate and featurize with a
               process pool, train (close-talk), adapt (far-field), then
               frame error rate on a held-out far-field test set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from farspot import cli, kws, netcore, pipeline, simkit

TARGET_CA = 0.96
LATENCY_PASSES = 3

# Input sizes.  "full" is what the benchmark measures; "tiny" only has to
# exercise every code path, for the self-test.
SIZES = {
    "kws_compress": {"full": {"train": 40, "test": 80, "spot": 40},
                     "tiny": {"train": 12, "test": 16, "spot": 8}},
    "kws_score": {"full": {"test": 200, "teacher_train": 80, "teacher_epochs": 3},
                  "tiny": {"test": 16, "teacher_train": 10, "teacher_epochs": 1}},
    "farfield_adapt": {"full": {"train": 150, "test": 60},
                       "tiny": {"train": 12, "test": 8}},
}


class Checks:
    """Counts output checks; every failed one is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Job:
    """What one timed run of a workload hands to verify."""

    utterances: int  # corpus utterances, the unit of work of utts_per_s
    latencies_ms: list[list[float]]  # per utterance, one per pass
    outputs: dict


def sha256_files(paths, strip: Path | None = None) -> str:
    """Digest of file names and contents; `strip` is removed from the
    contents, so manifests that name files under it compare equal."""
    h = hashlib.sha256()
    for p in sorted(Path(x) for x in paths):
        data = p.read_bytes()
        if strip is not None:
            data = data.replace(str(strip).encode(), b"")
        h.update(p.name.encode())
        h.update(data)
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def reference_fa_at_ca(scores, labels, target_ca: float = TARGET_CA) -> float:
    """FA at the largest threshold whose CA reaches target_ca.

    Written here, independently of farspot.kws, so the benchmark can check
    the program's operating point and give the constant-score baseline.
    """
    pos = sorted((s for s, p in zip(scores, labels) if p), reverse=True)
    neg = [s for s, p in zip(scores, labels) if not p]
    th = pos[max(math.ceil(target_ca * len(pos)), 1) - 1]
    return sum(s >= th for s in neg) / len(neg)


def check_scores(check: Checks, name: str, scores) -> None:
    check(all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores),
          f"{name}: a score is not finite or outside [0, 1]")


def check_score_list(check: Checks, name: str, records, labels, fa: float | None) -> None:
    """Checks on one score list and, unless None, the FA the program
    reported for it."""
    scores = [r[1] for r in records]
    check_scores(check, name, scores)
    check([r[2] for r in records] == list(labels),
          f"{name}: score labels differ from the generated labels")
    th = kws.threshold_at_ca([(r[1], r[2]) for r in records], TARGET_CA)
    ca = sum(s >= th for s, p in zip(scores, labels) if p) / sum(labels)
    check(ca >= TARGET_CA, f"{name}: CA {ca:.4f} misses the target {TARGET_CA}")
    if fa is not None:
        fa_ref = reference_fa_at_ca(scores, labels)
        check(fa == fa_ref, f"{name}: FA {fa} != reference {fa_ref}")


def _quiet(fn, *args):
    """Run fn with the program's progress prints kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _per_utterance(fn, args_list):
    """fn(*args) for every args in args_list, timed one call at a time over
    LATENCY_PASSES passes through the list, so that each utterance's
    timings are spread over the job.  Returns the results of the last pass
    and, per utterance, its latencies in ms."""
    times = [[] for _ in args_list]
    for _ in range(LATENCY_PASSES):
        results = []
        for args, ms in zip(args_list, times):
            t0 = time.perf_counter()
            results.append(fn(*args))
            ms.append((time.perf_counter() - t0) * 1e3)
    return results, times


def _spot_features(net, feats):
    return kws.spot(netcore.forward(net, feats), pipeline.KEYWORD_MODEL)


# ---------------------------------------------------------------------------
# kws_compress

KWS_MODELS = ("teacher", "hard_student", "distilled_student")


def setup_kws_compress(seed: int, size: dict, work: Path):
    # the experiment synthesizes its own corpora from the seed; the benchmark
    # builds the same test set to check the score lists and to spot with
    items = pipeline.synth_items(pipeline.hard_kws_task(2000 + seed), size["test"])
    state = {"seed": seed, "size": size, "test_items": items,
             "labels": [bool(it.is_positive) for it in items]}
    return state, hashlib.sha256(b"".join(it.feats.tobytes() for it in items)).hexdigest()


def run_kws_compress(state, work: Path) -> Job:
    size = state["size"]
    report = pipeline.kws_compression_experiment(pipeline.KwsCompressionConfig(
        seed=state["seed"], train_count=size["train"], test_count=size["test"],
        target_ca=TARGET_CA, out_dir=str(work),
    ))
    student = netcore.load_checkpoint(work / "distilled_student.ckpt")
    dets, latencies = _per_utterance(
        _spot_features, [(student, it.feats) for it in state["test_items"][: size["spot"]]])
    return Job(size["train"] + size["test"], latencies,
               {"report": report, "spot_scores": [d.score for d in dets]})


def verify_kws_compress(state, work: Path, job: Job, check: Checks):
    labels, report = state["labels"], job.outputs["report"]
    for name in KWS_MODELS:
        # score files hold 8 decimals, and rounding can tie a negative with
        # the threshold, so the reported FA is range-checked only
        records = kws.read_scores(work / f"{name}.scores")
        check_score_list(check, name, records, labels, None)
        check(0.0 <= report[name]["fa"] <= 1.0, f"{name}: FA outside [0, 1]")
    spots = job.outputs["spot_scores"]
    check([float(f"{s:.8f}") for s in spots] == [r[1] for r in records[: len(spots)]],
          "distilled student: spot scores differ from its score file")
    fa = {name: report[name]["fa"] for name in KWS_MODELS}
    quality = {
        "model_err": fa["distilled_student"],
        "teacher_err": fa["teacher"],
        "fa_teacher": fa["teacher"],
        "fa_hard_student": fa["hard_student"],
        "fa_distilled": fa["distilled_student"],
        "fa_constant_score": reference_fa_at_ca([0.5] * len(labels), labels),
    }
    digests = {
        "checkpoints": sha256_files(work / f"{n}.ckpt" for n in KWS_MODELS),
        "scores": sha256_files(work / f"{n}.scores" for n in KWS_MODELS),
        "spot_scores": sha256_json(job.outputs["spot_scores"]),
    }
    return quality, digests


# ---------------------------------------------------------------------------
# kws_score

def setup_kws_score(seed: int, size: dict, work: Path):
    task = pipeline.hard_kws_task(3000 + seed)
    clean = pipeline.synth_corpus(task, size["test"], work / "clean")
    far = pipeline.simulate_corpus(clean, pipeline.FarFieldConfig(seed=4000 + seed), work / "far")

    train_items = pipeline.synth_items(pipeline.hard_kws_task(5000 + seed), size["teacher_train"])
    spec = netcore.ModelSpec(
        input_dim=train_items[0].feats.shape[1], layers=1, hidden=32, projection=0,
        output_dim=pipeline.KWS_OUTPUT_DIM, peepholes=False,
    )
    tc = pipeline.TrainConfig(criterion="ctc", learning_rate=0.2, lr_decay=0.95,
                              epochs=size["teacher_epochs"], seed=seed)
    teacher, _ = pipeline.train(netcore.init_network(spec, np.random.default_rng(seed)),
                                train_items, tc)
    ckpt = work / "teacher.ckpt"
    netcore.save_checkpoint(teacher, ckpt)

    manifest = work / "far" / "manifest.tsv"
    wavs = [r.path for r in far.records]
    state = {"task": task, "manifest": manifest, "ckpt": ckpt, "wavs": wavs,
             "labels": [bool(r.is_positive) for r in far.records]}
    return state, sha256_files([manifest, ckpt, *wavs], strip=work)


def _spot_wav(net, task, wav_path):
    # the `farspot spot` path, without its printing
    w = simkit.read_wav(wav_path)
    return _spot_features(net, pipeline.featurize_waveform(w, task).frames)


def run_kws_score(state, work: Path) -> Job:
    task = state["task"]
    net = netcore.load_checkpoint(state["ckpt"])
    items = pipeline.items_from_manifest(pipeline.read_manifest(state["manifest"]), task)
    records = pipeline.score_kws(net, items)
    pairs = [(r[1], r[2]) for r in records]
    report = kws.evaluate(pairs, kws.threshold_at_ca(pairs, TARGET_CA), with_roc=True)

    dets, latencies = _per_utterance(_spot_wav, [(net, task, wav) for wav in state["wavs"]])
    return Job(len(records), latencies,
               {"records": records, "report": report, "spot_scores": [d.score for d in dets]})


def verify_kws_score(state, work: Path, job: Job, check: Checks):
    labels = state["labels"]
    records, report = job.outputs["records"], job.outputs["report"]
    check_score_list(check, "batch", records, labels, report.fa)
    check(report.ca >= TARGET_CA, f"evaluate: CA {report.ca} misses the target")
    for col in (1, 2):  # CA and FA never rise with the threshold
        check(all(a[col] >= b[col] for a, b in zip(report.roc, report.roc[1:])),
              "ROC is not monotone in the threshold")
    check(job.outputs["spot_scores"] == [r[1] for r in records],
          "single-utterance spot scores differ from the batch scores")
    quality = {
        "model_err": report.fa,
        "teacher_err": report.fa,
        "fa_at_ca": report.fa,
        "fa_constant_score": reference_fa_at_ca([0.5] * len(labels), labels),
    }
    return quality, {"scores": sha256_json([list(r) for r in records])}


# ---------------------------------------------------------------------------
# farfield_adapt

AM_CONFIG = {
    # AM mode of the adaptation experiment: unstacked 20-dim features,
    # per-frame classes without blank, 1x32 LSTM
    "task": {"stack_context": 1, "stack_step": 1},
    "model": {"input_dim": 20, "layers": 1, "hidden": 32, "projection": 0,
              "output_dim": 4, "peepholes": False},
    "train": {"criterion": "hard_ce", "learning_rate": 0.08, "epochs": 6},
}
ADAPT_EPOCHS = 4


def _am_task(seed: int) -> pipeline.SynthTaskSpec:
    return pipeline.SynthTaskSpec(seed=seed, stack_context=1, stack_step=1)


def setup_farfield_adapt(seed: int, size: dict, work: Path):
    cfg_path = work / "am.json"
    cfg_path.write_text(json.dumps(AM_CONFIG))
    test_seed = 1_000_000 + seed  # held out: a different synthesis seed
    clean = pipeline.synth_corpus(_am_task(test_seed), size["test"], work / "test_clean")
    far = pipeline.simulate_corpus(clean, pipeline.FarFieldConfig(seed=test_seed + 3),
                                   work / "test_far")
    items = pipeline.items_from_manifest(far, _am_task(test_seed))
    state = {"seed": seed, "size": size, "config": cfg_path, "test_items": items,
             "workers": len(os.sched_getaffinity(0))}
    return state, sha256_files([work / "test_far" / "manifest.tsv",
                                *(r.path for r in far.records)], strip=work)


def run_farfield_adapt(state, work: Path) -> Job:
    seed, size, cfg = state["seed"], state["size"], str(state["config"])
    workers = str(state["workers"])
    steps = [
        ["synth", "--config", cfg, "--count", str(size["train"]), "--seed", str(seed),
         "--workers", workers, "--out", str(work / "clean")],
        ["simulate", "--config", cfg, "--manifest", str(work / "clean" / "manifest.tsv"),
         "--seed", str(seed + 1), "--workers", workers, "--out", str(work / "far")],
        ["featurize", "--config", cfg, "--manifest", str(work / "far" / "manifest.tsv"),
         "--workers", workers, "--out", str(work / "feats")],
        ["train", "--config", cfg, "--manifest", str(work / "clean" / "manifest.tsv"),
         "--seed", str(seed), "--out", str(work / "teacher")],
        ["adapt", "--config", cfg, "--manifest", str(work / "feats" / "manifest.tsv"),
         "--teacher", str(work / "teacher" / "final.ckpt"), "--seed", str(seed),
         "--set", f"train.epochs={ADAPT_EPOCHS}", "--out", str(work / "adapted")],
    ]
    codes = {}
    for argv in steps:
        codes[argv[0]] = _quiet(cli.run, argv)
        if codes[argv[0]] != cli.EXIT_OK:  # later steps need this one's files
            raise RuntimeError(f"farspot {argv[0]} exited with code {codes[argv[0]]}")

    items = state["test_items"]
    teacher = netcore.load_checkpoint(work / "teacher" / "final.ckpt")
    adapted = netcore.load_checkpoint(work / "adapted" / "final.ckpt")
    fer_teacher = pipeline.frame_error_rate(teacher, items)
    # one utterance at a time, for the latency
    fers, latencies = _per_utterance(pipeline.frame_error_rate, [(adapted, [it]) for it in items])
    wrong = sum(round(fer * it.num_frames) for fer, it in zip(fers, items))
    fer_adapted = wrong / sum(it.num_frames for it in items)
    return Job(size["train"] + len(items), latencies,
               {"exit_codes": codes, "fer_teacher": fer_teacher, "fer_adapted": fer_adapted})


def verify_farfield_adapt(state, work: Path, job: Job, check: Checks):
    out = job.outputs
    for step, code in out["exit_codes"].items():
        check(code == cli.EXIT_OK, f"farspot {step} exited with code {code}")
    for name in ("fer_teacher", "fer_adapted"):
        check(0.0 < out[name] <= 1.0, f"{name} {out[name]} outside (0, 1]")
    frames = np.concatenate([np.asarray(it.frame_labels) for it in state["test_items"]])
    quality = {
        "model_err": out["fer_adapted"],
        "teacher_err": out["fer_teacher"],
        "fer_adapted": out["fer_adapted"],
        "fer_close_talk_teacher": out["fer_teacher"],
        "fer_constant_garbage": float(np.mean(frames != pipeline.GARBAGE)),
    }
    digests = {
        "checkpoints": sha256_files([work / "teacher" / "final.ckpt",
                                     work / "adapted" / "final.ckpt"]),
        "features": sha256_files((work / "feats").glob("*.fsfa")),
    }
    return quality, digests


WORKLOADS = {
    "kws_compress": (setup_kws_compress, run_kws_compress, verify_kws_compress),
    "kws_score": (setup_kws_score, run_kws_score, verify_kws_score),
    "farfield_adapt": (setup_farfield_adapt, run_farfield_adapt, verify_farfield_adapt),
}
