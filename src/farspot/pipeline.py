"""Corpus management, synthetic task generation and training orchestration.

The synthetic task stands in for a wake-word corpus: utterances are built
from short tone-pair segments (keyword units, confusable fillers, silence),
so frame labels and transcripts are known by construction.  Far-field
variants are produced with the room simulator, keeping clean/far pairs
frame-synchronous.

Training is plain mini-batch SGD with momentum and gradient clipping over
the criteria in `farspot.criteria`; everything is deterministic under
(config, seed).
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import numbers
import os
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import criteria, featkit, kws, netcore, simkit
from .featkit import FeatureSequence
from .netcore import ModelSpec, Network
from .simkit import REQUIRED_RATE, RoomSpec, Waveform


class PipelineError(ValueError):
    """Input rejected before anything is written."""


class RunError(PipelineError):
    """A run that failed after writing began: training diverged or a worker died."""


def _check_ints(cfg, low: int, *names: str) -> None:
    """Raise PipelineError unless every named field of cfg is an int >= low."""
    for name in names:
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
            raise PipelineError(f"{name} must be an int >= {low}, got {v!r}")


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_real(cfg, name: str, ok: Callable[[float], bool], what: str) -> None:
    """Raise PipelineError unless ok holds for cfg.name, a number; NaN fails ok."""
    v = getattr(cfg, name)
    if not (_is_real(v) and ok(v)):
        raise PipelineError(f"{name} must be {what}, got {v!r}")


def _check_range(cfg, name: str, ok: Callable[[float], bool], what: str) -> None:
    """Raise PipelineError unless cfg.name is a (low, high) pair of numbers
    with low <= high, for both of which ok holds; NaN fails ok."""
    v = getattr(cfg, name)
    if not (isinstance(v, (tuple, list)) and len(v) == 2
            and all(_is_real(x) and ok(x) for x in v) and v[0] <= v[1]):
        raise PipelineError(f"{name} must be a (low, high) pair with low <= high, "
                            f"each {what}, got {v!r}")


# Output alphabet of the wake-word task.
HEY, CORTANA, SILENCE, GARBAGE, BLANK = 0, 1, 2, 3, 4
KWS_OUTPUT_DIM = 5
KWS_LAYERS = 2  # LSTM layers of the compression study's teacher and students
KWS_TEACHER_HIDDEN = 48  # LSTM cells per layer of the compression study's teacher
KWS_STUDENT_HIDDEN = 16  # and of its two students
KWS_TEACHER_EPOCHS = 6
KWS_STUDENT_EPOCHS = 8
KWS_LEARNING_RATE = 0.2  # of every compression arm, decayed by KWS_LR_DECAY per epoch
KWS_LR_DECAY = 0.95
# The ladder's one-layer models: LSTM cells, epochs of each stage and of the
# close-talk teacher, and the learning rate of all of them
LADDER_HIDDEN = 32
LADDER_EPOCHS = 4
LADDER_TEACHER_EPOCHS = 6
LADDER_LEARNING_RATE = 0.08
KEYWORD_MODEL = kws.KeywordModel(
    keyword_units=(HEY, CORTANA), silence=SILENCE, garbage=GARBAGE, blank=BLANK
)

# What every task shares: keyword tone pairs (Hz), tone amplitude, and (low,
# high) ranges of tone and silence durations (s) and of fillers an utterance.
HEY_FREQS = (500.0, 1550.0)
CORTANA_FREQS = (950.0, 2250.0)
AMPLITUDE = 0.25
SEGMENT_DUR_RANGE = (0.07, 0.16)
N_FILLER_RANGE = (2, 6)
SILENCE_PAD_RANGE = (0.05, 0.15)
MAX_SNR_DB = 100.0  # bounds SNR ranges: 16-bit PCM spans 96 dB; far past it gains overflow
_SNR_OK = (lambda v: abs(v) <= MAX_SNR_DB, f"within +/-{MAX_SNR_DB:g} dB")


# ---------------------------------------------------------------------------
# Manifests: line-oriented TSV, one utterance per line.
#
#   id  path  frame_labels  symbols  is_positive  pair_path
#
# frame_labels and symbols are comma-separated ints; "-" marks an absent
# field.  Lines starting with "#" are comments.  path and pair_path are
# written relative to the manifest's directory, so a corpus tree can be moved
# or copied; read_manifest joins a relative path onto that directory and
# normalizes it lexically (absolute paths are kept).

@dataclass
class ManifestRecord:
    utt_id: str
    path: str
    frame_labels: list[int] | None = None
    symbols: list[int] | None = None
    is_positive: bool | None = None
    pair_path: str | None = None


@dataclass
class Manifest:
    records: list[ManifestRecord]

    def __post_init__(self):
        ids = [r.utt_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise PipelineError("duplicate utterance ids in manifest")

    def __len__(self):
        return len(self.records)


def _fmt_ints(xs) -> str:
    return "-" if xs is None else ",".join(str(int(x)) for x in xs)


def _parse_ints(s: str):
    return None if s == "-" else [int(x) for x in s.split(",")]


_FLAGS = {"-": None, "0": False, "1": True}


def write_manifest(path: str | Path, m: Manifest) -> None:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w") as fh:
        fh.write("# farspot manifest v1: id path frame_labels symbols is_positive pair_path\n")
        for r in m.records:
            pos = "-" if r.is_positive is None else str(int(r.is_positive))
            pair = os.path.relpath(r.pair_path, base) if r.pair_path else "-"
            fh.write(
                f"{r.utt_id}\t{os.path.relpath(r.path, base)}\t{_fmt_ints(r.frame_labels)}\t"
                f"{_fmt_ints(r.symbols)}\t{pos}\t{pair}\n"
            )


def read_manifest(path: str | Path) -> Manifest:
    base = os.path.dirname(path)

    def resolve(p: str) -> str:
        return os.path.normpath(os.path.join(base, p))

    records = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise PipelineError(f"{path}:{ln}: expected 6 tab-separated fields")
            utt_id, p, labels, symbols, pos, pair = parts
            if pos not in _FLAGS:
                raise PipelineError(f"{path}:{ln}: is_positive must be 0, 1 or -, got {pos!r}")
            try:
                labels, symbols = _parse_ints(labels), _parse_ints(symbols)
            except ValueError as e:
                raise PipelineError(f"{path}:{ln}: bad integer list ({e})") from e
            records.append(
                ManifestRecord(
                    utt_id=utt_id,
                    path=resolve(p),
                    frame_labels=labels,
                    symbols=symbols,
                    is_positive=_FLAGS[pos],
                    pair_path=None if pair == "-" else resolve(pair),
                )
            )
    return Manifest(records)


# ---------------------------------------------------------------------------
# Synthetic wake-word task

@dataclass
class SynthTaskSpec:
    """Parametric tone-segment task with ground truth by construction."""

    seed: int = 0
    filler_freqs: tuple[tuple[float, float], ...] = (
        (700.0, 1900.0),
        (1200.0, 2600.0),
        (500.0, 2250.0),  # shares one tone with each keyword unit
        (850.0, 1400.0),
    )
    amp_jitter: float = 0.3
    freq_jitter: float = 0.02
    positive_ratio: float = 0.5
    noise_snr_range: tuple[float, float] = (8.0, 20.0)
    n_mels: int = 20
    stack_context: int = 8
    stack_step: int = 3

    def __post_init__(self):
        _check_ints(self, 0, "seed")
        _check_ints(self, 1, "n_mels", "stack_context", "stack_step")
        nyquist = REQUIRED_RATE / 2
        tones = self.filler_freqs
        if not (isinstance(tones, (tuple, list)) and tones and all(
                isinstance(fs, (tuple, list)) and fs
                and all(_is_real(f) and 0 < f < nyquist for f in fs) for fs in tones)):
            raise PipelineError(f"filler_freqs must hold tone frequencies in (0, {nyquist:g}) Hz, "
                                f"got {tones!r}")
        for name in ("amp_jitter", "freq_jitter"):
            _check_real(self, name, lambda v: 0 <= v < 1, "in [0, 1)")
        _check_real(self, "positive_ratio", lambda v: 0 <= v <= 1, "in [0, 1]")
        _check_range(self, "noise_snr_range", *_SNR_OK)


@dataclass
class TrainItem:
    """One utterance ready for training or scoring."""

    utt_id: str
    feats: np.ndarray
    frame_labels: np.ndarray | None = None
    symbols: list[int] | None = None
    is_positive: bool | None = None
    teacher_rows: np.ndarray | None = None
    source_feats: np.ndarray | None = None
    duration_sec: float | None = None

    @property
    def num_frames(self) -> int:
        return self.feats.shape[0]


def _tone_segment(freqs, dur, amp, rng):
    n = int(round(dur * REQUIRED_RATE))
    t = np.arange(n) / REQUIRED_RATE
    x = np.zeros(n)
    for f in freqs:
        x += np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x *= amp / max(len(freqs), 1)
    ramp = min(int(0.005 * REQUIRED_RATE), n // 2)
    if ramp > 0:
        env = np.ones(n)
        env[:ramp] = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[-ramp:] = env[:ramp][::-1]
        x *= env
    return x


def _utterance_plan(spec: SynthTaskSpec, rng, is_positive: bool):
    """List of (class, freqs or None) segments for one utterance."""
    n_filler = int(rng.integers(N_FILLER_RANGE[0], N_FILLER_RANGE[1] + 1))
    segs = [(GARBAGE, spec.filler_freqs[int(rng.integers(len(spec.filler_freqs)))])
            for _ in range(n_filler)]
    if is_positive:
        at = int(rng.integers(0, n_filler + 1))
        segs[at:at] = [(HEY, HEY_FREQS), (CORTANA, CORTANA_FREQS)]
    return [(SILENCE, None)] + segs + [(SILENCE, None)]


def synth_utterance(spec: SynthTaskSpec, index: int):
    """Deterministic single utterance: waveform, frame labels, symbols and
    whether it holds the keyword."""
    rng = np.random.default_rng([spec.seed, index])
    # positives assigned by fractional accumulation so a count-C corpus has
    # exactly round(C * ratio) positives
    r = spec.positive_ratio
    is_positive = int(np.floor((index + 1) * r)) > int(np.floor(index * r))
    plan = _utterance_plan(spec, rng, is_positive)

    pieces, classes = [], []
    for cls, freqs in plan:
        if cls == SILENCE:
            dur = rng.uniform(*SILENCE_PAD_RANGE)
            seg = np.zeros(int(round(dur * REQUIRED_RATE)))
        else:
            dur = rng.uniform(*SEGMENT_DUR_RANGE)
            amp = AMPLITUDE * rng.uniform(1 - spec.amp_jitter, 1 + spec.amp_jitter)
            jit = 1.0 + rng.uniform(-spec.freq_jitter, spec.freq_jitter)
            seg = _tone_segment([f * jit for f in freqs], dur, amp, rng)
        pieces.append(seg)
        classes.append(np.full(len(seg), cls, dtype=np.int64))

    x = np.concatenate(pieces)
    sample_classes = np.concatenate(classes)

    snr = rng.uniform(*spec.noise_snr_range)
    rms = np.sqrt(np.mean(x**2))
    noise = rng.standard_normal(len(x))
    noise *= rms / np.sqrt(np.mean(noise**2)) * 10.0 ** (-snr / 20.0)
    x = x + noise

    symbols = []
    for cls, _ in plan:
        if not symbols or symbols[-1] != cls:
            symbols.append(cls)
    return Waveform(x), _frame_labels(sample_classes, spec), symbols, is_positive


def _frame_labels(sample_classes: np.ndarray, spec: SynthTaskSpec) -> np.ndarray:
    """Label of each stacked feature frame: the class at the center sample of
    the stacked frame's center analysis frame."""
    t = (len(sample_classes) - featkit.WINDOW) // featkit.HOP + 1
    raw = np.minimum(featkit.HOP * np.arange(t) + featkit.WINDOW // 2, len(sample_classes) - 1)
    stacked = np.minimum(spec.stack_step * np.arange(-(-t // spec.stack_step))
                         + spec.stack_context // 2, t - 1)
    return sample_classes[raw[stacked]]


def featurize_waveform(w: Waveform, spec: SynthTaskSpec) -> FeatureSequence:
    return featkit.stack_frames(featkit.log_mel(w, spec.n_mels),
                                spec.stack_context, spec.stack_step)


def _synth_item(spec: SynthTaskSpec, i: int, far_cfg: FarFieldConfig | None = None) -> TrainItem:
    """Utterance i with features and ground truth; with far_cfg, feats holds
    the far-field features and source_feats the close-talk ones."""
    w, labels, symbols, pos = synth_utterance(spec, i)
    clean = featurize_waveform(w, spec).frames
    far = None
    if far_cfg is not None:
        far = featurize_waveform(farfield_waveform(w, far_cfg, i), spec).frames
    return TrainItem(
        utt_id=f"utt{i:06d}",
        feats=clean if far is None else far,
        frame_labels=labels,
        symbols=symbols,
        is_positive=pos,
        source_feats=None if far is None else clean,
        duration_sec=len(w) / REQUIRED_RATE,
    )


def synth_items(spec: SynthTaskSpec, count: int) -> list[TrainItem]:
    """In-memory corpus of clean utterances with features and ground truth."""
    return [_synth_item(spec, i) for i in range(count)]


def _pmap(fn, jobs, workers: int):
    """[fn(job) for job in jobs], on up to `workers` forked processes.

    Each job is independent and seeded by its inputs, so results do not
    depend on the worker count.  Worker w runs jobs[w::n] and sends its
    results back over a pipe that this thread reads; no helper thread
    unpickles them.  Forking lets fn and the jobs be closures over large
    arrays, which the workers share copy-on-write instead of receiving
    pickled.  An exception raised by a job is raised here with its own type;
    a worker that dies without a result raises RunError.  Called inside
    a worker, it runs the jobs inline: one level of processes per run.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1 or _in_pmap_worker:
        return [fn(job) for job in jobs]
    ctx = mp.get_context("fork")
    procs = []
    results = [None] * len(jobs)
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_pmap_worker, args=(fn, jobs[w::workers], send))
            procs.append((p, recv))
            p.start()
            send.close()  # so that recv sees EOF if the worker dies
        for w, (p, recv) in enumerate(procs):
            try:
                ok, value = recv.recv()
            except EOFError:
                p.join()
                raise RunError(f"_pmap worker {w} died with exit code {p.exitcode} "
                               f"before returning its results") from None
            if not ok:
                raise value
            results[w::workers] = value
    finally:
        for p, recv in procs:
            recv.close()
            if p.is_alive():
                p.kill()
            p.join()
    return results


_in_pmap_worker = False  # set in forked _pmap workers only


def _pmap_worker(fn, jobs, conn) -> None:
    global _in_pmap_worker
    _in_pmap_worker = True
    try:
        out = (True, [fn(job) for job in jobs])
    except Exception as exc:
        exc.add_note(f"raised in a _pmap worker:\n{traceback.format_exc()}")
        out = (False, exc)
    conn.send(out)


def _blas_workers() -> int:
    """Processes that fit beside BLAS: nCPU // t when BLAS is pinned to t
    threads, 1 when it is not, since it then uses every CPU already."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        t = int(threads)
    except (TypeError, ValueError):
        return 1
    if t < 1:
        return 1
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (ncpu or 1) // t)


def _call(job):
    return job()


def _corpus(job_fn, jobs, out_dir: str | Path, workers: int) -> Manifest:
    """Run job_fn((*job, out_dir)) for every job; each writes one utterance's
    file into out_dir and returns its record.  Writes out_dir/manifest.tsv."""
    if workers < 1:
        raise PipelineError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = Manifest(_pmap(job_fn, [(*job, out_dir) for job in jobs], workers))
    write_manifest(out_dir / "manifest.tsv", m)
    return m


def _check_input_wavs(m: Manifest) -> None:
    """Raise PipelineError naming the first record whose input WAV is not a
    file, or has a header simkit.read_wav rejects, before _corpus makes the
    output directory."""
    for r in m.records:
        if not Path(r.path).is_file():
            raise PipelineError(f"{r.utt_id}: input WAV {r.path} not found")
        try:
            simkit.check_wav(r.path)
        except simkit.SimulationError as e:
            raise PipelineError(f"{r.utt_id}: input WAV {e}") from e


def _synth_corpus_one(job) -> ManifestRecord:
    spec, i, out_dir = job
    w, labels, symbols, pos = synth_utterance(spec, i)
    utt_id = f"utt{i:06d}"
    wav_path = Path(out_dir) / f"{utt_id}.wav"
    simkit.write_wav(wav_path, w)
    return ManifestRecord(
        utt_id=utt_id,
        path=str(wav_path),
        frame_labels=[int(x) for x in labels],
        symbols=symbols,
        is_positive=pos,
    )


def synth_corpus(
    spec: SynthTaskSpec, count: int, out_dir: str | Path, workers: int = 1
) -> Manifest:
    """Write WAV files and a manifest; deterministic under spec.seed."""
    if count < 1:
        raise PipelineError(f"count must be >= 1, got {count}")
    return _corpus(_synth_corpus_one, [(spec, i) for i in range(count)], out_dir, workers)


def _load_features(path: str, spec: SynthTaskSpec) -> tuple[np.ndarray, float | None]:
    """Features of a feature-archive or WAV path, and the WAV's duration."""
    if path.endswith(".fsfa"):
        return featkit.read_features(path).frames, None
    w = simkit.read_wav(path)
    return featurize_waveform(w, spec).frames, len(w) / REQUIRED_RATE


def items_from_manifest(m: Manifest, spec: SynthTaskSpec) -> list[TrainItem]:
    """Load WAV or feature-archive paths from a manifest into train items."""
    items = []
    for r in m.records:
        feats, dur = _load_features(r.path, spec)
        items.append(
            TrainItem(
                utt_id=r.utt_id,
                feats=feats,
                frame_labels=None if r.frame_labels is None else np.asarray(r.frame_labels),
                symbols=r.symbols,
                is_positive=r.is_positive,
                source_feats=None if r.pair_path is None else _load_features(r.pair_path, spec)[0],
                duration_sec=dur,
            )
        )
    return items


def _featurize_corpus_one(job) -> ManifestRecord:
    r, spec, out_dir = job
    feat_path = Path(out_dir) / f"{r.utt_id}.fsfa"
    featkit.write_features(feat_path, featurize_waveform(simkit.read_wav(r.path), spec))
    return replace(r, path=str(feat_path))


def featurize_corpus(
    m: Manifest, spec: SynthTaskSpec, out_dir: str | Path, workers: int = 1
) -> Manifest:
    """Convert a WAV manifest into a feature-archive manifest."""
    _check_input_wavs(m)
    return _corpus(_featurize_corpus_one, [(r, spec) for r in m.records], out_dir, workers)


# ---------------------------------------------------------------------------
# Far-field simulation of a synthetic corpus

# Room sizes (m) are drawn per axis between these corners; RIRs have IR_LENGTH taps.
ROOM_DIM_LOW = (3.5, 3.0, 2.4)
ROOM_DIM_HIGH = (8.0, 6.0, 3.2)
IR_LENGTH = 2048


@dataclass
class FarFieldConfig:
    """Per-utterance random rooms and additive noise for far-field variants."""

    reflection_range: tuple[float, float] = (0.55, 0.85)
    max_order: int = 4
    snr_range: tuple[float, float] = (5.0, 15.0)
    seed: int = 100

    def __post_init__(self):
        _check_range(self, "reflection_range", lambda v: 0 <= v <= 1, "in [0, 1]")
        _check_ints(self, 0, "max_order", "seed")
        _check_range(self, "snr_range", *_SNR_OK)

    def sample_room(self, rng) -> RoomSpec:
        dims = rng.uniform(ROOM_DIM_LOW, ROOM_DIM_HIGH)
        margin = 0.3
        src = rng.uniform(margin, dims - margin)
        mic = rng.uniform(margin, dims - margin)
        while np.linalg.norm(src - mic) < 0.5:
            mic = rng.uniform(margin, dims - margin)
        return RoomSpec(
            dimensions=dims,
            source_position=src,
            mic_position=mic,
            wall_reflection=rng.uniform(*self.reflection_range),
            max_order=self.max_order,
            ir_length=IR_LENGTH,
        )


def farfield_waveform(w: Waveform, cfg: FarFieldConfig, index: int) -> Waveform:
    rng = np.random.default_rng([cfg.seed, index])
    room = cfg.sample_room(rng)
    noise = Waveform(rng.standard_normal(len(w)) * 0.05)
    snr = rng.uniform(*cfg.snr_range)
    return simkit.simulate_single_channel(w, room, noise, snr, rng=rng)


def synth_pair_items(
    spec: SynthTaskSpec, far_cfg: FarFieldConfig, count: int, start_index: int = 0
) -> list[TrainItem]:
    """Frame-synchronous (clean source, far-field target) items.

    feats holds the far-field features; source_feats the close-talk ones.
    """
    return [_synth_item(spec, i, far_cfg) for i in range(start_index, start_index + count)]


def _simulate_corpus_one(job) -> ManifestRecord:
    r, i, far_cfg, out_dir = job
    far_path = Path(out_dir) / f"{r.utt_id}.wav"
    simkit.write_wav(far_path, farfield_waveform(simkit.read_wav(r.path), far_cfg, i))
    return replace(r, path=str(far_path), pair_path=r.path)


def simulate_corpus(
    m: Manifest, far_cfg: FarFieldConfig, out_dir: str | Path, workers: int = 1
) -> Manifest:
    """Far-field WAVs for every record; pair_path points at the clean input."""
    _check_input_wavs(m)
    return _corpus(_simulate_corpus_one, [(r, i, far_cfg) for i, r in enumerate(m.records)],
                   out_dir, workers)


# ---------------------------------------------------------------------------
# Training

MOMENTUM = 0.9
GRAD_CLIP = 5.0  # gradients with a larger L2 norm are scaled down to it


@dataclass
class TrainConfig:
    criterion: str = "hard_ce"  # hard_ce | soft_ce | ctc; distill and adapt train soft_ce
    learning_rate: float = 0.05
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0
    lr_decay: float = 0.85  # per-epoch step decay

    def __post_init__(self):
        if self.criterion not in _CRITERIA:
            raise PipelineError(f"unknown criterion {self.criterion!r}")
        _check_ints(self, 1, "batch_size", "epochs")
        _check_ints(self, 0, "seed")
        _check_real(self, "learning_rate", lambda v: 0 <= v < math.inf, "finite and >= 0")
        _check_real(self, "lr_decay", lambda v: 0 < v <= 1, "in (0, 1]")


def _padded(seqs: list[np.ndarray], tmax: int, dim: int) -> np.ndarray:
    x = np.zeros((len(seqs), tmax, dim))
    for j, seq in enumerate(seqs):
        x[j, : len(seq)] = seq
    return x


class _Criterion(NamedTuple):
    """A training criterion over a padded batch; distill and adapt both train
    soft_ce, on teacher_rows computed before training."""
    field: str  # the TrainItem field that every training item must carry
    what: str  # what it holds
    check: Callable  # (item's field, frames, outputs) -> target, or CriterionError
    # (logits (B, T, N), lengths, each item's field) -> (per-utterance losses,
    # dloss/dlogits, 0 on padding); each column finds its criteria function
    # when called, so a wrapper set on that module (perfbench's tracer) sees it
    loss: Callable


_CRITERIA = {
    "hard_ce": _Criterion("frame_labels", "frame labels",
                          lambda *target: criteria.check_frame_labels(*target),
                          lambda *batch: criteria.hard_ce_loss_batch(*batch)),
    "soft_ce": _Criterion("teacher_rows", "teacher posteriors",
                          lambda *target: criteria.check_teacher_rows(*target),
                          lambda *batch: criteria.soft_ce_loss_batch(*batch)),
    "ctc": _Criterion("symbols", "a symbol transcript",
                      lambda *target: criteria.check_transcript(*target, blank=BLANK),
                      lambda *batch: criteria.ctc_loss_batch(*batch, blank=BLANK)),
}


def check_feature_dim(items: list[TrainItem], input_dim: int) -> None:
    """Raise PipelineError unless every item's features, and its paired
    source features if any, are (frames, input_dim) matrices with frames > 0."""
    for it in items:
        for name in ("feats", "source_feats"):
            x = getattr(it, name)
            if x is not None and (x.ndim != 2 or x.shape[1] != input_dim):
                raise PipelineError(f"{it.utt_id}: {name} have shape {x.shape}, "
                                    f"the model takes {input_dim}-dim frames")
            if x is not None and not len(x):
                raise PipelineError(f"{it.utt_id}: {name} have no frames")


def _check_items(items: list[TrainItem], criterion: str, spec: ModelSpec) -> None:
    """Raise PipelineError, naming the utterance, unless every item has spec's
    input width and a target that criterion's check accepts for spec's outputs."""
    check_feature_dim(items, spec.input_dim)
    c = _CRITERIA[criterion]
    for it in items:
        if getattr(it, c.field) is None:
            raise PipelineError(f"{it.utt_id}: {criterion} needs {c.what}")
        try:
            c.check(getattr(it, c.field), it.num_frames, spec.output_dim)
        except criteria.CriterionError as e:
            raise PipelineError(f"{it.utt_id}: {e}") from e


def _batches(items: list[TrainItem], batch_size: int):
    """Length-bucketed batches; order fixed by (frame count, utt id)."""
    order = sorted(items, key=lambda it: (it.num_frames, it.utt_id))
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def _infer(net: Network, items: list[TrainItem]) -> list[np.ndarray]:
    """Each item's logits (T, N), in item order, from length-bucketed batches
    of 16; byte for byte the logits of the item run alone."""
    check_feature_dim(items, net.spec.input_dim)
    logits_of = {}
    for batch in _batches(items, 16):
        lengths = [it.num_frames for it in batch]
        x = _padded([it.feats for it in batch], max(lengths), net.spec.input_dim)
        logits, _ = netcore.forward_batch(net, x, want_cache=False, lengths=lengths)
        for it, row in zip(batch, logits):
            logits_of[id(it)] = row[: it.num_frames]
    return [logits_of[id(it)] for it in items]


def _batch_loss_and_grad(net: Network, batch: list[TrainItem], cfg: TrainConfig):
    tmax = max(it.num_frames for it in batch)
    logits, cache = netcore.forward_batch(
        net, _padded([it.feats for it in batch], tmax, net.spec.input_dim))
    c = _CRITERIA[cfg.criterion]
    losses, dlogits = c.loss(logits, [it.num_frames for it in batch],
                             [getattr(it, c.field) for it in batch])
    total_loss = 0.0
    for loss in losses:  # in item order, which fixes the rounding
        total_loss += loss
    total_frames = sum(it.num_frames for it in batch)

    dlogits /= total_frames
    grad = netcore.backward_batch(net, cache, dlogits)
    return total_loss / total_frames, grad


def train(
    net: Network,
    items: list[TrainItem],
    cfg: TrainConfig,
    checkpoint_dir: str | Path | None = None,
) -> tuple[Network, list[float]]:
    """Mini-batch SGD with momentum; returns the trained network and the
    per-epoch mean per-frame loss."""
    if not items:
        raise PipelineError("empty training set")
    _check_items(items, cfg.criterion, net.spec)

    net = net.copy()
    velocity = np.zeros_like(net.parameters)
    batches = _batches(items, cfg.batch_size)
    rng = np.random.default_rng(cfg.seed)
    log = []
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay**epoch
        order = rng.permutation(len(batches))
        epoch_loss = 0.0
        for bi in order:
            loss, grad = _batch_loss_and_grad(net, batches[bi], cfg)
            # not np.linalg.norm: BLAS's dot product splits a long vector
            # among its threads, so its last bits follow the thread count
            norm = np.sqrt(np.sum(grad * grad))
            if not (np.isfinite(loss) and np.isfinite(norm)):
                raise RunError(
                    f"non-finite loss ({loss}) or gradient norm ({norm}) in epoch {epoch}, "
                    f"batch {bi}: utterances {[it.utt_id for it in batches[bi]]}"
                )
            if norm > GRAD_CLIP:
                grad = grad * (GRAD_CLIP / norm)
            velocity = MOMENTUM * velocity - lr * grad
            net.parameters += velocity
            epoch_loss += loss
        if not np.all(np.isfinite(net.parameters)):  # before the checkpoint, as for the loss
            raise RunError(f"non-finite parameters after epoch {epoch}")
        log.append(epoch_loss / len(batches))
        if checkpoint_dir is not None:
            netcore.save_checkpoint(net, checkpoint_dir / f"epoch{epoch:03d}.ckpt")
    return net, log


def compute_teacher_posteriors(teacher: Network, items: list[TrainItem]) -> list[TrainItem]:
    """Attach the teacher's posterior rows to every item."""
    return [replace(it, teacher_rows=netcore.posteriors(logits).rows)
            for it, logits in zip(items, _infer(teacher, items))]


def distill(
    teacher: Network,
    student_spec: ModelSpec,
    items: list[TrainItem],
    cfg: TrainConfig,
    checkpoint_dir: str | Path | None = None,
) -> tuple[Network, list[float]]:
    """Train a fresh student on teacher soft labels; no transcripts needed."""
    if teacher.spec.output_dim != student_spec.output_dim:
        raise PipelineError(f"teacher output dim {teacher.spec.output_dim} != "
                            f"student output dim {student_spec.output_dim}")
    check_feature_dim(items, student_spec.input_dim)  # before the teacher's forward
    items = compute_teacher_posteriors(teacher, items)
    cfg = replace(cfg, criterion="soft_ce")
    student = netcore.init_network(student_spec, np.random.default_rng(cfg.seed))
    return train(student, items, cfg, checkpoint_dir=checkpoint_dir)


def adapt(
    teacher: Network,
    paired_items: list[TrainItem],
    cfg: TrainConfig,
    checkpoint_dir: str | Path | None = None,
) -> tuple[Network, list[float]]:
    """Adapt a teacher to the target domain on parallel unlabeled pairs.

    The student starts as a copy of the teacher and is trained with soft CE
    so that its posteriors on target features track the frozen teacher's on
    source features, computed once, before training, by compute_teacher_posteriors.
    """
    for it in paired_items:
        if it.source_feats is None:
            raise PipelineError(f"{it.utt_id}: adapt needs paired source features")
        if it.source_feats.shape[0] != it.num_frames:
            raise PipelineError(f"{it.utt_id}: paired frame counts differ")
    check_feature_dim(paired_items, teacher.spec.input_dim)
    source = compute_teacher_posteriors(teacher, [replace(it, feats=it.source_feats)
                                                  for it in paired_items])
    items = [replace(it, teacher_rows=s.teacher_rows) for it, s in zip(paired_items, source)]
    return train(teacher.copy(), items, replace(cfg, criterion="soft_ce"),
                 checkpoint_dir=checkpoint_dir)


# ---------------------------------------------------------------------------
# Evaluation helpers

def frame_error_rate(net: Network, items: list[TrainItem]) -> float:
    """Fraction of frames whose argmax posterior disagrees with the label."""
    if not items:
        raise PipelineError("frame error rate of no utterances")
    _check_items(items, "hard_ce", net.spec)  # one label per frame
    wrong = sum(int(np.sum(np.argmax(logits, axis=1) != it.frame_labels))
                for it, logits in zip(items, _infer(net, items)))
    return wrong / sum(it.num_frames for it in items)


def score_kws(net: Network, items: list[TrainItem]) -> list[tuple[str, float, bool, float | None]]:
    """Confidence score for every utterance, as score-file records."""
    return [(it.utt_id, kws.spot(netcore.posteriors(logits), KEYWORD_MODEL).score,
             bool(it.is_positive), it.duration_sec)
            for it, logits in zip(items, _infer(net, items))]


def fa_at_ca(records, target_ca: float = 0.96) -> tuple[float, float]:
    """(threshold, FA) at the operating point reaching target CA."""
    scores = [(s, p) for _, s, p, _ in records]
    th = kws.threshold_at_ca(scores, target_ca)
    report = kws.evaluate(scores, th)
    return th, report.fa


# ---------------------------------------------------------------------------
# Desk-scale KWS model-compression experiment: large CTC teacher vs a small
# student trained on hard CTC labels vs the same student distilled from the
# teacher, all compared by FA at the 96%-CA operating point.

def hard_kws_task(seed: int) -> SynthTaskSpec:
    """Task variant with near-keyword fillers and heavier jitter/noise, hard
    enough that model capacity and supervision quality show up in FA."""
    return SynthTaskSpec(
        seed=seed,
        filler_freqs=(
            (700.0, 1900.0),
            (1200.0, 2600.0),
            (500.0, 2250.0),
            (850.0, 1400.0),
            (520.0, 1600.0),   # near-hey
            (980.0, 2300.0),   # near-cortana
        ),
        noise_snr_range=(3.0, 15.0),
        freq_jitter=0.05,
        amp_jitter=0.4,
    )


@dataclass
class KwsCompressionConfig:
    seed: int = 0
    train_count: int = 2000
    test_count: int = 1000
    target_ca: float = 0.96
    out_dir: str | None = None

    def __post_init__(self):
        _check_ints(self, 0, "seed")
        _check_ints(self, 1, "train_count", "test_count")
        kws.check_target_ca(self.target_ca)


def kws_compression_experiment(cfg: KwsCompressionConfig) -> dict:
    """Train teacher/hard-student/distilled-student and report FA at the
    target CA operating point for each.

    Only the distilled student needs the teacher, so the arms run as two
    phases of independent jobs, in parallel when BLAS is pinned to fewer
    threads than there are CPUs (see _blas_workers) and inline otherwise;
    the results are the same either way.
    """
    train_items = synth_items(hard_kws_task(1000 + cfg.seed), cfg.train_count)
    input_dim = train_items[0].feats.shape[1]

    teacher_spec = ModelSpec(
        input_dim=input_dim, layers=KWS_LAYERS, hidden=KWS_TEACHER_HIDDEN,
        projection=0, output_dim=KWS_OUTPUT_DIM, peepholes=False,
    )
    student_spec = ModelSpec(
        input_dim=input_dim, layers=KWS_LAYERS, hidden=KWS_STUDENT_HIDDEN,
        projection=0, output_dim=KWS_OUTPUT_DIM, peepholes=False,
    )

    ctc_cfg = TrainConfig(
        criterion="ctc", learning_rate=KWS_LEARNING_RATE, lr_decay=KWS_LR_DECAY,
        epochs=KWS_TEACHER_EPOCHS, seed=cfg.seed,
    )
    student_ctc_cfg = replace(ctc_cfg, epochs=KWS_STUDENT_EPOCHS, seed=cfg.seed + 50)
    workers = _blas_workers()

    def teacher_arm():
        return train(netcore.init_network(teacher_spec, np.random.default_rng(cfg.seed)),
                     train_items, ctc_cfg)[0]

    def hard_arm():
        test_items = synth_items(hard_kws_task(2000 + cfg.seed), cfg.test_count)
        hard_student, _ = train(
            netcore.init_network(student_spec, np.random.default_rng(cfg.seed + 50)),
            train_items, student_ctc_cfg,
        )
        return test_items, hard_student

    teacher, (test_items, hard_student) = _pmap(_call, [teacher_arm, hard_arm], workers)

    def distilled_arm():
        distilled, _ = distill(teacher, student_spec, train_items, student_ctc_cfg)
        return distilled, score_kws(distilled, test_items)

    # the hard student's scoring waits for this phase, beside the teacher's,
    # so that the first phase's arms take about as long as each other
    (distilled, distilled_records), (teacher_records, hard_records) = _pmap(
        _call, [distilled_arm,
                lambda: (score_kws(teacher, test_items), score_kws(hard_student, test_items))],
        workers)

    nets = {"teacher": teacher, "hard_student": hard_student, "distilled_student": distilled}
    records = {"teacher": teacher_records, "hard_student": hard_records,
               "distilled_student": distilled_records}
    report = {"seed": cfg.seed, "target_ca": cfg.target_ca}
    for name, net in nets.items():
        th, fa = fa_at_ca(records[name], cfg.target_ca)
        report[name] = {"fa": fa, "threshold": th, "params": netcore.param_count(net.spec)}
    if cfg.out_dir is not None:
        _write_report(cfg.out_dir, report, nets, records)
    return report


def _write_report(out_dir: str, report: dict, nets: dict[str, Network],
                  records: dict | None = None) -> None:
    """Save every arm's <arm>.ckpt, and its <arm>.scores when score records
    are given, then the report as report.json."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    for name, net in nets.items():
        netcore.save_checkpoint(net, d / f"{name}.ckpt")
        if records is not None:
            kws.write_scores(d / f"{name}.scores", records[name])
    (d / "report.json").write_text(json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Ablation ladder: ordered single-factor-change experiment chain for the
# adaptation task, and the desk-scale adaptation experiment (close-talk
# teacher vs T/S-adapted students on train_count and train_count +
# extra_count pairs).

@dataclass
class LadderConfig:
    seed: int = 0
    train_count: int = 60
    extra_count: int = 60  # additional pairs for the "more data" stage
    test_count: int = 40
    out_dir: str | None = None

    def __post_init__(self):
        _check_ints(self, 0, "seed", "extra_count")
        _check_ints(self, 1, "train_count", "test_count")


def _am_task_spec(seed: int) -> SynthTaskSpec:
    # AM mode: per-frame classification without blank; unstacked features.
    return SynthTaskSpec(seed=seed, stack_context=1, stack_step=1, positive_ratio=0.5)


def ablation_ladder(cfg: LadderConfig) -> dict:
    """Run the adaptation ladder: hard CE on far-field data, T/S on the same
    data, T/S with more data, T/S with richer simulation.  The report gives
    each stage's far-field FER, in stage order, and that of always predicting
    the commonest training label (majority-class).  The paper's
    sequence-discriminative training stages are out of scope: the ladder
    stops at the teacher-student stages."""
    task = _am_task_spec(cfg.seed)
    far_a = FarFieldConfig(seed=cfg.seed + 1)
    far_rich = FarFieldConfig(
        seed=cfg.seed + 2,
        reflection_range=(0.4, 0.9),
        snr_range=(0.0, 18.0),
        max_order=5,
    )

    total_train = cfg.train_count + cfg.extra_count
    train_pairs = synth_pair_items(task, far_a, total_train)
    test_pairs = synth_pair_items(
        task, FarFieldConfig(seed=cfg.seed + 3), cfg.test_count, start_index=10_000
    )
    rich_pairs = synth_pair_items(task, far_rich, total_train)

    spec = ModelSpec(
        input_dim=train_pairs[0].feats.shape[1],
        layers=1,
        hidden=LADDER_HIDDEN,
        projection=0,
        output_dim=BLANK,  # the task classes, which precede blank
        peepholes=False,
    )
    base_cfg = TrainConfig(
        criterion="hard_ce", learning_rate=LADDER_LEARNING_RATE,
        epochs=LADDER_EPOCHS, seed=cfg.seed,
    )

    # close-talk teacher, trained on the clean side
    clean_items = [replace(it, feats=it.source_feats, source_feats=None)
                   for it in train_pairs]
    teacher = netcore.init_network(spec, np.random.default_rng(cfg.seed))
    teacher, _ = train(teacher, clean_items, replace(base_cfg, epochs=LADDER_TEACHER_EPOCHS))

    # stage -> its model; each stage changes one factor
    nets = {
        # baseline (no adaptation)
        "close-talk": teacher,
        # training data: simulated far-field
        "ce-far": train(netcore.init_network(spec, np.random.default_rng(cfg.seed)),
                        train_pairs[: cfg.train_count], base_cfg)[0],
        # criterion: CE -> T/S
        "ts-same-data": adapt(teacher, train_pairs[: cfg.train_count], base_cfg)[0],
        # unlabeled pairs x2
        "ts-more-data": adapt(teacher, train_pairs, base_cfg)[0],
        # simulation: richer rooms/noise
        "ts-rich-sim": adapt(teacher, rich_pairs, base_cfg)[0],
    }

    majority = np.argmax(np.bincount(np.concatenate([it.frame_labels for it in train_pairs])))
    test_labels = np.concatenate([it.frame_labels for it in test_pairs])
    report = {"seed": cfg.seed,
              **{stage: {"far_fer": frame_error_rate(net, test_pairs)}
                 for stage, net in nets.items()},
              "majority-class": {"far_fer": float(np.mean(test_labels != majority))}}
    if cfg.out_dir is not None:
        _write_report(cfg.out_dir, report, nets)
    return report


# ---------------------------------------------------------------------------
# Multi-seed driver: one experiment, one row of named figures per seed.

@dataclass
class SeedTable:
    metric: str  # what every figure measures
    seeds: list[int]
    rows: list[dict[str, float]]  # one per seed, in the order of seeds
    workers: int  # forked processes that ran the seeds; 1: all in this process

    def medians(self) -> dict[str, float]:
        return {name: float(np.median([row[name] for row in self.rows])) for name in self.rows[0]}

    def format_text(self) -> str:
        cols = [(name, max(len(name), 7)) for name in self.rows[0]]
        lines = [f"{self.metric} per seed", "seed    " + "  ".join(n.rjust(w) for n, w in cols)]
        for label, row in [*zip(map(str, self.seeds), self.rows), ("median", self.medians())]:
            lines.append(f"{label:6}  " + "  ".join(f"{row[n]:{w}.4f}" for n, w in cols))
        return "\n".join(lines)

    def to_json(self) -> str:  # the results only, so the same for any worker count
        return json.dumps({"metric": self.metric, "seeds": self.seeds, "rows": self.rows,
                           "medians": self.medians()}, indent=2)


# config type -> (metric, experiment, the key of each arm's figure in its report)
_EXPERIMENTS = {
    KwsCompressionConfig: ("FA at the target CA", kws_compression_experiment, "fa"),
    LadderConfig: ("far-field FER", ablation_ladder, "far_fer"),
}


def run_seeds(cfg: KwsCompressionConfig | LadderConfig, seeds,
              out_dir: str | Path | None = None) -> SeedTable:
    """Run cfg's experiment once per seed; with out_dir, seed N writes its
    files to out_dir/seed<N> and the table goes to out_dir/summary.json.
    Seeds run as _pmap jobs, so an experiment in a worker runs its own jobs
    inline; a single seed forks its arms as a direct call does."""
    seeds = list(seeds)
    if not seeds or len(set(seeds)) < len(seeds):  # two runs would share seed<N>/
        raise PipelineError(f"seeds must be a non-empty list without repeats, got {seeds}")
    metric, experiment, key = _EXPERIMENTS[type(cfg)]
    configs = [replace(cfg, seed=s, out_dir=None if out_dir is None else
                       str(Path(out_dir) / f"seed{s}")) for s in seeds]
    workers = min(_blas_workers(), len(seeds))
    # a report maps each arm to the dict of its figures
    rows = _pmap(lambda c: {arm: v[key] for arm, v in experiment(c).items()
                            if isinstance(v, dict)}, configs, workers)
    table = SeedTable(metric, seeds, rows, workers)
    if out_dir is not None:  # the experiments have made it
        (Path(out_dir) / "summary.json").write_text(table.to_json() + "\n")
    return table
