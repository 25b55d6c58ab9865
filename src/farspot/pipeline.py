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

import hashlib
import json
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import criteria, featkit, kws, netcore, simkit
from .featkit import FbankConfig, FeatureSequence
from .netcore import ModelSpec, Network
from .simkit import RoomSpec, Waveform


class PipelineError(ValueError):
    pass


# Output alphabet of the wake-word task.
HEY, CORTANA, SILENCE, GARBAGE, BLANK = 0, 1, 2, 3, 4
KWS_OUTPUT_DIM = 5
KEYWORD_MODEL = kws.KeywordModel(
    keyword_units=(HEY, CORTANA), silence=SILENCE, garbage=GARBAGE, blank=BLANK
)


# ---------------------------------------------------------------------------
# Manifests: line-oriented TSV, one utterance per line.
#
#   id  path  frame_labels  symbols  is_positive  pair_path
#
# frame_labels and symbols are comma-separated ints; "-" marks an absent
# field.  Lines starting with "#" are comments.

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

    def strip_transcripts(self) -> "Manifest":
        """Drop all label fields; distill/adapt must still work on this."""
        return Manifest([replace(r, frame_labels=None, symbols=None) for r in self.records])


def _fmt_ints(xs) -> str:
    return "-" if xs is None else ",".join(str(int(x)) for x in xs)


def _parse_ints(s: str):
    return None if s == "-" else [int(x) for x in s.split(",")]


_FLAGS = {"-": None, "0": False, "1": True}


def write_manifest(path: str | Path, m: Manifest) -> None:
    with open(path, "w") as fh:
        fh.write("# farspot manifest v1: id path frame_labels symbols is_positive pair_path\n")
        for r in m.records:
            pos = "-" if r.is_positive is None else str(int(r.is_positive))
            pair = r.pair_path or "-"
            fh.write(
                f"{r.utt_id}\t{r.path}\t{_fmt_ints(r.frame_labels)}\t"
                f"{_fmt_ints(r.symbols)}\t{pos}\t{pair}\n"
            )


def read_manifest(path: str | Path) -> Manifest:
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
                    path=p,
                    frame_labels=labels,
                    symbols=symbols,
                    is_positive=_FLAGS[pos],
                    pair_path=None if pair == "-" else pair,
                )
            )
    return Manifest(records)


# ---------------------------------------------------------------------------
# Synthetic wake-word task

@dataclass
class SynthTaskSpec:
    """Parametric tone-segment task with ground truth by construction."""

    seed: int = 0
    sample_rate: int = 16000
    hey_freqs: tuple[float, float] = (500.0, 1550.0)
    cortana_freqs: tuple[float, float] = (950.0, 2250.0)
    filler_freqs: tuple[tuple[float, float], ...] = (
        (700.0, 1900.0),
        (1200.0, 2600.0),
        (500.0, 2250.0),  # shares one tone with each keyword unit
        (850.0, 1400.0),
    )
    amplitude: float = 0.25
    amp_jitter: float = 0.3
    freq_jitter: float = 0.02
    segment_dur_range: tuple[float, float] = (0.07, 0.16)
    n_filler_range: tuple[int, int] = (2, 6)
    silence_pad_range: tuple[float, float] = (0.05, 0.15)
    positive_ratio: float = 0.5
    noise_snr_range: tuple[float, float] = (8.0, 20.0)
    n_mels: int = 20
    window_ms: float = 25.0
    hop_ms: float = 10.0
    stack_context: int = 8
    stack_step: int = 3

    def __post_init__(self):
        if self.stack_context < 1 or self.stack_step < 1:
            raise PipelineError("stack_context and stack_step must be >= 1")

    def fbank_config(self) -> FbankConfig:
        return FbankConfig(n_mels=self.n_mels, window_ms=self.window_ms, hop_ms=self.hop_ms)


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


def _tone_segment(freqs, dur, amp, rng, sample_rate):
    n = int(round(dur * sample_rate))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for f in freqs:
        x += np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x *= amp / max(len(freqs), 1)
    ramp = min(int(0.005 * sample_rate), n // 2)
    if ramp > 0:
        env = np.ones(n)
        env[:ramp] = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[-ramp:] = env[:ramp][::-1]
        x *= env
    return x


def _utterance_plan(spec: SynthTaskSpec, rng, is_positive: bool):
    """List of (class, freqs or None) segments for one utterance."""
    n_filler = int(rng.integers(spec.n_filler_range[0], spec.n_filler_range[1] + 1))
    segs = [(GARBAGE, spec.filler_freqs[int(rng.integers(len(spec.filler_freqs)))])
            for _ in range(n_filler)]
    if is_positive:
        at = int(rng.integers(0, n_filler + 1))
        segs[at:at] = [(HEY, spec.hey_freqs), (CORTANA, spec.cortana_freqs)]
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
            dur = rng.uniform(*spec.silence_pad_range)
            seg = np.zeros(int(round(dur * spec.sample_rate)))
        else:
            dur = rng.uniform(*spec.segment_dur_range)
            amp = spec.amplitude * rng.uniform(1 - spec.amp_jitter, 1 + spec.amp_jitter)
            jit = 1.0 + rng.uniform(-spec.freq_jitter, spec.freq_jitter)
            seg = _tone_segment([f * jit for f in freqs], dur, amp, rng, spec.sample_rate)
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
    return Waveform(x, spec.sample_rate), _frame_labels(sample_classes, spec), symbols, is_positive


def _frame_labels(sample_classes: np.ndarray, spec: SynthTaskSpec) -> np.ndarray:
    """Label of each stacked feature frame: the class at the center sample of
    the stacked frame's center analysis frame."""
    win = int(round(spec.window_ms * spec.sample_rate / 1000.0))
    hop = int(round(spec.hop_ms * spec.sample_rate / 1000.0))
    t = (len(sample_classes) - win) // hop + 1
    raw = np.minimum(hop * np.arange(t) + win // 2, len(sample_classes) - 1)
    stacked = np.minimum(spec.stack_step * np.arange(-(-t // spec.stack_step))
                         + spec.stack_context // 2, t - 1)
    return sample_classes[raw[stacked]]


def featurize_waveform(w: Waveform, spec: SynthTaskSpec) -> FeatureSequence:
    return featkit.stack_frames(featkit.log_mel(w, spec.fbank_config()),
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
        duration_sec=len(w) / spec.sample_rate,
    )


def synth_items(spec: SynthTaskSpec, count: int, start_index: int = 0) -> list[TrainItem]:
    """In-memory corpus of clean utterances with features and ground truth."""
    return [_synth_item(spec, i) for i in range(start_index, start_index + count)]


def _pmap(fn, jobs, workers: int):
    """[fn(job) for job in jobs], on up to `workers` forked processes.

    Each job is independent and seeded by its inputs, so results do not
    depend on the worker count.  Worker w runs jobs[w::n] and sends its
    results back over a pipe that this thread reads; no helper thread
    unpickles them.  Forking lets fn and the jobs be closures over large
    arrays, which the workers share copy-on-write instead of receiving
    pickled.  An exception raised by a job is raised here with its own type;
    a worker that dies without a result raises PipelineError.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1:
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
                raise PipelineError(f"_pmap worker {w} died with exit code {p.exitcode} "
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


def _pmap_worker(fn, jobs, conn) -> None:
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = Manifest(_pmap(job_fn, [(*job, out_dir) for job in jobs], workers))
    write_manifest(out_dir / "manifest.tsv", m)
    return m


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
    return _corpus(_synth_corpus_one, [(spec, i) for i in range(count)], out_dir, workers)


def _load_features(path: str, spec: SynthTaskSpec) -> tuple[np.ndarray, float | None]:
    """Features of a feature-archive or WAV path, and the WAV's duration."""
    if path.endswith(".fsfa"):
        return featkit.read_features(path).frames, None
    w = simkit.read_wav(path)
    return featurize_waveform(w, spec).frames, len(w) / spec.sample_rate


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
    return _corpus(_featurize_corpus_one, [(r, spec) for r in m.records], out_dir, workers)


# ---------------------------------------------------------------------------
# Far-field simulation of a synthetic corpus

@dataclass
class FarFieldConfig:
    """Per-utterance random rooms and additive noise for far-field variants."""

    room_dim_low: tuple[float, float, float] = (3.5, 3.0, 2.4)
    room_dim_high: tuple[float, float, float] = (8.0, 6.0, 3.2)
    reflection_range: tuple[float, float] = (0.55, 0.85)
    max_order: int = 4
    ir_length: int = 2048
    snr_range: tuple[float, float] = (5.0, 15.0)
    seed: int = 100

    def sample_room(self, rng, sample_rate: int) -> RoomSpec:
        dims = rng.uniform(self.room_dim_low, self.room_dim_high)
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
            ir_length=self.ir_length,
            sample_rate=sample_rate,
        )


def farfield_waveform(w: Waveform, cfg: FarFieldConfig, index: int) -> Waveform:
    rng = np.random.default_rng([cfg.seed, index])
    room = cfg.sample_room(rng, w.sample_rate)
    noise = Waveform(rng.standard_normal(len(w)) * 0.05, w.sample_rate)
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
    return _corpus(_simulate_corpus_one, [(r, i, far_cfg) for i, r in enumerate(m.records)],
                   out_dir, workers)


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainConfig:
    criterion: str = "hard_ce"  # hard_ce | soft_ce | ts_adapt | ctc
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0
    grad_clip: float = 5.0
    lr_decay: float = 0.85  # per-epoch step decay
    label_delay: int = 0
    soft_weight: float = 1.0
    blank: int = BLANK

    def __post_init__(self):
        if self.criterion not in _CRITERIA:
            raise PipelineError(f"unknown criterion {self.criterion!r}")
        if self.learning_rate < 0:
            raise PipelineError("learning_rate must be non-negative")
        if self.epochs < 1:
            raise PipelineError("epochs must be >= 1")


def _delayed(labels: np.ndarray, delay: int) -> np.ndarray:
    if delay == 0:
        return labels
    t = len(labels)
    idx = np.clip(np.arange(t) - delay, 0, t - 1)
    return labels[idx]


def _padded(seqs: list[np.ndarray], tmax: int, dim: int) -> np.ndarray:
    x = np.zeros((len(seqs), tmax, dim))
    for j, seq in enumerate(seqs):
        x[j, : len(seq)] = seq
    return x


def _per_utterance(loss):
    """Batch-level criterion from a per-utterance one: loss(item, logits
    (T, N), cfg, teacher rows (T, N) or None) -> (loss, dloss/dlogits)."""
    def batch_loss(batch: list[TrainItem], logits, cfg: TrainConfig, teacher_rows):
        grad = np.zeros_like(logits)
        losses = []
        for j, it in enumerate(batch):
            t = it.num_frames
            rows = None if teacher_rows is None else teacher_rows[j, :t]
            loss_j, grad[j, :t] = loss(it, logits[j, :t], cfg, rows)
            losses.append(loss_j)
        return losses, grad
    return batch_loss


@_per_utterance
def _hard_ce(it: TrainItem, logits, cfg: TrainConfig, teacher_rows):
    return criteria.hard_ce_loss(_delayed(np.asarray(it.frame_labels), cfg.label_delay), logits)


@_per_utterance
def _soft_ce(it: TrainItem, logits, cfg: TrainConfig, teacher_rows):
    if cfg.soft_weight < 1.0:
        labels = _delayed(np.asarray(it.frame_labels), cfg.label_delay)
        return criteria.interpolated_ce_loss(it.teacher_rows, labels, logits, cfg.soft_weight)
    return criteria.soft_ce_loss(it.teacher_rows, logits)


@_per_utterance
def _ts_adapt(it: TrainItem, logits, cfg: TrainConfig, teacher_rows):
    return criteria.soft_ce_loss(teacher_rows, logits)


def _ctc(batch: list[TrainItem], logits, cfg: TrainConfig, teacher_rows):
    return criteria.ctc_loss_batch(logits, [it.num_frames for it in batch],
                                   [it.symbols for it in batch], cfg.blank)


class _Criterion(NamedTuple):
    # TrainItem fields (and what they hold) that every training item must carry
    needs: Callable[[TrainConfig], dict[str, str]]
    # (batch, padded logits (B, T, N), cfg, padded teacher rows (B, T, N) or
    # None) -> (per-utterance losses, dloss/dlogits (B, T, N), 0 on padding)
    loss: Callable
    # targets are the posteriors of a teacher network run on source_feats
    uses_teacher: bool = False


_CRITERIA = {
    "hard_ce": _Criterion(lambda cfg: {"frame_labels": "frame labels"}, _hard_ce),
    "soft_ce": _Criterion(
        lambda cfg: {"teacher_rows": "teacher posteriors",
                     **({"frame_labels": "frame labels"} if cfg.soft_weight < 1.0 else {})},
        _soft_ce,
    ),
    "ts_adapt": _Criterion(lambda cfg: {"source_feats": "paired source features"},
                           _ts_adapt, uses_teacher=True),
    "ctc": _Criterion(lambda cfg: {"symbols": "a symbol transcript"}, _ctc),
}


def check_feature_dim(items: list[TrainItem], input_dim: int) -> None:
    """Raise PipelineError unless every item's features, and its paired
    source features if any, are (frames, input_dim) matrices."""
    for it in items:
        for name in ("feats", "source_feats"):
            x = getattr(it, name)
            if x is not None and (x.ndim != 2 or x.shape[1] != input_dim):
                raise PipelineError(f"{it.utt_id}: {name} have shape {x.shape}, "
                                    f"the model takes {input_dim}-dim frames")


def _check_items(items: list[TrainItem], cfg: TrainConfig, input_dim: int) -> None:
    needs = _CRITERIA[cfg.criterion].needs(cfg)
    for it in items:
        for name, what in needs.items():
            if getattr(it, name) is None:
                raise PipelineError(f"{it.utt_id}: {cfg.criterion} needs {what}")
        if "source_feats" in needs and it.source_feats.shape[0] != it.num_frames:
            raise PipelineError(f"{it.utt_id}: paired frame counts differ")
    check_feature_dim(items, input_dim)


def _batches(items: list[TrainItem], batch_size: int):
    """Length-bucketed batches; order fixed by (frame count, utt id)."""
    order = sorted(items, key=lambda it: (it.num_frames, it.utt_id))
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def _batch_loss_and_grad(net: Network, batch: list[TrainItem], cfg: TrainConfig,
                         teacher: Network | None):
    crit = _CRITERIA[cfg.criterion]
    tmax = max(it.num_frames for it in batch)
    d = net.spec.input_dim
    logits, cache = netcore.forward_batch(net, _padded([it.feats for it in batch], tmax, d))
    logits64 = logits.astype(np.float64)

    teacher_rows = None
    if crit.uses_teacher:
        xs = _padded([it.source_feats for it in batch], tmax, d)
        t_logits, _ = netcore.forward_batch(teacher, xs, want_cache=False)
        teacher_rows = netcore.softmax(t_logits.astype(np.float64))

    losses, dlogits = crit.loss(batch, logits64, cfg, teacher_rows)
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
    teacher: Network | None = None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[Network, list[float]]:
    """Mini-batch SGD with momentum; returns the trained network and the
    per-epoch mean per-frame loss."""
    if not items:
        raise PipelineError("empty training set")
    if _CRITERIA[cfg.criterion].uses_teacher and teacher is None:
        raise PipelineError(f"{cfg.criterion} requires a teacher network")
    _check_items(items, cfg, net.spec.input_dim)

    net = net.copy()
    velocity = np.zeros_like(net.parameters, dtype=np.float64)
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
            loss, grad = _batch_loss_and_grad(net, batches[bi], cfg, teacher)
            norm = np.linalg.norm(grad)
            if not (np.isfinite(loss) and np.isfinite(norm)):
                raise PipelineError(
                    f"non-finite loss ({loss}) or gradient norm ({norm}) in epoch {epoch}, "
                    f"batch {bi}: utterances {[it.utt_id for it in batches[bi]]}"
                )
            if norm > cfg.grad_clip:
                grad = grad * (cfg.grad_clip / norm)
            velocity = cfg.momentum * velocity - lr * grad
            net.parameters += velocity.astype(net.parameters.dtype)
            epoch_loss += loss
        log.append(epoch_loss / len(batches))
        if checkpoint_dir is not None:
            netcore.save_checkpoint(net, checkpoint_dir / f"epoch{epoch:03d}.ckpt")
    return net, log


def compute_teacher_posteriors(
    teacher: Network, items: list[TrainItem], cache_dir: str | Path | None = None
) -> list[TrainItem]:
    """Attach (and optionally persist) teacher posteriors to every item.

    A cache file is named by the utterance id and a digest of the teacher
    (spec and parameters) and of the utterance's features, so another teacher
    or changed features miss the cache instead of reading stale rows.
    """
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        teacher_key = hashlib.sha256(json.dumps(teacher.spec.to_dict(), sort_keys=True).encode())
        teacher_key.update(teacher.parameters.dtype.str.encode() + teacher.parameters.tobytes())
    out = []
    for it in items:
        if cache_dir is None:
            rows = netcore.forward(teacher, it.feats).rows
        else:
            key = teacher_key.copy()
            key.update(f"{it.feats.dtype.str}{it.feats.shape}".encode() + it.feats.tobytes())
            p = cache_dir / f"{it.utt_id}.{key.hexdigest()[:16]}.fspc"
            if not p.exists():
                rows = netcore.forward(teacher, it.feats).rows
                criteria.write_posterior_cache(p, it.utt_id, rows)
            # read back even what was just written, so runs with a warm cache
            # are bit-identical to the run that filled it
            _, rows = criteria.read_posterior_cache(p)
        out.append(replace(it, teacher_rows=rows))
    return out


def distill(
    teacher: Network,
    student_spec: ModelSpec,
    items: list[TrainItem],
    cfg: TrainConfig,
    cache_dir: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[Network, list[float]]:
    """Train a fresh student on teacher soft labels; no transcripts needed."""
    if teacher.spec.output_dim != student_spec.output_dim:
        raise PipelineError(
            f"teacher output dim {teacher.spec.output_dim} != "
            f"student output dim {student_spec.output_dim}"
        )
    check_feature_dim(items, teacher.spec.input_dim)
    items = compute_teacher_posteriors(teacher, items, cache_dir)
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

    The student starts as a copy of the teacher and is trained so its
    posteriors on target features track the teacher's on source features.
    """
    cfg = replace(cfg, criterion="ts_adapt")
    student = teacher.copy()
    return train(student, paired_items, cfg, teacher=teacher, checkpoint_dir=checkpoint_dir)


# ---------------------------------------------------------------------------
# Evaluation helpers

def frame_error_rate(net: Network, items: list[TrainItem]) -> float:
    """Fraction of frames whose argmax posterior disagrees with the label."""
    if not items:
        raise PipelineError("frame error rate of no utterances")
    wrong = total = 0
    for it in items:
        if it.frame_labels is None:
            raise PipelineError(f"{it.utt_id}: frame labels required for FER")
        if len(it.frame_labels) != it.num_frames:
            raise PipelineError(f"{it.utt_id}: {len(it.frame_labels)} frame labels "
                                f"for {it.num_frames} frames")
        logits, _ = netcore.forward_batch(net, it.feats[None], want_cache=False)
        pred = np.argmax(logits[0], axis=1)
        wrong += int(np.sum(pred != it.frame_labels))
        total += it.num_frames
    return wrong / total


def score_kws(
    net: Network, items: list[TrainItem], km: kws.KeywordModel = KEYWORD_MODEL
) -> list[tuple[str, float, bool, float | None]]:
    """Confidence score for every utterance, as score-file records."""
    records = []
    for it in items:
        post = netcore.forward(net, it.feats)
        det = kws.spot(post, km)
        records.append((it.utt_id, det.score, bool(it.is_positive), it.duration_sec))
    return records


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
    teacher_layers: int = 2
    teacher_hidden: int = 48
    student_layers: int = 2
    student_hidden: int = 16
    teacher_epochs: int = 6
    student_epochs: int = 8
    learning_rate: float = 0.2
    lr_decay: float = 0.95
    out_dir: str | None = None


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
        input_dim=input_dim, layers=cfg.teacher_layers, hidden=cfg.teacher_hidden,
        projection=0, output_dim=KWS_OUTPUT_DIM, peepholes=False,
    )
    student_spec = ModelSpec(
        input_dim=input_dim, layers=cfg.student_layers, hidden=cfg.student_hidden,
        projection=0, output_dim=KWS_OUTPUT_DIM, peepholes=False,
    )

    ctc_cfg = TrainConfig(
        criterion="ctc", learning_rate=cfg.learning_rate, lr_decay=cfg.lr_decay,
        epochs=cfg.teacher_epochs, seed=cfg.seed,
    )
    student_ctc_cfg = replace(ctc_cfg, epochs=cfg.student_epochs, seed=cfg.seed + 50)
    distill_cfg = replace(student_ctc_cfg, criterion="soft_ce")
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
        return test_items, hard_student, score_kws(hard_student, test_items)

    teacher, (test_items, hard_student, hard_records) = _pmap(
        _call, [teacher_arm, hard_arm], workers)

    def distilled_arm():
        distilled, _ = distill(teacher, student_spec, train_items, distill_cfg)
        return distilled, score_kws(distilled, test_items)

    (distilled, distilled_records), teacher_records = _pmap(
        _call, [distilled_arm, lambda: score_kws(teacher, test_items)], workers)

    out = {"seed": cfg.seed, "target_ca": cfg.target_ca}
    for name, net, records in (("teacher", teacher, teacher_records),
                               ("hard_student", hard_student, hard_records),
                               ("distilled_student", distilled, distilled_records)):
        th, fa = fa_at_ca(records, cfg.target_ca)
        out[name] = {
            "fa": fa, "threshold": th,
            "params": netcore.param_count(net.spec),
        }
        if cfg.out_dir is not None:
            d = Path(cfg.out_dir)
            d.mkdir(parents=True, exist_ok=True)
            netcore.save_checkpoint(net, d / f"{name}.ckpt")
            kws.write_scores(d / f"{name}.scores", records)
    if cfg.out_dir is not None:
        (Path(cfg.out_dir) / "report.json").write_text(json.dumps(out, indent=2) + "\n")
    return out


# ---------------------------------------------------------------------------
# Ablation ladder: ordered single-factor-change experiment chain for the
# adaptation task, and the desk-scale adaptation experiment (close-talk
# teacher vs T/S-adapted students on train_count and train_count +
# extra_count pairs).  Sequence-discriminative stages are out of scope and
# the report says so.

@dataclass
class LadderConfig:
    seed: int = 0
    train_count: int = 60
    extra_count: int = 60  # additional pairs for the "more data" stage
    test_count: int = 40
    epochs: int = 4
    teacher_epochs: int = 6
    learning_rate: float = 0.08
    hidden: int = 32
    layers: int = 1
    output_dim: int = 4  # wake-word task classes without blank (AM mode)
    out_dir: str | None = None


@dataclass
class LadderRow:
    stage: str
    changed_factor: str
    far_fer: float
    seed: int
    checkpoint: str | None


@dataclass
class LadderReport:
    rows: list[LadderRow]
    majority_fer: float  # far-FER of always predicting the commonest training label
    note: str

    def format_text(self) -> str:
        width = max(len(r.stage) for r in self.rows)
        lines = [f"{'stage'.ljust(width)}  changed-factor            far-FER  seed"]
        for r in self.rows:
            lines.append(
                f"{r.stage.ljust(width)}  {r.changed_factor.ljust(24)}  "
                f"{r.far_fer:7.4f}  {r.seed}"
            )
        lines.append(f"majority-class baseline far-FER: {self.majority_fer:.4f}")
        lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"rows": [asdict(r) for r in self.rows], "majority_fer": self.majority_fer,
             "note": self.note},
            indent=2,
        )


def _am_task_spec(seed: int) -> SynthTaskSpec:
    # AM mode: per-frame classification without blank; unstacked features.
    return SynthTaskSpec(seed=seed, stack_context=1, stack_step=1, positive_ratio=0.5)


def ablation_ladder(cfg: LadderConfig) -> LadderReport:
    """Run the adaptation ladder: hard CE on far-field data, T/S on the same
    data, T/S with more data, T/S with richer simulation."""
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
        layers=cfg.layers,
        hidden=cfg.hidden,
        projection=0,
        output_dim=cfg.output_dim,
        peepholes=False,
    )
    base_cfg = TrainConfig(
        criterion="hard_ce", learning_rate=cfg.learning_rate,
        epochs=cfg.epochs, seed=cfg.seed,
    )

    # close-talk teacher, trained on the clean side
    clean_items = [replace(it, feats=it.source_feats, source_feats=None)
                   for it in train_pairs]
    teacher = netcore.init_network(spec, np.random.default_rng(cfg.seed))
    teacher, _ = train(teacher, clean_items, replace(base_cfg, epochs=cfg.teacher_epochs))

    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def ckpt(name: str, net: Network) -> str | None:
        if out_dir is None:
            return None
        p = out_dir / f"{name}.ckpt"
        netcore.save_checkpoint(net, p)
        return str(p)

    rows = [
        LadderRow("close-talk", "baseline (no adaptation)",
                  frame_error_rate(teacher, test_pairs), cfg.seed, ckpt("close-talk", teacher))
    ]

    ce_far, _ = train(
        netcore.init_network(spec, np.random.default_rng(cfg.seed)),
        train_pairs[: cfg.train_count], base_cfg,
    )
    rows.append(LadderRow("ce-far", "training data: simulated far-field",
                          frame_error_rate(ce_far, test_pairs), cfg.seed, ckpt("ce-far", ce_far)))

    ts_same, _ = adapt(teacher, train_pairs[: cfg.train_count], base_cfg)
    rows.append(LadderRow("ts-same-data", "criterion: CE -> T/S",
                          frame_error_rate(ts_same, test_pairs), cfg.seed,
                          ckpt("ts-same-data", ts_same)))

    ts_more, _ = adapt(teacher, train_pairs, base_cfg)
    rows.append(LadderRow("ts-more-data", "unlabeled pairs x2",
                          frame_error_rate(ts_more, test_pairs), cfg.seed,
                          ckpt("ts-more-data", ts_more)))

    ts_rich, _ = adapt(teacher, rich_pairs, base_cfg)
    rows.append(LadderRow("ts-rich-sim", "simulation: richer rooms/noise",
                          frame_error_rate(ts_rich, test_pairs), cfg.seed,
                          ckpt("ts-rich-sim", ts_rich)))

    majority = np.argmax(np.bincount(np.concatenate([it.frame_labels for it in train_pairs])))
    test_labels = np.concatenate([it.frame_labels for it in test_pairs])
    report = LadderReport(
        rows=rows,
        majority_fer=float(np.mean(test_labels != majority)),
        note="sequence-discriminative training stages are out of scope; "
             "the ladder stops at the teacher-student stages",
    )
    if out_dir is not None:
        (out_dir / "ladder.txt").write_text(report.format_text() + "\n")
        (out_dir / "ladder.json").write_text(report.to_json() + "\n")
    return report
