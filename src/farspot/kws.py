"""CTC keyword spotting: segment localization, confidence scoring, CA/FA.

The decoder walks a left-to-right token graph over the posteriorgram:

    filler*  blank*  unit_1  blank*  unit_2 ... unit_K  blank*  filler*

where filler frames score max(silence, garbage) and every state self-loops.
A direct unit_j -> unit_{j+1} transition is allowed when the units differ
(CTC collapse rule); identical consecutive units must pass through a blank.
The keyword segment [m, n] spans the first unit_1 frame through the last
unit_K frame of the best path.  Ties prefer the earliest, then shortest,
segment.

Confidence is the geometric mean of the per-unit peak posteriors inside the
segment (for two units: sqrt(p_hey_peak * p_cortana_peak)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .netcore import Posteriorgram


class KwsError(ValueError):
    pass


@dataclass(frozen=True)
class KeywordModel:
    """Output-alphabet roles for the spotter."""

    keyword_units: tuple[int, ...] = (0, 1)
    silence: int = 2
    garbage: int = 3
    blank: int = 4

    def __post_init__(self):
        idx = list(self.keyword_units) + [self.silence, self.garbage, self.blank]
        if len(set(idx)) != len(idx):
            raise KwsError("keyword/silence/garbage/blank indices must be distinct")
        if not self.keyword_units:
            raise KwsError("at least one keyword unit is required")


@dataclass
class KeywordDetection:
    score: float
    segment: tuple[int, int]
    peak_frames: tuple[int, ...]
    peak_posteriors: tuple[float, ...]

    def __post_init__(self):
        m, n = self.segment
        if not all(m <= f <= n for f in self.peak_frames):
            raise KwsError("peak frames must lie inside the segment")
        if not 0.0 <= self.score <= 1.0 + 1e-12:
            raise KwsError("confidence score must be in [0, 1]")


def _states(km: KeywordModel):
    """(emission label per state, allowed predecessor lists, starts, ends).

    State order: PRE, B0, U1, B1, U2, ..., UK, BK, POST.  Emission label -1
    means filler (max of silence/garbage).
    """
    units = km.keyword_units
    k = len(units)
    labels = [-1, km.blank]
    for j, u in enumerate(units):
        labels.append(u)
        labels.append(km.blank)
    labels.append(-1)
    n_states = len(labels)  # 2k + 3
    pre, post = 0, n_states - 1

    def unit_state(j):  # 0-based unit index
        return 2 + 2 * j

    def blank_state(j):  # blank after unit j; blank before unit 0 is state 1
        return 3 + 2 * j

    preds = [[] for _ in range(n_states)]
    for s in range(n_states):
        preds[s].append(s)
    preds[1].append(pre)                      # PRE -> B0
    preds[unit_state(0)].extend([pre, 1])     # PRE/B0 -> U1
    for j in range(k):
        preds[blank_state(j)].append(unit_state(j))
        if j + 1 < k:
            preds[unit_state(j + 1)].append(blank_state(j))
            if units[j + 1] != units[j]:
                preds[unit_state(j + 1)].append(unit_state(j))
    preds[post].append(blank_state(k - 1))
    preds[post].append(unit_state(k - 1))

    starts = [pre, 1, unit_state(0)]
    ends = [unit_state(k - 1), blank_state(k - 1), post]
    return labels, preds, starts, ends, unit_state(0), unit_state(k - 1)


def viterbi_locate(post: Posteriorgram, km: KeywordModel) -> tuple[int, int]:
    """Best keyword segment [m, n] under the decoding topology."""
    rows = post.rows
    t, n_lab = rows.shape
    if t == 0:
        raise KwsError("empty posteriorgram")
    needed = max(max(km.keyword_units), km.silence, km.garbage, km.blank)
    if n_lab <= needed:
        raise KwsError(f"posteriorgram has {n_lab} labels, model needs index {needed}")

    labels, preds, starts, ends, u_first, u_last = _states(km)
    n_states = len(labels)

    logp = np.log(np.maximum(rows, 1e-300))
    filler = np.maximum(logp[:, km.silence], logp[:, km.garbage])
    # emit[ti][s]: log emission of state s at frame ti, as Python floats, so
    # the DP below runs on floats and ints instead of numpy scalars
    emit = np.column_stack([filler if lab == -1 else logp[:, lab] for lab in labels]).tolist()

    neg = -math.inf
    unset = int(np.iinfo(np.int64).max)
    # DP cell: (score, m, last_kw); the best cell maximizes score, then
    # minimizes m, then minimizes last_kw.  Scores are float sums along each
    # path, so paths whose real-valued scores tie (or nearly tie) are ordered
    # by rounding, not by (m, last_kw): this is not the exact (score, -m, -n)
    # order of the exhaustive search with exact sums in
    # tests/helpers.py:viterbi_oracle(..., exact=True).
    score = [neg] * n_states
    seg_m = [unset] * n_states
    seg_n = [unset] * n_states
    for s in starts:
        score[s] = emit[0][s]
        seg_m[s] = 0 if s == u_first else unset
        seg_n[s] = 0 if s == u_last else unset

    for ti in range(1, t):
        new_score = [neg] * n_states
        new_m = [unset] * n_states
        new_n = [unset] * n_states
        for s in range(n_states):
            best = None
            for p in preds[s]:
                if score[p] == neg:
                    continue
                cand = (score[p], -seg_m[p], -seg_n[p])
                if best is None or cand > best:
                    best = cand
                    best_p = p
            if best is None:
                continue
            new_score[s] = score[best_p] + emit[ti][s]
            m_val, n_val = seg_m[best_p], seg_n[best_p]
            if s == u_first and m_val == unset:
                m_val = ti
            if s == u_last:
                n_val = ti
            new_m[s], new_n[s] = m_val, n_val
        score, seg_m, seg_n = new_score, new_m, new_n

    best = None
    for s in ends:
        if score[s] == neg:
            continue
        cand = (score[s], -seg_m[s], -seg_n[s])
        if best is None or cand > best:
            best = cand
            best_s = s
    if best is None:
        raise KwsError(f"no feasible keyword path in {t} frames")
    return seg_m[best_s], seg_n[best_s]


def confidence_score(
    post: Posteriorgram, segment: tuple[int, int], km: KeywordModel
) -> KeywordDetection:
    """Geometric mean of per-unit peak posteriors over the segment."""
    m, n = segment
    t = post.num_frames
    if not 0 <= m <= n < t:
        raise KwsError(f"segment [{m}, {n}] invalid for {t} frames")
    rows = post.rows
    frames = []
    peaks = []
    for u in km.keyword_units:
        rel = int(np.argmax(rows[m : n + 1, u]))  # argmax ties -> earliest frame
        frames.append(m + rel)
        peaks.append(float(rows[m + rel, u]))
    score = float(np.prod(peaks) ** (1.0 / len(peaks)))
    return KeywordDetection(
        score=score,
        segment=(m, n),
        peak_frames=tuple(frames),
        peak_posteriors=tuple(peaks),
    )


def spot(post: Posteriorgram, km: KeywordModel) -> KeywordDetection:
    """Locate the best segment and score it."""
    return confidence_score(post, viterbi_locate(post, km), km)


def decide(d: KeywordDetection, threshold: float) -> bool:
    """Accept iff the confidence score reaches the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise KwsError("threshold must be in [0, 1]")
    return d.score >= threshold


# ---------------------------------------------------------------------------
# CA/FA evaluation

@dataclass
class EvalReport:
    threshold: float
    ca: float
    fa: float
    accepted_positives: int
    accepted_negatives: int
    total_positives: int
    total_negatives: int
    fa_per_hour: float | None = None
    roc: list[tuple[float, float, float]] = field(default_factory=list)

    def format_text(self) -> str:
        lines = [
            f"threshold        {self.threshold:.6f}",
            f"CA               {self.ca:.4f} ({self.accepted_positives}/{self.total_positives})",
            f"FA               {self.fa:.4f} ({self.accepted_negatives}/{self.total_negatives})",
        ]
        if self.fa_per_hour is not None:
            lines.append(f"FA per hour      {self.fa_per_hour:.4f}")
        if self.roc:
            lines.append("ROC (threshold CA FA):")
            for th, ca, fa in self.roc:
                lines.append(f"  {th:.6f} {ca:.4f} {fa:.4f}")
        return "\n".join(lines)


def evaluate(
    scores: list[tuple[float, bool]],
    threshold: float,
    durations_hours: list[float] | None = None,
    with_roc: bool = False,
) -> EvalReport:
    """Exact CA/FA counts at one threshold (accept iff score >= threshold)."""
    pos = [s for s, is_pos in scores if is_pos]
    neg = [s for s, is_pos in scores if not is_pos]
    if not pos or not neg:
        raise KwsError("evaluation needs both positive and negative utterances")
    ap = sum(1 for s in pos if s >= threshold)
    an = sum(1 for s in neg if s >= threshold)
    fa_per_hour = None
    if durations_hours is not None:
        neg_hours = sum(d for (_, is_pos), d in zip(scores, durations_hours) if not is_pos)
        if neg_hours > 0:
            fa_per_hour = an / neg_hours
    roc = []
    if with_roc:
        # counts of scores >= th: one sort per class, then a binary search
        ths = sorted({s for s, _ in scores} | {0.0, 1.0})
        below_p = np.searchsorted(np.sort(np.asarray(pos, dtype=np.float64)), ths, side="left")
        below_n = np.searchsorted(np.sort(np.asarray(neg, dtype=np.float64)), ths, side="left")
        roc = [(th, (len(pos) - int(bp)) / len(pos), (len(neg) - int(bn)) / len(neg))
               for th, bp, bn in zip(ths, below_p, below_n)]
    return EvalReport(
        threshold=threshold,
        ca=ap / len(pos),
        fa=an / len(neg),
        accepted_positives=ap,
        accepted_negatives=an,
        total_positives=len(pos),
        total_negatives=len(neg),
        fa_per_hour=fa_per_hour,
        roc=roc,
    )


def threshold_at_ca(scores: list[tuple[float, bool]], target_ca: float = 0.96) -> float:
    """Largest threshold whose CA still reaches target_ca."""
    pos = sorted((s for s, is_pos in scores if is_pos), reverse=True)
    if not pos:
        raise KwsError("no positive utterances in score list")
    k = int(np.ceil(target_ca * len(pos)))
    k = max(k, 1)
    return pos[k - 1]


# ---------------------------------------------------------------------------
# Score files: one utterance per line, "id score is_positive duration_sec",
# duration "-" when unknown.

def write_scores(path: str | Path, records: list[tuple[str, float, bool, float | None]]) -> None:
    with open(path, "w") as fh:
        for utt_id, score, is_pos, dur in records:
            dur_s = "-" if dur is None else f"{dur:.3f}"
            fh.write(f"{utt_id}\t{score:.8f}\t{int(is_pos)}\t{dur_s}\n")


def read_scores(path: str | Path) -> list[tuple[str, float, bool, float | None]]:
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise KwsError(f"{path}:{ln}: expected 4 tab-separated fields")
            utt_id, score_s, pos_s, dur_s = parts
            if pos_s not in ("0", "1"):
                raise KwsError(f"{path}:{ln}: label must be 0 or 1, got {pos_s!r}")
            try:
                score = float(score_s)
                dur = None if dur_s == "-" else float(dur_s)
            except ValueError as e:
                raise KwsError(f"{path}:{ln}: bad number ({e})") from e
            if not (np.isfinite(score) and (dur is None or np.isfinite(dur))):
                raise KwsError(f"{path}:{ln}: non-finite score or duration")
            out.append((utt_id, score, pos_s == "1", dur))
    return out
