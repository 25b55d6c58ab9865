"""CTC keyword spotting: segment localization, confidence scoring, CA/FA.

The decoder walks one fixed left-to-right token graph over the posteriorgram,
for a keyword of two distinct units (HEY, CORTANA):

    filler*  blank*  U1  blank*  U2  blank*  filler*

where filler frames score max(silence, garbage) and every state self-loops.
U1 may pass to U2 directly or through blanks.  The keyword segment [m, n]
spans the first U1 frame through the last U2 frame of the best path.  Ties
prefer the earliest, then shortest, segment.

Confidence is the geometric mean of the per-unit peak posteriors inside the
segment: sqrt(p_hey_peak * p_cortana_peak).
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
        if len(self.keyword_units) != 2:
            raise KwsError(f"exactly two keyword units are required, got {self.keyword_units}")


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


# The decoding graph: states PRE, B0, U1, B1, U2, B2, POST, where B is a blank
# and PRE/POST are filler.  Each state's predecessors list the state itself
# first; their order breaks score ties.
_PREDS = ((0,), (1, 0), (2, 0, 1), (3, 2), (4, 3, 2), (5, 4), (6, 5, 4))
_STARTS = (0, 1, 2)
_ENDS = (4, 5, 6)
_U_FIRST, _U_LAST = 2, 4


def viterbi_locate(post: Posteriorgram, km: KeywordModel) -> tuple[int, int]:
    """Best keyword segment [m, n] under the decoding topology."""
    rows = post.rows
    t, n_lab = rows.shape
    if t == 0:
        raise KwsError("empty posteriorgram")
    needed = max(max(km.keyword_units), km.silence, km.garbage, km.blank)
    if n_lab <= needed:
        raise KwsError(f"posteriorgram has {n_lab} labels, model needs index {needed}")

    u1, u2 = km.keyword_units
    labels = (-1, km.blank, u1, km.blank, u2, km.blank, -1)  # -1: filler
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
    for s in _STARTS:
        score[s] = emit[0][s]
        seg_m[s] = 0 if s == _U_FIRST else unset
        seg_n[s] = 0 if s == _U_LAST else unset

    for ti in range(1, t):
        new_score = [neg] * n_states
        new_m = [unset] * n_states
        new_n = [unset] * n_states
        for s in range(n_states):
            best = None
            for p in _PREDS[s]:
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
            if s == _U_FIRST and m_val == unset:
                m_val = ti
            if s == _U_LAST:
                n_val = ti
            new_m[s], new_n[s] = m_val, n_val
        score, seg_m, seg_n = new_score, new_m, new_n

    best = None
    for s in _ENDS:
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


def check_decision_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise KwsError(f"threshold must be in [0, 1], got {threshold}")


def decide(d: KeywordDetection, threshold: float) -> bool:
    """Accept iff the confidence score reaches the threshold."""
    check_decision_threshold(threshold)
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
        return "\n".join(lines)


def check_target_ca(target_ca: float) -> None:
    if not 0.0 < target_ca <= 1.0:  # also rejects NaN
        raise KwsError(f"target CA must be in (0, 1], got {target_ca}")


def check_threshold(threshold: float) -> None:
    if not math.isfinite(threshold):
        raise KwsError(f"threshold must be finite, got {threshold}")


def evaluate(
    scores: list[tuple[float, bool]],
    threshold: float,
    durations_hours: list[float] | None = None,
    with_roc: bool = False,
) -> EvalReport:
    """Exact CA/FA counts at one threshold (accept iff score >= threshold)."""
    check_threshold(threshold)
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
    check_target_ca(target_ca)
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
            if dur is not None and dur < 0:
                raise KwsError(f"{path}:{ln}: negative duration {dur_s}")
            out.append((utt_id, score, pos_s == "1", dur))
    return out
