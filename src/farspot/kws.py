"""CTC keyword spotting: segment localization, confidence scoring, CA/FA.

The decoder walks one fixed left-to-right token graph over the posteriorgram,
for a keyword of two distinct units (HEY, CORTANA):

    filler*  blank*  U1  blank*  U2  blank*  filler*

where filler frames score max(silence, garbage) and every state self-loops.
U1 may pass to U2 directly or through blanks, so every input of two or more
frames has a path.  The keyword segment [m, n] spans the first U1 frame
through the last U2 frame of the best path.  The Viterbi DP holds one
(score, -m, -n) cell per state, so of equal scores it prefers the earliest,
then shortest, segment.

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


def check_decodable(frames: int, labels: int, km: KeywordModel) -> None:
    """Raise KwsError unless a posteriorgram of this many frames and labels
    has a keyword path: every input of 2 or more frames has one (U1 U2)."""
    if frames < 2:
        raise KwsError(f"{frames} frames, fewer than the 2 a keyword path needs")
    needed = max(*km.keyword_units, km.silence, km.garbage, km.blank)
    if labels <= needed:
        raise KwsError(f"posteriorgram has {labels} labels, model needs index {needed}")


def viterbi_locate(post: Posteriorgram, km: KeywordModel) -> tuple[int, int]:
    """Best keyword segment [m, n] under the decoding topology."""
    rows = post.rows
    check_decodable(*rows.shape, km)
    logp = np.log(np.maximum(rows, 1e-300))
    filler = np.maximum(logp[:, km.silence], logp[:, km.garbage])
    # emit[ti]: log emissions of filler, blank, U1 and U2 at frame ti, as
    # Python floats, so the DP below runs on floats and ints, not numpy scalars
    emit = np.column_stack([filler, logp[:, [km.blank, *km.keyword_units]]]).tolist()

    # One cell (score, -m, -n) per state pre, b0, u1, b1, u2, b2, fin (b is
    # a blank, pre and fin filler): the best path ending there, with m its
    # first U1 frame and n its last U2 frame; -inf marks an unreachable state
    # or an unset m or n.  max() picks the highest score, then the earliest
    # m, then the earliest n; of equal cells it keeps the first, the state
    # itself.
    # Scores are float sums along each path, so paths whose real-valued scores
    # tie (or nearly tie) are ordered by rounding, not by (m, n): this is not
    # the exact (score, -m, -n) order of the exhaustive search with exact sums
    # in tests/helpers.py:viterbi_oracle(..., exact=True).
    neg = -math.inf
    f, b, e1, _ = emit[0]
    pre, b0, u1 = (f, neg, neg), (b, neg, neg), (e1, 0, neg)
    b1 = u2 = b2 = fin = (neg, neg, neg)
    # each frame updates the states last to first, so each reads the cells of
    # the frame before
    for ti in range(1, len(emit)):
        f, b, e1, e2 = emit[ti]
        s, nm, nn = max(fin, b2, u2)
        fin = (s + f, nm, nn)
        s, nm, nn = max(b2, u2)
        b2 = (s + b, nm, nn)
        s, nm, _ = max(u2, b1, u1)
        u2 = (s + e2, nm, -ti)
        s, nm, nn = max(b1, u1)
        b1 = (s + b, nm, nn)
        s, nm, nn = max(u1, pre, b0)
        u1 = (s + e1, -ti if nm == neg else nm, nn)
        s, nm, nn = max(b0, pre)
        b0 = (s + b, nm, nn)
        pre = (pre[0] + f, neg, neg)
    _, nm, nn = max(u2, b2, fin)
    return -nm, -nn


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
