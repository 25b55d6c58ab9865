"""Training criteria over a zero-padded batch: each returns the per-utterance
losses (B,) and the gradient w.r.t. the logits (B, T, N), 0 on padding; its
one-utterance form returns (scalar loss, gradient (T, N)).

Covered losses:
    * soft-label cross entropy against teacher posteriors (distillation);
      hard-label frame cross entropy is the same arithmetic on one-hot rows
    * CTC over blank-augmented alignments, in log space, by one recursion
"""

from __future__ import annotations

import numpy as np

from .netcore import NetworkError, Posteriorgram, log_softmax, softmax


class CriterionError(ValueError):
    pass


def check_frame_labels(labels, frames: int, n: int) -> np.ndarray:
    """Int64 labels, one per frame, each a whole number in [0, n)."""
    labels = np.asarray(labels)
    if labels.shape != (frames,):
        raise CriterionError(f"{len(labels) if labels.ndim == 1 else labels.shape} frame labels "
                             f"for {frames} frames")
    if not np.all(np.isfinite(labels) & (np.round(labels) == labels)):
        raise CriterionError("frame labels are not all integers")
    if not np.all((labels >= 0) & (labels < n)):
        raise CriterionError(f"frame labels outside [0, {n})")
    return labels.astype(np.int64)


def check_teacher_rows(rows, frames: int, n: int) -> np.ndarray:
    """Float64 rows (frames, n), each a distribution: a netcore.Posteriorgram."""
    if np.shape(rows)[1:] != (n,):
        raise CriterionError(f"teacher posteriors have shape {np.shape(rows)}, "
                             f"the model has {n} outputs")
    if len(rows) != frames:
        raise CriterionError(f"{len(rows)} teacher posteriors for {frames} frames")
    try:
        return Posteriorgram(rows).rows
    except NetworkError as e:
        raise CriterionError(f"teacher posteriors: {e}") from e


def check_transcript(symbols, frames: int, n: int, blank: int) -> list[int]:
    """The symbols as ints: a CTC transcript of `frames` frames over n outputs."""
    s = np.asarray(symbols)
    whole = s.ndim == 1 and np.all(np.isfinite(s) & (np.round(s) == s))
    labels = [int(x) for x in s] if whole else []
    if not (whole and 0 <= blank < n and all(0 <= x < n and x != blank for x in labels)
            and ctc_min_frames(labels) <= frames):
        raise CriterionError(f"symbols {symbols} are no CTC transcript of {frames} frames "
                             f"for {n} outputs, blank {blank}")
    return labels


def _check_batch(logits, lengths, targets) -> tuple[np.ndarray, np.ndarray]:
    """float64 logits (B, T, N) and int64 lengths (B,), integers in [1, T]."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise CriterionError(f"logits must be (B, T, N), got shape {logits.shape}")
    b, t, _ = logits.shape
    lengths = np.asarray(lengths)
    if lengths.shape != (b,) or len(targets) != b:
        raise CriterionError(f"need one length and one target per utterance ({b})")
    if lengths.dtype.kind not in "iu":
        raise CriterionError(f"utterance lengths {lengths.tolist()} are not integers")
    lengths = lengths.astype(np.int64)
    if np.any(lengths < 1) or np.any(lengths > t):
        raise CriterionError(f"utterance lengths {lengths.tolist()} outside [1, {t}]")
    return logits, lengths


def soft_ce_loss(teacher: np.ndarray, student_logits: np.ndarray):
    """The one-utterance batch of soft_ce_loss_batch: logits and teacher (T, N)."""
    logits = np.asarray(student_logits, dtype=np.float64)
    losses, grad = soft_ce_loss_batch(logits[None], [len(logits)], [teacher])
    return float(losses[0]), grad[0]


def soft_ce_loss_batch(logits: np.ndarray, lengths, teacher_rows):
    """Cross entropy with teacher soft labels over a zero-padded batch:
    utterance j is logits[j, :lengths[j]] with teacher_rows[j] (posterior
    rows, one per frame); the gradient is softmax - teacher.  Minimizing it
    minimizes the teacher/student KL divergence: the teacher entropy is
    constant in the student."""
    return _ce_batch(logits, lengths, teacher_rows, check_teacher_rows)


def hard_ce_loss(labels, student_logits: np.ndarray):
    """The one-utterance batch of hard_ce_loss_batch: logits (T, N), T labels."""
    logits = np.asarray(student_logits, dtype=np.float64)
    losses, grad = hard_ce_loss_batch(logits[None], [len(logits)], [labels])
    return float(losses[0]), grad[0]


def hard_ce_loss_batch(logits: np.ndarray, lengths, label_lists):
    """Frame cross entropy with integer labels, one per frame: soft CE against
    one-hot rows, whose gradient is softmax - 0.0, and softmax - 1.0 at the label."""
    return _ce_batch(logits, lengths, label_lists,
                     lambda labels, tb, n: np.eye(n)[check_frame_labels(labels, tb, n)])


def _ce_batch(logits, lengths, targets, rows_of):
    """Both CE criteria: utterance j's rows are rows_of(targets[j], lengths[j], N)."""
    logits, lengths = _check_batch(logits, lengths, targets)
    _, t, n = logits.shape
    target = np.zeros_like(logits)
    for j, (tb, x) in enumerate(zip(lengths, targets)):
        target[j, :tb] = rows_of(x, tb, n)
    logp = log_softmax(logits)
    losses = np.array([-np.sum(target[j, :tb] * logp[j, :tb]) for j, tb in enumerate(lengths)])
    grad = softmax(logits) - target
    grad[np.arange(t) >= lengths[:, None]] = 0.0
    return losses, grad


# ---------------------------------------------------------------------------
# CTC

def _logsumexp2(a, b):
    """log(exp(a) + exp(b)), -inf where both are; the caller silences the
    log(0) of those entries with np.errstate."""
    m = np.maximum(a, b)
    zero = m == -np.inf
    safe = np.where(zero, 0.0, m)
    out = safe + np.log(np.exp(a - safe) + np.exp(b - safe))
    return np.where(zero, -np.inf, out)


def ctc_min_frames(labels) -> int:
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def ctc_loss(logits: np.ndarray, labels, blank: int):
    """Negative log probability of the label string under CTC, plus the
    gradient w.r.t. logits (T, N): the one-utterance batch of ctc_loss_batch."""
    logits = np.asarray(logits, dtype=np.float64)
    losses, grad = ctc_loss_batch(logits[None], [len(logits)], [labels], blank)
    return float(losses[0]), grad[0]


def ctc_loss_batch(logits: np.ndarray, lengths, label_lists, blank: int):
    """CTC over a zero-padded batch, via log-space forward-backward (Graves
    et al., ICML 2006).

    Utterance j is logits[j, :lengths[j]] with label string label_lists[j].
    Returns the per-utterance losses (B,) and the gradient w.r.t. logits
    (B, T, N), which is 0 on padded frames.  One recursion runs once per
    frame over 2B rows of padded (T, S) lattices of blank-augmented label
    strings: the B lattices, then each flipped in frames and states, whose
    alpha read back flipped is beta.  A row starts in its first two real
    states at its first real frame; padded states and frames keep log
    probability -inf, so every row equals its utterance run alone, bit for bit.
    """
    logits, lengths = _check_batch(logits, lengths, label_lists)
    b, t, n = logits.shape
    label_lists = [check_transcript(x, tb, n, blank) for tb, x in zip(lengths, label_lists)]

    # blank-augmented label strings, padded with blanks to the longest
    s_len = np.array([2 * len(labels) + 1 for labels in label_lists])
    s = int(s_len.max())
    ext = np.full((b, s), blank)
    for j, labels in enumerate(label_lists):
        ext[j, 1 : 2 * len(labels) : 2] = labels
    valid = np.arange(s) < s_len[:, None]
    logp = log_softmax(logits)
    emit = np.take_along_axis(logp, ext[:, None, :], axis=2)  # (B, T, S)

    ext2 = np.concatenate([ext, ext[:, ::-1]])
    emit2 = np.concatenate([emit, emit[:, ::-1, ::-1]])
    real = np.concatenate([valid, valid[:, ::-1]])
    first = np.concatenate([np.zeros_like(lengths), t - lengths])
    neg = -np.inf
    start = np.where(real & (np.cumsum(real, axis=1) <= 2), emit2[np.arange(2 * b), first], neg)

    # skip transition s-2 -> s allowed where ext[s] is a label differing
    # from ext[s-2]; never into a padded state
    can_skip = np.zeros((2 * b, s), dtype=bool)
    can_skip[:, 2:] = (ext2[:, 2:] != blank) & (ext2[:, 2:] != ext2[:, :-2])

    # log(0) of state pairs that are both -inf, in _logsumexp2
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.full((2 * b, t, s), neg)
        alpha[:, 0] = np.where((first == 0)[:, None], start, neg)
        step = np.full((2 * b, s), neg)
        skip = np.full((2 * b, s), neg)
        for ti in range(1, t):
            prev = alpha[:, ti - 1]
            step[:, 1:] = prev[:, :-1]
            skip[:, 2:] = np.where(can_skip[:, 2:], prev[:, :-2], neg)
            cur = _logsumexp2(_logsumexp2(prev, step), skip) + emit2[:, ti]
            alpha[:, ti] = np.where((first == ti)[:, None], start, cur)

        utt = np.arange(b)
        final = alpha[utt, lengths - 1]  # (B, S)
        total = final[utt, s_len - 1]
        pair = _logsumexp2(total, final[utt, np.maximum(s_len - 2, 0)])
        total = np.where(s_len > 1, pair, total)
    alpha, beta = alpha[:b], alpha[b:, ::-1, ::-1]

    # paths through (t, s): alpha * beta / emit; normalize by total probability
    with np.errstate(invalid="ignore"):
        log_gamma = alpha + beta - emit - total[:, None, None]
    gamma = np.where(np.isneginf(log_gamma), 0.0, np.exp(log_gamma))

    # sum state posteriors into label posteriors in state order per frame
    label_post = np.zeros((b, t, n))
    np.add.at(label_post, (utt[:, None, None], np.arange(t)[None, :, None], ext[:, None, :]),
              gamma)
    grad = softmax(logits) - label_post
    grad[np.arange(t) >= lengths[:, None]] = 0.0
    return -total, grad

