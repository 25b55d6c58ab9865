"""Training criteria over a zero-padded batch: each returns the per-utterance
losses (B,) and the gradient w.r.t. the logits (B, T, N), 0 on padding; its
one-utterance form returns (scalar loss, gradient (T, N)).

Covered losses:
    * soft-label cross entropy against teacher posteriors (distillation);
      hard-label frame cross entropy is the same arithmetic on one-hot rows
    * CTC over blank-augmented alignments, computed in log space
"""

from __future__ import annotations

import numpy as np

from .netcore import log_softmax, softmax


class CriterionError(ValueError):
    pass


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
    logits, lengths = _check_batch(logits, lengths, teacher_rows)
    _, t, n = logits.shape
    target = np.zeros_like(logits)
    for j, (tb, rows) in enumerate(zip(lengths, teacher_rows)):
        if np.shape(rows) != (tb, n):
            raise CriterionError(f"shape mismatch: targets {np.shape(rows)}, logits ({tb}, {n})")
        target[j, :tb] = rows
    logp = log_softmax(logits)
    losses = np.array([-np.sum(target[j, :tb] * logp[j, :tb]) for j, tb in enumerate(lengths)])
    grad = softmax(logits) - target
    grad[np.arange(t) >= lengths[:, None]] = 0.0
    return losses, grad


def hard_ce_loss(labels, student_logits: np.ndarray):
    """The one-utterance batch of hard_ce_loss_batch: logits (T, N), T labels."""
    logits = np.asarray(student_logits, dtype=np.float64)
    losses, grad = hard_ce_loss_batch(logits[None], [len(logits)], [labels])
    return float(losses[0]), grad[0]


def hard_ce_loss_batch(logits: np.ndarray, lengths, label_lists):
    """Frame cross entropy with integer labels, one per frame: soft CE against
    one-hot rows, whose gradient is softmax - 0.0, and softmax - 1.0 at the label."""
    n = np.shape(logits)[-1]
    one_hot = []
    for labels in map(np.asarray, label_lists):
        if labels.ndim != 1 or np.any((labels != labels.round()) | (labels < 0) | (labels >= n)):
            raise CriterionError(f"labels must be a list of integers in [0, {n})")
        one_hot.append(np.eye(n)[labels.astype(np.int64)])
    return soft_ce_loss_batch(logits, lengths, one_hot)


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
    (B, T, N), which is 0 on padded frames.  The recursions run once per
    frame over a padded (B, S) lattice of blank-augmented label strings.
    Padded states keep log probability -inf and nothing flows back from
    frames past an utterance's end, so every row equals its utterance run
    alone, bit for bit.
    """
    label_lists = [[int(x) for x in labels] for labels in label_lists]
    logits, lengths = _check_batch(logits, lengths, label_lists)
    b, t, n = logits.shape
    if not 0 <= blank < n:
        raise CriterionError("blank index out of range")
    for tb, labels in zip(lengths, label_lists):
        if any(not 0 <= x < n for x in labels):
            raise CriterionError(f"label out of range [0, {n})")
        if blank in labels:
            raise CriterionError("blank symbol may not appear in the label string")
        if tb < ctc_min_frames(labels):
            raise CriterionError(
                f"label string needs at least {ctc_min_frames(labels)} frames, got {tb}"
            )

    # blank-augmented label strings, padded with blanks to the longest
    s_len = np.array([2 * len(labels) + 1 for labels in label_lists])
    s = int(s_len.max())
    ext = np.full((b, s), blank)
    for j, labels in enumerate(label_lists):
        ext[j, 1 : 2 * len(labels) : 2] = labels
    valid = np.arange(s) < s_len[:, None]
    logp = log_softmax(logits)
    emit = np.take_along_axis(logp, ext[:, None, :], axis=2)  # (B, T, S)

    # skip transition s-2 -> s allowed where ext[s] is a label differing
    # from ext[s-2]; never into a padded state
    can_skip = np.zeros((b, s), dtype=bool)
    can_skip[:, 2:] = (ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])

    neg = -np.inf
    # log(0) of state pairs that are both -inf, in _logsumexp2
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.full((b, t, s), neg)
        alpha[:, 0, :2] = np.where(valid[:, :2], emit[:, 0, :2], neg)
        step = np.full((b, s), neg)
        skip = np.full((b, s), neg)
        for ti in range(1, t):
            prev = alpha[:, ti - 1]
            step[:, 1:] = prev[:, :-1]
            skip[:, 2:] = np.where(can_skip[:, 2:], prev[:, :-2], neg)
            alpha[:, ti] = _logsumexp2(_logsumexp2(prev, step), skip) + emit[:, ti]

        utt = np.arange(b)
        last = lengths - 1
        final = alpha[utt, last]  # (B, S)
        total = final[utt, s_len - 1]
        pair = _logsumexp2(total, final[utt, np.maximum(s_len - 2, 0)])
        total = np.where(s_len > 1, pair, total)

        # beta starts at each utterance's last frame; later frames stay -inf
        start = np.where(valid & (np.arange(s) >= s_len[:, None] - 2), emit[utt, last], neg)
        beta = np.full((b, t, s), neg)
        beta[:, t - 1] = np.where((last == t - 1)[:, None], start, neg)
        step = np.full((b, s), neg)
        skip = np.full((b, s), neg)
        for ti in range(t - 2, -1, -1):
            nxt = beta[:, ti + 1]
            step[:, :-1] = nxt[:, 1:]
            skip[:, :-2] = np.where(can_skip[:, 2:], nxt[:, 2:], neg)
            cur = _logsumexp2(_logsumexp2(nxt, step), skip) + emit[:, ti]
            beta[:, ti] = np.where((last == ti)[:, None], start, cur)

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

