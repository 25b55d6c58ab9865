"""Shared test oracles: brute-force references kept deliberately independent
of the library implementations they check."""

import itertools

import numpy as np
from hypothesis import strategies as st


def grad_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Whole-vector relative error ||a - n|| / max(||a||, ||n||)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def central_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


# byte flips for reader robustness tests: (position, nonzero XOR mask) pairs;
# positions wrap around the file length
BYTE_FLIPS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
                      min_size=1, max_size=4)


def flip_bytes(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


def naive_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """O(len(x) * len(h)) direct-sum linear convolution."""
    y = np.zeros(len(x) + len(h) - 1)
    for i, xi in enumerate(x):
        y[i : i + len(h)] += xi * h
    return y


def _log_softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def collapse_ctc_path(path, blank):
    """Remove consecutive repeats, then blanks."""
    out = []
    prev = None
    for p in path:
        if p != prev:
            if p != blank:
                out.append(p)
            prev = p
    return out


def ctc_enum_loss(logits: np.ndarray, labels, blank: int) -> float:
    """-log P(labels) by summing over every alignment of length T."""
    logits = np.asarray(logits, dtype=np.float64)
    t, n = logits.shape
    logp = _log_softmax(logits)
    labels = [int(x) for x in labels]
    total = -np.inf
    for path in itertools.product(range(n), repeat=t):
        if collapse_ctc_path(path, blank) == labels:
            total = np.logaddexp(total, sum(logp[ti, path[ti]] for ti in range(t)))
    return float(-total)


def _exact(x: float) -> int:
    """x * 2**1100 as an exact integer; every finite float maps exactly."""
    num, den = float(x).as_integer_ratio()
    return num * (2**1100 // den)


def viterbi_oracle(rows: np.ndarray, units, silence, garbage, blank, exact: bool = False):
    """Best keyword segment by exhaustive enumeration of state-run boundaries.

    Assumes two distinct keyword units.  The decoding path is seven runs in
    order: filler, blank, unit1, blank, unit2, blank, filler; every run except
    the two unit runs may be empty.  Returns (m, n) with ties resolved by
    highest score, then earliest start, then earliest end.  With exact=True
    path scores are summed without rounding, so paths whose scores tie in
    real arithmetic tie here too.
    """
    u1, u2 = units
    assert u1 != u2
    t = rows.shape[0]
    logp = np.log(np.maximum(rows, 1e-300))
    filler = np.maximum(logp[:, silence], logp[:, garbage])
    tracks = [filler, logp[:, blank], logp[:, u1], logp[:, blank],
              logp[:, u2], logp[:, blank], filler]
    if exact:
        cums = [list(itertools.accumulate((_exact(x) for x in tr), initial=0)) for tr in tracks]
    else:
        cums = [np.concatenate([[0.0], np.cumsum(tr)]) for tr in tracks]

    best = None
    for bounds in itertools.combinations_with_replacement(range(t + 1), 6):
        b1, b2, b3, b4, b5, b6 = bounds
        if b3 <= b2 or b5 <= b4:  # both unit runs need at least one frame
            continue
        edges = [0, b1, b2, b3, b4, b5, b6, t]
        score = sum(c[hi] - c[lo] for c, lo, hi in zip(cums, edges[:-1], edges[1:]))
        m, n = b2, b5 - 1
        cand = (score, -m, -n)
        if best is None or cand > best:
            best = cand
            best_seg = (m, n)
    return best_seg
