"""Shared test oracles: brute-force references kept deliberately independent
of the library implementations they check."""

import hashlib
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from farspot import criteria, kws, netcore, pipeline
from farspot.criteria import CriterionError
from farspot.netcore import GradientSink, Network, NetworkError
from farspot.simkit import REQUIRED_RATE, ImpulseResponse, Waveform


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


def unit_impulse(delay: int = 0) -> ImpulseResponse:
    """Kronecker delta at `delay` samples."""
    taps = np.zeros(delay + 1)
    taps[delay] = 1.0
    return ImpulseResponse(taps)


def ir_energy(ir: ImpulseResponse) -> float:
    return float(np.sum(ir.taps**2))


def measure_snr(speech: Waveform, noise: Waveform) -> float:
    """Component SNR in dB from the two already-scaled parts of a mix: their
    mean-power ratio."""
    return float(10.0 * np.log10(np.mean(speech.samples**2) / np.mean(noise.samples**2)))


def mel_filter_centers(n_mels: int) -> np.ndarray:
    """Center frequencies (Hz) of n_mels triangular filters spaced evenly on
    the HTK Mel scale, mel = 2595 log10(1 + f / 700), from 0 Hz to Nyquist."""
    top = 2595.0 * np.log10(1.0 + REQUIRED_RATE / 2.0 / 700.0)
    mels = np.linspace(0.0, top, n_mels + 2)[1:-1]
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


def _check_distribution(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise CriterionError(f"{name} must be a 1-D distribution")
    if np.any(p < -1e-12):
        raise CriterionError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > 1e-6:
        raise CriterionError(f"{name} is not normalized (sum = {p.sum()})")
    return p


def kl_divergence(p, q) -> float:
    """sum_i p_i log(p_i / q_i), with 0 log 0 = 0 and q clamped at 1e-12;
    CriterionError, as the criteria raise, on inputs that are no distribution."""
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise CriterionError(f"length mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], 1e-12)))))


def entropy(rows: np.ndarray) -> float:
    """Summed Shannon entropy of each row, with 0 log 0 = 0."""
    rows = np.asarray(rows, dtype=np.float64)
    masked = np.where(rows > 0, rows, 1.0)
    return float(-np.sum(rows * np.log(masked)))


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


# ---------------------------------------------------------------------------
# Reference LSTM kernels: the straightforward per-frame forward pass and BPTT
# that `netcore.forward_batch`/`backward_batch` must reproduce bit for bit.
# Every forward product is taken against a C-contiguous copy of the
# transposed weight, and every weight gradient is a sum of one product per
# frame in frame order.  BLAS rounds by the operands' shapes and layouts, so
# this copy is kept as written, not tidied.

def ncpu() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_at_one_blas_thread_per_cpu(script: str) -> str:
    """Run a python script in a process of its own whose BLAS has one thread
    per CPU (BLAS reads its thread count at start-up), with src/ and tests/
    importable; return its stdout.  Skips the calling test on one CPU."""
    if ncpu() < 2:
        pytest.skip("needs 2 or more CPUs")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(ncpu()),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests),
                                          os.environ.get("PYTHONPATH", "")])}
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def check_batch_invariance(spec, lengths, seed):
    """Assert that each row of `forward_batch` given `lengths` is the forward
    of that utterance alone, byte for byte, and that padded frames are 0."""
    rng = np.random.default_rng(seed)
    net = netcore.init_network(spec, rng)
    net.parameters[...] = rng.normal(0.0, 0.5, net.parameters.shape)
    x = np.zeros((len(lengths), max(lengths), spec.input_dim))
    for j, n in enumerate(lengths):
        x[j, :n] = rng.standard_normal((n, spec.input_dim))
    logits, _ = netcore.forward_batch(net, x, want_cache=False, lengths=lengths)
    assert logits.shape == (len(lengths), max(lengths), spec.output_dim)
    for j, n in enumerate(lengths):
        alone, _ = netcore.forward_batch(net, x[j : j + 1, :n], want_cache=False)
        assert logits[j, :n].tobytes() == alone[0].tobytes(), (j, n)
        assert not np.any(logits[j, n:])


def check_batch_invariance_at_kws_teacher_shape():
    """`check_batch_invariance` on a bucket of 16 at the compression
    experiment's teacher shape (2 x 48 cells, 160-dim input)."""
    spec = netcore.ModelSpec(input_dim=160, layers=2, hidden=48, output_dim=5,
                             peepholes=False)
    check_batch_invariance(spec, [30, 38, 14, 38, 25, 1, 38, 20, 33, 36, 38, 29, 38, 17, 38, 22],
                           seed=4)


def kernel_digests() -> dict[str, str]:
    """sha256 of the `forward_batch` logits and the `backward_batch` gradient
    of one padded batch of 16 at the KWS teacher's shape (2 x 48 cells,
    160-dim input, T=38) and at the adaptation AM's (1 x 32, 20-dim, T=108)."""
    shapes = {
        "kws_teacher": (netcore.ModelSpec(input_dim=160, layers=2, hidden=48, output_dim=5,
                                          peepholes=False), 38),
        "am": (netcore.ModelSpec(input_dim=20, layers=1, hidden=32, output_dim=4,
                                 peepholes=False), 108),
    }
    digests = {}
    for name, (spec, t) in shapes.items():
        rng = np.random.default_rng(6)
        net = netcore.init_network(spec, rng)
        lengths = [t - (5 * j) % (t // 2) for j in range(16)]
        x = np.zeros((16, t, spec.input_dim))
        dlogits = np.zeros((16, t, spec.output_dim))
        for j, n in enumerate(lengths):
            x[j, :n] = rng.standard_normal((n, spec.input_dim))
            dlogits[j, :n] = rng.standard_normal((n, spec.output_dim))
        logits, cache = netcore.forward_batch(net, x)
        grad = netcore.backward_batch(net, cache, dlogits)
        digests[name] = hashlib.sha256(logits.tobytes() + grad.tobytes()).hexdigest()
    return digests


def train_digest() -> str:
    """sha256 of the parameters after 2 epochs of `pipeline.train` on 12
    random items: a 17,333-parameter network, long enough for BLAS to split
    a dot product of the gradient among its threads, with weights so large
    that every step's gradient norm is above the clip."""
    rng = np.random.default_rng(9)
    items = [pipeline.TrainItem(f"u{j}", rng.standard_normal((20 + j, 40)),
                                frame_labels=rng.integers(0, 5, 20 + j)) for j in range(12)]
    spec = netcore.ModelSpec(input_dim=40, layers=1, hidden=48, output_dim=5, peepholes=False)
    net = netcore.init_network(spec, rng)
    net.parameters[...] = rng.normal(0.0, 2.0, net.parameters.shape)
    net, _ = pipeline.train(net, items, pipeline.TrainConfig(epochs=2, batch_size=4))
    return hashlib.sha256(net.parameters.tobytes()).hexdigest()


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_forward_batch(net: Network, x: np.ndarray, want_cache: bool = True):
    """Run the network over a padded batch.

    x: (B, T, input_dim).  Returns (logits (B, T, N), cache).  Padded frames
    are computed like any other; callers mask them in the loss (padding must
    sit at the end of each sequence).
    """
    spec = net.spec
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[2] != spec.input_dim:
        raise NetworkError(f"input shape {x.shape} incompatible with input_dim {spec.input_dim}")
    b, t, _ = x.shape
    h = spec.hidden
    r_size = spec.recurrent_size
    dtype = net.parameters.dtype

    cache = {"x": x, "layers": []} if want_cache else None
    seq = x.astype(dtype, copy=False)
    for li in range(spec.layers):
        wx_t = np.ascontiguousarray(net.weight(f"l{li}.wx").T)
        wr_t = np.ascontiguousarray(net.weight(f"l{li}.wr").T)
        bias = net.block(f"l{li}.bias")
        peep = net.block(f"l{li}.peep") if spec.peepholes else None
        proj_t = (np.ascontiguousarray(net.weight(f"l{li}.proj").T)
                  if spec.projection > 0 else None)

        xpart = seq @ wx_t + bias  # (B, T, 4h)
        gi = np.zeros((t, b, h), dtype=dtype)
        gf = np.zeros((t, b, h), dtype=dtype)
        gg = np.zeros((t, b, h), dtype=dtype)
        go = np.zeros((t, b, h), dtype=dtype)
        cc = np.zeros((t, b, h), dtype=dtype)
        mm = np.zeros((t, b, h), dtype=dtype)
        rr = np.zeros((t, b, r_size), dtype=dtype)

        c_prev = np.zeros((b, h), dtype=dtype)
        r_prev = np.zeros((b, r_size), dtype=dtype)
        for ti in range(t):
            z = xpart[:, ti] + r_prev @ wr_t
            zi, zf, zg, zo = z[:, :h], z[:, h : 2 * h], z[:, 2 * h : 3 * h], z[:, 3 * h :]
            if peep is not None:
                i_t = _sigmoid(zi + peep[:h] * c_prev)
                f_t = _sigmoid(zf + peep[h : 2 * h] * c_prev)
            else:
                i_t = _sigmoid(zi)
                f_t = _sigmoid(zf)
            g_t = np.tanh(zg)
            c_t = f_t * c_prev + i_t * g_t
            if peep is not None:
                o_t = _sigmoid(zo + peep[2 * h :] * c_t)
            else:
                o_t = _sigmoid(zo)
            m_t = o_t * np.tanh(c_t)
            r_t = m_t @ proj_t if proj_t is not None else m_t
            gi[ti], gf[ti], gg[ti], go[ti] = i_t, f_t, g_t, o_t
            cc[ti], mm[ti], rr[ti] = c_t, m_t, r_t
            c_prev, r_prev = c_t, r_t

        if want_cache:
            cache["layers"].append(
                {"in": seq, "i": gi, "f": gf, "g": gg, "o": go, "c": cc, "m": mm, "r": rr}
            )
        seq = np.transpose(rr, (1, 0, 2))  # (B, T, r)

    logits = seq @ np.ascontiguousarray(net.weight("out.w").T) + net.block("out.b")
    if want_cache:
        cache["top"] = seq
        cache["logits"] = logits
    return logits, cache


def reference_backward_batch(net: Network, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. all parameters.

    dlogits: (B, T, N) upstream gradient w.r.t. the output-layer logits; must
    be zero on padded frames.  Returns a flat vector in parameter layout.
    """
    spec = net.spec
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache["logits"].shape:
        raise NetworkError("upstream gradient shape does not match cached forward")
    b, t, _ = dlogits.shape
    h = spec.hidden
    sink = GradientSink(net)

    top = cache["top"]
    dw = np.zeros((dlogits.shape[2], top.shape[2]))
    for ti in range(t):
        dw += dlogits[:, ti].T @ top[:, ti]
    sink.add_weight_grad("out.w", dw)
    sink.view("out.b")[...] += dlogits.sum(axis=(0, 1))
    dseq = dlogits @ net.weight("out.w")  # (B, T, r_top)

    for li in reversed(range(spec.layers)):
        lc = cache["layers"][li]
        wx = net.weight(f"l{li}.wx")
        wr = net.weight(f"l{li}.wr")
        peep = net.block(f"l{li}.peep") if spec.peepholes else None
        proj = net.weight(f"l{li}.proj") if spec.projection > 0 else None

        gi, gf, gg, go = lc["i"], lc["f"], lc["g"], lc["o"]
        cc, mm, rr = lc["c"], lc["m"], lc["r"]
        tanh_c = np.tanh(cc)

        dz_all = np.zeros((t, b, 4 * h))
        dproj = np.zeros_like(proj) if proj is not None else None
        dpeep = np.zeros(3 * h) if peep is not None else None
        dr_rec = np.zeros((b, rr.shape[2]))
        dc_next = np.zeros((b, h))
        for ti in reversed(range(t)):
            c_prev = cc[ti - 1] if ti > 0 else np.zeros((b, h))
            dr = dseq[:, ti] + dr_rec
            if proj is not None:
                dproj += dr.T @ mm[ti]
                dm = dr @ proj
            else:
                dm = dr
            do = dm * tanh_c[ti]
            dzo = do * go[ti] * (1.0 - go[ti])
            dc = dc_next + dm * go[ti] * (1.0 - tanh_c[ti] ** 2)
            if peep is not None:
                dc = dc + dzo * peep[2 * h :]
                dpeep[2 * h :] += np.sum(dzo * cc[ti], axis=0)
            di = dc * gg[ti]
            df = dc * c_prev
            dg = dc * gi[ti]
            dzi = di * gi[ti] * (1.0 - gi[ti])
            dzf = df * gf[ti] * (1.0 - gf[ti])
            dzg = dg * (1.0 - gg[ti] ** 2)
            dc_next = dc * gf[ti]
            if peep is not None:
                dc_next = dc_next + dzi * peep[:h] + dzf * peep[h : 2 * h]
                dpeep[:h] += np.sum(dzi * c_prev, axis=0)
                dpeep[h : 2 * h] += np.sum(dzf * c_prev, axis=0)
            dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)
            dz_all[ti] = dz
            dr_rec = dz @ wr

        x_in = lc["in"]  # (B, T, d)
        dwx = np.zeros((4 * h, x_in.shape[2]))
        dwr = np.zeros((4 * h, rr.shape[2]))
        for ti in range(t):
            dwx += dz_all[ti].T @ x_in[:, ti]
            if ti > 0:  # frame 0's recurrent input is zero
                dwr += dz_all[ti].T @ rr[ti - 1]
        sink.add_weight_grad(f"l{li}.wx", dwx)
        sink.add_weight_grad(f"l{li}.wr", dwr)
        sink.view(f"l{li}.bias")[...] += dz_all.sum(axis=(0, 1))
        if peep is not None:
            sink.view(f"l{li}.peep")[...] += dpeep
        if proj is not None:
            sink.add_weight_grad(f"l{li}.proj", dproj)

        dseq = np.transpose(dz_all @ wx, (1, 0, 2))  # grad w.r.t. layer input

    return sink.grad


# ---------------------------------------------------------------------------
# The pipeline's inference loops as they were before batching: one B=1
# forward per utterance, kept verbatim so the batched callers can be
# compared with them byte for byte.

def reference_compute_teacher_posteriors(teacher, items):
    return [replace(it, teacher_rows=netcore.forward(teacher, it.feats).rows) for it in items]


def reference_frame_error_rate(net, items):
    wrong = total = 0
    for it in items:
        logits, _ = netcore.forward_batch(net, it.feats[None], want_cache=False)
        pred = np.argmax(logits[0], axis=1)
        wrong += int(np.sum(pred != it.frame_labels))
        total += it.num_frames
    return wrong / total


def reference_score_kws(net, items, km):
    records = []
    for it in items:
        post = netcore.forward(net, it.feats)
        det = kws.spot(post, km)
        records.append((it.utt_id, det.score, bool(it.is_positive), it.duration_sec))
    return records


# ---------------------------------------------------------------------------
# The frame cross entropies as they were before the batched criteria, one
# utterance (T, N) at a time.  Hard CE here sums the T label log
# probabilities, where criteria sums T x N one-hot terms, so its loss may
# differ in the last bits; the gradients must be equal byte for byte.

def reference_hard_ce_loss(labels, logits):
    labels = np.asarray(labels, dtype=np.int64)
    t = len(logits)
    loss = float(-np.sum(netcore.log_softmax(logits)[np.arange(t), labels]))
    grad = netcore.softmax(logits)
    grad[np.arange(t), labels] -= 1.0
    return loss, grad


def reference_soft_ce_loss(teacher, logits):
    loss = float(-np.sum(teacher * netcore.log_softmax(logits)))
    return loss, netcore.softmax(logits) - teacher


# ---------------------------------------------------------------------------
# T/S adaptation with the teacher run inside the SGD loop, once per batch of
# every epoch, given `lengths` (each row is then the utterance's forward
# alone); pipeline.adapt, which runs the teacher once before training, must
# equal it byte for byte.

def _padded(seqs, tmax, dim):
    x = np.zeros((len(seqs), tmax, dim))
    for j, seq in enumerate(seqs):
        x[j, : len(seq)] = seq
    return x


def reference_adapt(teacher, paired_items, cfg, checkpoint_dir=None):
    net = teacher.copy()
    velocity = np.zeros_like(net.parameters)
    order = sorted(paired_items, key=lambda it: (it.num_frames, it.utt_id))
    batches = [order[i : i + cfg.batch_size] for i in range(0, len(order), cfg.batch_size)]
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
            batch = batches[bi]
            tmax = max(it.num_frames for it in batch)
            d = net.spec.input_dim
            logits, cache = netcore.forward_batch(net, _padded([it.feats for it in batch], tmax, d))

            xs = _padded([it.source_feats for it in batch], tmax, d)
            t_logits, _ = netcore.forward_batch(teacher, xs, want_cache=False,
                                                lengths=[it.num_frames for it in batch])
            teacher_rows = netcore.softmax(t_logits)

            dlogits = np.zeros_like(logits)
            losses = []
            for j, it in enumerate(batch):
                t = it.num_frames
                loss_j, dlogits[j, :t] = criteria.soft_ce_loss(teacher_rows[j, :t], logits[j, :t])
                losses.append(loss_j)
            total_loss = 0.0
            for loss in losses:  # in item order, which fixes the rounding
                total_loss += loss
            total_frames = sum(it.num_frames for it in batch)
            dlogits /= total_frames
            grad = netcore.backward_batch(net, cache, dlogits)
            loss = total_loss / total_frames

            norm = np.sqrt(np.sum(grad * grad))
            if norm > pipeline.GRAD_CLIP:
                grad = grad * (pipeline.GRAD_CLIP / norm)
            velocity = pipeline.MOMENTUM * velocity - lr * grad
            net.parameters += velocity
            epoch_loss += loss
        log.append(epoch_loss / len(batches))
        if checkpoint_dir is not None:
            netcore.save_checkpoint(net, checkpoint_dir / f"epoch{epoch:03d}.ckpt")
    return net, log
