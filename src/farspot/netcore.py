"""LSTM-projection sequence networks with hand-derived reverse-mode gradients.

A network is `layers` LSTM layers (optionally with peephole connections and a
linear projection of the hidden state) followed by an affine output layer and
a softmax.  Parameters live in one flat float64 vector; the layout is a fixed
ordered list of named blocks:

    per layer i (d = layer input size, h = hidden, r = projection or h):
        l{i}.wx    (4h, d)   input weights, gate order [i, f, g, o]
        l{i}.wr    (4h, r)   recurrent weights
        l{i}.bias  (4h,)
        l{i}.peep  (3h,)     [p_i, p_f, p_o], only when peepholes are on
        l{i}.proj  (p, h)    only when projection > 0
    out.w  (N, r_top)
    out.b  (N,)

A block listed in `svd_rank` with rank k is stored factored as
{name}.u (m, k) and {name}.v (k, n); the effective weight is u @ v.
`Network.block(name, vec)` slices a block out of the parameters or of any
vector in their layout, such as the gradient: `backward_batch` accumulates a
factored weight's gradient dw as dw @ v.T into u and u.T @ dw into v.

Recurrence (c = cell, m = hidden, r = recurrent output):
    z             = wx @ x_t + wr @ r_{t-1} + bias
    i_t           = sigmoid(z_i + p_i * c_{t-1})
    f_t           = sigmoid(z_f + p_f * c_{t-1})
    g_t           = tanh(z_g)
    c_t           = f_t * c_{t-1} + i_t * g_t
    o_t           = sigmoid(z_o + p_o * c_t)
    m_t           = o_t * tanh(c_t)
    r_t           = proj @ m_t        (or m_t when projection = 0)

Summation order.  A checkpoint's bits depend on the order of every gradient
sum.  Each weight gradient (out.w, l{i}.wx, l{i}.wr) is summed by
`_frame_sum`: one (z, B) @ (B, k) BLAS product per frame, added into one
(z, k) accumulator in frame order.  BLAS sums each product over the batch
whatever the thread count, and the frame order is fixed, so the bits depend
neither on the operands' memory layout nor on the number of BLAS threads.
l{i}.proj is summed the same way inside the BPTT loop, from the last frame
down.
The forward takes every product against a C-contiguous copy of the
transposed weight, made once per call.  `forward_batch` and `backward_batch`
must match the plain per-frame kernels of tests/helpers.py bit for bit.

Batch invariance.  BLAS picks its kernel, and so the rounding of a product,
by the operands' shapes: an (M, k) @ (k, n) product with M = 1 runs as a
matrix-vector product, and the row blocking of a matrix-matrix product
depends on M.  So a row of a batched forward need not equal the same
utterance run alone.  Given `lengths`, `forward_batch` takes every product
whose shape depends on the batch once per utterance, in the shapes of the
one-utterance forward:
    input projection, output layer   (1, T_j, k) @ w.T, one call per utterance
    recurrent and projection         (B, 1, k) @ w.T per frame, B 1-row products
The gate math is elementwise and equal on any row, so each row of the batch
is byte for byte the forward of that utterance alone; the tests check this
with BLAS at one thread and at one thread per CPU.  Only training uses the
plain batched products, since its checkpoints were made with them; scoring,
FER and the teacher rows of distillation and adaptation pass `lengths`.
`forward`, spot's one-utterance path, runs the plain products at B = 1,
where they equal the `lengths` path byte for byte.

Memory.  `backward_batch` consumes the forward's cache: it writes each
frame's gate gradient over that frame's gate activations, once BPTT has read
them, and sums the weight gradients from there, so a second `backward_batch`
on the same cache raises NetworkError.  The gates' derivative factors
(tanh c, 1 - tanh^2 c, 1 - i, 1 - f, 1 - o, 1 - g^2) are computed
_FACTOR_CHUNK frames at a time into one reused buffer.  Besides the cache and
per-frame rows, a backward holds one (B, T, r) upstream gradient, that buffer
and the gradient vector.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


class NetworkError(ValueError):
    pass


_FACTOR_CHUNK = 32  # frames per block of BPTT's derivative factors (see "Memory")


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


@dataclass
class Posteriorgram:
    """T x N row-stochastic matrix of per-frame label posteriors."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise NetworkError("posteriorgram must be 2-D")
        if not np.all((self.rows >= -1e-12) & (self.rows <= 1 + 1e-12)):  # NaN fails
            raise NetworkError("posteriors outside [0, 1]")
        if self.rows.shape[0] and np.max(np.abs(self.rows.sum(axis=1) - 1.0)) > 1e-6:
            raise NetworkError("posteriorgram rows must sum to 1")

    @property
    def num_frames(self) -> int:
        return self.rows.shape[0]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    layers: int
    hidden: int
    projection: int = 0
    output_dim: int = 1
    peepholes: bool = False
    svd_rank: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        for name in ("input_dim", "layers", "hidden", "projection", "output_dim"):
            if not _is_int(getattr(self, name)):
                raise NetworkError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not isinstance(self.peepholes, bool):
            raise NetworkError(f"peepholes must be true or false, got {self.peepholes!r}")
        if self.layers < 1 or self.hidden < 1 or self.output_dim < 1:
            raise NetworkError("layers, hidden and output_dim must be >= 1")
        if self.input_dim < 1:
            raise NetworkError("input_dim must be >= 1")
        if not 0 <= self.projection <= self.hidden:
            raise NetworkError("projection must be in [0, hidden]")
        if self.svd_rank is not None:  # a dict or (name, rank) pairs -> sorted pairs
            ranks = self.svd_rank
            pairs = list(ranks.items()) if isinstance(ranks, dict) else ranks
            if not (isinstance(pairs, (tuple, list)) and all(
                    isinstance(p, (tuple, list)) and len(p) == 2 and isinstance(p[0], str)
                    for p in pairs)):
                raise NetworkError(f"svd_rank must be (block, rank) pairs, got {ranks!r}")
            if len({block for block, _ in pairs}) < len(pairs):
                raise NetworkError(f"svd_rank names a block twice: {ranks!r}")
            shapes = {name: shape for name, shape in _dense_blocks(self) if len(shape) == 2}
            for block, k in pairs:
                if not (_is_int(k) and 1 <= k <= min(shapes.get(block, (0,)))):
                    raise NetworkError(f"svd rank {k!r} of {block}: not an int from 1 to the "
                                       f"smaller side of a weight matrix ({shapes.get(block)})")
            object.__setattr__(self, "svd_rank", tuple(sorted(map(tuple, pairs))) or None)

    @property
    def recurrent_size(self) -> int:
        return self.projection if self.projection > 0 else self.hidden

    def rank_of(self, name: str) -> int | None:
        if self.svd_rank is None:
            return None
        return dict(self.svd_rank).get(name)

    def to_dict(self) -> dict:
        return {**asdict(self), "svd_rank": dict(self.svd_rank or ()) or None}


def _dense_blocks(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Named blocks and their unfactored shapes, in layout order."""
    h, p = spec.hidden, spec.projection
    r = spec.recurrent_size
    blocks: list[tuple[str, tuple[int, ...]]] = []
    d = spec.input_dim
    for i in range(spec.layers):
        blocks.append((f"l{i}.wx", (4 * h, d)))
        blocks.append((f"l{i}.wr", (4 * h, r)))
        blocks.append((f"l{i}.bias", (4 * h,)))
        if spec.peepholes:
            blocks.append((f"l{i}.peep", (3 * h,)))
        if p > 0:
            blocks.append((f"l{i}.proj", (p, h)))
        d = r
    blocks.append(("out.w", (spec.output_dim, r)))
    blocks.append(("out.b", (spec.output_dim,)))
    return blocks


def layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Stored blocks after applying SVD factoring, in layout order."""
    out = []
    for name, shape in _dense_blocks(spec):
        k = spec.rank_of(name)
        if k is None:
            out.append((name, shape))
        else:
            m, n = shape
            out.append((f"{name}.u", (m, k)))
            out.append((f"{name}.v", (k, n)))
    return out


def param_count(spec: ModelSpec) -> int:
    return sum(int(np.prod(shape)) for _, shape in layout(spec))


@dataclass
class Network:
    """Immutable-by-convention pairing of a spec and a flat float64 parameter
    vector."""

    spec: ModelSpec
    parameters: np.ndarray
    _offsets: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.parameters = np.asarray(self.parameters, dtype=np.float64)
        expected = param_count(self.spec)
        if self.parameters.shape != (expected,):
            raise NetworkError(
                f"parameter vector has {self.parameters.shape}, spec needs ({expected},)"
            )
        if not np.all(np.isfinite(self.parameters)):
            raise NetworkError("non-finite parameters")
        self._offsets = {}  # name -> (slice of the flat vector, shape)
        off = 0
        for name, shape in layout(self.spec):
            n = int(np.prod(shape))
            self._offsets[name] = (slice(off, off + n), shape)
            off += n

    def block(self, name: str, vec: np.ndarray | None = None) -> np.ndarray:
        """Block `name` of the parameters, or of `vec`, a vector in their layout."""
        span, shape = self._offsets[name]
        return (self.parameters if vec is None else vec)[span].reshape(shape)

    def weight(self, name: str) -> np.ndarray:
        """Effective (dense) weight of a possibly factored block."""
        if name in self._offsets:
            return self.block(name)
        return self.block(f"{name}.u") @ self.block(f"{name}.v")

    def copy(self) -> "Network":
        return Network(self.spec, self.parameters.copy())


def init_network(spec: ModelSpec, rng: np.random.Generator) -> Network:
    """Uniform(-0.05, 0.05) weights, zero biases, forget-gate bias +1."""
    net = Network(spec, np.zeros(param_count(spec)))
    h = spec.hidden
    for name, shape in layout(spec):
        blk = net.block(name)
        if name.endswith(".bias"):
            blk[h : 2 * h] = 1.0
        elif name.endswith(".peep") or name == "out.b":
            pass
        else:
            blk[...] = rng.uniform(-0.05, 0.05, size=shape)
    return net


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """In-place logistic 1 / (1 + exp(-x)), in the same four steps as the
    plain expression so every bit matches it."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=x)
    return np.divide(1.0, x, out=x)


def _frame_sum(dz: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum over t of dz[t].T @ v[t], for frame-major (T, B, z) dz and
    (T, B, k) v: one BLAS product per frame into one (z, k) accumulator,
    added in frame order (see "Summation order")."""
    acc = np.zeros((dz.shape[2], v.shape[2]))
    prod = np.empty_like(acc)
    # a non-finite gradient is the caller's to report (pipeline.train raises
    # RunError), not a RuntimeWarning's
    with np.errstate(invalid="ignore", over="ignore"):
        for dz_t, v_t in zip(dz, v):
            acc += np.matmul(dz_t.T, v_t, out=prod)
    return acc


def forward_batch(net: Network, x: np.ndarray, want_cache: bool = True, lengths=None):
    """Run the network over a padded batch.

    x: (B, T, input_dim).  Returns (logits (B, T, N), cache).  Padded frames
    are computed like any other; callers mask them in the loss (padding must
    sit at the end of each sequence).  With `lengths`, the real frame count
    of each sequence, row j of the logits equals the forward of x[j, :n_j]
    alone byte for byte (see "Batch invariance"), and padded frames are 0.
    """
    spec = net.spec
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != spec.input_dim:
        raise NetworkError(f"input shape {x.shape} incompatible with input_dim {spec.input_dim}")
    b, t, _ = x.shape
    h = spec.hidden
    r_size = spec.recurrent_size
    if lengths is not None:
        lengths = list(lengths)
        if len(lengths) != b or not all(_is_int(n) and 0 <= n <= t for n in lengths):
            raise NetworkError(f"lengths {lengths} do not fit a batch of shape {x.shape}")

    def transposed(name):  # C-contiguous (k, z) copy of a (z, k) weight
        return np.ascontiguousarray(net.weight(name).T)

    def seq_affine(seq, w_t, bias):  # (B, T, k) @ (k, z) + bias
        if lengths is None:
            out = seq @ w_t
        else:
            out = np.zeros((b, t, w_t.shape[1]))
            for j, n in enumerate(lengths):
                out[j, :n] = seq[j : j + 1, :n] @ w_t
        out += bias
        return out

    def frame_product(v, w_t):  # (B, k) @ (k, z)
        return v @ w_t if lengths is None else (v[:, None] @ w_t)[:, 0]

    cache = {"layers": [], "consumed": False} if want_cache else None
    seq = x
    for li in range(spec.layers):
        wx_t = transposed(f"l{li}.wx")
        wr_t = transposed(f"l{li}.wr")
        bias = net.block(f"l{li}.bias")
        peep = net.block(f"l{li}.peep") if spec.peepholes else None
        proj_t = transposed(f"l{li}.proj") if spec.projection > 0 else None

        # per frame, the gates [i, f, g, o] as four contiguous (B, h) blocks:
        # pre-activations, then activations in place; g's block is scratch
        # and tanh(z_g) goes to gg
        act = np.ascontiguousarray(
            seq_affine(seq, wx_t, bias).reshape(b, t, 4, h).transpose(1, 2, 0, 3))
        gg = np.empty((t, b, h))
        cc = np.empty((t, b, h))
        mm = np.empty((t, b, h))
        rr = np.empty((t, b, r_size)) if proj_t is not None else mm
        tanh_c = np.empty((b, h))

        c_prev = np.zeros((b, h))
        r_prev = np.zeros((b, r_size))
        for ti in range(t):
            z = act[ti]
            z += frame_product(r_prev, wr_t).reshape(b, 4, h).transpose(1, 0, 2)
            np.tanh(z[2], out=gg[ti])
            if peep is None:
                _sigmoid_(z)  # i, f and o in one pass
            else:
                z[0] += peep[:h] * c_prev
                z[1] += peep[h : 2 * h] * c_prev
                _sigmoid_(z[:2])
            c_t = np.multiply(z[1], c_prev, out=cc[ti])
            c_t += z[0] * gg[ti]
            o_t = z[3]
            if peep is not None:
                o_t += peep[2 * h :] * c_t
                _sigmoid_(o_t)
            np.multiply(o_t, np.tanh(c_t, out=tanh_c), out=mm[ti])
            if proj_t is not None:
                rr[ti] = frame_product(mm[ti], proj_t)
            c_prev, r_prev = c_t, rr[ti]

        if want_cache:
            cache["layers"].append({"in": seq, "gates": act, "g": gg, "c": cc, "m": mm,
                                    "r": rr})
        seq = np.transpose(rr, (1, 0, 2))  # (B, T, r)

    logits = seq_affine(seq, transposed("out.w"), net.block("out.b"))
    if lengths is not None:
        for j, n in enumerate(lengths):
            logits[j, n:] = 0.0
    if want_cache:
        cache["top"] = seq
        cache["logits"] = logits
    return logits, cache


def _add_weight_grad(net: Network, grad: np.ndarray, name: str, dw: np.ndarray) -> None:
    """Accumulate dense-weight gradient dw into grad, onto u and v if factored."""
    if net.spec.rank_of(name) is None:
        net.block(name, grad)[...] += dw
    else:
        u, v = net.block(f"{name}.u"), net.block(f"{name}.v")
        net.block(f"{name}.u", grad)[...] += dw @ v.T
        net.block(f"{name}.v", grad)[...] += u.T @ dw


def backward_batch(net: Network, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. all parameters.

    dlogits: (B, T, N) upstream gradient w.r.t. the output-layer logits; must
    be zero on padded frames.  Returns a flat vector in parameter layout.
    Consumes the cache (see "Memory").
    """
    spec = net.spec
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if cache["consumed"]:
        raise NetworkError("forward cache already consumed by a backward pass")
    if dlogits.shape != cache["logits"].shape:
        raise NetworkError("upstream gradient shape does not match cached forward")
    cache["consumed"] = True
    b, t, _ = dlogits.shape
    h = spec.hidden
    grad = np.zeros_like(net.parameters)

    _add_weight_grad(net, grad, "out.w", _frame_sum(dlogits.transpose(1, 0, 2),
                                                    cache["top"].transpose(1, 0, 2)))
    net.block("out.b", grad)[...] += dlogits.sum(axis=(0, 1))
    dseq = dlogits @ net.weight("out.w")  # (B, T, r_top)

    for li in reversed(range(spec.layers)):
        lc = cache["layers"][li]
        wx = net.weight(f"l{li}.wx")
        wr = net.weight(f"l{li}.wr")
        peep = net.block(f"l{li}.peep") if spec.peepholes else None
        proj = net.weight(f"l{li}.proj") if spec.projection > 0 else None

        gates = lc["gates"]  # (T, 4, B, h); frame t's block becomes its dz below
        gi, gf, go = gates[:, 0], gates[:, 1], gates[:, 3]
        gg, cc, mm, rr = lc["g"], lc["c"], lc["m"], lc["r"]
        dz_all = gates.reshape(t, b, 4 * h)
        # the gates' derivative factors of one chunk of frames
        factors = np.empty((6, min(t, _FACTOR_CHUNK), b, h))
        tanh_c, d_tanh_c, d_gi, d_gf, d_go, d_gg = factors

        dz_gates = np.empty((4, b, h))
        dzi, dzf, dzg, dzo = dz_gates
        dproj = np.zeros_like(proj) if proj is not None else None
        dpeep = np.zeros(3 * h) if peep is not None else None
        dr_rec = np.zeros((b, rr.shape[2]))
        dc_next = np.zeros((b, h))
        c_zero = np.zeros((b, h))
        dc = np.empty((b, h))
        for ti in reversed(range(t)):
            k = ti % _FACTOR_CHUNK  # frame ti's row of the factors
            if k == _FACTOR_CHUNK - 1 or ti == t - 1:  # entering a chunk: fill it
                rows, span = slice(k + 1), slice(ti - k, ti + 1)
                np.tanh(cc[span], out=tanh_c[rows])
                np.subtract(1.0, np.square(tanh_c[rows], out=d_tanh_c[rows]), out=d_tanh_c[rows])
                np.subtract(1.0, gi[span], out=d_gi[rows])
                np.subtract(1.0, gf[span], out=d_gf[rows])
                np.subtract(1.0, go[span], out=d_go[rows])
                np.subtract(1.0, np.square(gg[span], out=d_gg[rows]), out=d_gg[rows])
            c_prev = cc[ti - 1] if ti > 0 else c_zero
            dr = dseq[:, ti] + dr_rec
            if proj is not None:
                dproj += dr.T @ mm[ti]
                dm = dr @ proj
            else:
                dm = dr
            # each product keeps the association ((a * b) * c) of the plain
            # per-frame expressions, so the bits do not change
            np.multiply(dm, tanh_c[k], out=dzo)
            dzo *= go[ti]
            dzo *= d_go[k]
            np.multiply(dm, go[ti], out=dc)
            dc *= d_tanh_c[k]
            dc += dc_next
            if peep is not None:
                dc += dzo * peep[2 * h :]
                dpeep[2 * h :] += np.sum(dzo * cc[ti], axis=0)
            np.multiply(dc, gg[ti], out=dzi)
            dzi *= gi[ti]
            dzi *= d_gi[k]
            np.multiply(dc, c_prev, out=dzf)
            dzf *= gf[ti]
            dzf *= d_gf[k]
            np.multiply(dc, gi[ti], out=dzg)
            dzg *= d_gg[k]
            dc_next = dc * gf[ti]
            if peep is not None:
                dc_next += dzi * peep[:h]
                dc_next += dzf * peep[h : 2 * h]
                dpeep[:h] += np.sum(dzi * c_prev, axis=0)
                dpeep[h : 2 * h] += np.sum(dzf * c_prev, axis=0)
            dz = dz_all[ti]
            np.copyto(dz.reshape(b, 4, h), dz_gates.transpose(1, 0, 2))
            dr_rec = dz @ wr

        # frame 0's recurrent input is zero, so wr's sum starts at frame 1
        _add_weight_grad(net, grad, f"l{li}.wx", _frame_sum(dz_all, lc["in"].transpose(1, 0, 2)))
        _add_weight_grad(net, grad, f"l{li}.wr", _frame_sum(dz_all[1:], rr[:-1]))
        net.block(f"l{li}.bias", grad)[...] += dz_all.sum(axis=(0, 1))
        if peep is not None:
            net.block(f"l{li}.peep", grad)[...] += dpeep
        if proj is not None:
            _add_weight_grad(net, grad, f"l{li}.proj", dproj)

        if li > 0:
            dseq = np.transpose(dz_all @ wx, (1, 0, 2))  # grad w.r.t. layer input

    return grad


def posteriors(logits: np.ndarray) -> Posteriorgram:
    """One sequence's (T, N) logits as row-stochastic posteriors."""
    return Posteriorgram(softmax(logits))


def forward(net: Network, frames: np.ndarray) -> Posteriorgram:
    """Single-sequence forward returning row-stochastic posteriors."""
    logits, _ = forward_batch(net, np.asarray(frames)[None, :, :], want_cache=False)
    return posteriors(logits[0])


# ---------------------------------------------------------------------------
# Reference model specs for the wake-word task (5-symbol output alphabet).

def large_kws_spec() -> ModelSpec:
    """5 LSTM layers of 1024 cells projected to 512; ~24.16M parameters."""
    return ModelSpec(
        input_dim=640, layers=5, hidden=1024, projection=512,
        output_dim=5, peepholes=True,
    )


SMALL_KWS_SVD_RANK = 106  # budget-tuned so the factored model lands at ~0.89M


def small_kws_spec() -> ModelSpec:
    """3 LSTM layers of 256 cells projected to 128, input/recurrent weights
    factored at a uniform rank; ~0.89M parameters (~1/27 of the large spec)."""
    ranks = {}
    for i in range(3):
        ranks[f"l{i}.wx"] = SMALL_KWS_SVD_RANK
        ranks[f"l{i}.wr"] = SMALL_KWS_SVD_RANK
    return ModelSpec(
        input_dim=640, layers=3, hidden=256, projection=128,
        output_dim=5, peepholes=True, svd_rank=tuple(sorted(ranks.items())),
    )


# ---------------------------------------------------------------------------
# Checkpoints
#
# Layout (little-endian):
#   magic    4 bytes  b"FSCK"
#   version  u32      1
#   spec     u32 length + UTF-8 JSON of ModelSpec.to_dict()
#   dtype    u8       0 = float64, the only code
#   count    u64      parameter count
#   payload  count little-endian float64 parameters

_CKPT_MAGIC = b"FSCK"
_CKPT_VERSION = 1


def save_checkpoint(net: Network, path: str | Path) -> None:
    spec_json = json.dumps(net.spec.to_dict(), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(spec_json)))
        fh.write(spec_json)
        fh.write(struct.pack("<BQ", 0, len(net.parameters)))
        fh.write(np.ascontiguousarray(net.parameters, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Network:
    data = Path(path).read_bytes()
    if data[:4] != _CKPT_MAGIC:
        raise NetworkError(f"{path}: not a checkpoint file")
    try:
        version, spec_len = struct.unpack_from("<II", data, 4)
        if version != _CKPT_VERSION:
            raise NetworkError(f"{path}: unsupported checkpoint version {version}")
        spec = ModelSpec(**json.loads(data[12 : 12 + spec_len].decode()))
        code, count = struct.unpack_from("<BQ", data, 12 + spec_len)
        if code != 0:
            raise NetworkError(f"{path}: unknown dtype code {code} (0 = float64 is the only one)")
        payload = data[21 + spec_len :]
        if len(payload) != 8 * count:
            raise NetworkError(f"{path}: parameter payload has {len(payload)} bytes, "
                               f"expected {8 * count}")
        return Network(spec, np.frombuffer(payload, dtype="<f8").copy())
    except NetworkError:
        raise
    except (struct.error, ValueError, TypeError, AttributeError) as e:
        raise NetworkError(f"{path}: malformed checkpoint ({e})") from e
