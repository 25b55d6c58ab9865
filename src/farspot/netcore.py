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
sum, and `np.einsum` sums in the memory order of its operands.
The LSTM weight gradients are summed over (batch b, frame t) as follows:
    l{i}.wx          b-major when the layer input is a contiguous (B, T, d)
                     batch (layer 0), through a b-major copy of dz; t-major
                     when it is the (B, T, r) view of the (T, B, r) output of
                     the layer below
    l{i}.wr          t-major
`backward_batch` must match the plain per-frame BPTT of tests/helpers.py bit
for bit.

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
with BLAS at one thread and at one thread per CPU.  Training keeps the
plain batched products: its checkpoints were made with them.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class NetworkError(ValueError):
    pass


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
        if np.any(self.rows < -1e-12) or np.any(self.rows > 1 + 1e-12):
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
    peepholes: bool = True
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
        return {
            "input_dim": self.input_dim,
            "layers": self.layers,
            "hidden": self.hidden,
            "projection": self.projection,
            "output_dim": self.output_dim,
            "peepholes": self.peepholes,
            "svd_rank": dict(self.svd_rank) if self.svd_rank else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(**d)


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
    _offsets: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.parameters = np.asarray(self.parameters, dtype=np.float64)
        expected = param_count(self.spec)
        if self.parameters.shape != (expected,):
            raise NetworkError(
                f"parameter vector has {self.parameters.shape}, spec needs ({expected},)"
            )
        if not np.all(np.isfinite(self.parameters)):
            raise NetworkError("non-finite parameters")
        off = 0
        for name, shape in layout(self.spec):
            n = int(np.prod(shape))
            self._offsets[name] = (off, shape)
            off += n

    def block(self, name: str) -> np.ndarray:
        off, shape = self._offsets[name]
        return self.parameters[off : off + int(np.prod(shape))].reshape(shape)

    def weight(self, name: str) -> np.ndarray:
        """Effective (dense) weight of a possibly factored block."""
        if name in self._offsets:
            return self.block(name)
        return self.block(f"{name}.u") @ self.block(f"{name}.v")

    def copy(self) -> "Network":
        return Network(self.spec, self.parameters.copy())


class GradientSink:
    """Flat gradient vector addressable by block name."""

    def __init__(self, net: Network):
        self.net = net
        self.grad = np.zeros_like(net.parameters)

    def view(self, name: str) -> np.ndarray:
        off, shape = self.net._offsets[name]
        return self.grad[off : off + int(np.prod(shape))].reshape(shape)

    def add_weight_grad(self, name: str, dw: np.ndarray) -> None:
        """Accumulate a dense-weight gradient, projecting onto factors if needed."""
        if name in self.net._offsets:
            self.view(name)[...] += dw
        else:
            u = self.net.block(f"{name}.u")
            v = self.net.block(f"{name}.v")
            self.view(f"{name}.u")[...] += dw @ v.T
            self.view(f"{name}.v")[...] += u.T @ dw


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
        lengths = [int(n) for n in lengths]
        if len(lengths) != b or not all(0 <= n <= t for n in lengths):
            raise NetworkError(f"lengths {lengths} do not fit a batch of shape {x.shape}")

    def seq_product(seq, w):  # (B, T, k) @ w.T
        if lengths is None:
            return seq @ w.T
        out = np.zeros((b, t, w.shape[0]))
        for j, n in enumerate(lengths):
            out[j, :n] = seq[j : j + 1, :n] @ w.T
        return out

    def frame_product(v, w):  # (B, k) @ w.T
        return v @ w.T if lengths is None else (v[:, None] @ w.T)[:, 0]

    cache = {"layers": []} if want_cache else None
    seq = x
    for li in range(spec.layers):
        wx = net.weight(f"l{li}.wx")
        wr = net.weight(f"l{li}.wr")
        bias = net.block(f"l{li}.bias")
        peep = net.block(f"l{li}.peep") if spec.peepholes else None
        proj = net.weight(f"l{li}.proj") if spec.projection > 0 else None

        # per frame, the gates [i, f, g, o] as four contiguous (B, h) blocks:
        # pre-activations, then activations in place; g's block is scratch
        # and tanh(z_g) goes to gg
        act = np.ascontiguousarray(
            (seq_product(seq, wx) + bias).reshape(b, t, 4, h).transpose(1, 2, 0, 3))
        gg = np.empty((t, b, h))
        cc = np.empty((t, b, h))
        mm = np.empty((t, b, h))
        rr = np.empty((t, b, r_size)) if proj is not None else mm
        tanh_c = np.empty((b, h))

        c_prev = np.zeros((b, h))
        r_prev = np.zeros((b, r_size))
        for ti in range(t):
            z = act[ti]
            z += frame_product(r_prev, wr).reshape(b, 4, h).transpose(1, 0, 2)
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
            if proj is not None:
                rr[ti] = frame_product(mm[ti], proj)
            c_prev, r_prev = c_t, rr[ti]

        if want_cache:
            cache["layers"].append({
                "in": seq, "i": act[:, 0], "f": act[:, 1], "g": gg, "o": act[:, 3],
                "c": cc, "m": mm, "r": rr,
            })
        seq = np.transpose(rr, (1, 0, 2))  # (B, T, r)

    logits = seq_product(seq, net.weight("out.w")) + net.block("out.b")
    if lengths is not None:
        for j, n in enumerate(lengths):
            logits[j, n:] = 0.0
    if want_cache:
        cache["top"] = seq
        cache["logits"] = logits
    return logits, cache


def backward_batch(net: Network, cache: dict, dlogits: np.ndarray) -> np.ndarray:
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
    sink.add_weight_grad("out.w", np.einsum("btn,btr->nr", dlogits, top))
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
        # the gates' derivative factors
        d_tanh_c = 1.0 - tanh_c**2
        d_gi, d_gf, d_go = 1.0 - gi, 1.0 - gf, 1.0 - go
        d_gg = 1.0 - gg**2

        dz_all = np.empty((t, b, 4 * h))
        dz_gates = np.empty((4, b, h))
        dzi, dzf, dzg, dzo = dz_gates
        dproj = np.zeros_like(proj) if proj is not None else None
        dpeep = np.zeros(3 * h) if peep is not None else None
        dr_rec = np.zeros((b, rr.shape[2]))
        dc_next = np.zeros((b, h))
        c_zero = np.zeros((b, h))
        dc = np.empty((b, h))
        for ti in reversed(range(t)):
            c_prev = cc[ti - 1] if ti > 0 else c_zero
            dr = dseq[:, ti] + dr_rec
            if proj is not None:
                dproj += dr.T @ mm[ti]
                dm = dr @ proj
            else:
                dm = dr
            # each product keeps the association ((a * b) * c) of the plain
            # per-frame expressions, so the bits do not change
            np.multiply(dm, tanh_c[ti], out=dzo)
            dzo *= go[ti]
            dzo *= d_go[ti]
            np.multiply(dm, go[ti], out=dc)
            dc *= d_tanh_c[ti]
            dc += dc_next
            if peep is not None:
                dc += dzo * peep[2 * h :]
                dpeep[2 * h :] += np.sum(dzo * cc[ti], axis=0)
            np.multiply(dc, gg[ti], out=dzi)
            dzi *= gi[ti]
            dzi *= d_gi[ti]
            np.multiply(dc, c_prev, out=dzf)
            dzf *= gf[ti]
            dzf *= d_gf[ti]
            np.multiply(dc, gi[ti], out=dzg)
            dzg *= d_gg[ti]
            dc_next = dc * gf[ti]
            if peep is not None:
                dc_next += dzi * peep[:h]
                dc_next += dzf * peep[h : 2 * h]
                dpeep[:h] += np.sum(dzi * c_prev, axis=0)
                dpeep[h : 2 * h] += np.sum(dzf * c_prev, axis=0)
            dz = dz_all[ti]
            np.copyto(dz.reshape(b, 4, h), dz_gates.transpose(1, 0, 2))
            dr_rec = dz @ wr
        # free the whole-sequence factors before the contractions' temporaries
        del tanh_c, d_tanh_c, d_gi, d_gf, d_go, d_gg

        x_in = lc["in"]  # (B, T, d)
        if x_in.flags.c_contiguous:
            # einsum sums a batch-major input over (b, t); so does this
            # batch-major copy of dz, only faster
            dwx = np.einsum("btz,btd->zd", np.ascontiguousarray(dz_all.transpose(1, 0, 2)), x_in)
        else:
            dwx = np.einsum("tbz,btd->zd", dz_all, x_in)
        sink.add_weight_grad(f"l{li}.wx", dwx)
        r_prev_seq = np.zeros_like(rr)
        r_prev_seq[1:] = rr[:-1]
        sink.add_weight_grad(f"l{li}.wr", np.einsum("tbz,tbr->zr", dz_all, r_prev_seq))
        sink.view(f"l{li}.bias")[...] += dz_all.sum(axis=(0, 1))
        if peep is not None:
            sink.view(f"l{li}.peep")[...] += dpeep
        if proj is not None:
            sink.add_weight_grad(f"l{li}.proj", dproj)

        if li > 0:
            dseq = np.transpose(dz_all @ wx, (1, 0, 2))  # grad w.r.t. layer input

    return sink.grad


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
        spec = ModelSpec.from_dict(json.loads(data[12 : 12 + spec_len].decode()))
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
