"""Log-Mel filterbank front-end and frame stacking.

Analysis follows the common recipe: 16 kHz audio, pre-emphasis 0.97, a
25 ms Hann window every 10 ms, power spectrum over the smallest power-of-two
FFT that holds the window, HTK-style triangular Mel filters, log floored at
1e-10.  Frame stacking concatenates `context` consecutive frames every
`step` frames, repeating the final frame past the right edge so every input
frame lands in some output.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .simkit import REQUIRED_RATE, Waveform


PREEMPHASIS = 0.97
FLOOR = 1e-10
WINDOW = 400  # samples: 25 ms at 16 kHz
HOP = 160  # samples: 10 ms


class FeatureError(ValueError):
    pass


@dataclass
class FeatureSequence:
    """T x D matrix of feature frames."""

    frames: np.ndarray
    frame_shift_ms: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise FeatureError("frames must be a 2-D (T, D) array")
        if not np.all(np.isfinite(self.frames)):
            raise FeatureError("non-finite feature values")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_mels: int, fft_size: int) -> np.ndarray:
    """(n_mels, fft_size//2 + 1) triangular filter matrix, HTK-style Mel scale.

    Built once per configuration and shared by every caller, so the array is
    read-only: writing to it would change every later log_mel.
    """
    n_bins = fft_size // 2 + 1
    freqs = np.arange(n_bins) * REQUIRED_RATE / fft_size
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(REQUIRED_RATE / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, ctr, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs - lo) / (ctr - lo)
        falling = (hi - freqs) / (hi - ctr)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False
    return fb


def log_mel(w: Waveform, n_mels: int) -> FeatureSequence:
    """Log-Mel filterbank energies, T = (len(w) - WINDOW) // HOP + 1 frames."""
    if n_mels < 1:
        raise FeatureError("n_mels must be >= 1")
    if len(w) < WINDOW:
        raise FeatureError(f"waveform ({len(w)} samples) shorter than one window ({WINDOW})")

    x = w.samples
    pre = np.concatenate([[x[0]], x[1:] - PREEMPHASIS * x[:-1]])

    n_frames = (len(x) - WINDOW) // HOP + 1
    fft_size = 1 << int(np.ceil(np.log2(WINDOW)))
    window = np.hanning(WINDOW)
    fb = mel_filterbank(n_mels, fft_size)

    idx = np.arange(WINDOW)[None, :] + HOP * np.arange(n_frames)[:, None]
    frames = pre[idx] * window
    spec = np.abs(np.fft.rfft(frames, n=fft_size, axis=1)) ** 2
    energies = spec @ fb.T
    return FeatureSequence(np.log(np.maximum(energies, FLOOR)), 1000.0 * HOP / REQUIRED_RATE)


def stack_frames(f: FeatureSequence, context: int, step: int) -> FeatureSequence:
    """Concatenate `context` frames starting at every `step` input frames.

    Output frame k covers input frames [k*step, k*step + context); indices past
    the end repeat the last input frame.  Output count is ceil(T / step).
    """
    if context < 1 or step < 1:
        raise FeatureError("context and step must be >= 1")
    t = f.num_frames
    if t == 0:
        raise FeatureError("cannot stack an empty feature sequence")
    n_out = -(-t // step)
    idx = step * np.arange(n_out)[:, None] + np.arange(context)[None, :]
    idx = np.minimum(idx, t - 1)
    stacked = f.frames[idx].reshape(n_out, context * f.dim)
    return FeatureSequence(stacked, f.frame_shift_ms * step)


# ---------------------------------------------------------------------------
# Feature archive: binary container for one utterance's features.
#
# Layout (little-endian):
#   magic   4 bytes  b"FSFA"
#   version u32      1
#   T       u32      frame count
#   D       u32      feature dim
#   shift   f64      frame shift in ms
#   payload T*D f32  row-major frames

_MAGIC = b"FSFA"
_VERSION = 1


def write_features(path: str | Path, f: FeatureSequence) -> None:
    header = _MAGIC + struct.pack("<IIId", _VERSION, f.num_frames, f.dim, f.frame_shift_ms)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.frames.astype("<f4").tobytes())


def read_features(path: str | Path) -> FeatureSequence:
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise FeatureError(f"{path}: not a feature archive")
    if len(data) < 24:
        raise FeatureError(f"{path}: truncated archive header")
    version, t, d, shift = struct.unpack_from("<IIId", data, 4)
    if version != _VERSION:
        raise FeatureError(f"{path}: unsupported archive version {version}")
    if not (np.isfinite(shift) and shift > 0):
        raise FeatureError(f"{path}: frame shift {shift} ms is not positive")
    if len(data) - 24 != t * d * 4:
        raise FeatureError(f"{path}: payload has {len(data) - 24} bytes, expected {t * d * 4}")
    return FeatureSequence(np.frombuffer(data, dtype="<f4", offset=24).reshape(t, d)
                           .astype(np.float64), shift)
