"""Room acoustics simulation: image-method impulse responses and far-field mixing.

Far-field speech is synthesized by convolving close-talk speech with a room
impulse response (RIR) and adding noise at a requested SNR.

Conventions:
    * audio is mono float64 in nominal range [-1, 1] at REQUIRED_RATE (16 kHz)
    * wall reflection coefficients are pressure coefficients in [0, 1]
    * SNR is the RMS power ratio of the (reverberant) speech component to the
      total scaled noise component, measured over the full utterance
"""

from __future__ import annotations

import wave
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s
REQUIRED_RATE = 16000  # Hz: every waveform, impulse response and WAV file

# Length of the windowed-sinc fractional-delay kernel (odd; +/-40 samples).
FRAC_DELAY_TAPS = 81


class SimulationError(ValueError):
    """Invalid geometry or signal arguments for a simulation operation."""


@dataclass
class Waveform:
    """Mono audio signal at REQUIRED_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise SimulationError("waveform must be 1-D")
        if not np.all(np.isfinite(self.samples)):
            raise SimulationError("waveform contains non-finite samples")

    def __len__(self):
        return len(self.samples)

    def rms(self) -> float:
        if len(self.samples) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass
class ImpulseResponse:
    """Finite impulse response."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or len(self.taps) == 0:
            raise SimulationError("impulse response must be non-empty and 1-D")
        if not np.all(np.isfinite(self.taps)):
            raise SimulationError("impulse response contains non-finite taps")

    def __len__(self):
        return len(self.taps)


@dataclass
class RoomSpec:
    """Shoebox room geometry for the image method.

    `wall_reflection` holds six pressure reflection coefficients ordered
    (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz).  A scalar is broadcast to all walls.
    """

    dimensions: np.ndarray
    source_position: np.ndarray
    mic_position: np.ndarray
    wall_reflection: np.ndarray = 0.0
    max_order: int = 0
    ir_length: int = 4096

    def __post_init__(self):
        self.dimensions = np.asarray(self.dimensions, dtype=np.float64)
        self.source_position = np.asarray(self.source_position, dtype=np.float64)
        self.mic_position = np.asarray(self.mic_position, dtype=np.float64)
        refl = np.asarray(self.wall_reflection, dtype=np.float64)
        if refl.ndim == 0:
            refl = np.full(6, float(refl))
        self.wall_reflection = refl
        if self.dimensions.shape != (3,) or np.any(self.dimensions <= 0):
            raise SimulationError("room dimensions must be a positive 3-vector")
        for name, pos in (("source", self.source_position), ("mic", self.mic_position)):
            if pos.shape != (3,):
                raise SimulationError(f"{name} position must be a 3-vector")
            if np.any(pos <= 0) or np.any(pos >= self.dimensions):
                raise SimulationError(f"{name} position lies outside the room")
        if self.wall_reflection.shape != (6,):
            raise SimulationError("wall_reflection needs 6 coefficients")
        if np.any(self.wall_reflection < 0) or np.any(self.wall_reflection > 1):
            raise SimulationError("wall reflection coefficients must be in [0, 1]")
        if np.allclose(self.source_position, self.mic_position):
            raise SimulationError("source and microphone coincide (zero distance)")
        if self.max_order < 0:
            raise SimulationError("max_order must be non-negative")
        if self.ir_length < 1:
            raise SimulationError("ir_length must be at least 1 sample")

    def direct_distance(self) -> float:
        return float(np.linalg.norm(self.source_position - self.mic_position))

    def direct_delay_samples(self) -> int:
        return int(round(self.direct_distance() / SPEED_OF_SOUND * REQUIRED_RATE))


def _image_sources(room: RoomSpec):
    """All image-source positions, amplitudes and delays up to max_order.

    Returns (distances, amplitudes) as flat arrays.  Amplitude is the product
    of wall reflection coefficients divided by 4*pi*distance.
    """
    k = (room.max_order + 1) // 2 + 1
    rng_m = np.arange(-k, k + 1)
    mx, my, mz, px, py, pz = np.meshgrid(
        rng_m, rng_m, rng_m, [0, 1], [0, 1], [0, 1], indexing="ij"
    )
    m = np.stack([mx, my, mz], axis=-1).reshape(-1, 3)
    p = np.stack([px, py, pz], axis=-1).reshape(-1, 3)

    order = np.sum(np.abs(m - p) + np.abs(m), axis=1)
    keep = order <= room.max_order
    m, p = m[keep], p[keep]

    pos = (1 - 2 * p) * room.source_position + 2 * m * room.dimensions
    dist = np.linalg.norm(pos - room.mic_position, axis=1)

    refl = room.wall_reflection
    amp = np.ones(len(m))
    for d in range(3):
        amp *= refl[2 * d] ** np.abs(m[:, d] - p[:, d])
        amp *= refl[2 * d + 1] ** np.abs(m[:, d])
    amp /= 4.0 * np.pi * dist
    return dist, amp


def generate_rir(room: RoomSpec, fractional: bool = True) -> ImpulseResponse:
    """Image-method room impulse response.

    With `fractional=True` each image contributes an 81-tap Hann-windowed
    sinc centered on its (non-integer) delay; otherwise the nearest sample
    receives the full amplitude.
    """
    dist, amp = _image_sources(room)
    delays = dist / SPEED_OF_SOUND * REQUIRED_RATE
    h = np.zeros(room.ir_length)

    if fractional:
        half = FRAC_DELAY_TAPS // 2
        offsets = np.arange(-half, half + 1)
        centers = np.floor(delays).astype(int)
        idx = centers[:, None] + offsets[None, :]
        t = idx - delays[:, None]
        win = 0.5 * (1.0 + np.cos(np.pi * t / (half + 1)))
        win[np.abs(t) > half + 1] = 0.0
        taps = amp[:, None] * np.sinc(t) * win
        valid = (idx >= 0) & (idx < room.ir_length)
        np.add.at(h, idx[valid], taps[valid])
    else:
        centers = np.round(delays).astype(int)
        valid = centers < room.ir_length
        np.add.at(h, centers[valid], amp[valid])
    return ImpulseResponse(h)


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n (n >= 1): the real-FFT size to pad to."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve(x: Waveform, h: ImpulseResponse) -> Waveform:
    """Full linear convolution; output length len(x) + len(h) - 1.

    A plain product when either side has one sample, else a real FFT padded
    to a 5-smooth size: the steps, and so the bits, of `fftconvolve`, so
    corpora made with it are unchanged.
    """
    if len(x) == 0:
        return Waveform(np.zeros(0))
    if len(x) == 1 or len(h) == 1:
        return Waveform(x.samples * h.taps)
    size = len(x) + len(h) - 1
    n = _fast_len(size)
    y = np.fft.irfft(np.fft.rfft(x.samples, n) * np.fft.rfft(h.taps, n), n)[:size]
    return Waveform(y)


def _loop_to_length(noise: np.ndarray, n: int, rng: np.random.Generator | None) -> np.ndarray:
    """Tile `noise` to n samples, starting from a random circular offset."""
    if len(noise) >= n:
        return noise[:n]
    offset = int(rng.integers(len(noise))) if rng is not None else 0
    rolled = np.roll(noise, -offset)
    reps = int(np.ceil(n / len(rolled)))
    return np.tile(rolled, reps)[:n]


def mix_at_snr(
    speech: Waveform,
    noise: Waveform,
    snr_db: float,
    rng: np.random.Generator | None = None,
) -> Waveform:
    """speech + g * noise with g chosen so the component power ratio is snr_db.

    Noise shorter than the speech is looped with a circular offset drawn from
    `rng` (offset 0 when rng is None).  snr_db = +inf returns the speech
    unchanged.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return Waveform(speech.samples.copy())
    s_rms = speech.rms()
    if s_rms == 0.0:
        raise SimulationError("speech has zero energy; SNR undefined")
    n = _loop_to_length(noise.samples, len(speech), rng)
    n_rms = np.sqrt(np.mean(n**2))
    if n_rms == 0.0:
        raise SimulationError("noise has zero energy at finite SNR")
    gain = s_rms / n_rms * 10.0 ** (-snr_db / 20.0)
    return Waveform(speech.samples + gain * n)


def _reverberate(s: Waveform, room: RoomSpec) -> Waveform:
    """s through the room's image-method IR, trimmed back to len(s) with the
    direct-path delay discarded, so close-talk / far-field pairs stay
    frame-synchronous."""
    delay = room.direct_delay_samples()
    rev = convolve(s, generate_rir(room)).samples[delay : delay + len(s)]
    return Waveform(np.pad(rev, (0, len(s) - len(rev))))


def simulate_single_channel(
    s: Waveform,
    room: RoomSpec,
    noise: Waveform | None,
    snr_db: float,
    rng: np.random.Generator | None = None,
) -> Waveform:
    """Reverberate speech through the room and add looped noise at snr_db.

    The output is trimmed back to len(s) with the direct-path delay discarded,
    so close-talk / far-field pairs stay frame-synchronous.
    """
    rev = _reverberate(s, room)
    if noise is None or (np.isinf(snr_db) and snr_db > 0):
        return rev
    if rev.rms() == 0.0:
        # All-zero speech: SNR scaling is undefined, pass the noise through
        # at unit gain so the caller still gets the noise floor.
        return Waveform(_loop_to_length(noise.samples, len(s), rng))
    return mix_at_snr(rev, noise, snr_db, rng=rng)


# ---------------------------------------------------------------------------
# WAV I/O: mono 16-bit PCM at REQUIRED_RATE only.


@contextmanager
def _open_wav(path: str | Path):
    """path opened for reading, once its header shows a mono 16-bit PCM WAV at
    REQUIRED_RATE; SimulationError for any other file, unparseable ones too."""
    try:
        f = wave.open(str(path), "rb")  # parses the header
    except (wave.Error, EOFError) as e:
        raise SimulationError(f"{path}: unreadable WAV header ({e or 'cut short'})") from e
    with f:
        if f.getnchannels() != 1:
            raise SimulationError(f"{path}: expected mono WAV, got {f.getnchannels()} channels")
        if f.getsampwidth() != 2:
            raise SimulationError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
        if f.getframerate() != REQUIRED_RATE:
            raise SimulationError(
                f"{path}: expected {REQUIRED_RATE} Hz, got {f.getframerate()} Hz"
            )
        yield f


def check_wav(path: str | Path) -> None:
    """Raise SimulationError unless read_wav accepts path's header; reads no samples."""
    with _open_wav(path):
        pass


def read_wav(path: str | Path) -> Waveform:
    with _open_wav(path) as f:
        raw = f.readframes(f.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples)


def write_wav(path: str | Path, w: Waveform) -> None:
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(REQUIRED_RATE)
        f.writeframes(pcm.tobytes())
