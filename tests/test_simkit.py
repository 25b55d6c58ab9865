import re
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farspot import simkit
from farspot.simkit import (
    ImpulseResponse,
    RoomSpec,
    SimulationError,
    Waveform,
)
from helpers import ir_energy, measure_snr, naive_convolve, unit_impulse


def _basic_room(**kw):
    defaults = dict(
        dimensions=[5.0, 4.0, 3.0],
        source_position=[1.0, 1.0, 1.0],
        mic_position=[3.0, 2.0, 1.5],
        wall_reflection=0.0,
        max_order=0,
    )
    defaults.update(kw)
    return RoomSpec(**defaults)


class TestRoomSpec:
    def test_direct_distance(self):
        room = _basic_room()
        assert room.direct_distance() == pytest.approx(np.sqrt(4 + 1 + 0.25))

    def test_scalar_reflection_broadcasts(self):
        # one coefficient for all six walls, kept as a float
        room = _basic_room(wall_reflection=0.8)
        assert room.wall_reflection == 0.8
        assert isinstance(room.wall_reflection, float)

    def test_source_outside_room_rejected(self):
        with pytest.raises(SimulationError):
            _basic_room(source_position=[6.0, 1.0, 1.0])

    def test_coincident_source_and_mic_rejected(self):
        with pytest.raises(SimulationError):
            _basic_room(mic_position=[1.0, 1.0, 1.0])

    # a NaN room used to construct; only generate_rir failed, on its taps
    @pytest.mark.parametrize("beta", [1.2, -0.1, float("nan")])
    def test_reflection_out_of_range_rejected(self, beta):
        with pytest.raises(SimulationError, match="wall reflection"):
            _basic_room(wall_reflection=beta)


def _hann_sinc(delay, amp, n):
    """n taps of amp * sinc(k - delay) under a Hann window of half-width
    FRAC_DELAY_TAPS // 2 + 1, on the taps floor(delay) +/- FRAC_DELAY_TAPS // 2."""
    half = simkit.FRAC_DELAY_TAPS // 2
    k = np.arange(n)
    t = k - delay
    on = np.abs(k - np.floor(delay)) <= half
    return np.where(on, amp * np.sinc(t) * 0.5 * (1.0 + np.cos(np.pi * t / (half + 1))), 0.0)


def _delay(d):
    return d / simkit.SPEED_OF_SOUND * simkit.REQUIRED_RATE


class TestGenerateRir:
    def test_anechoic_taps_equal_windowed_sinc(self):
        # distance 2.2913 m -> 106.88 samples at 16 kHz; amplitude 1 / (4 pi d)
        room = _basic_room(ir_length=256)
        d = room.direct_distance()
        expected = _hann_sinc(_delay(d), 1.0 / (4.0 * np.pi * d), 256)
        taps = simkit.generate_rir(room).taps
        assert np.max(np.abs(taps - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_anechoic_peak_is_localized(self):
        room = _basic_room(ir_length=512)
        ir = simkit.generate_rir(room)
        peak = int(np.argmax(np.abs(ir.taps)))
        assert abs(peak - 107) <= 1
        half = simkit.FRAC_DELAY_TAPS // 2
        outside = np.concatenate([ir.taps[: 107 - half - 2], ir.taps[107 + half + 2 :]])
        assert np.all(outside == 0.0)

    def test_order_zero_with_reflections_is_one_kernel(self):
        # order 0 is the direct path alone, whatever the walls reflect
        ir = simkit.generate_rir(_basic_room(wall_reflection=0.9, max_order=0, ir_length=256))
        half = simkit.FRAC_DELAY_TAPS // 2
        nz = np.nonzero(ir.taps)[0]
        assert nz[0] >= 106 - half and nz[-1] <= 106 + half  # floor(106.88) +/- half
        assert np.array_equal(ir.taps, simkit.generate_rir(_basic_room(ir_length=256)).taps)

    def test_energy_grows_with_reflection_coefficient(self):
        energies = []
        for beta in (0.0, 0.3, 0.6, 0.9):
            ir = simkit.generate_rir(
                _basic_room(wall_reflection=beta, max_order=3, ir_length=2048)
            )
            energies.append(ir_energy(ir))
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_first_order_image_count(self):
        # order <= 1: direct path plus one image per wall
        room = _basic_room(wall_reflection=0.5, max_order=1, ir_length=4096)
        dist, amp = simkit._image_sources(room)
        assert len(dist) == 7

    @staticmethod
    def _hand_images(room):
        """(distance, amplitude) of the direct path and of the source reflected
        by hand in each of the six walls: 1 / (4 pi d) and beta / (4 pi d)."""
        src, mic, dims = room.source_position, room.mic_position, room.dimensions
        images = []
        for axis in range(3):
            lo = src.copy()
            lo[axis] = -src[axis]
            hi = src.copy()
            hi[axis] = 2 * dims[axis] - src[axis]
            images += [lo, hi]
        d0 = room.direct_distance()
        beta = room.wall_reflection
        return [(d0, 1.0 / (4.0 * np.pi * d0))] + [
            (d, beta / (4.0 * np.pi * d)) for d in (float(np.linalg.norm(p - mic)) for p in images)
        ]

    def test_first_order_amplitudes_match_hand_geometry(self):
        room = _basic_room(wall_reflection=0.5, max_order=1, ir_length=4096)
        expected = np.array(sorted(self._hand_images(room)))
        dist, amp = simkit._image_sources(room)
        got = np.array(sorted(zip(dist, amp)))
        assert np.allclose(got[:, 0], expected[:, 0])
        assert np.allclose(got[:, 1], expected[:, 1], rtol=1e-12, atol=0.0)

    def test_first_order_rir_is_sum_of_hand_kernels(self):
        room = _basic_room(wall_reflection=0.5, max_order=1, ir_length=512)
        expected = sum(_hann_sinc(_delay(d), a, 512) for d, a in self._hand_images(room))
        taps = simkit.generate_rir(room).taps
        assert np.max(np.abs(taps - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_rt60_matches_eyring_prediction(self):
        # Schroeder backward integration, fitted on the -15..-35 dB stretch of
        # the decay, against the Eyring formula; diffuse-field assumptions
        # hold well enough at low absorption for a 25% agreement check.
        room = RoomSpec(
            dimensions=[6.0, 5.0, 3.0],
            source_position=[1.5, 2.0, 1.2],
            mic_position=[4.2, 3.1, 1.7],
            wall_reflection=0.9,
            max_order=36,
            ir_length=20000,
        )
        h = simkit.generate_rir(room).taps
        edc = np.cumsum(h[::-1] ** 2)[::-1]
        edc_db = 10 * np.log10(np.maximum(edc / edc[0], 1e-30))
        t = np.arange(len(h)) / simkit.REQUIRED_RATE
        i1 = int(np.argmax(edc_db <= -15.0))
        i2 = int(np.argmax(edc_db <= -35.0))
        slope = (edc_db[i2] - edc_db[i1]) / (t[i2] - t[i1])
        t60 = -60.0 / slope

        dims = room.dimensions
        volume = float(np.prod(dims))
        surface = 2 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
        eyring = 0.161 * volume / (-surface * np.log(0.9**2))
        assert abs(t60 - eyring) / eyring < 0.25


class TestConvolve:
    def test_identity(self):
        x = Waveform(np.sin(np.arange(400) * 0.01))
        y = simkit.convolve(x, unit_impulse())
        assert np.allclose(y.samples, x.samples, atol=1e-12)

    def test_pure_delay(self):
        x = Waveform(np.arange(10.0))
        y = simkit.convolve(x, unit_impulse(delay=3))
        assert len(y) == 13
        assert np.allclose(y.samples[3:], np.arange(10.0), atol=1e-12)
        assert np.allclose(y.samples[:3], 0.0, atol=1e-12)

    def test_against_direct_sum(self):
        # FFT sizes 2^a * 3^b * 5^c that are not powers of two (320, 300,
        # 3072, 3), x shorter than h, and one-sample inputs (a plain product)
        rng = np.random.default_rng(7)
        for nx, nh in [(257, 63), (100, 201), (7, 300), (1000, 2048), (2, 2),
                       (1, 50), (50, 1), (1, 1)]:
            x = rng.standard_normal(nx)
            h = rng.standard_normal(nh)
            y = simkit.convolve(Waveform(x), ImpulseResponse(h))
            assert len(y) == nx + nh - 1
            assert np.allclose(y.samples, naive_convolve(x, h), atol=1e-10), (nx, nh)

    def test_empty_waveform_gives_empty_output(self):
        y = simkit.convolve(Waveform(np.zeros(0)), ImpulseResponse(np.ones(5)))
        assert len(y) == 0

    def test_fft_size_is_smallest_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 5001):
            n_fft = n
            while not smooth(n_fft):
                n_fft += 1
            assert simkit._fast_len(n) == n_fft, n

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        h = ImpulseResponse(rng.standard_normal(17))
        lhs = simkit.convolve(Waveform(a + 2.0 * b), h).samples
        rhs = (
            simkit.convolve(Waveform(a), h).samples
            + 2.0 * simkit.convolve(Waveform(b), h).samples
        )
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestMixAtSnr:
    def test_gain_on_unit_power_signals(self):
        # both signals have RMS exactly 1, so the gain is 10^(-snr/20)
        speech = Waveform(np.tile([1.0, -1.0], 100))
        noise = Waveform(np.tile([-1.0, 1.0], 100))
        mixed = simkit.mix_at_snr(speech, noise, 20.0)
        assert np.allclose(mixed.samples, speech.samples + 0.1 * noise.samples)

    def test_infinite_snr_returns_speech(self):
        speech = Waveform(np.sin(np.arange(100) * 0.1))
        noise = Waveform(np.ones(100))
        mixed = simkit.mix_at_snr(speech, noise, np.inf)
        assert np.array_equal(mixed.samples, speech.samples)

    @given(snr=st.floats(-10.0, 30.0), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_remeasured_snr(self, snr, seed):
        rng = np.random.default_rng(seed)
        speech = Waveform(rng.standard_normal(2000))
        noise = Waveform(rng.standard_normal(2000))
        mixed = simkit.mix_at_snr(speech, noise, snr)
        scaled_noise = Waveform(mixed.samples - speech.samples)
        assert measure_snr(speech, scaled_noise) == pytest.approx(snr, abs=0.01)

    def test_zero_noise_rejected(self):
        speech = Waveform(np.ones(50))
        with pytest.raises(SimulationError):
            simkit.mix_at_snr(speech, Waveform(np.zeros(50)), 10.0)

    def test_zero_speech_rejected(self):
        noise = Waveform(np.ones(50))
        with pytest.raises(SimulationError):
            simkit.mix_at_snr(Waveform(np.zeros(50)), noise, 10.0)


class TestSimulateSingleChannel:
    def test_matches_manual_composition(self):
        room = _basic_room(wall_reflection=0.7, max_order=2, ir_length=1024)
        rng_s = np.random.default_rng(11)
        s = Waveform(rng_s.standard_normal(3000) * 0.1)
        noise = Waveform(rng_s.standard_normal(3000) * 0.1)

        y = simkit.simulate_single_channel(s, room, noise, 12.0)

        rir = simkit.generate_rir(room)
        rev_full = naive_convolve(s.samples, rir.taps)
        delay = room.direct_delay_samples()
        rev = Waveform(rev_full[delay : delay + len(s)])
        expected = simkit.mix_at_snr(rev, noise, 12.0)
        assert np.allclose(y.samples, expected.samples, atol=1e-9)

    def test_output_length_and_sync(self):
        # the direct-path delay is discarded, so a pulse at sample k in the
        # input shows up near sample k in the far-field output
        room = _basic_room(ir_length=1024)
        s = np.zeros(2000)
        s[900] = 1.0
        noise = Waveform(np.ones(2000))
        y = simkit.simulate_single_channel(Waveform(s), room, noise, np.inf)
        assert len(y) == 2000
        assert abs(int(np.argmax(np.abs(y.samples))) - 900) <= 1

    def test_zero_speech_passes_noise_at_unit_gain(self):
        room = _basic_room(ir_length=1024)
        noise = Waveform(np.ones(300))
        y = simkit.simulate_single_channel(Waveform(np.zeros(300)), room, noise, 10.0)
        assert np.allclose(y.samples, 1.0)


# noise longer or shorter than the speech, which used to be cut or looped
@pytest.mark.parametrize("n_noise", [299, 301])
@pytest.mark.parametrize("mix", ["mix_at_snr", "simulate_single_channel"])
def test_noise_of_another_length_rejected(mix, n_noise):
    speech, noise = Waveform(np.ones(300)), Waveform(np.ones(n_noise))
    args = (speech, noise) if mix == "mix_at_snr" else (speech, _basic_room(), noise)
    with pytest.raises(SimulationError, match=f"noise has {n_noise} samples, speech 300"):
        getattr(simkit, mix)(*args, 10.0)


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        w = Waveform(np.clip(rng.standard_normal(1234) * 0.2, -1, 1))
        p = tmp_path / "x.wav"
        simkit.write_wav(p, w)
        with wave.open(str(p), "rb") as f:
            assert f.getframerate() == 16000
        back = simkit.read_wav(p)
        assert len(back) == len(w)
        # 16-bit quantization error is at most one LSB
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768.0

    # a file that starts like a WAV, one cut short, an empty one: these used
    # to raise wave.Error or EOFError
    @pytest.mark.parametrize("data", [b"RIFFjunk", b"RIFF", b""], ids=["junk", "short", "empty"])
    def test_unparseable_file_rejected_on_read(self, tmp_path, data):
        p = tmp_path / "bad.wav"
        p.write_bytes(data)
        with pytest.raises(SimulationError, match="unreadable WAV header"):
            simkit.read_wav(p)
        with pytest.raises(SimulationError, match="unreadable WAV header"):
            simkit.check_wav(p)

    # a data chunk shorter than the header's frame count, cut by an even and an
    # odd number of bytes: the first used to load as 550 samples, the second
    # raised numpy's ValueError; check_wav used to pass both on their headers
    @pytest.mark.parametrize("cut", [900, 901])
    def test_truncated_data_rejected_on_read(self, tmp_path, cut):
        p = tmp_path / "cut.wav"
        simkit.write_wav(p, Waveform(np.zeros(1000)))
        p.write_bytes(p.read_bytes()[:-cut])
        message = re.escape(f"{p}: data chunk holds {2000 - cut} bytes, header says 1000 frames")
        with pytest.raises(SimulationError, match=message):
            simkit.check_wav(p)
        with pytest.raises(SimulationError, match=message):
            simkit.read_wav(p)

    # bytes after the data chunk (a trailing chunk) are no truncation
    def test_trailing_chunk_accepted(self, tmp_path):
        p = tmp_path / "tail.wav"
        w = Waveform(np.full(1000, 0.25))  # exact in 16 bits
        simkit.write_wav(p, w)
        p.write_bytes(p.read_bytes() + b"LIST\x04\x00\x00\x00abcd")
        assert simkit.check_wav(p) == 1000
        assert np.array_equal(simkit.read_wav(p).samples, w.samples)

    def test_wrong_rate_rejected_on_read(self, tmp_path):
        p = tmp_path / "bad.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 100)
        with pytest.raises(SimulationError):
            simkit.read_wav(p)
