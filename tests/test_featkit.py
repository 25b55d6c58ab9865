import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from farspot import featkit
from farspot.featkit import FeatureError, FeatureSequence
from farspot.simkit import Waveform
from helpers import BYTE_FLIPS, flip_bytes, mel_filter_centers


class TestMelScale:
    def test_known_points(self):
        assert featkit.hz_to_mel(0.0) == pytest.approx(0.0)
        # 2595 * log10(1 + 1000/700)
        assert featkit.hz_to_mel(1000.0) == pytest.approx(999.9855, abs=1e-3)

    @given(f=st.floats(0.0, 8000.0))
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, f):
        assert featkit.mel_to_hz(featkit.hz_to_mel(f)) == pytest.approx(f, abs=1e-6)

    def test_centers_monotonic(self):
        centers = mel_filter_centers(40)
        assert len(centers) == 40
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 0 and centers[-1] < 8000


class TestLogMel:
    def test_zero_waveform_hits_the_floor(self):
        f = featkit.log_mel(Waveform(np.zeros(1600)), 20)
        # (1600 - 400) // 160 + 1 = 8 frames
        assert f.frames.shape == (8, 20)
        assert np.allclose(f.frames, np.log(featkit.FLOOR))

    def test_frame_count_formula(self):
        for n in (400, 401, 559, 560, 561, 4000):
            f = featkit.log_mel(Waveform(np.random.default_rng(0).standard_normal(n)), 8)
            assert f.num_frames == (n - 400) // 160 + 1

    def test_too_short_waveform_rejected(self):
        with pytest.raises(FeatureError):
            featkit.log_mel(Waveform(np.zeros(399)), 80)

    def test_pure_tone_peaks_at_nearest_mel_filter(self):
        # oracle: the filter whose center frequency is closest to the tone
        sr, freq = 16000, 1000.0
        t = np.arange(8000) / sr
        w = Waveform(0.3 * np.sin(2 * np.pi * freq * t))
        n_mels = 30
        f = featkit.log_mel(w, n_mels)
        centers = mel_filter_centers(n_mels)
        expected_bin = int(np.argmin(np.abs(centers - freq)))
        mean_response = f.frames.mean(axis=0)
        assert int(np.argmax(mean_response)) == expected_bin

    def test_polarity_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3200) * 0.1
        n_mels = 12
        a = featkit.log_mel(Waveform(x), n_mels)
        b = featkit.log_mel(Waveform(-x), n_mels)
        assert np.allclose(a.frames, b.frames, atol=1e-9)

    def test_prepending_audio_shifts_frames(self):
        # a whole number of hops prepended shifts the frame grid exactly
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3200) * 0.1
        pad = rng.standard_normal(320) * 0.1  # 2 hops
        n_mels = 10
        full = featkit.log_mel(Waveform(np.concatenate([pad, x])), n_mels)
        tail = featkit.log_mel(Waveform(x), n_mels)
        # frames beyond the window/pad overlap region must agree
        assert np.allclose(full.frames[3:], tail.frames[1:], atol=1e-9)

    def test_filterbank_is_built_once_and_read_only(self):
        fb = featkit.mel_filterbank(20, 512)
        assert featkit.mel_filterbank(20, 512) is fb
        assert np.array_equal(fb, featkit.mel_filterbank.__wrapped__(20, 512))
        assert featkit.mel_filterbank(21, 512).shape == (21, 257)
        with pytest.raises(ValueError, match="read-only"):
            fb[0, 0] = 1.0


class TestStackFrames:
    def test_index_map_oracle(self):
        t, d, context, step = 11, 3, 4, 3
        frames = np.arange(t * d, dtype=np.float64).reshape(t, d)
        f = featkit.stack_frames(FeatureSequence(frames, 10.0), context, step)
        n_out = -(-t // step)
        assert f.frames.shape == (n_out, context * d)
        for k in range(n_out):
            idx = np.minimum(step * k + np.arange(context), t - 1)
            assert np.array_equal(f.frames[k], frames[idx].ravel())

    def test_right_edge_repeats_last_frame(self):
        frames = np.arange(5, dtype=np.float64)[:, None]
        f = featkit.stack_frames(FeatureSequence(frames, 10.0), 3, 2)
        # outputs: [0,1,2], [2,3,4], [4,4,4]
        assert np.array_equal(f.frames, [[0, 1, 2], [2, 3, 4], [4, 4, 4]])

    @given(
        t=st.integers(1, 64),
        step=st.integers(1, 3),
        context=st.sampled_from([1, 4, 8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_output_count_is_ceil_t_over_step(self, t, step, context):
        frames = np.random.default_rng(0).standard_normal((t, 2))
        f = featkit.stack_frames(FeatureSequence(frames, 10.0), context, step)
        assert f.num_frames == -(-t // step)
        assert f.dim == context * 2
        assert f.frame_shift_ms == 10.0 * step

    def test_identity_stacking(self):
        frames = np.random.default_rng(1).standard_normal((7, 4))
        f = featkit.stack_frames(FeatureSequence(frames, 10.0), 1, 1)
        assert np.array_equal(f.frames, frames)

    def test_empty_sequence_rejected(self):
        with pytest.raises(FeatureError):
            featkit.stack_frames(FeatureSequence(np.zeros((0, 4)), 10.0), 2, 2)

    def test_bad_args_rejected(self):
        f = FeatureSequence(np.zeros((4, 2)), 10.0)
        with pytest.raises(FeatureError):
            featkit.stack_frames(f, 0, 1)
        with pytest.raises(FeatureError):
            featkit.stack_frames(f, 2, 0)


class TestFeatureArchive:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((17, 9)).astype(np.float32).astype(np.float64)
        f = FeatureSequence(frames, 30.0)
        p = tmp_path / "u.fsfa"
        featkit.write_features(p, f)
        back = featkit.read_features(p)
        assert back.frame_shift_ms == 30.0
        # payload is float32; float32-representable input survives exactly
        assert np.array_equal(back.frames, frames)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.fsfa"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FeatureError):
            featkit.read_features(p)

    def test_truncated_payload_rejected(self, tmp_path):
        f = FeatureSequence(np.ones((4, 4)), 10.0)
        p = tmp_path / "t.fsfa"
        featkit.write_features(p, f)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(FeatureError):
            featkit.read_features(p)

    def test_every_truncation_bad_version_and_appended_bytes_rejected(self, tmp_path):
        # every proper prefix of a valid archive, an unknown version and
        # trailing bytes must fail with the module's own error type
        p = tmp_path / "u.fsfa"
        featkit.write_features(p, FeatureSequence(np.arange(15.0).reshape(5, 3), 10.0))
        data = p.read_bytes()
        bad = tmp_path / "bad.fsfa"
        for cut in range(len(data)):
            bad.write_bytes(data[:cut])
            with pytest.raises(FeatureError):
                featkit.read_features(bad)
        bad.write_bytes(data[:4] + b"\x09" + data[5:])
        with pytest.raises(FeatureError, match="version"):
            featkit.read_features(bad)
        bad.write_bytes(data + b"\x00" * 8)
        with pytest.raises(FeatureError, match="payload"):
            featkit.read_features(bad)

    def test_non_positive_frame_shift_rejected(self, tmp_path):
        p = tmp_path / "u.fsfa"
        featkit.write_features(p, FeatureSequence(np.ones((2, 3)), 10.0))
        data = p.read_bytes()
        for shift in (0.0, -10.0, float("nan"), float("inf")):
            p.write_bytes(data[:16] + struct.pack("<d", shift) + data[24:])
            with pytest.raises(FeatureError, match="frame shift"):
                featkit.read_features(p)

    @given(flips=BYTE_FLIPS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_byte_flips_load_or_raise_feature_error(self, tmp_path, flips):
        p = tmp_path / "u.fsfa"
        featkit.write_features(p, FeatureSequence(np.arange(15.0).reshape(5, 3), 10.0))
        p.write_bytes(flip_bytes(p.read_bytes(), flips))
        try:
            f = featkit.read_features(p)
        except FeatureError:
            return
        assert f.frame_shift_ms > 0 and np.all(np.isfinite(f.frames))
