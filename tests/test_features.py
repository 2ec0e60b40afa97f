"""Feature extraction tests, checked against brute-force DSP oracles."""

import re

import numpy as np
import pytest

from emorefinery.errors import ConfigError, DataError
from emorefinery.features import (
    FrameSpec,
    LOG_FLOOR,
    LogMelSpectrogram,
    SegmentSpec,
    frame_count,
    hann_window,
    hz_to_mel,
    load_wav,
    log_mel_spectrogram,
    mel_filterbank,
    mel_to_hz,
    segment_span_ms,
    segment_spectrogram,
)

SPEC = FrameSpec()


def mel_centers_hz(spec, rate):
    """Centre frequencies of the filters: n_mels points equally spaced on the
    mel scale strictly between 0 Hz and Nyquist."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), spec.n_mels + 2))[1:-1]


def oracle_log_mel(samples, rate, spec):
    """Direct-DFT log-mel oracle: explicit DFT matrix, explicit triangles."""
    win = int(round(spec.win_ms * rate / 1000))
    hop = int(round(spec.hop_ms * rate / 1000))
    n_frames = (len(samples) - win) // hop + 1
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)

    n = spec.fft_len
    k = np.arange(n // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)

    # Triangles recomputed from the mel formula, peak-normalized.
    mel = lambda f: 2595 * np.log10(1 + f / 700)
    inv = lambda m: 700 * (10 ** (m / 2595) - 1)
    edges = inv(np.linspace(mel(0), mel(rate / 2), spec.n_mels + 2))
    bin_freqs = k * rate / n
    bank = np.zeros((spec.n_mels, n // 2 + 1))
    for i in range(spec.n_mels):
        lo, c, hi = edges[i], edges[i + 1], edges[i + 2]
        tri = np.minimum((bin_freqs - lo) / (c - lo), (hi - bin_freqs) / (hi - c))
        tri = np.maximum(tri, 0.0)
        bank[i] = tri / tri.max()

    out = np.zeros((spec.n_mels, n_frames))
    for i in range(n_frames):
        frame = np.zeros(n)
        frame[:win] = samples[i * hop : i * hop + win] * window
        power = np.abs(dft @ frame) ** 2
        out[:, i] = np.log(np.maximum(bank @ power, LOG_FLOOR))
    return out


class TestFrameCount:
    def test_one_second_at_16k(self):
        assert frame_count(16000, 16000, SPEC) == 98

    def test_exactly_one_window(self):
        assert frame_count(400, 16000, SPEC) == 1

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            frame_count(399, 16000, SPEC)

    def test_matches_window_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rate = int(rng.choice([8000, 16000, 22050, 44100]))
            win = SPEC.win_samples(rate)
            hop = SPEC.hop_samples(rate)
            n = int(rng.integers(win, win + 5000))
            placed = sum(1 for start in range(0, n, hop) if start + win <= n)
            assert frame_count(n, rate, SPEC) == placed


class TestMelFilterbank:
    def test_peak_is_one_and_nonnegative(self):
        bank = mel_filterbank(SPEC, 16000)
        assert bank.shape == (64, 257)
        assert np.all(bank >= 0)
        np.testing.assert_array_equal(bank.max(axis=1), np.ones(64))

    def test_centers_strictly_increasing(self):
        centers = mel_centers_hz(SPEC, 16000)
        assert np.all(np.diff(centers) > 0)

    def test_every_filter_has_support(self):
        bank = mel_filterbank(SPEC, 16000)
        assert np.all((bank > 0).sum(axis=1) >= 1)

    def test_mel_scale_roundtrip(self):
        f = np.linspace(0, 8000, 100)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)

    def test_pure_tone_hits_nearest_center(self):
        # Oracle: centers from the mel formula; the filter responding most
        # to a 1 kHz tone must be the one whose center is nearest 1 kHz.
        rate = 16000
        t = np.arange(rate) / rate
        spec = log_mel_spectrogram(0.5 * np.sin(2 * np.pi * 1000 * t), rate, SPEC)
        centers = hz_to_mel(mel_centers_hz(SPEC, rate))
        expected = int(np.argmin(np.abs(centers - hz_to_mel(1000.0))))
        responding = np.argmax(spec.values, axis=0)
        assert np.all(responding == expected)

    def test_too_many_mels_is_config_error(self):
        with pytest.raises(ConfigError, match="no FFT bin"):
            mel_filterbank(FrameSpec(fft_len=64, n_mels=64), 16000)


class TestLogMelSpectrogram:
    def test_all_zero_clip_is_log_floor(self):
        spec = log_mel_spectrogram(np.zeros(8000), 16000, SPEC)
        np.testing.assert_array_equal(spec.values, np.log(LOG_FLOOR))

    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        spec = log_mel_spectrogram(rng.uniform(-1, 1, 12345), 16000, SPEC)
        assert spec.values.shape == (64, frame_count(12345, 16000, SPEC))
        assert spec.frame_times.shape == (spec.values.shape[1],)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            samples = rng.uniform(-1, 1, 8000)
            got = log_mel_spectrogram(samples, 16000, SPEC).values
            want = oracle_log_mel(samples, 16000, SPEC)
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_propagates_too_short(self):
        with pytest.raises(DataError, match="too short"):
            log_mel_spectrogram(np.zeros(100), 16000, SPEC)

    @pytest.mark.parametrize("rate", [1, 49, 50])
    def test_rate_that_rounds_the_hop_to_zero_samples_is_data_error(self, rate):
        with pytest.raises(DataError, match=f"^sample rate {rate} Hz rounds the 10 ms hop "
                                            "to 0 samples$"):
            log_mel_spectrogram(np.zeros(8000), rate, SPEC)

    @pytest.mark.parametrize("at", [0, 4000, 7919])
    def test_nan_samples_are_data_error(self, at):
        samples = np.zeros(8000)
        samples[at] = np.nan
        with pytest.raises(DataError, match="^non-finite spectrogram values$"):
            log_mel_spectrogram(samples, 16000, SPEC)

    def test_lowest_rate_with_a_one_sample_hop_runs(self):
        spec = log_mel_spectrogram(np.ones(100), 51, SPEC)
        assert spec.values.shape[1] == 100


class TestSegmentation:
    def _spec(self, n_frames):
        rng = np.random.default_rng(n_frames)
        return LogMelSpectrogram(
            values=rng.standard_normal((64, n_frames)),
            frame_times=np.arange(n_frames) * 10.0,
        )

    def test_segment_span_is_335ms(self):
        assert segment_span_ms(SPEC, SegmentSpec(seg_frames=32)) == 335.0

    def test_count_with_30ms_hop(self):
        segs = segment_spectrogram(self._spec(98), SegmentSpec(seg_hop_ms=30.0), SPEC)
        assert len(segs) == 23

    def test_count_with_10ms_hop(self):
        segs = segment_spectrogram(self._spec(98), SegmentSpec(seg_hop_ms=10.0), SPEC)
        assert len(segs) == 67

    def test_segments_copy_source_region_exactly(self):
        spec = self._spec(98)
        seg_spec = SegmentSpec(seg_hop_ms=30.0)
        h = seg_spec.hop_frames(SPEC)
        segs = segment_spectrogram(spec, seg_spec, SPEC)
        assert segs.shape == (23, 64, 32)
        for i, seg in enumerate(segs):
            np.testing.assert_array_equal(seg, spec.values[:, i * h : i * h + 32])

    def test_segments_are_a_read_only_view(self):
        spec = self._spec(98)
        segs = segment_spectrogram(spec, SegmentSpec(seg_hop_ms=30.0), SPEC)
        assert np.shares_memory(segs, spec.values)
        assert not segs.flags.writeable

    def test_too_few_frames(self):
        with pytest.raises(DataError, match="too short for one segment"):
            segment_spectrogram(self._spec(31), SegmentSpec(), SPEC)

    def test_hop_must_align_with_frames(self):
        with pytest.raises(ConfigError, match="multiple"):
            segment_spectrogram(self._spec(98), SegmentSpec(seg_hop_ms=25.0), SPEC)


class TestWavLoading:
    def test_int16_roundtrip(self, tmp_path):
        from scipy.io import wavfile

        rng = np.random.default_rng(1)
        data = (rng.uniform(-0.5, 0.5, 4000) * 32768).astype(np.int16)
        path = tmp_path / "clip.wav"
        wavfile.write(path, 16000, data)
        samples, rate = load_wav(path)
        assert rate == 16000
        np.testing.assert_allclose(samples, data / 32768.0)

    def test_float32_roundtrip(self, tmp_path):
        from scipy.io import wavfile

        data = np.linspace(-0.9, 0.9, 2000).astype(np.float32)
        path = tmp_path / "f.wav"
        wavfile.write(path, 22050, data)
        samples, rate = load_wav(path)
        assert rate == 22050
        np.testing.assert_array_equal(samples, data.astype(np.float64))

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile

        data = np.zeros((1000, 2), dtype=np.int16)
        data[0] = 100  # non-silent so only the channel check can fail
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 16000, data)
        with pytest.raises(DataError, match="mono"):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_wav(tmp_path / "nope.wav")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples_name_the_file(self, tmp_path, bad):
        from scipy.io import wavfile

        data = np.linspace(-0.9, 0.9, 2000).astype(np.float32)
        data[1234] = bad
        path = tmp_path / "u7.wav"
        wavfile.write(path, 16000, data)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite samples$"):
            load_wav(path)

    @pytest.mark.parametrize("data, what", [
        (np.zeros(2000, dtype=np.int32), "unsupported sample format int32; use int16 or float32"),
        (np.zeros(0, dtype=np.int16), "empty audio file"),
    ])
    def test_unusable_samples_name_the_file(self, tmp_path, data, what):
        from scipy.io import wavfile

        path = tmp_path / "u1.wav"
        wavfile.write(path, 16000, data)
        with pytest.raises(DataError) as err:
            load_wav(path)
        assert str(err.value) == f"{path}: {what}"

    def test_zero_rate_names_the_file(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "u0.wav"
        wavfile.write(path, 0, np.zeros(2000, dtype=np.int16))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: sample rate must be "
                                            "positive$"):
            load_wav(path)


class TestHannWindow:
    def test_periodic_definition(self):
        n = 400
        w = hann_window(n)
        np.testing.assert_allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n))
        assert w[0] == 0.0
