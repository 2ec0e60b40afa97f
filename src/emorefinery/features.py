"""Log-Mel feature extraction and fixed-size segmentation.

Raw audio goes through short-time framing, an FFT power spectrum, a
peak-normalized triangular mel filterbank, and a natural-log compression.
The resulting spectrogram is sliced into overlapping fixed-width segments
that serve as classifier inputs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameSpec:
    """Short-time analysis parameters."""

    win_ms: float = 25.0
    hop_ms: float = 10.0
    fft_len: int = 512
    n_mels: int = 64

    def __post_init__(self):
        if self.win_ms <= 0 or self.hop_ms <= 0:
            raise ConfigError("window and hop must be positive")
        if self.hop_ms > self.win_ms:
            raise ConfigError("hop must not exceed the window length")
        if self.n_mels < 2:
            raise ConfigError("n_mels must be at least 2")

    def win_samples(self, sample_rate: int) -> int:
        return int(round(self.win_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))


@dataclass(frozen=True)
class LogMelSpectrogram:
    """n_mels x F matrix of natural-log mel filterbank energies, checked by
    the function that made it: float64, at least one frame, finite, and one
    frame time per column."""

    values: np.ndarray
    frame_times: np.ndarray  # frame-start offsets in ms


@dataclass(frozen=True)
class SegmentSpec:
    """Fixed-width segmentation of a spectrogram.

    seg_hop_ms is corpus-dependent (30 ms for CASIA-style corpora, 10 ms
    for Emo-DB/SAVEE-style) and must be a positive multiple of the frame
    hop so segments start on frame boundaries.
    """

    seg_frames: int = 32
    seg_hop_ms: float = 30.0

    def __post_init__(self):
        if self.seg_frames < 1:
            raise ConfigError("seg_frames must be >= 1")
        if self.seg_hop_ms <= 0:
            raise ConfigError("seg_hop_ms must be positive")

    def hop_frames(self, frame: FrameSpec) -> int:
        ratio = self.seg_hop_ms / frame.hop_ms
        h = int(round(ratio))
        if h < 1 or abs(ratio - h) > 1e-9:
            raise ConfigError(
                f"seg_hop_ms={self.seg_hop_ms} is not a positive multiple of hop_ms={frame.hop_ms}"
            )
        return h


def frame_count(n_samples: int, sample_rate: int, spec: FrameSpec) -> int:
    """Number of full analysis windows that fit; tail samples are dropped."""
    win = spec.win_samples(sample_rate)
    hop = spec.hop_samples(sample_rate)
    if n_samples < win:
        raise DataError(f"utterance too short: {n_samples} samples < one {win}-sample window")
    return (n_samples - win) // hop + 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(spec: FrameSpec, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, fft_len // 2 + 1).

    Filters are peak-normalized: each row's maximum weight is exactly 1.
    """
    if sample_rate <= 0:
        raise ConfigError("sample_rate must be positive")
    n_bins = spec.fft_len // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / spec.fft_len
    mel_edges = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), spec.n_mels + 2)
    hz_edges = mel_to_hz(mel_edges)

    bank = np.zeros((spec.n_mels, n_bins))
    for i in range(spec.n_mels):
        lo, center, hi = hz_edges[i], hz_edges[i + 1], hz_edges[i + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
        peak = bank[i].max()
        if peak <= 0.0:
            raise ConfigError(
                f"mel filter {i} has no FFT bin support; "
                f"reduce n_mels or increase fft_len"
            )
        bank[i] /= peak
    return bank


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window of the given length."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def log_mel_spectrogram(samples, sample_rate: int, spec: FrameSpec) -> LogMelSpectrogram:
    """Windowed FFT power spectrum of mono samples through the mel
    filterbank, natural log.

    Frames are Hann-windowed, zero-padded to fft_len, and floored at
    LOG_FLOOR before the log so silence maps to ln(1e-10) instead of -inf.
    A sample rate that rounds the hop below one sample raises a DataError,
    and so do samples that give a non-finite value, such as NaN; the window
    is never shorter than the hop.
    """
    win = spec.win_samples(sample_rate)
    hop = spec.hop_samples(sample_rate)
    if hop < 1:
        raise DataError(f"sample rate {sample_rate} Hz rounds the {spec.hop_ms:g} ms hop "
                        f"to {hop} samples")
    if spec.fft_len < win:
        raise ConfigError(f"frame.fft_len={spec.fft_len} is shorter than the {win}-sample "
                          f"window at {sample_rate} Hz; set frame.fft_len to at least {win}")
    n_frames = frame_count(len(samples), sample_rate, spec)

    starts = np.arange(n_frames) * hop
    frames = np.asarray(samples, dtype=np.float64)[starts[:, None] + np.arange(win)[None, :]]
    frames = frames * hann_window(win)[None, :]
    power = np.abs(np.fft.rfft(frames, n=spec.fft_len, axis=1)) ** 2

    bank = mel_filterbank(spec, sample_rate)
    mel_energy = power @ bank.T
    values = np.log(np.maximum(mel_energy, LOG_FLOOR)).T
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite spectrogram values")

    frame_times = starts * 1000.0 / sample_rate
    return LogMelSpectrogram(values=values, frame_times=frame_times)


def segment_span_ms(frame: FrameSpec, seg: SegmentSpec) -> float:
    """Wall-clock duration covered by one segment."""
    return frame.hop_ms * (seg.seg_frames - 1) + frame.win_ms


def segment_spectrogram(
    s: LogMelSpectrogram, seg: SegmentSpec, frame: FrameSpec = FrameSpec()
) -> np.ndarray:
    """Read-only (n, n_mels, seg_frames) view of a spectrogram's segments.

    Segment i covers frames [i*h, i*h + seg_frames) where h is the segment
    hop in frames; the spectrogram tail that does not fill a segment is
    dropped.
    """
    h = seg.hop_frames(frame)
    n_mels, n_frames = s.values.shape
    if n_frames < seg.seg_frames:
        raise DataError("utterance too short for one segment "
                        f"({n_frames} frames < {seg.seg_frames})")
    n = (n_frames - seg.seg_frames) // h + 1
    row, col = s.values.strides
    return np.lib.stride_tricks.as_strided(
        s.values, (n, n_mels, seg.seg_frames), (h * col, row, col), writeable=False)


def load_wav(path) -> tuple:
    """(samples, sample_rate) of a mono PCM WAV file (16-bit integer or
    32-bit float), with float64 samples.

    Integer samples are scaled to [-1, 1]. A file that cannot be read, has
    more than one channel, another sample format, no samples, a non-finite
    sample or a rate of 0 raises a DataError naming it, and so does one that
    ends before the size its header gives.
    """
    from scipy.io import wavfile

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except Exception as exc:
        raise DataError(f"{path}: cannot read WAV file ({exc})") from exc
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise DataError(f"{path}: unsupported sample format {data.dtype}; use int16 or float32")
    if data.size == 0:
        raise DataError(f"{path}: empty audio file")
    if not np.all(np.isfinite(samples)):
        raise DataError(f"{path}: non-finite samples")
    if rate <= 0:
        raise DataError(f"{path}: sample rate must be positive")
    return samples, int(rate)
