"""Log-Mel feature extraction and fixed-size segmentation.

Raw audio goes through short-time framing, an FFT power spectrum, a
peak-normalized triangular mel filterbank, and a natural-log compression.
The resulting spectrogram is sliced into overlapping fixed-width segments
that serve as classifier inputs.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

LOG_FLOOR = 1e-10


def _sample_count(ms: float, what: str, sample_rate: int) -> int:
    """`ms` milliseconds at `sample_rate`, rounded to whole samples."""
    n = ms * sample_rate / 1000.0
    if not math.isfinite(n):
        raise DataError(f"sample rate {sample_rate} Hz gives the {ms:g} ms {what} "
                        "too many samples to count")
    return int(round(n))


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
        return _sample_count(self.win_ms, "window", sample_rate)

    def hop_samples(self, sample_rate: int) -> int:
        return _sample_count(self.hop_ms, "hop", sample_rate)


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
        h = int(round(ratio)) if math.isfinite(ratio) else 0
        if h < 1 or abs(ratio - h) > 1e-9:
            raise ConfigError(
                f"seg_hop_ms={self.seg_hop_ms} is not a positive multiple of hop_ms={frame.hop_ms}"
            )
        return h


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

    # Row i rises from edge i to edge i + 1 and falls to edge i + 2.
    lo, center, hi = hz_edges[:-2, None], hz_edges[1:-1, None], hz_edges[2:, None]
    rising = (bin_freqs - lo) / (center - lo)
    falling = (hi - bin_freqs) / (hi - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    peak = bank.max(axis=1, keepdims=True)
    unsupported = np.flatnonzero(peak <= 0.0)
    if unsupported.size:
        raise ConfigError(f"mel filter {unsupported[0]} has no FFT bin support; "
                          "reduce n_mels or increase fft_len")
    return bank / peak


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window of the given length."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def log_mel_spectrogram(samples, sample_rate: int, spec: FrameSpec) -> LogMelSpectrogram:
    """Windowed FFT power spectrum of mono samples through the mel
    filterbank, natural log.

    One frame per hop while a full window fits, Hann-windowed, zero-padded
    to fft_len, and floored at LOG_FLOOR before the log so silence maps to
    ln(1e-10) instead of -inf. A hop rounded below one sample, fewer samples
    than one window, or a non-finite value such as NaN raises a DataError;
    the window is never shorter than the hop. A frame spec whose arrays do
    not fit in memory at this rate raises a ConfigError.
    """
    win = spec.win_samples(sample_rate)
    hop = spec.hop_samples(sample_rate)
    if hop < 1:
        raise DataError(f"sample rate {sample_rate} Hz rounds the {spec.hop_ms:g} ms hop "
                        f"to {hop} samples")
    if spec.fft_len < win:
        raise ConfigError(f"frame.fft_len={spec.fft_len} is shorter than the {win}-sample "
                          f"window at {sample_rate} Hz; set frame.fft_len to at least {win}")
    if len(samples) < win:
        raise DataError(f"utterance too short: {len(samples)} samples < one {win}-sample window")

    samples = np.asarray(samples, dtype=np.float64)
    try:
        frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop] * hann_window(win)
        power = np.abs(np.fft.rfft(frames, n=spec.fft_len, axis=1)) ** 2
        mel_energy = power @ mel_filterbank(spec, sample_rate).T
        values = np.log(np.maximum(mel_energy, LOG_FLOOR)).T
    except MemoryError as exc:
        raise ConfigError(f"frame.fft_len={spec.fft_len} and frame.n_mels={spec.n_mels} "
                          f"at {sample_rate} Hz need more memory than is free ({exc})") from exc
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite spectrogram values")

    frame_times = np.arange(len(frames)) * hop * 1000.0 / sample_rate
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
    # A hop past the last frame leaves one segment, and its stride might not fit an index.
    return np.lib.stride_tricks.as_strided(
        s.values, (n, n_mels, seg.seg_frames), (min(h, n_frames) * col, row, col), writeable=False)


# WAVE_FORMAT_EXTENSIBLE's sub-format GUID after its two-byte format tag.
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def load_wav(path) -> tuple:
    """(samples, sample_rate) of a mono WAV file, 16-bit PCM scaled to [-1, 1]
    or 32-bit float, plain or WAVE_FORMAT_EXTENSIBLE, as float64 samples.

    Its chunks (an 8-byte id and size, that many bytes and a pad byte to an
    even size) are walked from byte 12 while they start inside the RIFF size,
    taken from `ds64` in RF64, and must end where the file ends, the last
    perhaps unpadded. A file that cannot be read, whose header disagrees with
    itself or its size, with more than one channel, another sample format, no
    samples, a non-finite sample or a rate of 0 raises a DataError naming it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] not in (b"RIFF", b"RF64") or raw[8:12] != b"WAVE":
            raise ValueError("it is not a little-endian RIFF or RF64 WAVE file")
        riff_end, sizes = 8 + int.from_bytes(raw[4:8], "little"), {}
        if raw[:4] == b"RF64" and raw[12:16] == b"ds64":
            riff_end = 8 + int.from_bytes(raw[20:28], "little")
            sizes[b"data"] = int.from_bytes(raw[28:36], "little")
        chunks, offset, size, end = {}, 12, 0, len(raw)
        while offset < riff_end and offset + 8 <= end:
            cid = raw[offset:offset + 4]
            size = sizes.get(cid, int.from_bytes(raw[offset + 4:offset + 8], "little"))
            chunks[cid] = (offset + 8, size)
            offset += 8 + size + size % 2
        if offset != end and offset != end + size % 2:
            raise ValueError(f"its chunks take {offset} bytes, but the file holds {end}")
        if riff_end > offset:
            raise ValueError(f"its RIFF header gives {riff_end} bytes; its chunks take {offset}")
        if chunks.get(b"fmt ", (0, 0))[1] < 16 or b"data" not in chunks:
            raise ValueError("it lacks a 'fmt ' chunk of at least 16 bytes or a 'data' chunk")
        at, fmt_size = chunks[b"fmt "]
        tag, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", raw, at)
        if tag == 0xFFFE and fmt_size >= 40 and raw[at + 26:at + 40] == _SUBFORMAT_TAIL:
            tag = int.from_bytes(raw[at + 24:at + 26], "little")
        if tag not in (1, 3):
            raise ValueError(f"format tag {tag:#06x} is neither PCM (1) nor IEEE float (3)")
        if bits % 8 or align * 8 != channels * bits:
            raise ValueError(f"block align {align} is not {channels} x {bits} bits / 8")
        if byte_rate != rate * align:
            raise ValueError(f"byte rate {byte_rate} is not {rate} x block align {align}")
        at, size = chunks[b"data"]
        if not align or size % align:
            raise ValueError(f"its {size} data bytes are not whole {align}-byte blocks")
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read WAV file ({exc})") from exc
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    fmt = f"{'float' if tag == 3 else 'uint' if bits == 8 else 'int'}{bits}"
    dtype = {"int16": "<i2", "float32": "<f4"}.get(fmt)
    if dtype is None:
        raise DataError(f"{path}: unsupported sample format {fmt}; use int16 or float32")
    data = np.frombuffer(raw, dtype, size // align, at)
    if data.size == 0:
        raise DataError(f"{path}: empty audio file")
    samples = data / 32768.0 if fmt == "int16" else data.astype(np.float64)
    if not np.all(np.isfinite(samples)):
        raise DataError(f"{path}: non-finite samples")
    if rate <= 0:
        raise DataError(f"{path}: sample rate must be positive")
    return samples, rate
