"""Synthetic corpora with known segment-level emotion mixtures.

Spectrograms are synthesized directly in log-Mel space: each class owns a
smooth band-energy template, and every segment's block is the template
mixture weighted by its ground-truth distribution plus Gaussian noise.
The noise has two components: an optional per-utterance offset shared by
all frames (speaker and session variability) and an iid per-bin residual.
Segments tile the utterance without overlap, so segment i's ground truth
describes exactly frames [i * seg_frames, (i+1) * seg_frames).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .features import FrameSpec, LogMelSpectrogram, SegmentSpec, segment_spectrogram
from .manifest import check_class_names
from .refinery import StackedDataset

MIXTURE_MODES = ("pure", "blended")

# Seed stream tags for the independent corpus randomness sources.
_STREAM_TEMPLATES = 21
_STREAM_UTTERANCES = 22
_STREAM_LABEL_NOISE = 23

# numpy's normal draws stay below 13 in magnitude, so spectrogram values, a
# template value plus two noise terms, stay finite up to this noise level.
_MAX_NOISE_LEVEL = 1e300


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_classes: int = 6
    utterances_per_class: int = 10
    segments_range: tuple = (4, 8)
    mixture_mode: str = "blended"
    off_class_mass: float = 0.3
    noise_level: float = 0.5
    utterance_noise_level: float = 0.0
    label_noise: float = 0.0
    n_speakers: int = 4
    n_mels: int = 64
    seg_frames: int = 32
    seed: int = 0
    class_names: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.segments_range, (tuple, list)) and len(self.segments_range) == 2
                and all(type(v) is int for v in self.segments_range)):
            raise ConfigError(f"segments_range must be two integers, not {self.segments_range!r}")
        object.__setattr__(self, "class_names", check_class_names(self.class_names, ConfigError))
        object.__setattr__(self, "segments_range", tuple(self.segments_range))
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.utterances_per_class < 1:
            raise ConfigError("utterances_per_class must be >= 1")
        lo, hi = self.segments_range
        if lo < 1 or hi < lo:
            raise ConfigError("segments_range must satisfy 1 <= lo <= hi")
        if self.mixture_mode not in MIXTURE_MODES:
            raise ConfigError(f"mixture_mode must be one of {MIXTURE_MODES}")
        if not 0.0 <= self.off_class_mass < 0.5:
            raise ConfigError("off_class_mass must lie in [0, 0.5)")
        for name in ("noise_level", "utterance_noise_level"):
            if not 0 <= getattr(self, name) <= _MAX_NOISE_LEVEL:
                raise ConfigError(f"noise levels must lie in [0, {_MAX_NOISE_LEVEL:g}], "
                                  f"and {name} is {getattr(self, name):g}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError("label_noise must lie in [0, 1)")
        if self.n_speakers < 1:
            raise ConfigError("n_speakers must be >= 1")
        if self.n_mels < 2 or self.seg_frames < 1:
            raise ConfigError("n_mels must be >= 2 and seg_frames >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        names = self.class_names or tuple(f"class_{c}" for c in range(self.n_classes))
        if len(names) != self.n_classes:
            raise ConfigError(f"{len(names)} class names for {self.n_classes} classes")
        object.__setattr__(self, "class_names", names)


@dataclass(frozen=True)
class SyntheticUtterance:
    utterance_id: str
    label: int
    observed_label: int
    speaker: str
    spectrogram: LogMelSpectrogram
    segment_truth: np.ndarray  # (n_segments, K) class probabilities, one row per segment

    def __post_init__(self):
        if len(self.segment_truth) == 0:
            raise DataError(f"{self.utterance_id}: no ground-truth distributions")
        if int(np.argmax(self.segment_truth.mean(axis=0))) != self.label:
            raise DataError(f"{self.utterance_id}: averaged ground truth does not "
                            f"peak at the utterance label")

    @property
    def n_segments(self) -> int:
        return len(self.segment_truth)


def class_templates(spec: SyntheticCorpusSpec) -> np.ndarray:
    """(K, n_mels) smooth band-energy profiles, one per class, fixed by seed.

    Each class gets a dominant Gaussian band at its own slot plus a weaker
    secondary band, with small seeded jitter on positions and amplitudes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _STREAM_TEMPLATES]))
    bins = np.arange(spec.n_mels, dtype=np.float64)
    k = spec.n_classes
    width = max(1.5, spec.n_mels / (3.0 * k))
    templates = np.empty((k, spec.n_mels))
    for c in range(k):
        main = spec.n_mels * (c + 0.5) / k + rng.uniform(-0.5, 0.5) * width
        second = spec.n_mels * (((c * 2 + 1) % k) + 0.5) / k + rng.uniform(-0.5, 0.5) * width
        amp_main = 3.0 + rng.uniform(-0.3, 0.3)
        amp_second = 1.2 + rng.uniform(-0.2, 0.2)
        templates[c] = (amp_main * np.exp(-0.5 * ((bins - main) / width) ** 2)
                        + amp_second * np.exp(-0.5 * ((bins - second) / (2 * width)) ** 2))
    return templates


def _segment_truth(spec: SyntheticCorpusSpec, label: int, rng) -> np.ndarray:
    if spec.mixture_mode == "pure" or spec.off_class_mass == 0.0:
        return np.eye(spec.n_classes)[label]
    off = rng.uniform(0.0, spec.off_class_mass)
    probs = np.zeros(spec.n_classes)
    probs[label] = 1.0 - off
    others = [c for c in range(spec.n_classes) if c != label]
    probs[others] = off * rng.dirichlet(np.ones(spec.n_classes - 1))
    return probs


def generate_synthetic_corpus(spec: SyntheticCorpusSpec) -> list:
    """Class-balanced list of SyntheticUtterance, deterministic given seed."""
    templates = class_templates(spec)
    utterances = []
    index = 0
    for label in range(spec.n_classes):
        for _ in range(spec.utterances_per_class):
            uid = f"u{index:04d}_c{label}"
            rng = np.random.default_rng(
                np.random.SeedSequence([spec.seed, _STREAM_UTTERANCES, index]))
            n_segments = int(rng.integers(spec.segments_range[0], spec.segments_range[1] + 1))
            truths = [_segment_truth(spec, label, rng) for _ in range(n_segments)]
            # Utterance-level noise is drawn once and shared by every frame,
            # mimicking speaker and session offsets; skipped when zero so
            # corpora without it keep their exact byte stream.
            offset = 0.0
            if spec.utterance_noise_level > 0.0:
                offset = spec.utterance_noise_level * rng.standard_normal((spec.n_mels, 1))
            blocks = []
            # One product per segment: a single GEMM of all rows may round differently.
            for truth in truths:
                clean = truth @ templates
                block = clean[:, None] + offset + spec.noise_level * rng.standard_normal(
                    (spec.n_mels, spec.seg_frames))
                blocks.append(block)
            values = np.concatenate(blocks, axis=1)
            hop_ms = FrameSpec().hop_ms
            frame_times = np.arange(values.shape[1], dtype=np.float64) * hop_ms
            utterances.append(SyntheticUtterance(
                utterance_id=uid, label=label, observed_label=label,
                speaker=f"spk{index % spec.n_speakers}",
                spectrogram=LogMelSpectrogram(values=values, frame_times=frame_times),
                segment_truth=np.stack(truths)))
            index += 1
    if spec.label_noise > 0.0:
        utterances = _flip_labels(utterances, spec)
    return utterances


def _flip_labels(utterances, spec: SyntheticCorpusSpec) -> list:
    """Replace the observed label of a seeded fraction of utterances."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _STREAM_LABEL_NOISE]))
    n_flip = int(np.floor(spec.label_noise * len(utterances)))
    flip_at = set(rng.permutation(len(utterances))[:n_flip].tolist())
    out = []
    for i, u in enumerate(utterances):
        if i in flip_at:
            others = [c for c in range(spec.n_classes) if c != u.label]
            wrong = int(others[rng.integers(0, len(others))])
            u = replace(u, observed_label=wrong)
        out.append(u)
    return out


def segmentation_for(spec: SyntheticCorpusSpec) -> SegmentSpec:
    """Non-overlapping segmentation matching the generator's block layout."""
    return SegmentSpec(seg_frames=spec.seg_frames,
                       seg_hop_ms=spec.seg_frames * FrameSpec().hop_ms)


def to_stacked_dataset(utterances, spec: SyntheticCorpusSpec) -> StackedDataset:
    """The generated utterances as a training dataset: every spectrogram
    sliced back into its segments and labelled with its observed label."""
    segmentation = segmentation_for(spec)
    segments = []
    for u in utterances:
        x = segment_spectrogram(u.spectrogram, segmentation)
        if len(x) != u.n_segments:
            raise DataError(f"{u.utterance_id}: segmentation yields {len(x)} "
                            f"segments for {u.n_segments} ground-truth entries")
        segments.append(x)
    return StackedDataset([u.utterance_id for u in utterances],
                          [u.observed_label for u in utterances],
                          [u.speaker for u in utterances], spec.class_names, segments)
