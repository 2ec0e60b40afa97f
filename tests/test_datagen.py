"""Generator tests: determinism, class balance, mixture bounds, and the
pure-mode degenerate corpus."""

import numpy as np
import pytest

from emorefinery.config import dataclass_from_dict
from emorefinery.datagen import (
    SyntheticCorpusSpec,
    SyntheticUtterance,
    class_templates,
    generate_synthetic_corpus,
    segmentation_for,
    to_stacked_dataset,
)
from emorefinery.decision import ForestConfig, predict_forest, train_forest
from emorefinery.errors import ConfigError, DataError


def small_spec(**kw):
    args = dict(n_classes=4, utterances_per_class=3, segments_range=(2, 4),
                n_mels=16, seg_frames=8, seed=11)
    args.update(kw)
    return SyntheticCorpusSpec(**args)


class TestSpecValidation:
    def test_bad_segments_range(self):
        with pytest.raises(ConfigError, match="segments_range"):
            small_spec(segments_range=(0, 3))
        with pytest.raises(ConfigError, match="segments_range"):
            small_spec(segments_range=(5, 2))

    def test_off_class_mass_bounds(self):
        with pytest.raises(ConfigError, match="off_class_mass"):
            small_spec(off_class_mass=0.5)
        small_spec(off_class_mass=0.0)

    def test_unknown_mixture_mode(self):
        with pytest.raises(ConfigError, match="mixture_mode"):
            small_spec(mixture_mode="swirl")

    def test_default_class_names(self):
        assert small_spec().class_names == ("class_0", "class_1", "class_2", "class_3")
        named = small_spec(class_names=("w", "x", "y", "z"))
        assert named.class_names == ("w", "x", "y", "z")

    @pytest.mark.parametrize("doc, message", [
        ({"n_classes": 1}, "n_classes must be >= 2"),
        ({"utterances_per_class": 0}, "utterances_per_class must be >= 1"),
        ({"label_noise": 1.0}, "label_noise must lie in [0, 1)"),
        ({"label_noise": -0.1}, "label_noise must lie in [0, 1)"),
        ({"n_speakers": 0}, "n_speakers must be >= 1"),
        ({"n_mels": 1}, "n_mels must be >= 2 and seg_frames >= 1"),
        ({"seg_frames": 0}, "n_mels must be >= 2 and seg_frames >= 1"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"n_classes": 2, "class_names": ["a", "a"]}, "class_names must be distinct, not ['a', 'a']"),
    ])
    def test_spec_document_checks(self, doc, message):
        with pytest.raises(ConfigError) as err:
            dataclass_from_dict(SyntheticCorpusSpec, doc, "corpus spec")
        assert str(err.value) == message

    def test_class_name_count_must_match(self):
        with pytest.raises(ConfigError, match="class names"):
            small_spec(class_names=("a", "b"))


class TestPureMode:
    def test_segments_equal_template(self):
        spec = small_spec(mixture_mode="pure", noise_level=0.0)
        templates = class_templates(spec)
        corpus = generate_synthetic_corpus(spec)
        for u in corpus:
            np.testing.assert_array_equal(u.segment_truth,
                                          np.eye(spec.n_classes)[[u.label] * u.n_segments])
            blocks = u.spectrogram.values.reshape(spec.n_mels, u.n_segments, spec.seg_frames)
            for s in range(u.n_segments):
                for f in range(spec.seg_frames):
                    np.testing.assert_array_equal(blocks[:, s, f], templates[u.label])

    def test_oracle_mean_features_fully_separable(self):
        spec = small_spec(mixture_mode="pure", noise_level=0.0, utterances_per_class=5)
        corpus = generate_synthetic_corpus(spec)
        x = np.stack([u.segment_truth.mean(axis=0) for u in corpus])
        y = np.array([u.label for u in corpus])
        forest = train_forest(x, y, ForestConfig(n_trees=5, max_depth=3), spec.class_names, 0)
        assert (predict_forest(forest, x) == y).all()


class TestBalanceAndDeterminism:
    def test_class_balance(self):
        spec = SyntheticCorpusSpec(n_classes=4, utterances_per_class=25,
                                   segments_range=(2, 3), n_mels=8, seg_frames=4, seed=1)
        corpus = generate_synthetic_corpus(spec)
        assert len(corpus) == 100
        counts = np.bincount([u.label for u in corpus], minlength=4)
        np.testing.assert_array_equal(counts, [25, 25, 25, 25])

    def test_same_seed_bit_identical(self):
        c1 = generate_synthetic_corpus(small_spec())
        c2 = generate_synthetic_corpus(small_spec())
        for u1, u2 in zip(c1, c2):
            assert u1.utterance_id == u2.utterance_id
            assert u1.label == u2.label
            assert u1.observed_label == u2.observed_label
            np.testing.assert_array_equal(u1.spectrogram.values, u2.spectrogram.values)
            np.testing.assert_array_equal(u1.segment_truth, u2.segment_truth)

    def test_different_seed_differs(self):
        c1 = generate_synthetic_corpus(small_spec(seed=1))
        c2 = generate_synthetic_corpus(small_spec(seed=2))
        assert not np.array_equal(c1[0].spectrogram.values, c2[0].spectrogram.values)

    def test_templates_pairwise_distinct(self):
        templates = class_templates(small_spec())
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.max(np.abs(templates[i] - templates[j])) > 0.5

    def test_speaker_tags_cycle(self):
        corpus = generate_synthetic_corpus(small_spec(n_speakers=3))
        speakers = {u.speaker for u in corpus}
        assert speakers == {"spk0", "spk1", "spk2"}


class TestBlendedMode:
    def test_off_class_mass_bound_holds_corpus_wide(self):
        spec = small_spec(mixture_mode="blended", off_class_mass=0.3,
                          utterances_per_class=6)
        corpus = generate_synthetic_corpus(spec)
        blended_seen = False
        for u in corpus:
            assert u.segment_truth.shape == (u.n_segments, spec.n_classes)
            assert np.all(u.segment_truth[:, u.label] >= 0.7 - 1e-12)
            blended_seen |= bool(np.any(u.segment_truth[:, u.label] < 1.0))
            assert np.all(u.segment_truth.argmax(axis=1) == u.label)
        assert blended_seen

    def test_averaged_truth_peaks_at_label(self):
        corpus = generate_synthetic_corpus(small_spec(off_class_mass=0.45))
        for u in corpus:
            assert int(np.argmax(u.segment_truth.mean(axis=0))) == u.label


class TestUtteranceNoise:
    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError, match="noise levels"):
            small_spec(utterance_noise_level=-0.1)

    def test_zero_level_keeps_byte_stream(self):
        c1 = generate_synthetic_corpus(small_spec())
        c2 = generate_synthetic_corpus(small_spec(utterance_noise_level=0.0))
        for u1, u2 in zip(c1, c2):
            np.testing.assert_array_equal(u1.spectrogram.values, u2.spectrogram.values)

    def test_offset_shared_within_utterance(self):
        spec = small_spec(noise_level=0.0, utterance_noise_level=1.0)
        templates = class_templates(spec)
        corpus = generate_synthetic_corpus(spec)
        offsets = []
        for u in corpus:
            blocks = u.spectrogram.values.reshape(spec.n_mels, u.n_segments, spec.seg_frames)
            deltas = [blocks[:, s, f] - u.segment_truth[s] @ templates
                      for s in range(u.n_segments) for f in range(spec.seg_frames)]
            for d in deltas[1:]:
                np.testing.assert_allclose(d, deltas[0], atol=1e-12)
            offsets.append(deltas[0])
        assert not np.allclose(offsets[0], offsets[1])

    def test_nonzero_level_deterministic(self):
        spec = small_spec(utterance_noise_level=0.8)
        c1 = generate_synthetic_corpus(spec)
        c2 = generate_synthetic_corpus(spec)
        for u1, u2 in zip(c1, c2):
            np.testing.assert_array_equal(u1.spectrogram.values, u2.spectrogram.values)


class TestLabelNoise:
    def test_flip_count_exact(self):
        spec = small_spec(utterances_per_class=15, label_noise=0.1)
        corpus = generate_synthetic_corpus(spec)
        flipped = [u for u in corpus if u.observed_label != u.label]
        assert len(flipped) == 6  # floor(0.1 * 60)
        for u in flipped:
            assert 0 <= u.observed_label < spec.n_classes

    def test_zero_noise_labels_untouched(self):
        for u in generate_synthetic_corpus(small_spec()):
            assert u.observed_label == u.label

    def test_noise_deterministic(self):
        spec = small_spec(utterances_per_class=10, label_noise=0.2)
        c1 = generate_synthetic_corpus(spec)
        c2 = generate_synthetic_corpus(spec)
        assert [u.observed_label for u in c1] == [u.observed_label for u in c2]


class TestToStackedDataset:
    def test_segments_match_spectrogram_blocks(self):
        spec = small_spec()
        corpus = generate_synthetic_corpus(spec)
        data = to_stacked_dataset(corpus, spec)
        assert data.utterance_ids == tuple(u.utterance_id for u in corpus)
        assert data.speakers == tuple(u.speaker for u in corpus)
        assert data.class_names == spec.class_names
        np.testing.assert_array_equal(np.diff(data.offsets), [u.n_segments for u in corpus])
        for i, u in enumerate(corpus):
            for j, seg in enumerate(data.x[data.offsets[i]:data.offsets[i + 1]]):
                np.testing.assert_array_equal(
                    seg, u.spectrogram.values[:, j * spec.seg_frames:(j + 1) * spec.seg_frames])

    def test_trains_on_observed_labels(self):
        spec = small_spec(utterances_per_class=10, label_noise=0.3)
        corpus = generate_synthetic_corpus(spec)
        assert any(u.observed_label != u.label for u in corpus)
        data = to_stacked_dataset(corpus, spec)
        assert data.labels.tolist() == [u.observed_label for u in corpus]

    def test_segment_count_must_match_ground_truth(self):
        spec = small_spec()
        u = generate_synthetic_corpus(spec)[0]
        short = SyntheticUtterance(
            utterance_id=u.utterance_id, label=u.label, observed_label=u.label,
            speaker=u.speaker, spectrogram=u.spectrogram,
            segment_truth=np.concatenate([u.segment_truth, u.segment_truth[:1]]))
        with pytest.raises(DataError, match="segmentation yields"):
            to_stacked_dataset([short], spec)

    def test_segmentation_is_non_overlapping(self):
        spec = small_spec()
        seg = segmentation_for(spec)
        assert seg.seg_frames == spec.seg_frames
        assert seg.seg_hop_ms == spec.seg_frames * 10.0


class TestUtteranceInvariant:
    def test_mean_truth_must_peak_at_label(self):
        spec = small_spec()
        corpus = generate_synthetic_corpus(spec)
        u = corpus[0]
        wrong = (u.label + 1) % spec.n_classes
        with pytest.raises(DataError, match="peak"):
            SyntheticUtterance(utterance_id=u.utterance_id, label=wrong,
                               observed_label=wrong, speaker=u.speaker,
                               spectrogram=u.spectrogram, segment_truth=u.segment_truth)
