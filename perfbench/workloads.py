"""The benchmark's workloads: a synthetic corpus spec and an experiment config each.

Sizes are scaled so that one `run_experiment` call takes a few seconds on a
2-CPU machine; a benchmark run repeats it in fresh processes for its whole
measuring time and reports medians. The workload seed becomes both the
corpus seed and the master seed, so one seed fixes every input.
"""

from dataclasses import dataclass

# The README quick-start corpus and config, with the compact float32 net.
_DEMO_CORPUS = {
    "n_classes": 4, "utterances_per_class": 4, "segments_range": [7, 9],
    "mixture_mode": "blended", "off_class_mass": 0.3, "noise_level": 1.0,
    "label_noise": 0.0, "n_mels": 32, "seg_frames": 32,
}
_DEMO_CONFIG = {
    "mode": "pEPR", "generations": 2, "folds": 2, "eval_folds": 5,
    "frame": {"n_mels": 32}, "segment": {"seg_frames": 32, "seg_hop_ms": 320.0},
    "train": {"max_epochs": 2, "architecture": "compact"},
    "forest": {"n_trees": 10},
}

# More, shorter-lived utterances with speaker noise and the float64 tiny net:
# forest training and per-utterance Python work dominate instead of the CNN.
_WIDE_CORPUS = {
    "n_classes": 6, "utterances_per_class": 10, "segments_range": [3, 5],
    "mixture_mode": "blended", "off_class_mass": 0.3, "noise_level": 1.0,
    "utterance_noise_level": 0.5, "n_speakers": 8, "n_mels": 32, "seg_frames": 32,
}
_WIDE_CONFIG = {
    "mode": "pEPR", "generations": 2, "folds": 3, "eval_folds": 5,
    "frame": {"n_mels": 32}, "segment": {"seg_frames": 32, "seg_hop_ms": 320.0},
    "train": {"max_epochs": 1, "architecture": "tiny"},
    "forest": {"n_trees": 20},
}

# Span names the traced run must record at least once on each workload.
_TRAINING_SPANS = (
    "network.Conv3x3.forward", "network.Conv3x3.backward",
    "network.MaxPool2x2.forward", "network.MaxPool2x2.backward",
    "network.ReLU.forward", "network.ReLU.backward",
    "network.Dense.forward", "network.Dense.backward",
    "classifier.train_segment_classifier", "classifier.predict_batch",
    "decision.train_forest", "decision.predict_forest",
    "refinery.generate_eps_foldout", "representation.representations_for",
    "pipeline.cross_validated_predictions", "evaluation.kfold_split",
    "classifier.save_model", "refinery.write_ep_csv",
)
_EVERY_RUN_SPANS = (
    "pipeline.run_experiment", "manifest.read_spectrogram_csv",
    "features.segment_spectrogram", "refinery.next_targets",
    "evaluation.write_metrics_report",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict
    config: dict
    expected_spans: tuple
    # Run on a completed run directory of this config, built untimed first.
    resume: bool = False


_SMOKE_CORPUS = {"utterances_per_class": 3, "segments_range": [2, 3]}
_SMOKE_CONFIG = {"folds": 2, "eval_folds": 2, "forest": {"n_trees": 2}}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="demo",
            why="README quick-start corpus on the compact float32 net; CNN training "
                "dominates, so kernel and fold-parallel changes show here",
            corpus=_DEMO_CORPUS, config=_DEMO_CONFIG,
            expected_spans=_TRAINING_SPANS + _EVERY_RUN_SPANS),
        Workload(
            name="wide",
            why="more utterances with speaker noise on the tiny net; forest and "
                "per-utterance Python work dominate, a CNN kernel change barely shows",
            corpus=_WIDE_CORPUS, config=_WIDE_CONFIG,
            expected_spans=_TRAINING_SPANS + _EVERY_RUN_SPANS),
        Workload(
            name="resume",
            why="wide's config re-run on its completed run directory; no model trains, "
                "so CSV ingest and per-run set-up dominate",
            corpus=_WIDE_CORPUS, config=_WIDE_CONFIG,
            expected_spans=_EVERY_RUN_SPANS + ("refinery.read_ep_csv",),
            resume=True),
    )
}


def inputs(workload: Workload, seed: int, smoke: bool = False):
    """(corpus spec, config) dicts for one seed; smoke shrinks them to seconds."""
    corpus = dict(workload.corpus, seed=seed)
    config = dict(workload.config, master_seed=seed)
    if smoke:
        corpus.update(_SMOKE_CORPUS)
        config.update(_SMOKE_CONFIG)
    return corpus, config
