"""Experiment config schema, validation, and master-seed derivation tests."""

import json

import pytest

from emorefinery.classifier import TrainConfig
from emorefinery.config import (
    STREAM_EVAL,
    STREAM_FOREST,
    STREAM_REFINERY,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from emorefinery.errors import ConfigError
from emorefinery.fileio import json_document
from emorefinery.network import Architecture
from emorefinery.refinery import derive_seed


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_non_default_round_trips(self):
        cfg = ExperimentConfig(master_seed=42, mode="hard-dynamic", generations=2,
                               folds=4, eval_folds=5, group_by_speaker=True,
                               train=TrainConfig(max_epochs=5, architecture="tiny"))
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.mode == "hard-dynamic"
        assert restored.train.max_epochs == 5
        assert restored.train.architecture == "tiny"
        assert restored == cfg

    def test_inline_architecture_round_trips(self):
        arch = Architecture(name="custom", conv_stages=((4,), (8,)), dense=(16,),
                            dtype="float64")
        cfg = ExperimentConfig(train=TrainConfig(architecture=arch))
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.train.architecture == arch

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(master_seed=7)
        save_config(tmp_path / "cfg.json", cfg)
        assert load_config(tmp_path / "cfg.json") == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = config_from_dict({"master_seed": 3, "train": {"max_epochs": 2}})
        assert cfg.master_seed == 3
        assert cfg.train.max_epochs == 2
        assert cfg.folds == 10


# The stored form of the default config, as run_manifest.json and
# `run --describe` have held it: a renamed key or a changed value makes
# every earlier run directory unresumable.
DEFAULT_DOCUMENT = """{
  "eval_folds": 10,
  "folds": 10,
  "forest": {
    "bootstrap": true,
    "max_depth": -1,
    "max_features": 0,
    "min_samples_split": 2,
    "n_trees": 100
  },
  "frame": {
    "fft_len": 512,
    "hop_ms": 10.0,
    "n_mels": 64,
    "win_ms": 25.0
  },
  "generations": 3,
  "group_by_speaker": false,
  "master_seed": 0,
  "mode": "pEPR",
  "output_dir": "runs/default",
  "schema_version": 1,
  "segment": {
    "seg_frames": 32,
    "seg_hop_ms": 30.0
  },
  "train": {
    "architecture": "compact",
    "batch_size": 128,
    "early_stop_patience": 3,
    "initial_lr": 0.001,
    "lr_decay": 0.8,
    "lr_decay_every": 2,
    "max_epochs": 20,
    "validation_fraction": 0.1
  }
}
"""
INLINE_ARCHITECTURE = """  "train": {
    "architecture": {
      "conv_stages": [
        [
          4
        ],
        [
          8
        ]
      ],
      "dense": [
        16
      ],
      "dtype": "float64",
      "name": "custom"
    },
"""


class TestStoredForm:
    def test_default_document(self):
        assert json_document(config_to_dict(ExperimentConfig())) == DEFAULT_DOCUMENT

    def test_inline_architecture_document(self):
        arch = Architecture(name="custom", conv_stages=((4,), (8,)), dense=(16,),
                            dtype="float64")
        text = json_document(config_to_dict(ExperimentConfig(train=TrainConfig(architecture=arch))))
        assert text == DEFAULT_DOCUMENT.replace('  "train": {\n    "architecture": "compact",\n',
                                                INLINE_ARCHITECTURE)
        assert INLINE_ARCHITECTURE in text


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="train"):
            config_from_dict({"train": {"sgd_momentum": 0.9}})

    def test_seed_keys_are_rejected_inside_sections(self):
        with pytest.raises(ConfigError, match=r"^unknown section 'train' keys: \['seed'\]$"):
            config_from_dict({"train": {"seed": 1}})
        with pytest.raises(ConfigError, match=r"^unknown section 'forest' keys: \['seed'\]$"):
            config_from_dict({"forest": {"seed": 1}})

    def test_unknown_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({"schema_version": 99})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig(mode="forever")

    def test_mode_normalized(self):
        assert ExperimentConfig(mode="pepr").mode == "pEPR"
        assert ExperimentConfig(mode="SEPR").mode == "sEPR"

    def test_generation_and_fold_bounds(self):
        with pytest.raises(ConfigError, match="generations must be >= 1"):
            ExperimentConfig(generations=0)
        with pytest.raises(ConfigError, match="folds must be >= 2"):
            ExperimentConfig(folds=1)

    def test_mode_none_needs_single_generation(self):
        ExperimentConfig(mode="none", generations=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="none", generations=3)

    def test_negative_master_seed(self):
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig(master_seed=-1)

    def test_eval_folds_lower_bound(self):
        with pytest.raises(ConfigError, match="eval_folds"):
            ExperimentConfig(eval_folds=1)

    def test_unknown_architecture_name(self):
        with pytest.raises(ConfigError, match="architecture"):
            config_from_dict({"train": {"architecture": "resnet"}})

    def test_inline_architecture_unknown_key(self):
        with pytest.raises(ConfigError, match="pool"):
            config_from_dict({"train": {"architecture": {"name": "x", "conv_stages": [[4]],
                                                         "pool": 3}}})

    @pytest.mark.parametrize("doc, key", [
        ({"generations": "2"}, "generations must be an integer"),
        ({"folds": True}, "folds must be an integer"),
        ({"folds": 3.0}, "folds must be an integer"),
        ({"group_by_speaker": 1}, "group_by_speaker must be true or false"),
        ({"mode": None}, "mode must be a string"),
        ({"forest": {"n_trees": "5"}}, "forest.n_trees must be an integer"),
        ({"forest": {"bootstrap": "yes"}}, "forest.bootstrap must be true or false"),
        ({"frame": {"win_ms": "25"}}, "frame.win_ms must be a number"),
        ({"train": {"initial_lr": False}}, "train.initial_lr must be a number"),
        ({"segment": {"seg_frames": 10**400}}, "segment.seg_frames must be an integer from -2**63 to 2**63 - 1"),
        ({"master_seed": -10**400}, "master_seed must be an integer from -2**63 to 2**63 - 1"),
        ({"folds": 2**63}, "folds must be an integer from -2**63 to 2**63 - 1"),
    ])
    def test_wrong_value_types_name_file_and_key(self, tmp_path, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: {key}, not ")

    def test_segment_hop_checked_against_frame_hop(self):
        with pytest.raises(ConfigError, match=r"^seg_hop_ms=25.0 is not a positive multiple "
                                              r"of hop_ms=10.0$"):
            config_from_dict({"segment": {"seg_hop_ms": 25.0}})
        assert config_from_dict({"frame": {"hop_ms": 5.0}, "segment": {"seg_hop_ms": 25.0}})

    @pytest.mark.parametrize("doc, message", [
        ({"train": 5}, "section 'train' must be a JSON object"),
        ({"segment": {"seg_frames": 2, "x": 1}}, "unknown section 'segment' keys: ['x']"),
        ({"frame": {"hop_ms": "10"}}, 'frame.hop_ms must be a number, not "10"'),
        ({"train": {"architecture": {"name": "x", "conv_stages": [[4]], "pool": 3}}},
         "unknown architecture keys ['pool']"),
        ({"train": {"architecture": {"conv_stages": [[4]]}}},
         "inline architecture needs name and conv_stages"),
        ({"train": {"architecture": 3}}, "architecture must be a name or an inline object"),
        ({"train": {"architecture": {"name": "x", "conv_stages": [[4]], "dtype": "float16"}}},
         "unsupported dtype 'float16'"),
        ({"train": {"lr_decay_every": 0}}, "lr_decay_every and early_stop_patience must be >= 1"),
        ({"train": {"early_stop_patience": 0}},
         "lr_decay_every and early_stop_patience must be >= 1"),
        ({"frame": {"win_ms": 0}}, "window and hop must be positive"),
        ({"frame": {"hop_ms": -10.0}}, "window and hop must be positive"),
        ({"frame": {"hop_ms": 30.0}}, "hop must not exceed the window length"),
        ({"frame": {"n_mels": 1}}, "n_mels must be at least 2"),
        ({"segment": {"seg_frames": 0}}, "seg_frames must be >= 1"),
        ({"segment": {"seg_hop_ms": 0}}, "seg_hop_ms must be positive"),
        ({"forest": {"n_trees": 0}}, "n_trees must be >= 1"),
        ({"forest": {"max_features": -1}},
         "max_features must be positive, or 0 for floor(sqrt(d))"),
        ({"forest": {"min_samples_split": 1}}, "min_samples_split must be >= 2"),
        ({"forest": {"max_depth": -2}}, "max_depth must be >= 0, or -1 for unlimited"),
        ([], "config must be a JSON object"),
    ])
    def test_single_error_messages(self, doc, message):
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert str(err.value) == message

    def test_integers_stand_for_floats(self):
        cfg = config_from_dict({"frame": {"win_ms": 30, "hop_ms": 10},
                                "train": {"initial_lr": 1, "validation_fraction": 0.25}})
        assert (cfg.frame.win_ms, cfg.train.initial_lr) == (30, 1)

    def test_bad_json_file(self, tmp_path):
        (tmp_path / "cfg.json").write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(tmp_path / "cfg.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no config"):
            load_config(tmp_path / "absent.json")


class TestSeedDerivation:
    def test_streams_match_documented_derivation(self):
        assert ExperimentConfig(master_seed=123).derived_seeds() == {
            "refinery": derive_seed(123, STREAM_REFINERY),
            "forest": derive_seed(123, STREAM_FOREST),
            "eval": derive_seed(123, STREAM_EVAL)}

    def test_streams_are_distinct(self):
        seeds = ExperimentConfig(master_seed=0).derived_seeds()
        assert len(set(seeds.values())) == 3

    def test_master_seed_changes_all_streams(self):
        a = ExperimentConfig(master_seed=0).derived_seeds()
        b = ExperimentConfig(master_seed=1).derived_seeds()
        assert all(a[key] != b[key] for key in a)

    def test_seed_keys_never_serialized(self):
        doc = config_to_dict(ExperimentConfig())
        assert "seed" not in doc["train"]
        assert "seed" not in doc["forest"]
        assert json.dumps(doc)  # remains JSON-serializable
