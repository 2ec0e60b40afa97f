"""Experiment configuration: one JSON file drives a full pipeline run.

A single master seed derives every component seed over fixed streams, so
two runs with equal configs produce byte-identical artifacts and no seed
needs to be stated twice.
"""

import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .classifier import TrainConfig
from .decision import ForestConfig
from .errors import ConfigError
from .features import FrameSpec, SegmentSpec
from .fileio import read_json, write_json
from .network import Architecture, resolve_architecture
from .refinery import derive_seed, normalize_mode

SCHEMA_VERSION = 1

# Seed streams hung off the master seed; values are part of the on-disk
# contract and must never change.
STREAM_REFINERY = 1
STREAM_FOREST = 2
STREAM_EVAL = 3


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 0
    output_dir: str = "runs/default"
    mode: str = "pEPR"
    generations: int = 3
    folds: int = 10
    eval_folds: int = 10
    group_by_speaker: bool = False
    frame: FrameSpec = field(default_factory=FrameSpec)
    segment: SegmentSpec = field(default_factory=SegmentSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)

    def __post_init__(self):
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        object.__setattr__(self, "mode", normalize_mode(self.mode))
        if self.eval_folds < 2:
            raise ConfigError("eval_folds must be >= 2")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.mode == "none" and self.generations != 1:
            raise ConfigError("mode 'none' performs no refinement; use generations=1")

    def derived_seeds(self) -> dict:
        """The seed of each stream; each layer takes its seed as an argument."""
        return {"refinery": derive_seed(self.master_seed, STREAM_REFINERY),
                "forest": derive_seed(self.master_seed, STREAM_FOREST),
                "eval": derive_seed(self.master_seed, STREAM_EVAL)}


def _architecture_from_json(value):
    if isinstance(value, str):
        return resolve_architecture(value).name
    if isinstance(value, dict):
        extra = set(value) - {"name", "conv_stages", "dense", "dtype"}
        if extra:
            raise ConfigError(f"unknown architecture keys {sorted(extra)}")
        if "name" not in value or "conv_stages" not in value:
            raise ConfigError("inline architecture needs name and conv_stages")
        return Architecture(**value)
    raise ConfigError("architecture must be a name or an inline object")


_SECTIONS = {"frame": FrameSpec, "segment": SegmentSpec, "train": TrainConfig,
             "forest": ForestConfig}
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _SECTIONS)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    for key in _TOP_KEYS:
        doc[key] = getattr(cfg, key)
    for section, cls in _SECTIONS.items():
        value = getattr(cfg, section)
        body = {f.name: getattr(value, f.name) for f in fields(cls)}
        if isinstance(body.get("architecture"), Architecture):
            body["architecture"] = body["architecture"].to_json()
        doc[section] = body
    return doc


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check_types(cls, body: dict, prefix: str = "") -> None:
    """Reject a value whose JSON type is not the field's declared type.

    An integer may stand for a float; a bool never stands for an integer.
    An integer must fit in a signed 64-bit integer, as numpy sizes must. A
    float must be finite: JSON's NaN, Infinity, overflowing literals such
    as 1e999 and integers beyond the float range are rejected. Fields of
    other types (sections, tuples, the architecture) are checked by their
    own parsers or dataclasses.
    """
    for f in fields(cls):
        if f.name not in body or f.type not in _JSON_KINDS:
            continue
        value = body[f.name]
        if type(value) is not f.type and not (f.type is float and type(value) is int):
            raise ConfigError(f"{prefix}{f.name} must be {_JSON_KINDS[f.type]}, "
                              f"not {json.dumps(value)}")
        # NaN fails both comparisons; so does an integer too large for a float.
        if f.type is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{prefix}{f.name} must be a finite number, "
                              f"not {json.dumps(value)}")
        if f.type is int and not -2**63 <= value < 2**63:
            raise ConfigError(f"{prefix}{f.name} must be an integer from -2**63 to 2**63 - 1, "
                              f"not {json.dumps(value)}")


def dataclass_from_dict(cls, doc, what: str, prefix: str = ""):
    """cls(**doc) of a JSON object that holds only fields of cls, each of its
    declared type; `what` names the object in errors and `prefix` the field
    in type errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    extra = set(doc) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    _check_types(cls, doc, prefix)
    return cls(**doc)


def _section_from_dict(section: str, body):
    if isinstance(body, dict) and "architecture" in body:
        body = {**body, "architecture": _architecture_from_json(body["architecture"])}
    return dataclass_from_dict(_SECTIONS[section], body, f"section {section!r}", f"{section}.")


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")
    body = {key: _section_from_dict(key, value) if key in _SECTIONS else value
            for key, value in doc.items() if key != "schema_version"}
    return dataclass_from_dict(ExperimentConfig, body, "config")


def load_json_file(path, parse, what: str = "config file"):
    """parse(document) of the JSON file at `path`; every ConfigError names the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no {what} at {path}")
    doc = read_json(path, ConfigError)
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return load_json_file(path, config_from_dict)


def save_config(path, cfg: ExperimentConfig) -> None:
    write_json(path, config_to_dict(cfg))
