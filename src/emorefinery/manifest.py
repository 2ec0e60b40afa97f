"""Corpus manifests and the per-utterance spectrogram feature store.

A corpus directory holds manifest.json plus one file per utterance. Rows
point at either raw audio ("audio") or precomputed log-Mel spectrograms
("features"); synthetic and real corpora are interchangeable downstream.
The package writes each spectrogram as features/<id>.npy, one float64
(1 + n_mels, F) array whose row 0 holds the frame times; the reader also
takes the frame-per-row CSV layout, for spectrograms made elsewhere.
An utterance id names its features file, so it must be a plain file name:
not empty, "." or "..", and free of "/", "\\", control characters and
surrogates.
"""

import csv
import re
import unicodedata
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import LogMelSpectrogram
from .fileio import read_json, read_text, write_json, writing

CORPUS_FORMAT = "emorefinery-corpus"
CORPUS_VERSION = 1
MANIFEST_NAME = "manifest.json"
ROW_KINDS = ("audio", "features")


def check_class_names(names, error) -> tuple:
    """`names` as a tuple if it is a list of distinct, non-empty strings with
    no surrogate, which UTF-8 cannot write; else raises `error`. A row's
    observed_label uses "" for "none", so no class may be named "".
    """
    if not (isinstance(names, (tuple, list)) and all(isinstance(n, str) for n in names)):
        raise error(f"class_names must be a list of strings, not {names!r}")
    for name in names:
        if not name or any(unicodedata.category(c) == "Cs" for c in name):
            raise error(f"class name {name!r} must not be empty nor hold a surrogate")
    if len(set(names)) != len(names):
        raise error(f"class_names must be distinct, not {list(names)}")
    return tuple(names)


@dataclass(frozen=True)
class ManifestRow:
    utterance_id: str
    path: str
    kind: str
    label: str
    speaker: str = ""
    observed_label: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str):
                raise DataError(f"{self.utterance_id!r}: {f.name} must be a string, "
                                f"not {value!r}")
        uid = self.utterance_id
        if uid in ("", ".", "..") or any(c in "/\\" or unicodedata.category(c) in ("Cc", "Cs")
                                         for c in uid):
            raise DataError(f"utterance id {uid!r} is not a file name: it must not be empty, "
                            "'.' or '..', nor hold '/', '\\', control characters or surrogates")
        if self.kind not in ROW_KINDS:
            raise DataError(f"{uid!r}: row kind must be one of {ROW_KINDS}")

    @property
    def training_label(self) -> str:
        """Label the pipeline trains on; falls back to the clean label."""
        return self.observed_label or self.label


@dataclass(frozen=True)
class CorpusManifest:
    class_names: tuple
    rows: tuple
    root: Path

    def __post_init__(self):
        object.__setattr__(self, "class_names", check_class_names(self.class_names, DataError))
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "root", Path(self.root))
        if len(self.class_names) < 2:
            raise DataError("manifest needs at least 2 classes")
        if not self.rows:
            raise DataError("manifest has no utterances")
        seen = set()
        for row in self.rows:
            if row.utterance_id in seen:
                raise DataError(f"duplicate utterance id {row.utterance_id!r}")
            seen.add(row.utterance_id)
            for label in (row.label, row.training_label):
                if label not in self.class_names:
                    raise DataError(f"{row.utterance_id!r}: label {label!r} not in class table")

    def label_index(self, name: str) -> int:
        return self.class_names.index(name)

    def clean_labels(self) -> np.ndarray | None:
        """The clean label's class index of each row, in row order, or None
        when every row trains on its clean label."""
        if all(r.training_label == r.label for r in self.rows):
            return None
        return np.array([self.label_index(r.label) for r in self.rows], dtype=np.int64)


def save_manifest(manifest: CorpusManifest) -> Path:
    doc = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "class_names": list(manifest.class_names),
        "rows": [asdict(r) for r in sorted(manifest.rows, key=lambda r: r.utterance_id)],
    }
    path = manifest.root / MANIFEST_NAME
    write_json(path, doc)
    return path


def load_manifest(corpus_root) -> CorpusManifest:
    root = Path(corpus_root)
    path = root / MANIFEST_NAME if root.is_dir() else root
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CORPUS_FORMAT:
        raise DataError(f"{path} is not a corpus manifest")
    if type(doc.get("version")) is not int or doc["version"] != CORPUS_VERSION:
        raise DataError(f"{path}: unsupported corpus manifest version {doc.get('version')!r}")
    try:
        rows = [ManifestRow(utterance_id=r["utterance_id"], path=r["path"], kind=r["kind"],
                            label=r["label"], speaker=r.get("speaker", ""),
                            observed_label=r.get("observed_label", ""))
                for r in doc["rows"]]
        return CorpusManifest(class_names=doc["class_names"], rows=rows, root=path.parent)
    except KeyError as exc:
        raise DataError(f"{path} lacks the key {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise DataError(f"{path} holds a malformed entry: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse_label_speaker_index(rel: Path):
    """'{label}_{speaker}_{index}.wav' stems; first two tokens name the row."""
    parts = rel.stem.split("_")
    if len(parts) < 3:
        raise DataError(f"{rel}: expected a label_speaker_index stem")
    return parts[0], parts[1]


def _parse_speaker_text_letter(rel: Path):
    """'{speaker:2}{text:3}{letter}{version}.wav' stems; the letter names the class."""
    stem = rel.stem
    if len(stem) < 7:
        raise DataError(f"{rel}: expected a speaker_text_letter stem of >= 7 characters")
    return stem[5], stem[:2]


def _parse_speaker_dir_prefix(rel: Path):
    """'{speaker}/{prefix}{digits}.wav' paths; the alphabetic prefix names the class."""
    prefix = re.match(r"[A-Za-z]+", rel.stem)
    if prefix is None or len(rel.parts) < 2:
        raise DataError(f"{rel}: expected an alphabetic class prefix inside a speaker directory")
    return prefix.group(0), rel.parts[-2]


FILENAME_RULES = {
    "label_speaker_index": _parse_label_speaker_index,
    "speaker_text_letter": _parse_speaker_text_letter,
    "speaker_dir_prefix": _parse_speaker_dir_prefix,
}


def manifest_from_wav_tree(corpus_root, rule, label_map=None, class_names=None) -> CorpusManifest:
    """Build and save an audio-kind manifest from a WAV tree's naming convention.

    rule is a FILENAME_RULES name or a callable mapping a WAV's relative
    path to (label token, speaker). label_map translates tokens to class
    names; unmapped tokens are used verbatim. The class table defaults to
    the sorted set of labels encountered.
    """
    root = Path(corpus_root)
    if not root.is_dir():
        raise DataError(f"no corpus directory at {root}")
    if isinstance(rule, str):
        if rule not in FILENAME_RULES:
            raise ConfigError(f"unknown filename rule {rule!r}; known: {sorted(FILENAME_RULES)}")
        rule = FILENAME_RULES[rule]
    wavs = sorted(root.rglob("*.wav"))
    if not wavs:
        raise DataError(f"no .wav files under {root}")
    mapping = dict(label_map or {})
    rows = []
    for wav in wavs:
        rel = wav.relative_to(root)
        token, speaker = rule(rel)
        rows.append(ManifestRow(utterance_id="_".join(rel.with_suffix("").parts),
                                path=rel.as_posix(), kind="audio",
                                label=mapping.get(token, token), speaker=speaker))
    names = tuple(class_names) if class_names else tuple(sorted({r.label for r in rows}))
    manifest = CorpusManifest(class_names=names, rows=rows, root=root)
    save_manifest(manifest)
    return manifest


def _parse_rows(lines) -> np.ndarray:
    """numpy's C reader over comma-separated lines; blank lines are skipped.

    Since numpy 1.23 each field goes through PyOS_string_to_double, the
    conversion float() uses, so every value keeps the bits float() would
    give it. Unlike float(), it rejects quotes and digit separators ("1_0").
    """
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _bad_line(path, lines, width: int) -> str:
    """Name the first of `lines` (file line 2 onward) that is not `width`
    finite numbers, and in it the first field that is not one."""
    for number, line in enumerate(lines, start=2):
        if not line:
            continue
        values = line.split(",")
        if len(values) != width:
            return (f"{path}, line {number}: {len(values)} values where the header "
                    f"names {width} columns")
        for field in values:
            try:
                value = _parse_rows([field]) if field else np.empty(0)
            except ValueError:
                value = np.empty(0)
            if value.size != 1:
                return f"{path}, line {number}: {field!r} is not a number"
            if not np.isfinite(value).all():
                return f"{path}, line {number}: {field!r} is not a finite number"
    return f"{path} does not hold {width} numbers per line"


# The header np.save writes for a C-order 2-D little-endian float64 array:
# magic, version 1.0, the little-endian length of what follows, the dict,
# spaces and "\n". Each dimension is a Python int literal that fits int64,
# so the array's reshape takes it.
_SAVED_HEADER = re.compile(rb"\x93NUMPY\x01\x00(..)"
                           rb"\{'descr': '<f8', 'fortran_order': False, 'shape': "
                           rb"\((0|[1-9][0-9]{0,17}), (0|[1-9][0-9]{0,17})\), \} {0,255}\n",
                           re.DOTALL)


def _read_spectrogram_npy(path) -> LogMelSpectrogram:
    """The spectrogram in a .npy file written by write_features_corpus: the
    header np.save writes for a C-order 2-D '<f8' array, then exactly that
    array's bytes, of which the array is a view. Any other file is not a
    .npy array of the store.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path} cannot be read ({exc.strerror})") from exc
    saved = _SAVED_HEADER.match(raw)
    if not saved or int.from_bytes(saved[1], "little") != saved.end() - 10:
        raise DataError(f"{path} is not a .npy array: it lacks the header np.save "
                        "writes for a C-order 2-D '<f8' array")
    rows, cols = int(saved[2]), int(saved[3])
    extra = len(raw) - saved.end() - 8 * rows * cols
    if extra:
        raise DataError(f"{path} is not a .npy array: " + (
            f"{extra} bytes follow the array" if extra > 0
            else f"{-extra} bytes of the array are missing"))
    data = np.frombuffer(raw, "<f8", rows * cols, saved.end()).reshape(rows, cols)
    if len(data) < 2:
        raise DataError(f"{path} names no mel row after the frame times")
    if data.shape[1] == 0:
        raise DataError(f"{path} holds no frames")
    if not np.isfinite(data).all():
        raise DataError(f"{path} holds a value that is not a finite number")
    return LogMelSpectrogram(values=data[1:], frame_times=data[0])


def read_spectrogram_csv(path) -> LogMelSpectrogram:
    """Load a spectrogram, every value bit for bit: a .npy file written by
    write_features_corpus, or else a CSV whose header is frame_time_ms,
    m_1, ..., m_N and whose lines each hold a frame's time and N values.

    A damaged file raises one DataError naming it; for a CSV, a header that
    names no mel column raises one naming the file, and a row that is not
    one finite number per header column one naming the file and the line.
    """
    if Path(path).suffix == ".npy":
        return _read_spectrogram_npy(path)
    head, newline, body = read_text(path).partition("\n")
    try:
        header = next(csv.reader([head + newline]))
    except csv.Error as exc:
        raise DataError(f"{path}, line 1: {exc}") from exc
    if header[:1] != ["frame_time_ms"]:
        raise DataError(f"{path} is not a spectrogram CSV")
    if len(header) < 2:
        raise DataError(f"{path} names no mel column after frame_time_ms")
    if not body.strip():
        raise DataError(f"{path} holds no frames")
    lines = body.split("\n")
    try:
        data = _parse_rows(lines)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        raise DataError(_bad_line(path, lines, len(header)))
    return LogMelSpectrogram(values=data[:, 1:].T, frame_times=data[:, 0])


def _refuse_existing_corpus(root: Path) -> None:
    """Refuse a `root` that holds a corpus: writing over it could mix two."""
    if (root / MANIFEST_NAME).exists() or (root / "features").exists():
        raise DataError(f"{root} already holds a corpus; write to a new or empty directory")


def write_features_corpus(corpus_root, class_names, rows_and_spectrograms) -> CorpusManifest:
    """Write each (row, spectrogram) pair's spectrogram to features/<id>.npy,
    its frame times above its values, and the rows' features-kind manifest;
    a root that holds either already raises a DataError, and a file or
    directory that cannot be written the OSError naming it."""
    root = Path(corpus_root)
    _refuse_existing_corpus(root)
    rows = []
    (root / "features").mkdir(parents=True, exist_ok=True)
    for row, s in rows_and_spectrograms:
        rel = f"features/{row.utterance_id}.npy"
        with writing(root / rel), (root / rel).open("wb") as fh:
            np.save(fh, np.ascontiguousarray(np.vstack((s.frame_times, s.values)), "<f8"))
        rows.append(replace(row, path=rel, kind="features"))
    manifest = CorpusManifest(class_names=class_names, rows=rows, root=root)
    save_manifest(manifest)
    return manifest


def write_synthetic_corpus(corpus_root, utterances, class_names) -> CorpusManifest:
    """Persist generated utterances as a features-kind corpus directory."""
    names = tuple(class_names)
    return write_features_corpus(corpus_root, names, (
        (ManifestRow(utterance_id=u.utterance_id, path="", kind="features",
                     label=names[u.label], speaker=u.speaker,
                     observed_label=names[u.observed_label] if u.observed_label != u.label
                     else ""), u.spectrogram)
        for u in utterances))
