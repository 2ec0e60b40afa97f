"""Corpus manifest and spectrogram store tests."""

import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emorefinery.datagen import SyntheticCorpusSpec, generate_synthetic_corpus
from emorefinery.errors import ConfigError, DataError
from emorefinery.features import LogMelSpectrogram
from emorefinery.manifest import (
    CorpusManifest,
    ManifestRow,
    load_manifest,
    manifest_from_wav_tree,
    read_spectrogram_csv,
    save_manifest,
    write_spectrogram_csv,
    write_synthetic_corpus,
)

NAMES = ("angry", "happy", "neutral")


def row(uid, label="angry", observed="", kind="features"):
    return ManifestRow(utterance_id=uid, path=f"features/{uid}.csv", kind=kind,
                       label=label, speaker="spk0", observed_label=observed)


def spectrogram(rng, n_mels=5, n_frames=7):
    return LogMelSpectrogram(values=rng.standard_normal((n_mels, n_frames)),
                             frame_times=np.arange(n_frames) * 10.0)


class TestManifestRow:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DataError, match="kind"):
            ManifestRow(utterance_id="u", path="p", kind="video", label="angry")

    def test_training_label_falls_back_to_clean(self):
        assert row("u").training_label == "angry"
        assert row("u", observed="happy").training_label == "happy"

    @pytest.mark.parametrize("uid", ["", ".", "..", "sub/u0", "../../x", "a\\b", "a\nb",
                                     "tab\t", "cr\r", "nul\x00", "del\x7f", "c1\x85"])
    def test_rejects_ids_that_are_not_file_names(self, uid):
        with pytest.raises(DataError, match="is not a file name"):
            row(uid)

    @pytest.mark.parametrize("uid", ["u0,x", 'u1"q', "a b", "émotion", "Жy", "...", ".u"])
    def test_accepts_other_ids(self, uid):
        assert row(uid).utterance_id == uid


class TestCorpusManifest:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataError, match="duplicate"):
            CorpusManifest(class_names=NAMES, rows=[row("u0"), row("u0")], root=".")

    def test_rejects_label_outside_class_table(self):
        with pytest.raises(DataError, match="class table"):
            CorpusManifest(class_names=NAMES, rows=[row("u0", label="bored")], root=".")

    def test_rejects_observed_label_outside_class_table(self):
        with pytest.raises(DataError, match="class table"):
            CorpusManifest(class_names=NAMES, rows=[row("u0", observed="bored")], root=".")

    def test_rejects_empty_rows_and_tiny_class_table(self):
        with pytest.raises(DataError, match="utterances"):
            CorpusManifest(class_names=NAMES, rows=[], root=".")
        with pytest.raises(DataError, match="classes"):
            CorpusManifest(class_names=("angry",), rows=[row("u0")], root=".")

    def test_label_maps(self):
        m = CorpusManifest(class_names=NAMES,
                           rows=[row("u0"), row("u1", label="happy", observed="neutral")],
                           root=".")
        assert m.clean_labels().tolist() == [0, 1]
        assert [m.label_index(r.training_label) for r in m.rows] == [0, 2]
        assert m.has_label_noise()


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        m = CorpusManifest(class_names=NAMES,
                           rows=[row("u1", label="happy"), row("u0", observed="neutral")],
                           root=tmp_path)
        save_manifest(m)
        loaded = load_manifest(tmp_path)
        assert loaded.class_names == NAMES
        assert {r.utterance_id for r in loaded.rows} == {"u0", "u1"}
        assert ({r.utterance_id: r.training_label for r in loaded.rows}
                == {r.utterance_id: r.training_label for r in m.rows})
        assert loaded.root == tmp_path

    def test_load_accepts_manifest_path_or_directory(self, tmp_path):
        m = CorpusManifest(class_names=NAMES, rows=[row("u0")], root=tmp_path)
        path = save_manifest(m)
        assert load_manifest(path).rows == load_manifest(tmp_path).rows

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="no manifest"):
            load_manifest(tmp_path)

    def test_rejects_foreign_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(DataError, match="not a corpus manifest"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("text, what", [
        ('{"format": "emorefinery-corpus", "version": 1,', "is not valid JSON"),
        ("[1, 2]", "is not a corpus manifest"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"]}',
         "lacks the key 'rows'"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"], '
         '"rows": [{"utterance_id": "u0"}]}', "lacks the key 'path'"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"], '
         '"rows": [7]}', "holds a malformed entry"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"], '
         '"rows": [{"utterance_id": "u0", "path": 5, "kind": "features", "label": "a"}]}',
         "'u0': path must be a string, not 5"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"], '
         '"rows": []}', "has no utterances"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"], '
         '"rows": [{"utterance_id": "sub/u9", "path": "x", "kind": "features", "label": "a"}]}',
         "utterance id 'sub/u9' is not a file name"),
    ])
    def test_malformed_manifest_names_file(self, tmp_path, text, what):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_manifest(tmp_path)
        assert str(path) in str(err.value) and what in str(err.value)

    def test_failed_save_keeps_previous_manifest(self, tmp_path, monkeypatch):
        save_manifest(CorpusManifest(class_names=NAMES, rows=[row("u0")], root=tmp_path))
        before = (tmp_path / "manifest.json").read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr("emorefinery.fileio.os.replace", interrupted)
        with pytest.raises(OSError):
            save_manifest(CorpusManifest(class_names=NAMES, rows=[row("u1")], root=tmp_path))
        assert (tmp_path / "manifest.json").read_bytes() == before

    def test_rejects_unknown_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "emorefinery-corpus", "version": 99}))
        with pytest.raises(DataError, match="version"):
            load_manifest(tmp_path)


class TestSpectrogramStore:
    def test_exact_float_round_trip(self, tmp_path):
        s = spectrogram(np.random.default_rng(0))
        write_spectrogram_csv(tmp_path / "s.csv", s)
        loaded = read_spectrogram_csv(tmp_path / "s.csv")
        np.testing.assert_array_equal(loaded.values, s.values)
        np.testing.assert_array_equal(loaded.frame_times, s.frame_times)

    def test_rejects_foreign_csv(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="not a spectrogram"):
            read_spectrogram_csv(tmp_path / "s.csv")

    def test_rejects_headers_only(self, tmp_path):
        (tmp_path / "s.csv").write_text("frame_time_ms,m_1\n")
        with pytest.raises(DataError, match="no frames"):
            read_spectrogram_csv(tmp_path / "s.csv")


def reference_read_spectrogram_csv(path):
    """The first reader: the csv module, then float() on every field."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["frame_time_ms"]:
        raise DataError(f"{path} is not a spectrogram CSV")
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    if data.size == 0:
        raise DataError(f"{path} holds no frames")
    return LogMelSpectrogram(values=data[:, 1:].T, frame_times=data[:, 0])


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.1]


@st.composite
def short_decimals(draw):
    """Values whose shortest repr has 1 to 17 significant digits."""
    digits = draw(st.integers(1, 17))
    mantissa = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    sign = draw(st.sampled_from(["", "-"]))
    return float(f"{sign}{mantissa}e{draw(st.integers(-30, 30))}")


CSV_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    short_decimals(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def spectrogram_files(draw):
    n_mels, n_frames = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    values = draw(st.lists(CSV_VALUES, min_size=n_mels * n_frames, max_size=n_mels * n_frames))
    times = draw(st.lists(CSV_VALUES, min_size=n_frames, max_size=n_frames))
    s = LogMelSpectrogram(values=np.array(values).reshape(n_mels, n_frames),
                          frame_times=np.array(times))
    return s, draw(st.sampled_from([b"\r\n", b"\n", b"\r"]))


class TestReaderOracle:
    """read_spectrogram_csv against the first reader, byte for byte."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(spectrogram_files())
    @example((LogMelSpectrogram(values=np.array([EDGE_VALUES[:8]]).T, frame_times=np.array([-0.0])),
              b"\n"))
    @example((LogMelSpectrogram(values=np.array([[1.5, 2.0], [-3.0, 0.1]]),
                                frame_times=np.array([0.0, 10.0])), b"\r\n"))
    def test_bytes_match_reference(self, tmp_path_factory, case):
        s, newline = case
        path = tmp_path_factory.mktemp("oracle") / "s.csv"
        write_spectrogram_csv(path, s)
        path.write_bytes(path.read_bytes().replace(b"\r\n", newline))
        got = read_spectrogram_csv(path)
        want = reference_read_spectrogram_csv(path)
        assert got.values.tobytes() == want.values.tobytes() == s.values.tobytes()
        assert got.frame_times.tobytes() == want.frame_times.tobytes() == s.frame_times.tobytes()
        assert got.values.shape == want.values.shape

    @pytest.mark.parametrize("body, line, what", [
        ("0,1,2\n10,x,4\n", 3, "'x' is not a number"),
        ("0,1,2\n\n10,x,4\n", 4, "'x' is not a number"),
        ("0,1,2\n10,3\n20,5,6\n", 3, "2 values where the header names 3 columns"),
        ("0,1,2,3\n", 2, "4 values where the header names 3 columns"),
        ("0,1,\n", 2, "'' is not a number"),
        ("0,1,2\n10,nan,4\n", 3, "'nan' is not a finite number"),
        ("0,1,2\n\n10,3,-inf\n", 4, "'-inf' is not a finite number"),
        ("inf,1,2\n", 2, "'inf' is not a finite number"),
        ("0,1,2\n10,1e999,4\n", 3, "'1e999' is not a finite number"),
    ])
    def test_malformed_rows_name_file_and_line(self, tmp_path, body, line, what):
        path = tmp_path / "s.csv"
        path.write_text("frame_time_ms,m_1,m_2\n" + body)
        with pytest.raises(DataError) as err:
            read_spectrogram_csv(path)
        assert str(err.value) == f"{path}, line {line}: {what}"

    def test_header_over_narrower_rows_rejected(self, tmp_path):
        # Three mels named, one value per row: the first reader loaded this
        # as a one-mel spectrogram.
        path = tmp_path / "s.csv"
        path.write_text("frame_time_ms,m_1,m_2,m_3\n0,1\n10,2\n")
        assert reference_read_spectrogram_csv(path).values.shape[0] == 1
        with pytest.raises(DataError, match=r"line 2: 2 values where the header names 4"):
            read_spectrogram_csv(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n\n"])
    def test_headers_only_warns_nothing(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_text("frame_time_ms,m_1\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"{path} holds no frames"):
                read_spectrogram_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("frame_time_ms,m_1\n0,1.5\n\n10,2.5\n")
        with pytest.raises(ValueError):
            reference_read_spectrogram_csv(path)
        s = read_spectrogram_csv(path)
        assert s.values.tolist() == [[1.5, 2.5]] and s.frame_times.tolist() == [0.0, 10.0]

    @pytest.mark.parametrize("field", ['"1.5"', "1_0"])
    def test_fields_float_alone_accepts_rejected(self, tmp_path, field):
        path = tmp_path / "s.csv"
        path.write_text(f"frame_time_ms,m_1\n0,{field}\n")
        reference_read_spectrogram_csv(path)
        with pytest.raises(DataError, match=f"line 2: {field!r} is not a number"):
            read_spectrogram_csv(path)


class TestSyntheticCorpusStore:
    def spec(self, **kw):
        base = dict(n_classes=3, utterances_per_class=2, segments_range=(2, 3),
                    n_mels=8, seg_frames=4, n_speakers=2, seed=5)
        base.update(kw)
        return SyntheticCorpusSpec(**base)

    def test_writes_loadable_corpus(self, tmp_path):
        spec = self.spec()
        utts = generate_synthetic_corpus(spec)
        m = write_synthetic_corpus(tmp_path, utts, spec.class_names)
        loaded = load_manifest(tmp_path)
        assert len(loaded.rows) == 6
        assert loaded.class_names == spec.class_names
        for u in utts:
            s = read_spectrogram_csv(tmp_path / f"features/{u.utterance_id}.csv")
            np.testing.assert_array_equal(s.values, u.spectrogram.values)

    def test_observed_label_stored_only_when_flipped(self, tmp_path):
        spec = self.spec(label_noise=0.4, utterances_per_class=5)
        utts = generate_synthetic_corpus(spec)
        m = write_synthetic_corpus(tmp_path, utts, spec.class_names)
        flipped = {u.utterance_id for u in utts if u.observed_label != u.label}
        assert flipped
        stored = {r.utterance_id for r in m.rows if r.observed_label}
        assert stored == flipped
        assert load_manifest(tmp_path).has_label_noise()

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = self.spec()
        for d in ("a", "b"):
            write_synthetic_corpus(tmp_path / d, generate_synthetic_corpus(spec),
                                   spec.class_names)
        for rel in ["manifest.json"] + [f"features/u{i:04d}_c{i // 2}.csv" for i in range(6)]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestFilenameManifestBuilders:
    @staticmethod
    def touch(root, *rels):
        for rel in rels:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"")

    def test_label_speaker_index_layout(self, tmp_path):
        self.touch(tmp_path, "angry_s1_001.wav", "angry_s2_002.wav", "happy_s1_001.wav")
        m = manifest_from_wav_tree(tmp_path, "label_speaker_index")
        assert m.class_names == ("angry", "happy")
        assert {r.utterance_id: (r.label, r.speaker, r.kind) for r in m.rows} == {
            "angry_s1_001": ("angry", "s1", "audio"),
            "angry_s2_002": ("angry", "s2", "audio"),
            "happy_s1_001": ("happy", "s1", "audio"),
        }
        assert load_manifest(tmp_path).rows == m.rows

    def test_speaker_text_letter_layout_with_label_map(self, tmp_path):
        self.touch(tmp_path, "03a01Fa.wav", "08b02Wb.wav")
        m = manifest_from_wav_tree(tmp_path, "speaker_text_letter",
                                   label_map={"F": "happy", "W": "angry"})
        by_id = {r.utterance_id: r for r in m.rows}
        assert by_id["03a01Fa"].label == "happy"
        assert by_id["03a01Fa"].speaker == "03"
        assert by_id["08b02Wb"].label == "angry"

    def test_speaker_dir_prefix_layout(self, tmp_path):
        self.touch(tmp_path, "DC/a01.wav", "DC/sa01.wav", "JE/a02.wav")
        m = manifest_from_wav_tree(tmp_path, "speaker_dir_prefix",
                                   label_map={"a": "angry", "sa": "sad"})
        by_id = {r.utterance_id: (r.label, r.speaker, r.path) for r in m.rows}
        assert by_id["DC_a01"] == ("angry", "DC", "DC/a01.wav")
        assert by_id["DC_sa01"] == ("sad", "DC", "DC/sa01.wav")
        assert by_id["JE_a02"] == ("angry", "JE", "JE/a02.wav")

    def test_explicit_class_table_and_callable_rule(self, tmp_path):
        self.touch(tmp_path, "x1.wav", "x2.wav")
        rule = lambda rel: ("neutral" if rel.stem == "x1" else "sad", "spk")
        m = manifest_from_wav_tree(tmp_path, rule, class_names=("sad", "neutral", "angry"))
        assert m.class_names == ("sad", "neutral", "angry")
        assert sorted(r.label for r in m.rows) == ["neutral", "sad"]

    @pytest.mark.parametrize("rel, rule, what", [
        ("03a01F.wav", "speaker_text_letter",
         "03a01F.wav: expected a speaker_text_letter stem of >= 7 characters"),
        ("a01.wav", "speaker_dir_prefix",
         "a01.wav: expected an alphabetic class prefix inside a speaker directory"),
        ("DC/01.wav", "speaker_dir_prefix",
         "DC/01.wav: expected an alphabetic class prefix inside a speaker directory"),
    ])
    def test_stem_the_rule_cannot_parse(self, tmp_path, rel, rule, what):
        self.touch(tmp_path, rel)
        with pytest.raises(DataError) as err:
            manifest_from_wav_tree(tmp_path, rule)
        assert str(err.value) == what

    def test_missing_corpus_directory(self, tmp_path):
        with pytest.raises(DataError) as err:
            manifest_from_wav_tree(tmp_path / "absent", "label_speaker_index")
        assert str(err.value) == f"no corpus directory at {tmp_path / 'absent'}"

    def test_unknown_rule_name(self, tmp_path):
        self.touch(tmp_path, "a_b_1.wav")
        with pytest.raises(ConfigError, match="unknown filename rule"):
            manifest_from_wav_tree(tmp_path, "nope")

    def test_empty_tree_and_bad_stem(self, tmp_path):
        with pytest.raises(DataError, match="no .wav files"):
            manifest_from_wav_tree(tmp_path, "label_speaker_index")
        self.touch(tmp_path, "nolabel.wav")
        with pytest.raises(DataError, match="label_speaker_index"):
            manifest_from_wav_tree(tmp_path, "label_speaker_index")
