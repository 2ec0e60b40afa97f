"""Spectrogram CSVs for the tests: the package reads this layout, for
spectrograms made elsewhere, but writes its own corpora as .npy files."""

from dataclasses import replace

from emorefinery.fileio import write_csv
from emorefinery.manifest import load_manifest, read_spectrogram_csv, save_manifest


def write_spectrogram_csv(path, s):
    """Frame-per-row CSV at full float precision."""
    write_csv(path, ["frame_time_ms"] + [f"m_{i + 1}" for i in range(len(s.values))],
              ([t] + row for t, row in zip(s.frame_times.tolist(), s.values.T.tolist())))


def rewrite_as_csv(corpus, ids):
    """Store the corpus rows `ids` as spectrogram CSVs, in place of their
    .npy files; returns the CSV paths in manifest order."""
    manifest = load_manifest(corpus)
    rows, paths = [], []
    for row in manifest.rows:
        if row.utterance_id in ids:
            rel = f"features/{row.utterance_id}.csv"
            write_spectrogram_csv(corpus / rel, read_spectrogram_csv(corpus / row.path))
            (corpus / row.path).unlink()
            row = replace(row, path=rel)
            paths.append(corpus / rel)
        rows.append(row)
    save_manifest(replace(manifest, rows=rows))
    return paths
