"""The package's one CSV writer and one JSON writer."""

import errno
import os
from pathlib import Path

import numpy as np
import pytest

from emorefinery.fileio import write_csv, write_json


def test_every_float_is_written_at_full_precision(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[0.1, np.float64(0.1)], [-0.0, 1e-05], [float("inf"), 3],
                                 ["a", 2.5]], line_end="\n")
    assert path.read_text() == ("a,b\n0.10000000000000001,0.10000000000000001\n"
                                "-0,1.0000000000000001e-05\ninf,3\na,2.5\n")


def test_json_write_that_fails_unnamed_names_the_target(tmp_path, monkeypatch):
    # A full disk found on flush raises an OSError whose filename is None.
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full)
    with pytest.raises(OSError) as err:
        write_json(tmp_path / "doc.json", {})
    assert err.value.filename == tmp_path / "doc.json"
    assert err.value.strerror == os.strerror(errno.ENOSPC)
