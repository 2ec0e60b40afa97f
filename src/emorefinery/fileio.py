"""Checked reads and one writer per form of the package's text files.

Readers decode UTF-8 with universal newlines and raise one error naming the
file. CSV files are written with "\\r\\n" line ends, which a reader sees as
"\\n"; outside quotes the csv reader ends a record at either, so its rows
equal those read with newline="" unless a quoted field holds a line end, and
no utterance id holds one. JSON documents are written in one form, through
a temporary file that is then moved into place. A write error that names
no file, such as a full disk met on flush, is given the file's name.
"""

import contextlib
import csv
import io
import json
import os
from pathlib import Path

from .errors import DataError


def read_text(path, error=DataError, undecodable: str = "is not UTF-8 text") -> str:
    """The text of the file at `path`; failures raise `error` naming the file."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path} cannot be read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} {undecodable}: {exc}") from exc


def read_json(path, error=DataError):
    """The JSON document at `path`; failures raise `error` naming the file."""
    try:
        return json.loads(read_text(path, error, undecodable="is not valid JSON"))
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


def read_csv(path):
    """(line number, fields) of each record of the CSV file at `path`; a
    record the csv module rejects raises a DataError naming file and line."""
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        for fields in reader:
            yield reader.line_num, fields
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc


@contextlib.contextmanager
def writing(path):
    """Name `path` in an OSError raised in the block that names no file."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def write_csv(path, header, rows, line_end: str = "\r\n") -> None:
    """Write the header and then the rows as CSV, each float as %.17g: same bits back."""
    with writing(path), Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def json_document(doc) -> str:
    """The package's form of a JSON document: indented, keys sorted, one final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc) -> None:
    """Write `doc` to a temporary file beside `path`, then move it into place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    with writing(path):
        tmp.write_text(json_document(doc), encoding="utf-8")
    os.replace(tmp, path)
