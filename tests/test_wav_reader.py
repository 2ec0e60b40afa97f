"""`features.load_wav` against the scipy-based reader it replaced.

`oracle_load_wav` and `oracle_check_riff_chunks` are that reader as it was,
calling `scipy.io.wavfile.read`. Valid layouts must load to the same bits and
rate. Damaged headers must be refused where the oracle refused them, each
with one DataError naming the file; where both readers load, the bits must be
equal; and a file that only the oracle loads must be one whose header the
chunk walk shows to be inconsistent (see `allowed_to_refuse`).
"""

import os
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from emorefinery.errors import DataError
from emorefinery.features import load_wav


def oracle_check_riff_chunks(path) -> None:
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(4) != b"RIFF":
            return
        offset, size = 12, 0
        while offset + 8 <= end:
            fh.seek(offset + 4)
            size = int.from_bytes(fh.read(4), "little")
            offset += 8 + size + size % 2
    if offset != end and offset != end + size % 2:
        raise ValueError(f"its chunks take {offset} bytes, but the file holds {end}")


def oracle_load_wav(path) -> tuple:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            warnings.filterwarnings("ignore", r"Chunk \(non-data\) not understood",
                                    wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
        oracle_check_riff_chunks(path)
    except Exception as exc:
        raise DataError(f"{path}: cannot read WAV file ({exc})") from exc
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise DataError(f"{path}: unsupported sample format {data.dtype}; use int16 or float32")
    if data.size == 0:
        raise DataError(f"{path}: empty audio file")
    if not np.all(np.isfinite(samples)):
        raise DataError(f"{path}: non-finite samples")
    if rate <= 0:
        raise DataError(f"{path}: sample rate must be positive")
    return samples, int(rate)


def clip(dtype, n=600, seed=0):
    """n deterministic mono samples of `dtype` (int16 or float32)."""
    x = 0.8 * np.sin(np.arange(n) / 5.0) * np.random.default_rng(seed).uniform(0.5, 1.0, n)
    return (x * 32767).astype(np.int16) if dtype == "int16" else x.astype(np.float32)


def chunk(cid, body, pad=True):
    return cid + struct.pack("<I", len(body)) + body + (b"\0" if pad and len(body) % 2 else b"")


def fmt_body(data, rate=16000):
    """A 16-byte `fmt ` body for mono `data`."""
    size = data.dtype.itemsize
    return struct.pack("<HHIIHH", 3 if data.dtype.kind == "f" else 1, 1, rate, rate * size,
                       size, 8 * size)


def extensible_fmt_body(data, rate=16000):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE `fmt ` body for mono `data`."""
    tag = 3 if data.dtype.kind == "f" else 1
    guid = struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71")
    return (struct.pack("<H", 0xFFFE) + fmt_body(data, rate)[2:]
            + struct.pack("<HHI", 22, 8 * data.dtype.itemsize, 4) + guid)


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def rf64(data, rate=16000):
    """An RF64 file whose RIFF and data sizes live in its `ds64` chunk."""
    fmt = chunk(b"fmt ", fmt_body(data, rate))
    samples = data.tobytes()
    riff_size = 4 + 36 + len(fmt) + 8 + len(samples)
    ds64 = chunk(b"ds64", struct.pack("<QQQI", riff_size, len(samples), len(data), 0))
    return (b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + fmt
            + b"data" + struct.pack("<I", 0xFFFFFFFF) + samples)


def outcome(read, path):
    """("ok", samples bytes, rate) or ("refused", message)."""
    try:
        samples, rate = read(path)
    except DataError as exc:
        return "refused", str(exc)
    return "ok", samples.tobytes(), rate


def both(path, raw):
    """Write `raw` to `path`; the oracle's and the new reader's outcomes."""
    path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = outcome(oracle_load_wav, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the new reader warns of nothing
        got = outcome(load_wav, path)
    return want, got


LIST = chunk(b"LIST", b"INFOIART\0\0\0\0")
ODD = chunk(b"cue ", b"abcde")


def valid_layouts():
    """(id, file bytes) of WAVs that both readers must load to the same bits."""
    i16, f32 = clip("int16"), clip("float32")
    fmt, data = chunk(b"fmt ", fmt_body(i16)), chunk(b"data", i16.tobytes())
    yield "list-before-fmt", riff(LIST, fmt, data)
    yield "odd-before-fmt", riff(ODD, fmt, data)
    yield "list-after-data", riff(fmt, data, LIST)
    yield "odd-after-data", riff(fmt, data, ODD)
    yield "odd-unpadded-last", riff(fmt, data, chunk(b"cue ", b"abcde", pad=False))
    yield "fmt-with-cbsize", riff(chunk(b"fmt ", fmt_body(i16) + b"\0\0"), data)
    for x in (i16, f32):
        name = x.dtype.name
        yield f"extensible-{name}", riff(chunk(b"fmt ", extensible_fmt_body(x)),
                                         chunk(b"fact", struct.pack("<I", len(x))),
                                         chunk(b"data", x.tobytes()))
        yield f"rf64-{name}", rf64(x, 22050)


@pytest.mark.parametrize("dtype", ["int16", "float32"])
@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
def test_scipy_written_wavs_read_as_the_oracle_reads_them(tmp_path, rate, dtype):
    path = tmp_path / "u.wav"
    wavfile.write(path, rate, clip(dtype, n=rate // 10, seed=rate))
    want, got = both(path, path.read_bytes())
    assert want[0] == "ok" and got == want


@pytest.mark.parametrize("raw", [pytest.param(raw, id=name) for name, raw in valid_layouts()])
def test_valid_layouts_read_as_the_oracle_reads_them(tmp_path, raw):
    want, got = both(tmp_path / "u.wav", raw)
    assert want[0] == "ok" and got == want, (want[0], got[0], got[-1])


def test_data_before_fmt_loads_as_in_the_usual_order(tmp_path):
    """RIFF lets chunks come in any order; the oracle refused this one."""
    x = clip("int16")
    fmt, data = chunk(b"fmt ", fmt_body(x)), chunk(b"data", x.tobytes())
    want, _ = both(tmp_path / "u.wav", riff(fmt, data))
    oracle, got = both(tmp_path / "u.wav", riff(data, fmt))
    assert oracle == ("refused", f"{tmp_path / 'u.wav'}: cannot read WAV file "
                                 "(No fmt chunk before data)")
    assert got == want


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A scipy-written 16-bit mono WAV of 0.1 s at 16 kHz, with the canonical
    44-byte header."""
    path = tmp_path_factory.mktemp("wav") / "u.wav"
    wavfile.write(path, 16000, clip("int16", 1600))
    raw = path.read_bytes()
    assert len(raw) == 44 + 3200
    return raw


def allowed_to_refuse(raw):
    """Whether the new reader may refuse a file the oracle loads: its bits
    field disagrees with its block align (the oracle decoded by block align),
    or its data size is not a whole number of blocks (the oracle dropped the
    odd byte with an "Incomplete chunk ID" warning)."""
    channels, align, bits = (struct.unpack_from("<H", raw, at)[0] for at in (22, 32, 34))
    data_size = struct.unpack_from("<I", raw, 40)[0]
    return align * 8 != channels * bits or data_size % align != 0


def field_edits(raw):
    """(id, bytes) of `raw` with one canonical header field set to an edge value."""
    fields = {"riff size": (4, "<I"), "fmt size": (16, "<I"), "tag": (20, "<H"),
              "channels": (22, "<H"), "rate": (24, "<I"), "byte rate": (28, "<I"),
              "block align": (32, "<H"), "bits": (34, "<H"), "data size": (40, "<I")}
    for name, (at, fmt) in fields.items():
        true = struct.unpack_from(fmt, raw, at)[0]
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        extra = {"tag": [3, 0xFFFE], "channels": [2], "block align": [1, 4],
                 "bits": [8, 12, 24, 32, 64], "rate": [2 ** 31]}.get(name, [])
        for value in sorted({0, 1, 2, true - 1, true + 1, true // 2, min(2 * true, top), top,
                             *extra}):
            edited = bytearray(raw)
            struct.pack_into(fmt, edited, at, value)
            yield f"{name}={value}", bytes(edited)


def damaged(raw, family):
    """(id, bytes) of the variants of `raw` in one damage family."""
    if family == "cut":
        for n in [*range(64), *range(64, len(raw), 97), len(raw) - 2, len(raw) - 1]:
            yield f"cut at {n}", raw[:n]
    elif family == "field":
        yield from field_edits(raw)
    else:
        for at in range(44):
            edited = bytearray(raw)
            edited[at] = {"xor 0x01": raw[at] ^ 1, "0x00": 0, "0xff": 255}[family]
            if edited != raw:
                yield f"byte {at} {family}", bytes(edited)


@pytest.mark.parametrize("family", ["cut", "xor 0x01", "0x00", "0xff", "field"])
def test_damaged_headers_are_refused_where_the_oracle_refused_them(tmp_path, pristine, family):
    path = tmp_path / "u.wav"
    seen = set()
    for name, raw in damaged(pristine, family):
        want, got = both(path, raw)
        seen.add((want[0], got[0]))
        if want[0] == "refused":
            assert got[0] == "refused", (name, want)
        if got[0] == "refused":
            assert got[1].startswith(f"{path}: ") and got[1].count(str(path)) == 1, (name, got)
        if want[0] == got[0] == "ok":
            assert got == want, name
        if want[0] == "ok" and got[0] == "refused":
            assert allowed_to_refuse(raw), (name, got)
    assert ("refused", "refused") in seen


@pytest.mark.parametrize("dtype, edit, what", [
    ("int16", (34, "<H", 24), "block align 2 is not 1 x 24 bits / 8"),
    ("int16", (34, "<H", 17), "block align 2 is not 1 x 17 bits / 8"),
    ("int16", (40, "<I", 1199), "its 1199 data bytes are not whole 2-byte blocks"),
    ("float32", (28, "<I", 1), "byte rate 1 is not 16000 x block align 4"),
], ids=["bits 24", "bits 17", "odd data size", "float byte rate"])
def test_headers_the_oracle_loaded_but_that_disagree_with_themselves_are_refused(
        tmp_path, dtype, edit, what):
    x = clip(dtype)
    raw = bytearray(riff(chunk(b"fmt ", fmt_body(x)), chunk(b"data", x.tobytes())))
    at, fmt, value = edit
    struct.pack_into(fmt, raw, at, value)
    path = tmp_path / "u.wav"
    want, got = both(path, bytes(raw))
    assert want[0] == "ok"
    assert got == ("refused", f"{path}: cannot read WAV file ({what})")


def test_big_endian_rifx_stays_refused(tmp_path):
    path = tmp_path / "u.wav"
    x = clip("int16").astype(">i2")
    fmt = struct.pack(">4sIHHIIHH", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + fmt + b"data" + struct.pack(">I", x.nbytes) + x.tobytes()
    want, got = both(path, b"RIFX" + struct.pack(">I", len(body)) + body)
    assert want == ("refused", f"{path}: unsupported sample format >i2; use int16 or float32")
    assert got == ("refused", f"{path}: cannot read WAV file "
                              "(it is not a little-endian RIFF or RF64 WAVE file)")
