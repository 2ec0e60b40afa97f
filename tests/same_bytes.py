"""Byte-for-byte comparisons shared by the tests."""


def assert_bytes_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def tree_bytes(root):
    """The bytes of every file under `root`, by its posix path relative to root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
