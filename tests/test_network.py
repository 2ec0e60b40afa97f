"""Layer kernels against reference copies of their first implementations.

OracleConv3x3 and OracleMaxPool2x2 are the straightforward layers the
package started with: im2col by nine strided copies into a fresh buffer,
and max pooling through a transposed copy, argmax and put_along_axis. The
faster layers must reproduce them bit for bit, so every comparison here is
on bytes, not within a tolerance.
"""

import contextlib

import numpy as np
import pytest

from emorefinery import network
from emorefinery.classifier import TrainConfig, train_segment_classifier
from emorefinery.network import ARCHITECTURES, Conv3x3, ConvNet, MaxPool2x2


class OracleConv3x3:
    """3x3 convolution, stride 1, zero same-padding."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, dtype):
        fan_in = c_in * 9
        self.w = (rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cols = None
        self._shape = None

    def _im2col(self, x):
        b, c, h, w = x.shape
        xp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
        xp[:, :, 1:-1, 1:-1] = x
        cols = np.empty((b, c, 3, 3, h, w), dtype=x.dtype)
        for dy in range(3):
            for dx in range(3):
                cols[:, :, dy, dx] = xp[:, :, dy : dy + h, dx : dx + w]
        return cols.reshape(b, c * 9, h * w)

    def forward(self, x, train: bool):
        b, c, h, w = x.shape
        cols = self._im2col(x)
        w2 = self.w.reshape(self.w.shape[0], -1)
        out = np.matmul(w2, cols) + self.b[None, :, None]
        if train:
            self._cols = cols
            self._shape = x.shape
        return out.reshape(b, self.w.shape[0], h, w)

    def backward(self, g):
        b, c_out, h, w = g.shape
        g2 = g.reshape(b, c_out, h * w)
        w2 = self.w.reshape(c_out, -1)
        self.dw = np.matmul(g2, self._cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.w.shape)
        self.db = g2.sum(axis=(0, 2))
        dcols = np.matmul(w2.T, g2)  # (b, c_in*9, h*w)
        _, c_in, hh, ww = self._shape
        dcols = dcols.reshape(b, c_in, 3, 3, hh, ww)
        dxp = np.zeros((b, c_in, hh + 2, ww + 2), dtype=g.dtype)
        for dy in range(3):
            for dx in range(3):
                dxp[:, :, dy : dy + hh, dx : dx + ww] += dcols[:, :, dy, dx]
        self._cols = None
        return dxp[:, :, 1:-1, 1:-1]


class OracleMaxPool2x2:
    """2x2 max pool, stride 2. Ties go to the first position in row-major
    order within the window, so the gradient route is deterministic."""

    def __init__(self):
        self._idx = None
        self._shape = None

    def forward(self, x, train: bool):
        b, c, h, w = x.shape
        r = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        r = r.reshape(b, c, h // 2, w // 2, 4)
        idx = np.argmax(r, axis=-1)
        out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]
        if train:
            self._idx = idx
            self._shape = x.shape
        return out

    def backward(self, g):
        b, c, h, w = self._shape
        z = np.zeros((b, c, h // 2, w // 2, 4), dtype=g.dtype)
        np.put_along_axis(z, self._idx[..., None], g[..., None], axis=-1)
        z = z.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        self._idx = None
        return z.reshape(b, c, h, w)


def oracle_backward(net, dlogits):
    """ConvNet.backward as it first was: every layer returns its input gradient."""
    g = dlogits.astype(net.arch.np_dtype, copy=False)
    for layer in reversed(net.layers):
        g = layer.backward(g)


@contextlib.contextmanager
def oracle_layers(monkeypatch):
    """Inside the block, ConvNet builds and backpropagates through the oracle layers."""
    with monkeypatch.context() as m:
        m.setattr(network, "Conv3x3", OracleConv3x3)
        m.setattr(network, "MaxPool2x2", OracleMaxPool2x2)
        m.setattr(ConvNet, "backward", oracle_backward)
        yield


def assert_bytes_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def pool_both(x, g=None):
    """Forward (and, given g, backward) through the new and the oracle pool."""
    new, old = MaxPool2x2(), OracleMaxPool2x2()
    out_new, out_old = new.forward(x, True), old.forward(x, True)
    assert_bytes_equal(out_new, out_old)
    if g is not None:
        assert_bytes_equal(new.backward(g), old.backward(g))
    return out_new


@pytest.mark.parametrize("arch", ["compact", "tiny"])
def test_net_forward_and_parameter_gradients_match_oracle(arch, monkeypatch):
    shape = (32, 32) if arch == "compact" else (16, 8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((24, *shape))
    dlogits = rng.standard_normal((24, 4))
    new = ConvNet(ARCHITECTURES[arch], shape, 4, np.random.default_rng(9))
    logits = new.forward(x, train=True)
    new.backward(dlogits)
    with oracle_layers(monkeypatch):
        old = ConvNet(ARCHITECTURES[arch], shape, 4, np.random.default_rng(9))
        assert_bytes_equal(logits, old.forward(x, train=True))
        old.backward(dlogits)
    for g_new, g_old in zip(new.grads(), old.grads(), strict=True):
        assert_bytes_equal(g_new, g_old)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 5, 7, 8, 9, 17])
def test_conv_skipping_input_gradient_keeps_parameter_gradients(batch, dtype):
    # Batches below, at and across the conv's block of 8 samples.
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 3, 8, 4)).astype(dtype)
    g = rng.standard_normal((batch, 6, 8, 4)).astype(dtype)
    layer = Conv3x3(3, 6, np.random.default_rng(1), dtype)
    oracle = OracleConv3x3(3, 6, np.random.default_rng(1), dtype)
    assert_bytes_equal(layer.forward(x, True), oracle.forward(x, True))
    assert_bytes_equal(layer.backward(g), oracle.backward(g))
    assert_bytes_equal(layer.dw, oracle.dw)
    assert_bytes_equal(layer.db, oracle.db)
    layer.forward(x, True)
    assert layer.backward(g, need_dx=False) is None
    assert_bytes_equal(layer.dw, oracle.dw)
    assert_bytes_equal(layer.db, oracle.db)


@pytest.mark.parametrize("arch", [
    ARCHITECTURES["compact"], ARCHITECTURES["tiny"],
    network.Architecture("two", conv_stages=((4, 5), (6,)), dense=(3,))])
def test_conv_shapes_walk_the_layers_convnet_builds(arch):
    net = ConvNet(arch, (32, 16), 4, np.random.default_rng(0))
    convs = [layer for layer in net.layers if isinstance(layer, Conv3x3)]
    walk = [(c_in, c_out) for _, _, stage in arch.conv_shapes((32, 16)) for c_in, c_out in stage]
    assert [layer.w.shape[1::-1] for layer in convs] == walk
    dense = next(layer for layer in net.layers if isinstance(layer, network.Dense))
    h, w, _ = arch.conv_shapes((32, 16))[-1]
    assert dense.w.shape[1] == walk[-1][1] * (h // 2) * (w // 2)


def test_conv_macs_per_segment():
    assert ARCHITECTURES["compact"].conv_macs((32, 32)) == 3_096_576
    assert ARCHITECTURES["tiny"].conv_macs((32, 32)) == 27_648
    # Stage 2 sees 16 x 8 after one pool of 32 x 16.
    two = network.Architecture("two", conv_stages=((4, 5), (6,)))
    assert two.conv_macs((32, 16)) == 9 * (1 * 4 + 4 * 5) * 32 * 16 + 9 * 5 * 6 * 16 * 8


def windows(*quads, dtype=np.float32):
    """One channel of 2x2 windows, laid side by side; each quad is row-major."""
    q = np.asarray(quads, dtype=dtype).reshape(len(quads), 2, 2)
    return np.ascontiguousarray(q.transpose(1, 0, 2).reshape(1, 1, 2, 2 * len(quads)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_all_four_equal(dtype):
    g = -np.ones((1, 1, 1, 1), dtype=dtype)
    for value in (1.5, -2.0, 0.0, -0.0):
        pool_both(windows([value] * 4, dtype=dtype), g)
    pool_both(windows([1.5] * 4, [-2.0] * 4, [0.0] * 4, [-0.0] * 4, dtype=dtype),
              np.arange(1.0, 5.0, dtype=dtype).reshape(1, 1, 1, 4))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_signed_zeros_keep_first(dtype):
    quads = [[-0.0, 0.0, -1.0, -2.0], [0.0, -0.0, -1.0, -2.0], [-1.0, -0.0, -3.0, 0.0],
             [-1.0, 0.0, -3.0, -0.0], [-5.0, -4.0, -0.0, 0.0], [-5.0, -4.0, 0.0, -0.0]]
    x = windows(*quads, dtype=dtype)
    g = -np.arange(1.0, 7.0, dtype=dtype).reshape(1, 1, 1, 6)
    out = pool_both(x, g)
    assert np.signbit(out).ravel().tolist() == [True, False, True, False, True, False]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_duplicate_maximum_at_each_position(dtype):
    quads = []
    for first in range(4):
        for second in range(first + 1, 4):
            q = [-1.0, -2.0, -3.0, -4.0]
            q[first] = q[second] = 7.0
            quads.append(q)
    x = windows(*quads, dtype=dtype)
    g = np.arange(1.0, len(quads) + 1, dtype=dtype).reshape(1, 1, 1, -1)
    pool_both(x, g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_nan_windows_match(dtype):
    quads = []
    for pos in range(4):
        q = [1.0, 2.0, 3.0, -4.0]
        q[pos] = np.nan
        quads.append(q)
    quads += [[np.nan] * 4, [np.inf, np.nan, 1.0, np.nan], [-np.inf, -np.inf, np.nan, np.inf]]
    x = windows(*quads, dtype=dtype)
    g = np.arange(1.0, len(quads) + 1, dtype=dtype).reshape(1, 1, 1, -1)
    out = pool_both(x, g)
    assert np.isnan(out).all()


def test_pool_relu_output_matches():
    # ReLU's x * mask leaves -0.0 for negative inputs; mix in exact +0.0 too.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3, 8, 8)).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = 0.0
    x = x * (x > 0)
    pool_both(x, rng.standard_normal((6, 3, 4, 4)).astype(np.float32))


def test_two_epochs_of_compact_training_match_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    segs = np.stack([rng.standard_normal((32, 32)) for _ in range(40)])
    ids = [f"u{i // 4}" for i in range(40)]
    probs = rng.uniform(0.01, 1.0, (40, 4))
    targets = probs / probs.sum(axis=1, keepdims=True)
    names = ("a", "b", "c", "d")
    cfg = TrainConfig(max_epochs=2, batch_size=16, validation_fraction=0.2,
                      architecture="compact")
    new = train_segment_classifier(segs, targets, ids, names, cfg, 5)
    with oracle_layers(monkeypatch):
        old = train_segment_classifier(segs, targets, ids, names, cfg, 5)
    assert new.history == old.history
    for p_new, p_old in zip(new.net.params(), old.net.params(), strict=True):
        assert_bytes_equal(p_new, p_old)
