"""Layer kernels against reference copies of their first implementations.

OracleConv3x3, OracleReLU, OracleMaxPool2x2 and OracleFlatten are the
straightforward layers the package started with: im2col by nine strided
copies into a fresh buffer, a masked ReLU, max pooling through a transposed
copy, argmax and put_along_axis, and a reshape of the last conv maps into
rows. oracle_init builds a net in the stage order it started with,
conv -> ReLU -> pool, then flatten, where ConvNet now pools before a
stage's last ReLU and its first Dense reads the conv maps itself. The
faster layers and the new order must reproduce them bit for bit, so every
comparison here is on bytes, not within a tolerance.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from emorefinery import network
from emorefinery.classifier import (TrainConfig, load_model, predict_batch, save_model,
                                    train_segment_classifier)
from emorefinery.errors import ConfigError
from emorefinery.network import ARCHITECTURES, Conv3x3, ConvNet, MaxPool2x2
from emorefinery.refinery import StackedDataset
from same_bytes import assert_bytes_equal


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


class OracleReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, train: bool):
        if train:
            self._mask = x > 0
            return x * self._mask
        return np.maximum(x, 0)

    def backward(self, g):
        out = g * self._mask
        self._mask = None
        return out


class OracleFlatten:
    def __init__(self):
        self._shape = None

    def forward(self, x, train: bool):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        return g.reshape(self._shape)


def oracle_init(self, arch, input_shape, k, rng):
    """ConvNet.__init__ as it first was: a ReLU after every conv, then the
    stage's pool, and a flatten before the dense head. It draws the
    parameters in the same order."""
    self.arch = arch
    self.input_shape = tuple(input_shape)
    dtype = arch.np_dtype
    self.layers = []
    for h, w, convs in arch.conv_shapes(input_shape):
        for c_in, c_out in convs:
            self.layers += [network.Conv3x3(c_in, c_out, rng, dtype), network.ReLU()]
        self.layers.append(network.MaxPool2x2())
    self.layers.append(OracleFlatten())
    n_in = c_out * (h // 2) * (w // 2)
    for width in arch.dense:
        self.layers += [network.Dense(n_in, width, rng, dtype), network.ReLU()]
        n_in = width
    self.layers.append(network.Dense(n_in, k, rng, dtype))


def oracle_backward(net, dlogits):
    """ConvNet.backward as it first was: every layer returns its input gradient."""
    g = dlogits.astype(net.arch.np_dtype, copy=False)
    for layer in reversed(net.layers):
        g = layer.backward(g)


@contextlib.contextmanager
def oracle_layers(monkeypatch):
    """Inside the block, ConvNet builds the oracle layers in the old stage
    order and backpropagates through them."""
    with monkeypatch.context() as m:
        m.setattr(network, "Conv3x3", OracleConv3x3)
        m.setattr(network, "ReLU", OracleReLU)
        m.setattr(network, "MaxPool2x2", OracleMaxPool2x2)
        m.setattr(ConvNet, "__init__", oracle_init)
        m.setattr(ConvNet, "backward", oracle_backward)
        yield


def pool_both(x, g=None):
    """Forward (and, given g, backward) through the new and the oracle pool."""
    new, old = MaxPool2x2(), OracleMaxPool2x2()
    out_new, out_old = new.forward(x, True), old.forward(x, True)
    assert_bytes_equal(out_new, out_old)
    if g is not None:
        assert_bytes_equal(new.backward(g), old.backward(g))
    return out_new


@pytest.fixture
def first_max_calls(monkeypatch):
    """The shapes network._first_max, the pool's slow path, is called on."""
    calls = []
    real = network._first_max

    def spy(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(network, "_first_max", spy)
    return calls


def awkward_segments(rng, n, shape):
    """Segments holding what decides ties in the pools: exact +0.0 bands,
    -0.0 columns, constant blocks, all-zero and all-negative segments."""
    h, w = shape
    x = rng.standard_normal((n, h, w))
    x[0::5, 2:6] = 0.0
    x[0::5, :, 1::3] = -0.0
    x[1::5, : h // 2, : w // 2] = -1.5
    x[1::5, h // 2 :, w // 2 :] = 0.75
    x[2::5] = 0.0
    x[2::5, :, ::2] = -0.0
    x[3::5] = -np.abs(x[3::5])
    return x


TWO_STAGES = network.Architecture("two", conv_stages=((4, 5), (6,)), dense=(3,))
NETS = {"compact": (ARCHITECTURES["compact"], (32, 32)), "tiny": (ARCHITECTURES["tiny"], (16, 8)),
        "two": (TWO_STAGES, (16, 8))}


@pytest.mark.parametrize("arch", NETS)
def test_net_forward_and_parameter_gradients_match_oracle(arch, monkeypatch, first_max_calls):
    arch, shape = NETS[arch]
    rng = np.random.default_rng(3)
    x = awkward_segments(rng, 24, shape)
    dlogits = rng.standard_normal((24, 4))
    new = ConvNet(arch, shape, 4, np.random.default_rng(9))
    logits = new.forward(x, train=True)
    new.backward(dlogits)
    # The inputs reach windows whose maximum is zero.
    assert first_max_calls
    with oracle_layers(monkeypatch):
        old = ConvNet(arch, shape, 4, np.random.default_rng(9))
        assert_bytes_equal(logits, old.forward(x, train=True))
        old.backward(dlogits)
    for g_new, g_old in zip(new.grads(), old.grads(), strict=True):
        assert_bytes_equal(g_new, g_old)
    assert_bytes_equal(new.forward(x), old.forward(x))


def test_each_stage_pools_before_its_last_relu(monkeypatch):
    net = ConvNet(TWO_STAGES, (16, 8), 4, np.random.default_rng(0))
    conv, relu, pool, dense = Conv3x3, network.ReLU, MaxPool2x2, network.Dense
    assert [type(layer) for layer in net.layers] == [
        conv, relu, conv, pool, relu, conv, pool, relu, dense, relu, dense]
    with monkeypatch.context() as m:
        m.setattr(ConvNet, "__init__", oracle_init)
        old = ConvNet(TWO_STAGES, (16, 8), 4, np.random.default_rng(0))
    for p_new, p_old in zip(net.params(), old.params(), strict=True):
        assert_bytes_equal(p_new, p_old)


def test_old_order_checkpoint_predicts_the_same_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    segs = awkward_segments(rng, 30, (32, 32))
    probs = rng.uniform(0.01, 1.0, (30, 4))
    cfg = TrainConfig(max_epochs=1, batch_size=8, validation_fraction=0.2,
                      architecture="compact")
    data = StackedDataset([f"u{i}" for i in range(10)], [0] * 10, ["s"] * 10,
                          ("a", "b", "c", "d"), np.split(segs, 10))
    with oracle_layers(monkeypatch):
        old = train_segment_classifier(data, probs / probs.sum(axis=1, keepdims=True),
                                       np.arange(30), cfg, 2)
        save_model(old, tmp_path / "fold01.npz")
    new = load_model(tmp_path / "fold01.npz")
    assert type(old.net.layers[1]) is OracleReLU and type(new.net.layers[1]) is MaxPool2x2
    assert_bytes_equal(predict_batch(new, segs), predict_batch(old, segs))


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


def special_values(rng, shape, dtype):
    """Normal values with a third of the elements replaced by -0.0, NaNs of
    two payloads, +-inf and subnormals, in random positions."""
    nan_bits = (0x7FC00001, 0xFFC0ABCD) if dtype == np.float32 else (
        0x7FF8000000000001, 0xFFF800000000ABCD)
    nans = np.array(nan_bits, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.concatenate([np.array([-0.0, np.inf, -np.inf, tiny, -3 * tiny], dtype), nans])
    x = rng.standard_normal(shape).astype(dtype)
    flat = x.reshape(-1)
    at = rng.permutation(flat.size)[: max(1, flat.size // 3)]
    flat[at] = np.resize(specials, at.size)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("plane", [(1, 1), (1, 4), (4, 1), (2, 3), (5, 7), (16, 16)],
                         ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_im2col_matches_oracle_bit_for_bit(plane, dtype):
    # Batches below, at and across the conv's block of 8 samples.
    rng = np.random.default_rng(plane)
    oracle = OracleConv3x3(1, 1, rng, dtype)
    for b in (1, 7, 8, 9, 17):
        for c in (1, 2, 5):
            x = special_values(rng, (b, c) + plane, dtype)
            assert_bytes_equal(Conv3x3._im2col(x), oracle._im2col(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_matches_oracle_on_a_plane_wider_than_tall(dtype):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((13, 2, 5, 7)).astype(dtype)
    x[:, :, :, ::3] = -0.0
    g = rng.standard_normal((13, 3, 5, 7)).astype(dtype)
    layer = Conv3x3(2, 3, np.random.default_rng(2), dtype)
    oracle = OracleConv3x3(2, 3, np.random.default_rng(2), dtype)
    assert_bytes_equal(layer.forward(x, True), oracle.forward(x, True))
    assert_bytes_equal(layer.backward(g), oracle.backward(g))
    assert_bytes_equal(layer.dw, oracle.dw)
    assert_bytes_equal(layer.db, oracle.db)


def peak_above_result(call, *args):
    """Bytes that call(*args) allocates at its peak beyond what it still
    holds on return: its result and whatever it keeps."""
    tracemalloc.start()
    try:
        result = call(*args)  # alive until the traced memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


def test_conv_passes_hold_one_blocks_columns_not_the_batchs():
    # The compact net's second conv at batch 128: the batch's columns would
    # be 128 * 144 * 256 float32 values, 18 MiB.
    rng = np.random.default_rng(6)
    layer = Conv3x3(16, 32, rng, np.float32)
    x = rng.standard_normal((128, 16, 16, 16)).astype(np.float32)
    g = rng.standard_normal((128, 32, 16, 16)).astype(np.float32)
    quarter_of_batch_columns = 128 * 144 * 256 * 4 // 4
    assert peak_above_result(layer.forward, x, True) < quarter_of_batch_columns
    assert peak_above_result(layer.backward, g) < quarter_of_batch_columns


@pytest.mark.parametrize("arch", [ARCHITECTURES["compact"], ARCHITECTURES["tiny"], TWO_STAGES])
def test_conv_shapes_walk_the_layers_convnet_builds(arch):
    net = ConvNet(arch, (32, 16), 4, np.random.default_rng(0))
    convs = [layer for layer in net.layers if isinstance(layer, Conv3x3)]
    walk = [(c_in, c_out) for _, _, stage in arch.conv_shapes((32, 16)) for c_in, c_out in stage]
    assert [layer.w.shape[1::-1] for layer in convs] == walk
    dense = next(layer for layer in net.layers if isinstance(layer, network.Dense))
    h, w, _ = arch.conv_shapes((32, 16))[-1]
    assert dense.w.shape[1] == walk[-1][1] * (h // 2) * (w // 2)


def test_pools_that_reach_odd_dims_are_refused():
    with pytest.raises(ConfigError, match=r"^architecture 'tiny' pools 3x3 below "
                                          r"even dims for input \(6, 6\)$"):
        ConvNet(ARCHITECTURES["tiny"], (6, 6), 3, np.random.default_rng(0))


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_with_positive_window_maxima_takes_the_fast_path(dtype, first_max_calls):
    # Conv-like output holding both signed zeros and tied maxima, where every
    # window's maximum is positive.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3, 8, 8)).astype(dtype)
    x[rng.random(x.shape) < 0.15] = 0.0
    x[rng.random(x.shape) < 0.15] = -0.0
    peak = (np.abs(rng.standard_normal((5, 3, 4, 4))) + 0.5).astype(dtype)
    first, second = rng.integers(0, 4, (2, 5, 3, 4, 4))
    tied = rng.random((5, 3, 4, 4)) < 0.5
    for k, q in enumerate(network._window_views(x)):
        at = (first == k) | (tied & (second == k))
        q[at] = peak[at]
    bits = network._bits(x)
    assert (bits == 0).any() and (bits == np.iinfo(bits.dtype).min).any()
    pool_both(x, rng.standard_normal((5, 3, 4, 4)).astype(dtype))
    assert first_max_calls == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("quad", [[-1.0, 0.0, -2.0, -0.0], [-0.0, -3.0, 0.0, -1.0],
                                  [-0.0, -1.0, -0.0, -2.0], [0.0, 0.0, 0.0, 0.0],
                                  [-1.0, np.nan, 2.0, 3.0]])
def test_pool_with_a_zero_or_nan_window_maximum_takes_the_slow_path(dtype, quad,
                                                                    first_max_calls):
    x = windows([2.0, -1.0, 0.5, 0.0], quad, [-0.0, 1.0, 3.0, 3.0], dtype=dtype)
    pool_both(x, np.arange(1.0, 4.0, dtype=dtype).reshape(1, 1, 1, 3))
    assert len(first_max_calls) == 1


def test_pool_relu_output_matches():
    # The nets no longer pool ReLU output, but the pool must still match on
    # it: ReLU's x * mask leaves -0.0 for negative inputs; mix in exact +0.0 too.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3, 8, 8)).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = 0.0
    x = x * (x > 0)
    pool_both(x, rng.standard_normal((6, 3, 4, 4)).astype(np.float32))


def test_two_epochs_of_compact_training_match_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    segs = awkward_segments(rng, 40, (32, 32))
    data = StackedDataset([f"u{i}" for i in range(10)], [0] * 10, ["s"] * 10,
                          ("a", "b", "c", "d"), np.split(segs, 10))
    probs = rng.uniform(0.01, 1.0, (40, 4))
    targets = probs / probs.sum(axis=1, keepdims=True)
    cfg = TrainConfig(max_epochs=2, batch_size=16, validation_fraction=0.2,
                      architecture="compact")
    new = train_segment_classifier(data, targets, np.arange(40), cfg, 5)
    with oracle_layers(monkeypatch):
        old = train_segment_classifier(data, targets, np.arange(40), cfg, 5)
    assert new.history == old.history
    for p_new, p_old in zip(new.net.params(), old.net.params(), strict=True):
        assert_bytes_equal(p_new, p_old)
