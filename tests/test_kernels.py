"""The eager and shared kernels against their reference forms.

``functional.im2col`` (one ``np.take`` through a cached gather index)
and ``functional.max_pool2d`` (an elementwise max over the window
offsets, run in the input's memory order) replaced
``sliding_window_view`` bodies; ``col2im`` (channels-last
accumulation), the maxpool backward (one scatter through the first-max
offsets the forward records) and the single-node ``batch_norm2d`` and
``linear`` replaced a transposed-view fold, compare-and-claim passes
with a ``where=`` masked scatter, and chains of ``Tensor`` primitives.
The old bodies live on here as references only: patches, gradients,
outputs and running statistics must match them bit-for-bit, strides
included — on the channels-last, non-contiguous activations conv
layers produce too.  The pooled values must equal ``windows.max`` and
their bits the old ``np.maximum`` fold (which fixes the sign of a
``±0`` tie); the pooling gradient must equal the old ``argmax`` /
``np.add.at`` scatter, including ties and signed zeros, and a window
whose maximum is NaN sends no gradient.  A hypothesis test draws the
geometry (kernel 1–5), dtype and layout.  Golden digests of short
training runs pin the whole chain.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro import training
from repro.data import make_cifar100_like
from repro.models import build_model
from repro.nn import Tensor, check_gradients, no_grad
from repro.nn import functional as F


def reference_im2col(x, kernel, stride, pad):
    kh, kw = kernel
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(x, (kh, kw),
                                  axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow,
                                                        c * kh * kw)
    return np.ascontiguousarray(cols)


def reference_windows(x, kernel, stride, padding):
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)), constant_values=-np.inf)
    windows = sliding_window_view(x, (kernel, kernel),
                                  axis=(2, 3))[:, :, ::stride, ::stride]
    return windows.reshape(*windows.shape[:4], kernel * kernel)


def reference_pool_max(x, kernel, stride, padding):
    """The old kernel: ``np.maximum`` folded over the offsets in order.

    ``windows.max`` equals it in value, but a reduction may order its
    comparisons differently, and ``np.maximum`` keeps its second operand
    on a ``±0`` tie, so only this fold pins the sign of a zero maximum.
    """
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)), constant_values=-np.inf)
    oh = (x.shape[2] - kernel) // stride + 1
    ow = (x.shape[3] - kernel) // stride + 1
    views = [x[:, :, i:i + stride * (oh - 1) + 1:stride,
               j:j + stride * (ow - 1) + 1:stride]
             for i in range(kernel) for j in range(kernel)]
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def reference_pool_grad(x, g, kernel, stride, padding):
    """The old backward: each window's gradient to its argmax."""
    n, c, h, w = x.shape
    argmax = reference_windows(x, kernel, stride, padding).argmax(axis=-1)
    oh, ow = argmax.shape[2:]
    ni, ci, ohi, owi = np.indices((n, c, oh, ow))
    rows = ohi * stride + argmax // kernel - padding
    cols = owi * stride + argmax % kernel - padding
    dx = np.zeros_like(x)
    valid = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    np.add.at(dx, (ni[valid], ci[valid], rows[valid], cols[valid]),
              g[valid])
    return dx


def reference_col2im(cols, x_shape, kernel, stride, pad):
    """The old fold: strided adds from a transposed NCHW view."""
    n, c, h, w = x_shape
    kh, kw = kernel
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    image = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            image[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if pad:
        image = image[:, :, pad:hp - pad, pad:wp - pad]
    return image


def reference_max_pool2d(x, kernel, stride, padding):
    """The old pooling node: a winner index map, then ``where=`` adds."""
    out = F.max_pool2d_kernel(x.data, kernel, stride, padding)

    def backward(g):
        slices = F._pool_slices(x.data, kernel, stride, padding)
        winner = np.empty(out.shape, dtype=np.intp)
        for offset in range(len(slices) - 1, -1, -1):
            np.copyto(winner, offset, where=slices[offset] == out)
        n, c, h, w = x.shape
        if padding:
            dx = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        else:
            dx = np.zeros_like(x.data)
        views = F._pool_slices(dx, kernel, stride, 0)
        for offset in range(len(views) - 1, -1, -1):
            np.add(views[offset], g, out=views[offset],
                   where=winner == offset)
        if padding:
            dx = dx[:, :, padding:padding + h, padding:padding + w]
        x._accumulate(dx)

    return Tensor._make(out, (x,), backward)


def reference_batch_norm2d(x, gamma, beta, running_mean, running_var,
                           training, momentum=0.1, eps=1e-5):
    """The old batch norm, composed from ``Tensor`` primitives."""
    if training:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mean) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.data.reshape(-1)
    else:
        mean = Tensor(running_mean.reshape(1, -1, 1, 1).astype(x.dtype))
        var = Tensor(running_var.reshape(1, -1, 1, 1).astype(x.dtype))
    inv_std = (var + eps) ** -0.5
    normalised = (x - mean) * inv_std
    return normalised * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from((1, 3, 5)))
    pad = draw(st.integers(0, k // 2 + 1))
    stride = draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * pad), 9))
    w = draw(st.integers(max(1, k - 2 * pad), 9))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    channels_last = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 16))
    return n, c, h, w, k, stride, pad, channels_last, seed


class TestIm2Col:
    @settings(max_examples=120, deadline=None)
    @given(conv_cases())
    def test_gather_matches_sliding_window_bitwise(self, case):
        n, c, h, w, k, stride, pad, channels_last, seed = case
        rng = np.random.default_rng(seed)
        if channels_last:
            # The layout a conv GEMM output has after its NCHW transpose.
            x = rng.standard_normal((n, h, w, c)).astype(np.float32) \
                .transpose(0, 3, 1, 2)
            assert not x.flags.c_contiguous or c == 1 or h * w == 1
        else:
            x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        expected = reference_im2col(x, (k, k), stride, pad)
        got = F.im2col(x, (k, k), stride, pad)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert _bits(got) == _bits(expected)
        out = np.full(expected.shape, np.nan, dtype=np.float32)
        assert F.im2col(x, (k, k), stride, pad, out=out) is out
        assert _bits(out) == _bits(expected)

    def test_signed_zeros_survive(self):
        x = np.array([-0.0, 0.0, -0.0, 1.0]).reshape(1, 1, 2, 2)
        assert _bits(F.im2col(x, (2, 2), 1, 1)) \
            == _bits(reference_im2col(x, (2, 2), 1, 1))


_POOLS = [(2, 2, 0), (3, 1, 1), (3, 2, 1), (2, 1, 0)]


def _tied_input(rng, shape, layout):
    """Few distinct values (many ties), with signed zeros among them."""
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0], dtype=np.float32)
    x = rng.choice(values, size=shape)
    if layout == "channels_last":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)) \
            .transpose(0, 3, 1, 2)
    return x


class TestMaxPool:
    @pytest.mark.parametrize("kernel,stride,padding", _POOLS)
    @pytest.mark.parametrize("layout", ("nchw", "channels_last"))
    def test_forward_equals_windows_max(self, kernel, stride, padding,
                                        layout):
        rng = np.random.default_rng(kernel * 10 + stride)
        for x in (_tied_input(rng, (2, 3, 7, 6), layout),
                  rng.standard_normal((2, 3, 8, 8)).astype(np.float32)):
            expected = reference_windows(x, kernel, stride,
                                         padding).max(axis=-1)
            got = F.max_pool2d(Tensor(x), kernel, stride, padding).data
            assert np.array_equal(got, expected)
            buf = np.empty_like(expected)
            F.max_pool2d_kernel(x, kernel, stride, padding, out=buf)
            assert _bits(buf) == _bits(got)

    @pytest.mark.parametrize("kernel,stride,padding", _POOLS)
    @pytest.mark.parametrize("layout", ("nchw", "channels_last"))
    def test_backward_equals_argmax_scatter(self, kernel, stride, padding,
                                            layout):
        rng = np.random.default_rng(kernel * 100 + stride)
        for x in (_tied_input(rng, (2, 3, 7, 6), layout),
                  rng.standard_normal((2, 3, 8, 8)).astype(np.float32)):
            xt = Tensor(x, requires_grad=True)
            out = F.max_pool2d(xt, kernel, stride, padding)
            g = rng.standard_normal(out.shape).astype(np.float32)
            g.reshape(-1)[::7] = -0.0
            out.backward(g)
            expected = reference_pool_grad(x, g, kernel, stride, padding)
            assert xt.grad.dtype == np.float32
            assert _bits(xt.grad) == _bits(expected)

    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 1, 1)])
    def test_float64_gradcheck(self, kernel, stride, padding):
        rng = np.random.default_rng(5)
        # A permutation keeps every window's maximum unique, so the
        # finite differences never straddle a tie.
        x = Tensor(rng.permutation(2 * 2 * 5 * 5).astype(np.float64)
                   .reshape(2, 2, 5, 5) / 7.0, requires_grad=True)
        check_gradients(lambda x: F.max_pool2d(x, kernel, stride, padding),
                        [x])


def _layout(a, layout):
    """NCHW values ``a`` stored in NCHW or channels-last memory order."""
    if layout == "channels_last":
        # The layout a conv GEMM output has after its NCHW transpose.
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)) \
            .transpose(0, 3, 1, 2)
    return np.ascontiguousarray(a)


_DTYPES = (np.float32, np.float64)
_LAYOUTS = ("nchw", "channels_last")


@st.composite
def pool_cases(draw):
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, kernel + 1))
    padding = draw(st.integers(0, kernel - 1))
    h = draw(st.integers(max(1, kernel - 2 * padding), 9))
    w = draw(st.integers(max(1, kernel - 2 * padding), 9))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from(_DTYPES))
    layout = draw(st.sampled_from(("nchw", "channels_last", "sliced")))
    # Mostly ties among signed zeros, some -inf (whole -inf windows) and
    # NaN, or plain normals.
    p = draw(st.sampled_from(((.05, .3, .3, .1, .2, .05),
                              (.02, .1, .1, .1, .6, .08),
                              (0, 0, 0, 0, 0, 1))))
    seed = draw(st.integers(0, 2 ** 16))
    return kernel, stride, padding, (n, c, h, w), dtype, layout, p, seed


def _pool_input(shape, dtype, layout, p, seed):
    rng = np.random.default_rng(seed)
    n, c, h, w = shape
    normals = rng.standard_normal((n, c + 1, h + 1, 2 * w))
    values = np.array([np.nan, -0.0, 0.0, 1.0, -np.inf, 0.0])
    pick = rng.choice(len(values), size=normals.shape, p=p)
    full = np.where(pick == 5, normals, values[pick]).astype(dtype)
    if layout == "sliced":
        return full[:, 1:, 1:, ::2]
    return _layout(full[:, :c, :h, :w], layout)


class TestMaxPoolProperties:
    """Random geometry, dtype and layout against the reference forms."""

    @settings(max_examples=150, deadline=None)
    @given(pool_cases())
    def test_matches_references_bitwise(self, case):
        kernel, stride, padding, shape, dtype, layout, p, seed = case
        x = _pool_input(shape, dtype, layout, p, seed)
        xt = Tensor(x, requires_grad=True)
        out = F.max_pool2d(xt, kernel, stride, padding)
        assert out.dtype == dtype and out.data.flags.c_contiguous
        assert _bits(out.data) == _bits(reference_pool_max(x, kernel, stride,
                                                           padding))
        windows = reference_windows(x, kernel, stride, padding)
        assert np.array_equal(out.data, windows.max(axis=-1), equal_nan=True)
        buf = np.full(out.shape, 7, dtype=dtype)
        F.max_pool2d_kernel(x, kernel, stride, padding, out=buf)
        assert _bits(buf) == _bits(out.data)

        rng = np.random.default_rng(seed + 1)
        g = rng.standard_normal(out.shape).astype(dtype)
        g.reshape(-1)[::3] = -0.0
        nan_windows = np.isnan(out.data)
        out.backward(g)
        # ``argmax`` sends a NaN window's gradient to its first NaN; the
        # pool sends none, so the reference sees zeros there.
        expected = reference_pool_grad(x, np.where(nan_windows, 0, g),
                                       kernel, stride, padding)
        assert xt.grad.dtype == dtype
        assert _bits(xt.grad) == _bits(expected)
        # The gradient buffer is C-contiguous when padded, x's order else.
        strides = (np.zeros(x.shape, dtype) if padding
                   else np.zeros_like(x)).strides
        assert xt.grad.strides == strides

        xt = Tensor(x, requires_grad=True)
        F.max_pool2d(xt, kernel, stride, padding).backward(
            np.where(nan_windows, g, 0).astype(dtype))
        assert _bits(xt.grad) == _bits(np.zeros_like(xt.grad))


class TestCol2Im:
    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("k,stride,pad,size", [
        (1, 1, 0, 1), (3, 1, 1, 1), (1, 2, 0, 5), (3, 1, 1, 3),
        (3, 2, 1, 5), (3, 2, 0, 6), (5, 1, 2, 4), (2, 2, 0, 4)])
    def test_matches_transposed_view_fold_bitwise(self, dtype, k, stride,
                                                  pad, size):
        rng = np.random.default_rng(k * 100 + stride * 10 + size)
        n, c, h, w = 2, 3, size, size + 1
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        cols = rng.standard_normal((n * oh * ow, c * k * k)).astype(dtype)
        got = F.col2im(cols, (n, c, h, w), (k, k), stride, pad)
        expected = reference_col2im(cols, (n, c, h, w), (k, k), stride, pad)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (3, 1, 1),
                                              (3, 2, 1)])
    def test_conv_input_gradient_matches(self, monkeypatch, layout, k,
                                         stride, pad):
        rng = np.random.default_rng(k + stride)
        values = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        weight = rng.standard_normal((4, 3, k, k)).astype(np.float32)

        def input_grad():
            x = Tensor(_layout(values, layout), requires_grad=True)
            out = F.conv2d(x, Tensor(weight), stride=stride, padding=pad)
            # Twice, so the second fold lands in an existing gradient.
            (out * out).sum().backward()
            out = F.conv2d(x, Tensor(weight), stride=stride, padding=pad)
            out.sum().backward()
            return x.grad

        got = input_grad()
        monkeypatch.setattr(F, "col2im", reference_col2im)
        expected = input_grad()
        assert got.strides == expected.strides
        assert _bits(got) == _bits(expected)


class TestMaxPoolBackwardReference:
    """The one-pass backward against the old ``where=`` scatter."""

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("kernel,stride,padding", _POOLS)
    def test_relu_tied_input_bitwise(self, dtype, layout, kernel, stride,
                                     padding):
        rng = np.random.default_rng(kernel * 10 + stride + padding)
        # Mostly non-positive values: after ReLU most windows tie at a
        # mix of -0.0 (negative inputs) and +0.0 (zero inputs).
        values = rng.choice(np.array([-2.0, -1.0, 0.0, 0.5, 1.0], dtype),
                            size=(2, 3, 7, 6), p=[.3, .3, .2, .1, .1])
        upstream = rng.standard_normal(2 * 3 * 7 * 6).astype(dtype)
        upstream[::5] = -0.0

        def grad(pool):
            leaf = Tensor(_layout(values, layout), requires_grad=True)
            out = pool(leaf.relu(), kernel, stride, padding)
            out.backward(upstream[:out.size].reshape(out.shape))
            return out.data, leaf.grad

        out, got = grad(F.max_pool2d)
        ref_out, expected = grad(reference_max_pool2d)
        assert _bits(out) == _bits(ref_out)
        assert got.strides == expected.strides
        assert _bits(got) == _bits(expected)


_BN_SHAPES = [(4, 3, 1, 1), (2, 5, 3, 3), (3, 4, 5, 4)]


def _bn_run(bn, shape, dtype, layout, *, training, x_grad=True,
            params_grad=True, second=None, seed=0):
    """Everything one BN call produces: output, gradients, statistics.

    ``second`` gives ``x`` a second consumer, whose backward runs
    ``"before"`` or ``"after"`` the batch norm's in the engine's order.
    """
    rng = np.random.default_rng(seed)
    values = rng.normal(0.5, 2.0, size=shape).astype(dtype)
    c = shape[1]
    leaf = Tensor(_layout(values, layout), requires_grad=x_grad)
    # A non-leaf input, as a conv output is in a network.
    x = leaf * Tensor(np.asarray(1.5, dtype)) if x_grad else leaf
    gamma = Tensor(rng.uniform(0.5, 1.5, c).astype(dtype),
                   requires_grad=params_grad)
    beta = Tensor(rng.standard_normal(c).astype(dtype),
                  requires_grad=params_grad)
    running_mean = rng.standard_normal(c).astype(dtype)
    running_var = rng.uniform(0.5, 2.0, c).astype(dtype)
    out = bn(x, gamma, beta, running_mean, running_var, training=training)
    g = _layout(rng.standard_normal(shape).astype(dtype), layout)
    result = {"out": out.data, "running_mean": running_mean,
              "running_var": running_var}
    if out.requires_grad:
        root = out
        if second is not None:
            other = x * Tensor(rng.standard_normal(shape).astype(dtype))
            root = other + out if second == "before" else out + other
        root.backward(g)
        for name, t in (("x", leaf), ("gamma", gamma), ("beta", beta)):
            result[name] = t.grad
    return result


def _assert_same(got, expected):
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        if value is None:
            assert got[key] is None, key
        else:
            assert got[key].dtype == value.dtype, key
            assert got[key].strides == value.strides, key
            assert _bits(got[key]) == _bits(value), key


class TestBatchNormReference:
    """The one-node batch norm against the composed ``Tensor`` chain."""

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("shape", _BN_SHAPES)
    @pytest.mark.parametrize("training", (True, False))
    def test_forward_backward_bitwise(self, dtype, layout, shape, training):
        kwargs = dict(training=training, seed=sum(shape))
        _assert_same(_bn_run(F.batch_norm2d, shape, dtype, layout, **kwargs),
                     _bn_run(reference_batch_norm2d, shape, dtype, layout,
                             **kwargs))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("second", ("before", "after"))
    @pytest.mark.parametrize("training", (True, False))
    def test_input_with_a_second_consumer(self, layout, second, training):
        kwargs = dict(training=training, second=second, seed=7)
        for shape in _BN_SHAPES:
            _assert_same(
                _bn_run(F.batch_norm2d, shape, np.float32, layout, **kwargs),
                _bn_run(reference_batch_norm2d, shape, np.float32, layout,
                        **kwargs))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("training", (True, False))
    @pytest.mark.parametrize("x_grad,params_grad", [(False, True),
                                                    (True, False),
                                                    (False, False)])
    def test_partial_requires_grad(self, layout, training, x_grad,
                                   params_grad):
        kwargs = dict(training=training, x_grad=x_grad,
                      params_grad=params_grad, seed=11)
        for shape in _BN_SHAPES:
            _assert_same(
                _bn_run(F.batch_norm2d, shape, np.float32, layout, **kwargs),
                _bn_run(reference_batch_norm2d, shape, np.float32, layout,
                        **kwargs))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("training", (True, False))
    def test_under_no_grad(self, layout, training):
        for shape in _BN_SHAPES:
            with no_grad():
                got = _bn_run(F.batch_norm2d, shape, np.float32, layout,
                              training=training, seed=5)
                expected = _bn_run(reference_batch_norm2d, shape,
                                   np.float32, layout, training=training,
                                   seed=5)
            _assert_same(got, expected)

    def test_one_autograd_node(self):
        x = Tensor(np.ones((2, 3, 2, 2), np.float32), requires_grad=True)
        gamma = Tensor(np.ones(3, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, np.float32), requires_grad=True)
        for training in (True, False):
            out = F.batch_norm2d(x, gamma, beta, np.zeros(3, np.float32),
                                 np.ones(3, np.float32), training=training)
            assert out._parents == (x, gamma, beta)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_kernel_out_buffer_matches_eager_eval(self, layout):
        rng = np.random.default_rng(4)
        x = _layout(rng.standard_normal((2, 3, 4, 4)).astype(np.float32),
                    layout)
        gamma = rng.standard_normal(3).astype(np.float32)
        beta = rng.standard_normal(3).astype(np.float32)
        rm = rng.standard_normal(3).astype(np.float32)
        rv = rng.uniform(0.5, 2.0, 3).astype(np.float32)
        eager = F.batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm,
                               rv, training=False).data
        mean, inv_std = F.batch_norm2d_stats(rm, rv, 1e-5, x.dtype)
        buf = np.full(x.shape, np.nan, np.float32)
        assert F.batch_norm2d_kernel(x, mean, inv_std, gamma, beta,
                                     out=buf) is buf
        assert eager.strides == x.strides
        assert _bits(buf) == _bits(eager)


def reference_linear(x, weight, bias=None):
    """The old linear, composed from ``Tensor`` primitives."""
    out = x @ weight.T
    return out if bias is None else out + bias


#: (batch, in_features, out_features)
_LINEAR_SHAPES = [(1, 4, 2), (5, 7, 3), (16, 32, 10)]


def _linear_run(linear, shape, dtype, layout, *, bias=True, x_grad=True,
                params_grad=True, seed=0):
    """Output and gradients of one linear call, keyed by name.

    ``layout="f"`` stores the input and the upstream gradient
    column-major, so strides that follow an operand's memory order show.
    """
    rng = np.random.default_rng(seed)
    n, fan_in, fan_out = shape
    order = "F" if layout == "f" else "C"
    x = Tensor(np.asarray(rng.standard_normal((n, fan_in)), dtype,
                          order=order), requires_grad=x_grad)
    weight = Tensor(rng.standard_normal((fan_out, fan_in)).astype(dtype),
                    requires_grad=params_grad)
    b = Tensor(rng.standard_normal(fan_out).astype(dtype),
               requires_grad=params_grad) if bias else None
    out = linear(x, weight, b)
    result = {"out": out.data}
    if out.requires_grad:
        out.backward(np.asarray(rng.standard_normal(out.shape), dtype,
                                order=order))
        for name, t in (("x", x), ("weight", weight), ("bias", b)):
            if t is not None:
                result[name] = t.grad
    return result


class TestLinearReference:
    """The one-node linear against the composed ``x @ weight.T + bias``."""

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("layout", ("c", "f"))
    @pytest.mark.parametrize("shape", _LINEAR_SHAPES)
    @pytest.mark.parametrize("bias", (True, False))
    def test_forward_backward_bitwise(self, dtype, layout, shape, bias):
        kwargs = dict(bias=bias, seed=sum(shape))
        _assert_same(
            _linear_run(F.linear, shape, dtype, layout, **kwargs),
            _linear_run(reference_linear, shape, dtype, layout, **kwargs))

    @pytest.mark.parametrize("bias", (True, False))
    @pytest.mark.parametrize("x_grad,params_grad", [(False, True),
                                                    (True, False),
                                                    (False, False)])
    def test_partial_requires_grad(self, bias, x_grad, params_grad):
        kwargs = dict(bias=bias, x_grad=x_grad, params_grad=params_grad,
                      seed=3)
        for shape in _LINEAR_SHAPES:
            got = _linear_run(F.linear, shape, np.float32, "c", **kwargs)
            _assert_same(got, _linear_run(
                reference_linear, shape, np.float32, "c", **kwargs))
            assert (got.get("x") is not None) == x_grad

    @pytest.mark.parametrize("bias", (True, False))
    def test_under_no_grad(self, bias):
        for shape in _LINEAR_SHAPES:
            with no_grad():
                got = _linear_run(F.linear, shape, np.float32, "c",
                                  bias=bias, seed=5)
                expected = _linear_run(reference_linear, shape, np.float32,
                                       "c", bias=bias, seed=5)
            _assert_same(got, expected)
            assert got.keys() == {"out"}

    def test_one_autograd_node(self):
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        weight = Tensor(np.ones((4, 3), np.float32), requires_grad=True)
        bias = Tensor(np.zeros(4, np.float32), requires_grad=True)
        assert F.linear(x, weight, bias)._parents == (x, weight, bias)
        assert F.linear(x, weight)._parents == (x, weight)

    def test_gemm_out_buffer_matches_eager(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 7)).astype(np.float32)
        weight = rng.standard_normal((3, 7)).astype(np.float32)
        bias = rng.standard_normal(3).astype(np.float32)
        eager = F.linear(Tensor(x), Tensor(weight), Tensor(bias)).data
        buf = np.full((5, 3), np.nan, np.float32)
        assert F.gemm_epilogue(x, weight.T, bias, out=buf) is buf
        assert _bits(buf) == _bits(eager)


#: SHA-256 of ``state_dict()`` after one epoch of ``training.fit`` (seed
#: 0), computed with the composed batch norm, the NCHW ``col2im`` and the
#: ``where=`` maxpool backward: training stays bit-identical.
_GOLDEN_STATES = {
    ("resnet20", 0.5, 12):
        "c3bfd8e9e1e30c6177047ccc5f7958edd26fcd4857e5752fad8287bbd0a23904",
    ("googlenet", 0.5, 8):
        "d0c8a2e5857093450c5e791843e72f0e62c5df896b046183159a64f53dd5a05f",
    ("vgg11", 0.25, 16):
        "3425213bf2f2bd29f015e084797c621391d71bc2b0b7c911d4ae111961744af8",
}
#: SHA-256 of a few float32 GEMM results on the BLAS build the golden
#: states were computed with; another build may round GEMMs differently.
_GOLDEN_GEMMS = \
    "a0920792848e8dcd970dd05f86440a1b7b27a67acf37ea430afacbdd2e7c4a00"


def _gemm_digest():
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for m, k, n in ((144, 27, 8), (576, 72, 16), (64, 144, 32),
                    (16, 288, 10)):
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((n, k)).astype(np.float32)
        c = rng.standard_normal((m, n)).astype(np.float32)
        for product in (a @ b.T, c.T @ a, c @ b):
            digest.update(product.tobytes())
    return digest.hexdigest()


def _state_digest(model):
    digest = hashlib.sha256()
    for key, value in sorted(model.state_dict().items()):
        value = np.ascontiguousarray(value)
        digest.update(f"{key}:{value.dtype}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,width,size", sorted(_GOLDEN_STATES))
def test_training_matches_golden_state_digest(name, width, size):
    if _gemm_digest() != _GOLDEN_GEMMS:
        pytest.skip("this BLAS build rounds float32 GEMMs differently "
                    "from the one the golden digests were computed with")
    task = make_cifar100_like(num_classes=4, image_size=size,
                              train_per_class=16, test_per_class=2,
                              noise=0.5, seed=0)
    model = build_model(name, num_classes=4, input_size=size,
                        width_multiplier=width,
                        rng=np.random.default_rng(0))
    training.fit(model, task.train, None, training.TrainConfig(
        epochs=1, batch_size=16, lr=0.05, seed=0))
    assert _state_digest(model) == _GOLDEN_STATES[(name, width, size)]
