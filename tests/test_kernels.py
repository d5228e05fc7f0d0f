"""The shared im2col and maxpool kernels against their reference forms.

``functional.im2col`` (one ``np.take`` through a cached gather index)
and ``functional.max_pool2d`` (an elementwise max over the window
offsets) replaced ``sliding_window_view`` bodies.  The old bodies live
on here as references only: patches must match them bit-for-bit — on
the channels-last, non-contiguous activations the graph executor feeds
in too — the pooled values must equal ``windows.max``, and the pooling
gradient must equal the old ``argmax`` / ``np.add.at`` scatter,
including ties and signed zeros.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import Tensor, check_gradients
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
