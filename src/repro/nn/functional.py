"""Neural-network operators built on the autograd engine.

Convolution and pooling are implemented with hand-written backward rules
(im2col / col2im) for speed; normalisation, softmax and losses are
composed from :class:`~repro.nn.tensor.Tensor` primitives so their
gradients come straight from the engine.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor

__all__ = [
    "im2col", "col2im", "conv2d", "conv2d_masked", "conv2d_depthwise",
    "conv2d_depthwise_masked", "depthwise_windows", "linear", "max_pool2d",
    "max_pool2d_kernel", "avg_pool2d",
    "global_avg_pool2d", "upsample_nearest", "batch_norm2d",
    "batch_norm2d_masked", "dropout",
    "log_softmax",
    "softmax", "cross_entropy", "nll_loss", "mse_loss",
]


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


@functools.lru_cache(maxsize=128)
def _gather_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  pad: int) -> np.ndarray:
    """Per-image source offsets of every patch element, im2col order.

    Ordered ``(oh, ow, C, kh, kw)`` like the patch matrix; offsets index
    one image flattened to ``C*H*W`` values, and positions in the zero
    padding point one past the end, at the zero :func:`im2col` appends.
    """
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    rows = (np.arange(oh) * stride - pad).reshape(oh, 1, 1, 1, 1) \
        + np.arange(kh).reshape(1, 1, 1, kh, 1)
    cols = (np.arange(ow) * stride - pad).reshape(1, ow, 1, 1, 1) \
        + np.arange(kw).reshape(1, 1, 1, 1, kw)
    chans = np.arange(c).reshape(1, 1, c, 1, 1)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    index = np.where(inside, (chans * h + rows) * w + cols, c * h * w)
    index = index.astype(np.intp).reshape(-1)
    index.flags.writeable = False
    return index


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, pad: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N*oh*ow, C*kh*kw) patches.

    One gather per call: each image is flattened (with a trailing zero
    standing in for the padding) and ``np.take`` reads every patch
    element through a cached per-geometry index.  ``x`` may have any
    memory layout; ``out`` is an optional C-contiguous destination.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    index = _gather_index(c, h, w, kh, kw, stride, pad)
    if pad:
        source = np.empty((n, c * h * w + 1), dtype=x.dtype)
        source[:, -1] = 0
        # A view: the reshape only splits the contiguous trailing axis.
        source[:, :-1].reshape(n, c, h, w)[...] = x
    else:
        source = x.reshape(n, c * h * w)
    if out is None:
        out = np.empty((n * (index.size // (c * kh * kw)), c * kh * kw),
                       dtype=x.dtype)
    # mode="wrap" writes straight into ``out`` (the default mode
    # buffers it); every index is in range by construction.
    np.take(source, index, axis=1, out=out.reshape(n, index.size),
            mode="wrap")
    return out


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int, pad: int) -> np.ndarray:
    """Fold patch gradients back to an image gradient (inverse of im2col)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    image = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            image[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if pad:
        image = image[:, :, pad:hp - pad, pad:wp - pad]
    return image


# ----------------------------------------------------------------------
# Convolution / linear
# ----------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input.

    ``weight`` has shape (out_channels, in_channels, kh, kw).
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weight expects {cw}")
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(f, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, f)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_mat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((g_mat.T @ cols).reshape(weight.shape))
        if x.requires_grad:
            dcols = g_mat @ w_mat
            x._accumulate(col2im(dcols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def conv2d_masked(x: Tensor, weight: Tensor, bias: Tensor | None,
                  keep: np.ndarray, stride: int = 1,
                  padding: int = 0) -> Tensor:
    """Convolution computing only the ``keep`` output channels.

    The compressed "masked forward" of the reward fast path: instead of
    running all filters and multiplying dropped maps by zero, only the
    kept filter rows enter the GEMM and the dropped channels of the
    output are exact zeros.  Work in the producing convolution scales
    with ``len(keep) / out_channels``.

    Each kept channel's reduction runs over the same patch elements in
    the same order as :func:`conv2d`, so kept outputs agree with the
    dense result to BLAS rounding (~1e-12); downstream layers see an
    output identical in shape, with exact zeros where a zeroed-filter
    dense pass would produce them.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    keep = np.asarray(keep, dtype=np.intp)
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weight expects {cw}")
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)
    w_kept = weight.data[keep].reshape(keep.size, -1)
    out_kept = cols @ w_kept.T
    if bias is not None:
        out_kept = out_kept + bias.data[keep]
    out = np.zeros((cols.shape[0], f), dtype=out_kept.dtype)
    out[:, keep] = out_kept
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_kept = g.transpose(0, 2, 3, 1).reshape(-1, f)[:, keep]
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            gb[keep] = g_kept.sum(axis=0)
            bias._accumulate(gb)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            gw[keep] = (g_kept.T @ cols).reshape(keep.size, cw, kh, kw)
            weight._accumulate(gw)
        if x.requires_grad:
            dcols = g_kept @ w_kept
            x._accumulate(col2im(dcols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def depthwise_windows(x: np.ndarray, kernel: int, stride: int,
                      pad: int) -> np.ndarray:
    """Sliding ``(N, C, oh, ow, kh, kw)`` windows of a zero-padded input.

    Shared by the eager depthwise forward and the graph executor's
    depthwise kernel so both reduce over the same elements in the same
    order (their outputs are asserted bit-for-bit identical).
    """
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(x, (kernel, kernel),
                               axis=(2, 3))[:, :, ::stride, ::stride]


def conv2d_depthwise(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Depthwise 2-D convolution: one filter per input channel.

    ``weight`` has shape (channels, 1, k, k); output channel ``c`` is
    the correlation of input channel ``c`` with its own filter — the
    ``groups == in_channels == out_channels`` case of grouped
    convolution, which is all depthwise-separable stacks need.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, per_group, kh, kw = weight.shape
    if f != c or per_group != 1 or kh != kw:
        raise ValueError(
            f"depthwise conv2d needs weight shape ({c}, 1, k, k); "
            f"got {tuple(weight.shape)}")
    windows = depthwise_windows(x.data, kh, stride, padding)
    out = np.einsum("nchwij,cij->nchw", windows, weight.data[:, 0])
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gw = np.einsum("nchw,nchwij->cij", g, windows)
            weight._accumulate(gw[:, None])
        if x.requires_grad:
            oh, ow = g.shape[2:]
            hp, wp = h + 2 * padding, w + 2 * padding
            dxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride] += \
                        g * weight.data[:, 0, i, j][None, :, None, None]
            if padding:
                dxp = dxp[:, :, padding:hp - padding, padding:wp - padding]
            x._accumulate(dxp)

    return Tensor._make(out, parents, backward)


def conv2d_depthwise_masked(x: Tensor, weight: Tensor, bias: Tensor | None,
                            keep: np.ndarray, stride: int = 1,
                            padding: int = 0) -> Tensor:
    """Depthwise convolution computing only the ``keep`` channels.

    Companion of :func:`conv2d_masked` for depthwise layers: only the
    kept channels' windows enter the reduction, dropped channels of the
    output are exact zeros.  Kept channels reduce over the same elements
    in the same order as :func:`conv2d_depthwise`, so they agree with
    the dense result to rounding.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    keep = np.asarray(keep, dtype=np.intp)
    n, c, h, w = x.shape
    f, per_group, kh, kw = weight.shape
    if f != c or per_group != 1:
        raise ValueError(
            f"depthwise conv2d needs weight shape ({c}, 1, k, k); "
            f"got {tuple(weight.shape)}")
    windows = depthwise_windows(np.ascontiguousarray(x.data[:, keep]),
                                kh, stride, padding)
    out_kept = np.einsum("nchwij,cij->nchw", windows, weight.data[keep, 0])
    if bias is not None:
        out_kept = out_kept + bias.data[keep].reshape(1, -1, 1, 1)
    oh, ow = out_kept.shape[2:]
    out = np.zeros((n, f, oh, ow), dtype=out_kept.dtype)
    out[:, keep] = out_kept

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_kept = g[:, keep]
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            gb[keep] = g_kept.sum(axis=(0, 2, 3))
            bias._accumulate(gb)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            gw[keep, 0] = np.einsum("nchw,nchwij->cij", g_kept, windows)
            weight._accumulate(gw)
        if x.requires_grad:
            hp, wp = h + 2 * padding, w + 2 * padding
            dxp = np.zeros((n, keep.size, hp, wp), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride] += \
                        g_kept * weight.data[keep, 0, i, j][None, :, None, None]
            if padding:
                dxp = dxp[:, :, padding:hp - padding, padding:wp - padding]
            dx = np.zeros_like(x.data)
            dx[:, keep] = dxp
            x._accumulate(dx)

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def _pool_slices(x: np.ndarray, kernel: int, stride: int,
                 padding: int) -> list[np.ndarray]:
    """The ``kernel**2`` strided (N, C, oh, ow) views of a pooled input.

    View ``i * kernel + j`` holds element ``(i, j)`` of every window, so
    the list runs over window offsets in row-major order.  Padding is
    filled with ``-inf`` so padded positions never win a window.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    if padding:
        padded = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf,
                         dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    return [x[:, :, i:i + stride * (oh - 1) + 1:stride,
              j:j + stride * (ow - 1) + 1:stride]
            for i in range(kernel) for j in range(kernel)]


def max_pool2d_kernel(x: np.ndarray, kernel: int, stride: int, padding: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Max-pooled array: an elementwise max over the window offsets.

    Shared by :func:`max_pool2d` and the graph executor's maxpool node
    (which passes an arena ``out`` buffer), so both produce the same
    bits.
    """
    slices = _pool_slices(x, kernel, stride, padding)
    if out is None:
        out = np.empty(slices[0].shape, dtype=x.dtype)
    np.copyto(out, slices[0])
    for view in slices[1:]:
        np.maximum(out, view, out=out)
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None,
               padding: int = 0) -> Tensor:
    """Max pooling over NCHW input.

    Padding is filled with ``-inf`` so padded positions never win a
    window (the convention of every deep-learning framework); with
    ``padding < kernel`` each window overlaps the image, so the output
    stays finite.  Backward sends each window's gradient to its first
    maximum in row-major order (``argmax``'s tie rule).
    """
    stride = stride or kernel
    x = as_tensor(x)
    out = max_pool2d_kernel(x.data, kernel, stride, padding)

    def backward(g: np.ndarray) -> None:
        slices = _pool_slices(x.data, kernel, stride, padding)
        # Scan offsets last-to-first so the first maximum's offset is
        # the one left standing.
        winner = np.empty(out.shape, dtype=np.intp)
        for offset in range(len(slices) - 1, -1, -1):
            np.copyto(winner, offset, where=slices[offset] == out)
        n, c, h, w = x.shape
        if padding:
            dx = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        else:
            dx = np.zeros_like(x.data)
        # Last offset first: an input shared by overlapping windows then
        # sums their gradients in window order.
        views = _pool_slices(dx, kernel, stride, 0)
        for offset in range(len(views) - 1, -1, -1):
            np.add(views[offset], g, out=views[offset],
                   where=winner == offset)
        if padding:
            dx = dx[:, :, padding:padding + h, padding:padding + w]
        x._accumulate(dx)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input (no padding)."""
    stride = stride or kernel
    x = as_tensor(x)
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1

    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = windows.mean(axis=(-2, -1))

    def backward(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        share = g / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += share
        x._accumulate(dx)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean, returning shape (N, C)."""
    return x.mean(axis=(2, 3))


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of NCHW input by an integer factor.

    Backward sums the gradient over each replicated block (the exact
    adjoint of replication).
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    x = as_tensor(x)
    if scale == 1:
        return x
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(g: np.ndarray) -> None:
        folded = g.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x._accumulate(folded)

    return Tensor._make(data, (x,), backward)


# ----------------------------------------------------------------------
# Normalisation / regularisation
# ----------------------------------------------------------------------
def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel axis of NCHW input.

    Running statistics are updated in place during training.  The
    normalisation computes in ``x``'s dtype: running statistics and
    ``eps`` are cast to it.
    """
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


def batch_norm2d_masked(x: Tensor, gamma: Tensor, beta: Tensor,
                        running_mean: np.ndarray, running_var: np.ndarray,
                        keep: np.ndarray, eps: float = 1e-5) -> Tensor:
    """Eval-mode batch norm normalising only the ``keep`` channels.

    Companion of :func:`conv2d_masked`: dropped channels are exact zeros
    (never touched), kept channels follow the dense eval path's
    arithmetic operation-for-operation so the results match it to
    rounding.  Training mode has no masked variant — batch statistics
    over a masked batch are a different computation, not a fast path.
    """
    x = as_tensor(x)
    keep = np.asarray(keep, dtype=np.intp)
    column = lambda v: v.reshape(1, -1, 1, 1)
    stat = lambda v: column(v[keep]).astype(x.dtype)
    # Same ops and dtypes as the dense eval path, on the slice.
    inv_std = ((Tensor(stat(running_var)) + eps) ** -0.5).data
    normalised = (x.data[:, keep] - stat(running_mean)) * inv_std
    gamma_kept = column(gamma.data[keep])
    out_kept = normalised * gamma_kept + column(beta.data[keep])
    out = np.zeros(x.shape, dtype=out_kept.dtype)
    out[:, keep] = out_kept

    def backward(g: np.ndarray) -> None:
        g_kept = g[:, keep]
        if beta.requires_grad:
            gb = np.zeros_like(beta.data)
            gb[keep] = g_kept.sum(axis=(0, 2, 3))
            beta._accumulate(gb)
        if gamma.requires_grad:
            gg = np.zeros_like(gamma.data)
            gg[keep] = (g_kept * normalised).sum(axis=(0, 2, 3))
            gamma._accumulate(gg)
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[:, keep] = g_kept * (gamma_kept * inv_std)
            x._accumulate(dx)

    return Tensor._make(out, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Softmax & losses
# ----------------------------------------------------------------------
def log_softmax(logits: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable log-softmax."""
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    lse = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - lse


def softmax(logits: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable softmax."""
    return log_softmax(logits, axis=axis).exp()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood for integer class targets.

    Accepts (N, C) log-probabilities with (N,) targets, or dense
    (N, C, H, W) log-probabilities with (N, H, W) targets (the
    segmentation case) — the loss averages over every labelled element.
    """
    targets = np.asarray(targets)
    if log_probs.ndim == 4:
        n, c = log_probs.shape[:2]
        log_probs = log_probs.transpose(0, 2, 3, 1).reshape(-1, c)
        targets = targets.reshape(-1)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer class targets.

    The class axis is axis 1 (classification and dense prediction).
    """
    return nll_loss(log_softmax(logits, axis=1), targets)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    diff = pred - as_tensor(target)
    return (diff * diff).mean()
