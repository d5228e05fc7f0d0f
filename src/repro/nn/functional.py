"""Neural-network operators built on the autograd engine.

Convolution, linear, pooling and batch normalisation are single autograd
nodes with hand-written backward rules (im2col / col2im; linear and
batch norm replay the arithmetic of their composed forms, so their
gradients are bit-identical to them) for speed; softmax and losses are
composed from :class:`~repro.nn.tensor.Tensor` primitives so their
gradients come straight from the engine.
The ``*_kernel`` functions, :func:`im2col` and :func:`gemm_epilogue`
are the forward kernels :mod:`repro.nn.graph` calls too.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, _unbroadcast, as_tensor, is_grad_enabled

__all__ = [
    "im2col", "col2im", "gemm_epilogue", "conv2d", "conv2d_depthwise",
    "depthwise_windows", "conv2d_depthwise_kernel", "linear", "max_pool2d",
    "max_pool2d_kernel", "avg_pool2d", "global_avg_pool2d",
    "upsample_nearest", "batch_norm2d", "batch_norm2d_stats",
    "batch_norm2d_kernel", "dropout", "log_softmax", "softmax",
    "cross_entropy", "nll_loss", "mse_loss",
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
    """Fold patch gradients back to an image gradient (inverse of im2col).

    Accumulates in channels-last order: ``cols`` rows are ``(oh, ow, C,
    kh, kw)``, so each of the ``kh*kw`` strided adds into the ``(N, Hp,
    Wp, C)`` buffer reads nearly contiguous memory.  The adds and their
    order are those of the NCHW formulation, so the values are bit-for-bit
    the same; the result is returned C-contiguous (NCHW), the memory
    order downstream reductions sum in.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kh, kw)
    image = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            image[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[..., i, j]
    return np.ascontiguousarray(
        image[:, pad:hp - pad, pad:wp - pad].transpose(0, 3, 1, 2))


# ----------------------------------------------------------------------
# Convolution / linear
# ----------------------------------------------------------------------
def gemm_epilogue(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None,
                  relu: bool = False, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """``a @ b``, then ``+ bias``, then an optional ReLU, in ``out``.

    The one GEMM of :func:`conv2d` (patches times ``weight.T``) and
    :func:`linear`, and of the graph executor's conv and linear nodes
    (arena ``out=``; BN may be folded into ``b`` and ``bias``, a ReLU
    fused in).
    """
    out = np.matmul(a, b, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    if relu:
        np.maximum(out, 0, out=out)
    return out


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
    out = gemm_epilogue(cols, w_mat.T, None if bias is None else bias.data)
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


def depthwise_windows(x: np.ndarray, kernel: int, stride: int,
                      pad: int) -> np.ndarray:
    """Sliding ``(N, C, oh, ow, kh, kw)`` windows of a zero-padded input."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(x, (kernel, kernel),
                               axis=(2, 3))[:, :, ::stride, ::stride]


def conv2d_depthwise_kernel(windows: np.ndarray, weight: np.ndarray,
                            bias: np.ndarray | None = None,
                            relu: bool = False) -> np.ndarray:
    """:func:`depthwise_windows` against ``(C, 1, k, k)`` filters.

    Then ``+ bias`` and an optional ReLU.  Shared by
    :func:`conv2d_depthwise` and the graph executor's depthwise conv.
    """
    out = np.einsum("nchwij,cij->nchw", windows, weight[:, 0])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if relu:
        np.maximum(out, 0, out=out)
    return out


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
    out = conv2d_depthwise_kernel(windows, weight.data,
                                  None if bias is None else bias.data)

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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in).

    One autograd node with the composed form's gradients, bit for bit:
    the same products and reductions, and ``weight`` gets the transpose
    of ``x.T @ g``, in the composed form's memory order.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    out = gemm_epilogue(x.data, weight.data.T,
                        None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            x._accumulate(_unbroadcast(g @ weight.data, x.shape))
        if weight.requires_grad:
            g_t = np.swapaxes(x.data, -1, -2) @ g
            weight._accumulate(_unbroadcast(g_t, weight.shape[::-1]).T)

    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def _pool_slices(x: np.ndarray, kernel: int, stride: int,
                 padding: int) -> list[np.ndarray]:
    """The ``kernel**2`` strided (N, C, oh, ow) views of a pooled input.

    View ``i * kernel + j`` holds element ``(i, j)`` of every window, so
    the list runs over window offsets in row-major order.  Padding is
    filled with ``-inf`` so padded positions never win a window; the
    padded copy keeps ``x``'s axis order.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    if padding:
        padded = np.full_like(x, -np.inf,
                              shape=(n, c, h + 2 * padding, w + 2 * padding))
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    return [x[:, :, i:i + stride * (oh - 1) + 1:stride,
              j:j + stride * (ow - 1) + 1:stride]
            for i in range(kernel) for j in range(kernel)]


def max_pool2d_kernel(x: np.ndarray, kernel: int, stride: int, padding: int,
                      out: np.ndarray | None = None, *,
                      return_offsets: bool = False):
    """Max-pooled array: an elementwise max over the window offsets.

    Shared by :func:`max_pool2d` and the graph executor's maxpool node
    (which passes an arena ``out`` buffer), so both produce the same
    bits.  The max runs in ``x``'s axis order (channels-last on conv
    outputs) and is copied once into ``out``, C-contiguous when not
    given; ``np.maximum`` keeps its second operand on a ``±0`` tie, so
    the offset order fixes the bits.  ``return_offsets`` adds each
    window's first-max offset (``argmax``'s tie rule) in C order, with
    ``kernel**2`` where no element equals the max (NaN windows).
    """
    slices = _pool_slices(x, kernel, stride, padding)
    # The fold's first step, copy then max, in one call (kernel 1: s0).
    best = np.maximum(slices[0], slices[min(1, kernel - 1)],
                      out=np.empty_like(x, shape=slices[0].shape))
    for view in slices[2:]:
        np.maximum(best, view, out=best)
    if out is None:
        out = np.ascontiguousarray(best)
    else:
        np.copyto(out, best)
    if not return_offsets:
        return out
    # The offset counts the leading elements unequal to the maximum.
    run = np.not_equal(slices[0], best)
    miss = np.empty_like(run)
    offsets = run.astype(np.min_scalar_type(kernel ** 2))
    for view in slices[1:]:
        np.not_equal(view, best, out=miss)
        np.logical_and(run, miss, out=run)
        np.add(offsets, run, out=offsets)
    return out, np.ravel(offsets)


@functools.lru_cache(maxsize=32)
def _pool_targets(strides: tuple[int, ...], kernel: int, stride: int,
                  n: int, c: int, oh: int, ow: int):
    """Flat indices of each window's offset-0 element (windows in C order)
    and the step to each offset, in an array of element ``strides``."""
    sn, sc, sh, sw = strides
    windows = np.indices((n, c, oh, ow)).reshape(4, -1)
    origins = np.dot((sn, sc, stride * sh, stride * sw), windows)
    # Offset ``kernel**2`` (NaN windows) steps nowhere.
    steps = np.append(np.add.outer(np.arange(kernel) * sh,
                                   np.arange(kernel) * sw), 0)
    origins.flags.writeable = steps.flags.writeable = False
    return origins, steps


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None,
               padding: int = 0) -> Tensor:
    """Max pooling over NCHW input.

    Padding is filled with ``-inf`` so padded positions never win a
    window (the convention of every deep-learning framework); with
    ``padding < kernel`` each window overlaps the image, so the output
    stays finite.  Backward sends each window's gradient to its first
    maximum in row-major order (``argmax``'s tie rule), recorded by the
    forward; windows whose maximum is NaN send none.
    """
    stride = stride or kernel
    x = as_tensor(x)
    if not (x.requires_grad and is_grad_enabled()):
        return Tensor(max_pool2d_kernel(x.data, kernel, stride, padding))
    out, offsets = max_pool2d_kernel(x.data, kernel, stride, padding,
                                     return_offsets=True)

    def backward(g: np.ndarray) -> None:
        n, c, h, w = x.shape
        if padding:
            dx = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        else:
            dx = np.zeros_like(x.data)
        origins, steps = _pool_targets(
            tuple(s // dx.itemsize for s in dx.strides), kernel, stride,
            *out.shape)
        targets = origins + steps.take(offsets)
        values = np.ravel(g) + 0        # dx starts at +0; +0 + -0 is +0
        values[offsets == kernel * kernel] = 0     # NaN windows: none
        flat = np.ravel(dx, order="K")  # a view: dx is contiguous
        if stride >= kernel:            # no two windows share an input
            flat[targets] = values
        else:
            # Windows in C order reach each input in decreasing offset
            # order, the order its gradients have always been summed in.
            np.add.at(flat, targets, values)
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
def batch_norm2d_stats(running_mean: np.ndarray, running_var: np.ndarray,
                       eps: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode ``(mean, inv_std)`` columns of shape (1, C, 1, 1).

    Both are cast to ``dtype`` (the activation's), as is ``eps``, so the
    normalisation computes in the input's dtype.
    """
    dtype = np.dtype(dtype)
    mean = running_mean.reshape(1, -1, 1, 1).astype(dtype)
    var = running_var.reshape(1, -1, 1, 1).astype(dtype)
    return mean, (var + dtype.type(eps)) ** -0.5


def batch_norm2d_kernel(x: np.ndarray, mean: np.ndarray, inv_std: np.ndarray,
                        gamma: np.ndarray, beta: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode batch norm ``(x - mean) * inv_std * gamma + beta``.

    ``mean`` and ``inv_std`` come from :func:`batch_norm2d_stats`;
    ``gamma`` and ``beta`` are per-channel vectors.  Computed in place in
    ``out`` (allocated in ``x``'s memory order when not given).  Shared
    by :func:`batch_norm2d` and the graph executor's BN node (which
    passes an arena ``out`` buffer), so both produce the same bits.
    """
    out = np.subtract(x, mean, out=out)
    np.multiply(out, inv_std, out=out)
    np.multiply(out, gamma.reshape(1, -1, 1, 1), out=out)
    np.add(out, beta.reshape(1, -1, 1, 1), out=out)
    return out


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel axis of NCHW input.

    Running statistics are updated in place during training.  The
    normalisation computes in ``x``'s dtype: running statistics and
    ``eps`` are cast to it.

    One autograd node in both modes.  Its results are bit-for-bit those
    of the same formula composed from :class:`Tensor` primitives (``x -
    mean`` is ``x + (-mean)``, ``mean`` is ``sum / count``): the
    forward runs the same numpy expressions, and the backward replays
    what the engine's reverse topological order would do with the
    composed graph — ``x`` receives the normalise, then the variance,
    then the mean path's gradient, and every reduction is the same
    :func:`_unbroadcast` call on an operand of the same memory order.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    gamma_c = gamma.data.reshape(1, -1, 1, 1)
    if not training:
        mean, inv_std = batch_norm2d_stats(running_mean, running_var, eps,
                                           x.dtype)
        out = batch_norm2d_kernel(x.data, mean, inv_std, gamma.data,
                                  beta.data)

        def eval_backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(g * gamma_c * inv_std)
            if gamma.requires_grad:
                normalised = (x.data - mean) * inv_std
                gamma._accumulate(_unbroadcast(
                    g * normalised, gamma_c.shape).reshape(gamma.shape))
            if beta.requires_grad:
                beta._accumulate(
                    _unbroadcast(g, gamma_c.shape).reshape(beta.shape))

        return Tensor._make(out, (x, gamma, beta), eval_backward)

    axes = (0, 2, 3)
    dtype = x.dtype
    count = dtype.type(x.size // x.shape[1])
    mean = x.data.sum(axis=axes, keepdims=True) / count
    centred = x.data + (-mean)
    var = (centred ** 2).sum(axis=axes, keepdims=True) / count
    running_mean *= (1.0 - momentum)
    running_mean += momentum * mean.reshape(-1)
    running_var *= (1.0 - momentum)
    running_var += momentum * var.reshape(-1)
    shifted_var = var + dtype.type(eps)
    inv_std = shifted_var ** -0.5
    normalised = centred * inv_std
    out = normalised * gamma_c
    out += beta.data.reshape(1, -1, 1, 1)

    def backward(g: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(
                _unbroadcast(g, gamma_c.shape).reshape(beta.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(
                g * normalised, gamma_c.shape).reshape(gamma.shape))
        if not x.requires_grad:
            return
        g_normalised = g * gamma_c
        g_centred = g_normalised * inv_std
        g_inv_std = _unbroadcast(g_normalised * centred, inv_std.shape)
        x._accumulate(g_centred)
        g_mean = -_unbroadcast(g_centred, mean.shape)
        g_var = g_inv_std * -0.5 * shifted_var ** -1.5
        # The composed graph broadcasts the variance gradient to a
        # C-contiguous array before this product, which makes the
        # product C-contiguous whatever ``centred``'s memory order.
        g_centred = np.multiply(g_var / count * 2, centred,
                                out=np.empty(x.shape, dtype))
        x._accumulate(g_centred)
        g_mean += -_unbroadcast(g_centred, mean.shape)
        x._accumulate(np.broadcast_to(g_mean / count, x.shape))

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
