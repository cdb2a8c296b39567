"""Functional neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These free functions implement the forward/backward math used by the layer
classes in :mod:`repro.nn.layers`.  Convolution and max-pooling share one
strided-window lowering: a ``sliding_window_view`` of the zero-padded input
that convolution copies once into a GEMM operand, so the heavy lifting is
a single BLAS matmul, which keeps CPU training of the paper's small models
tractable.  The GEMMs are the matmuls numpy's einsum ran for the
earlier im2col formulation, on operands of the same shape and layout, so
every output keeps its bytes by construction (see the lowering section).

Trial batching
--------------
Monte-Carlo fault evaluation runs the *same* inputs through ``T``
independently drifted copies of the weights.  Inside a
:func:`trial_batching` context the weighted operations (:func:`linear`,
:func:`conv2d`, and the normalisation layers' affine step) accept
parameters stacked along a leading trial axis — ``(T, out, in)`` instead
of ``(out, in)`` — and an input batch tiled trial-major to ``T * N``
samples.  Everything *per-sample* (activations, pooling, the convolution
window copy, softmax, per-sample normalisation statistics) runs once over
the whole ``T * N`` batch, amortising numpy dispatch and Python loop
overhead; the GEMMs themselves stay per-trial with exactly the operand
shapes, strides and values of the unbatched path, so a trial-batched
forward is **bit-identical** to ``T`` separate forwards.  That equality is
what lets the drift-sweep engine treat ``trial_batch`` as a pure
scheduling knob (see :mod:`repro.inference`).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "relu", "leaky_relu", "elu", "gelu", "softmax", "log_softmax",
    "conv2d", "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d",
    "linear", "dropout_mask", "im2col", "col2im", "one_hot",
    "trial_batching", "trial_count",
]


# --------------------------------------------------------------------------- #
# Trial-batched inference context
# --------------------------------------------------------------------------- #
_TRIAL_COUNT = 1


@contextlib.contextmanager
def trial_batching(count: int):
    """Declare that the forward pass carries ``count`` stacked weight trials.

    Inside the context the input batch must be ``count`` trial-major copies
    of the evaluation batch, and installed parameters may carry a leading
    ``(count,)`` trial axis (parameters without one are shared across
    trials).  Inference-only: the trial-aware operations refuse to run with
    gradient recording enabled.
    """
    global _TRIAL_COUNT
    if count < 1:
        raise ValueError("trial_batching needs at least one trial")
    previous = _TRIAL_COUNT
    _TRIAL_COUNT = int(count)
    try:
        yield
    finally:
        _TRIAL_COUNT = previous


def trial_count() -> int:
    """Number of stacked trials in the active :func:`trial_batching` context."""
    return _TRIAL_COUNT


def _trial_rows(data: np.ndarray, trials: int) -> int:
    if is_grad_enabled():
        raise RuntimeError(
            "trial_batching is an inference-only context; wrap the forward "
            "pass in no_grad()")
    if data.shape[0] % trials:
        raise ValueError(
            f"trial_batching({trials}) needs the batch tiled trial-major to "
            f"a multiple of {trials} samples; got {data.shape[0]}")
    return data.shape[0] // trials


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0, 1.0, negative_slope))

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    exp_term = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, exp_term)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            slope = np.where(x.data > 0, 1.0, exp_term + alpha)
            x._accumulate(grad * slope)

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (exact erf form, as in Hendrycks & Gimpel)."""
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    out_data = x.data * cdf

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data ** 2) / math.sqrt(2.0 * math.pi)
            x._accumulate(grad * (cdf + x.data * pdf))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# --------------------------------------------------------------------------- #
# Linear / dropout helpers
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` (PyTorch weight layout).

    Inside a :func:`trial_batching` context ``weight``/``bias`` may carry a
    leading trial axis; each trial's slice of the tiled batch then sees its
    own weights through a per-trial GEMM with the exact operand shapes of
    the unbatched path (bit-identical results).
    """
    if _TRIAL_COUNT > 1:
        return _trial_linear(x, weight, bias)
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def _trial_linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    trials = _TRIAL_COUNT
    rows = _trial_rows(x.data, trials)
    weights = weight.data
    biases = None if bias is None else bias.data
    if weights.ndim == 3:
        # Stacked matmul runs the T per-trial GEMMs in one C-level call;
        # each slice is the same dgemm as the unbatched `x @ w.T`, so the
        # result stays bit-identical (unlike one big M-batched GEMM, whose
        # blocking depends on M).
        grouped = x.data.reshape((trials, rows) + x.data.shape[1:])
        out = np.matmul(grouped, weights.transpose(0, 2, 1))
        if biases is not None:
            out = out + (biases[:, None, :] if biases.ndim == 2 else biases)
        return Tensor(out.reshape((trials * rows,) + out.shape[2:]))
    blocks = []
    for index in range(trials):
        block = x.data[index * rows:(index + 1) * rows] @ weights.T
        if biases is not None:
            block = block + (biases[index] if biases.ndim == 2 else biases)
        blocks.append(block)
    return Tensor(np.concatenate(blocks, axis=0))


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an inverted-dropout mask: zeros with probability ``rate``.

    Surviving entries are scaled by ``1 / (1 - rate)`` so the expected
    activation is unchanged (the standard "inverted dropout" convention).
    """
    if rate <= 0.0:
        return np.ones(shape)
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert integer labels of shape ``(N,)`` to one-hot ``(N, num_classes)``."""
    labels = np.asarray(labels).astype(np.int64)
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


# --------------------------------------------------------------------------- #
# Strided-window lowering (convolution and pooling)
# --------------------------------------------------------------------------- #
# Every window operation starts from ``_windows``: a strided view, not a copy,
# of the zero-padded input.  Convolution copies it once into a GEMM operand.
# The matmuls are exactly those numpy's einsum runs for "ok,nkp->nop",
# "nop,nkp->ok" and "ok,nop->nkp" over im2col columns (the same operand
# order, shapes and layouts, hence the same BLAS calls), so results equal
# that formulation byte for byte by construction; tests/test_functional.py
# keeps it as the oracle.  ``_rows`` and ``_gemm`` spell out einsum's operand
# rules, including its size-one special cases.
def _windows(data: np.ndarray, kernel_h: int, kernel_w: int,
             stride: int, padding: int) -> np.ndarray:
    """Strided ``(N, C, out_h, out_w, kH, kW)`` float64 view of the
    zero-padded input."""
    data = np.asarray(data, dtype=np.float64)
    if padding > 0:
        n, c, h, w = data.shape
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        padded[:, :, padding:padding + h, padding:padding + w] = data
        data = padded
    view = sliding_window_view(data, (kernel_h, kernel_w), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


def _columns(windows: np.ndarray, groups: int, k_major: bool) -> np.ndarray:
    """Copy windows once into ``groups`` stacked, C-contiguous GEMM operands.

    ``K = C * kH * kW`` runs in ``(c, i, j)`` order (the weight's own
    layout) and ``rows * P`` in ``(n, y, x)`` order.  ``k_major`` gives
    ``(groups, K, rows * P)``, otherwise ``(groups, rows * P, K)``.
    """
    n, c, out_h, out_w, kernel_h, kernel_w = windows.shape
    rows = n // groups
    windows = windows.reshape(groups, rows, c, out_h, out_w, kernel_h, kernel_w)
    k, p = c * kernel_h * kernel_w, rows * out_h * out_w
    if k_major:
        return np.ascontiguousarray(
            windows.transpose(0, 2, 5, 6, 1, 3, 4)).reshape(groups, k, p)
    return np.ascontiguousarray(
        windows.transpose(0, 1, 3, 4, 2, 5, 6)).reshape(groups, p, k)


def _rows(planes: np.ndarray) -> np.ndarray:
    """``(N * P, X)`` operand from ``(N, X, P)`` planes, laid out as einsum
    laid it out: a view when ``N`` or ``P`` is one, else one C-order copy."""
    n, x, p = planes.shape
    if n == 1:
        return planes[0].T
    if p == 1:
        return planes[:, :, 0]
    return np.ascontiguousarray(planes.transpose(0, 2, 1)).reshape(n * p, x)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over (stacked) matrices, as einsum contracted them.

    A contracted axis of length one is an outer product: einsum summed the
    axis away first (``0.0 + v``, which turns ``-0.0`` into ``+0.0``) and
    then multiplied.
    """
    if a.shape[-1] == 1:
        return (a + 0.0) * (b + 0.0)
    return np.matmul(a, b)


def _col2im(windows: np.ndarray, input_shape: tuple, stride: int,
            padding: int) -> np.ndarray:
    """Scatter-add ``(N, C, out_h, out_w, kH, kW)`` window values (any
    memory layout) back onto the NCHW input, window offset by offset."""
    n, c, h, w = input_shape
    _, _, out_h, out_w, kernel_h, kernel_w = windows.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += windows[:, :, :, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def im2col(data: np.ndarray, kernel_h: int, kernel_w: int,
           stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Lower an NCHW array into column form for convolution.

    Returns ``(columns, out_h, out_w)`` where ``columns`` has shape
    ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    """
    windows = _windows(data, kernel_h, kernel_w, stride, padding)
    n, c, out_h, out_w = windows.shape[:4]
    columns = windows.transpose(0, 1, 4, 5, 2, 3).copy().reshape(
        n, c * kernel_h * kernel_w, out_h * out_w)
    return columns, out_h, out_w


def col2im(columns: np.ndarray, input_shape: tuple, kernel_h: int, kernel_w: int,
           stride: int, padding: int, out_h: int, out_w: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to NCHW."""
    n, c = input_shape[:2]
    windows = columns.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    return _col2im(windows.transpose(0, 1, 4, 5, 2, 3), input_shape, stride, padding)


def _conv_forward(windows: np.ndarray, weight_t: np.ndarray, groups: int,
                  bias: np.ndarray | None) -> np.ndarray:
    """Convolution of ``groups`` stacked sample groups, as C-contiguous NCHW.

    One copy of the windows into ``(groups, rows * P, K)`` columns (a lone
    sample is the transposed view of its ``(K, P)`` block, as einsum
    squeezed it), one stacked GEMM against ``weight_t`` — ``(K, O)``
    shared or ``(groups, K, O)`` — and one copy back to NCHW that adds the
    bias, ``(O,)`` shared or ``(groups, O)``, on the way.
    """
    n, _, out_h, out_w = windows.shape[:4]
    rows = n // groups
    if rows == 1:
        columns = _columns(windows, groups, k_major=True).transpose(0, 2, 1)
    else:
        columns = _columns(windows, groups, k_major=False)
    out = _gemm(columns, weight_t)
    del columns  # free the largest temporary before the output is allocated
    planes = out.reshape(groups, rows, out_h, out_w, -1).transpose(0, 1, 4, 2, 3)
    result = np.empty(planes.shape)
    if bias is None:
        np.copyto(result, planes)
    elif bias.ndim == 2:
        np.add(planes, bias[:, None, :, None, None], out=result)
    else:
        np.add(planes, bias[:, None, None], out=result)
    return result.reshape((n,) + result.shape[2:])


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, kH, kW)``; inside a
    :func:`trial_batching` context it may carry a leading trial axis (one
    window copy over the tiled batch, one GEMM per trial — bit-identical
    to separate per-trial convolutions).

    Forward is ``columns (N*P, K) @ weight.T (K, O)``; backward computes
    ``columns (K, N*P) @ grad (N*P, O)`` for the weight and
    ``grad (N*P, O) @ weight (O, K)`` for the input, whose ``(n, y, x, c,
    i, j)`` rows :func:`_col2im` scatters back without another copy.
    """
    if _TRIAL_COUNT > 1:
        return _trial_conv2d(x, weight, bias, stride, padding)
    n, c, h, w = x.shape
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if c != in_channels:
        raise ValueError(f"conv2d: input has {c} channels, weight expects {in_channels}")

    windows = _windows(x.data, kernel_h, kernel_w, stride, padding)
    out_h, out_w = windows.shape[2:4]
    weight_matrix = weight.data.reshape(out_channels, -1)
    out_data = _conv_forward(windows, weight_matrix.T, 1,
                             None if bias is None else bias.data)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_rows = _rows(grad.reshape(n, out_channels, out_h * out_w))
        if weight.requires_grad:
            if out_h * out_w == 1:
                columns = _columns(windows, 1, k_major=False)[0].T
            else:
                columns = _columns(windows, 1, k_major=True)[0]
            grad_weight = _gemm(columns, grad_rows).T
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_columns = _gemm(grad_rows, weight_matrix).reshape(
                n, out_h, out_w, c, kernel_h, kernel_w)
            x._accumulate(_col2im(grad_columns.transpose(0, 3, 1, 2, 4, 5),
                                  (n, c, h, w), stride, padding))

    return Tensor._make(out_data, parents, backward)


def _trial_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
                  stride: int, padding: int) -> Tensor:
    trials = _TRIAL_COUNT
    _trial_rows(x.data, trials)
    weights = weight.data
    out_channels, in_channels, kernel_h, kernel_w = weights.shape[-4:]
    if x.data.shape[1] != in_channels:
        raise ValueError(f"conv2d: input has {x.data.shape[1]} channels, "
                         f"weight expects {in_channels}")
    # One window copy over the whole tiled batch, grouped per trial; the
    # stacked matmul then runs the T per-trial GEMMs, each the unbatched
    # path's own call on the same operands (a shared weight broadcasts
    # across the trial axis).
    windows = _windows(x.data, kernel_h, kernel_w, stride, padding)
    if weights.ndim == 5:
        weight_t = weights.reshape(trials, out_channels, -1).transpose(0, 2, 1)
    else:
        weight_t = weights.reshape(out_channels, -1).T
    return Tensor(_conv_forward(windows, weight_t, trials,
                                None if bias is None else bias.data))


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over an NCHW tensor with square windows.

    The first maximum of each window wins, and NaN counts as the maximum
    (``argmax`` semantics); the output holds the selected input doubles.
    """
    stride = stride or kernel_size
    n, c, h, w = x.shape
    windows = _windows(x.data, kernel_size, kernel_size, stride, 0)
    # A running argmax over the window's offsets, each a strided plane of
    # the input: a later offset wins only when it is greater, or NaN over
    # a number, so the first maximum (or first NaN) is kept.
    out_data = windows[:, :, :, :, 0, 0].copy()
    argmax = np.zeros(out_data.shape, dtype=np.intp)
    for offset in range(1, kernel_size * kernel_size):
        plane = windows[:, :, :, :, offset // kernel_size, offset % kernel_size]
        wins = ~(plane <= out_data) & (out_data == out_data)
        out_data = np.where(wins, plane, out_data)
        argmax = np.where(wins, offset, argmax)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_windows = np.zeros(windows.shape)
        grad_windows.reshape(argmax.size, -1)[np.arange(argmax.size),
                                             argmax.reshape(-1)] = grad.reshape(-1)
        x._accumulate(_col2im(grad_windows, (n, c, h, w), stride, 0))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over an NCHW tensor with square windows."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    columns, out_h, out_w = im2col(x.data, kernel_size, kernel_size, stride, 0)
    columns = columns.reshape(n, c, kernel_size * kernel_size, out_h * out_w)
    out_data = columns.mean(axis=2).reshape(n, c, out_h, out_w)
    window = kernel_size * kernel_size

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = np.broadcast_to(grad.reshape(n, c, 1, out_h * out_w) / window,
                                    (n, c, window, out_h * out_w)).copy()
        grad_cols = grad_cols.reshape(n, c * window, out_h * out_w)
        grad_input = col2im(grad_cols, (n, c, h, w), kernel_size, kernel_size,
                            stride, 0, out_h, out_w)
        x._accumulate(grad_input)

    return Tensor._make(out_data, (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only ``output_size == 1`` (global) is needed."""
    if output_size != 1:
        raise NotImplementedError("only global (1x1) adaptive pooling is supported")
    return x.mean(axis=(2, 3), keepdims=True)
