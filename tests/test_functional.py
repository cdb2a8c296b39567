"""Tests for repro.nn.functional: activations, softmax, conv/pool lowering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


def _numeric_grad(func, array, index, eps=1e-6):
    perturbed = array.copy()
    perturbed[index] += eps
    high = func(perturbed)
    perturbed[index] -= 2 * eps
    low = func(perturbed)
    return (high - low) / (2 * eps)


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        assert np.allclose(F.relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        F.relu(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu_negative_slope(self):
        x = Tensor(np.array([-10.0]))
        assert F.leaky_relu(x, 0.1).data[0] == pytest.approx(-1.0)

    def test_elu_continuity_at_zero(self):
        left = F.elu(Tensor(np.array([-1e-9]))).data[0]
        right = F.elu(Tensor(np.array([1e-9]))).data[0]
        assert left == pytest.approx(right, abs=1e-8)

    def test_elu_gradient_matches_numeric(self):
        data = np.array([-0.7, 0.3])
        x = Tensor(data, requires_grad=True)
        F.elu(x).sum().backward()
        for index in range(2):
            numeric = _numeric_grad(lambda a: F.elu(Tensor(a)).data.sum(), data, (index,))
            assert x.grad[index] == pytest.approx(numeric, rel=1e-5)

    def test_gelu_known_values(self):
        # GELU(0) = 0 and GELU(x) ≈ x for large positive x.
        x = Tensor(np.array([0.0, 10.0]))
        out = F.gelu(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(10.0, rel=1e-6)

    def test_gelu_gradient_matches_numeric(self):
        data = np.array([-1.2, 0.4, 2.0])
        x = Tensor(data, requires_grad=True)
        F.gelu(x).sum().backward()
        for index in range(3):
            numeric = _numeric_grad(lambda a: F.gelu(Tensor(a)).data.sum(), data, (index,))
            assert x.grad[index] == pytest.approx(numeric, rel=1e-4)

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_gelu_bounded_by_relu(self, value):
        gelu_value = F.gelu(Tensor(np.array([value]))).data[0]
        assert gelu_value <= max(value, 0.0) + 1e-9
        assert gelu_value >= min(value, 0.0) - 0.2


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        probs = F.softmax(x).data
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).standard_normal((3, 5)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10)

    def test_softmax_handles_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0]]))
        probs = F.softmax(x).data
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestLinearAndDropoutHelpers:
    def test_linear_matches_manual(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.full((4, 3), 2.0))
        b = Tensor(np.ones(4))
        out = F.linear(x, w, b)
        assert np.allclose(out.data, 7.0)

    def test_dropout_mask_zero_rate_is_ones(self):
        mask = F.dropout_mask((10, 10), 0.0, np.random.default_rng(0))
        assert np.all(mask == 1.0)

    def test_dropout_mask_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        mask = F.dropout_mask((200, 200), 0.4, rng)
        assert mask.mean() == pytest.approx(1.0, rel=0.05)

    def test_one_hot_encoding(self):
        encoded = F.one_hot(np.array([0, 2]), 3)
        assert np.allclose(encoded, [[1, 0, 0], [0, 0, 1]])


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        cols, out_h, out_w = F.im2col(data, 2, 2, 1, 0)
        assert cols.shape == (1, 4, out_h * out_w)
        back = F.col2im(cols, data.shape, 2, 2, 1, 0, out_h, out_w)
        # Each interior pixel participates in several windows, so col2im
        # (a scatter-add) multiplies it by its window count.
        corner_count = back[0, 0, 0, 0] / data[0, 0, 0, 0] if data[0, 0, 0, 0] else 1
        assert back.shape == data.shape
        assert corner_count == pytest.approx(1.0)

    def test_output_spatial_size_with_padding(self):
        data = np.zeros((2, 3, 8, 8))
        _, out_h, out_w = F.im2col(data, 3, 3, 1, 1)
        assert (out_h, out_w) == (8, 8)

    def test_output_spatial_size_with_stride(self):
        data = np.zeros((1, 1, 8, 8))
        _, out_h, out_w = F.im2col(data, 2, 2, 2, 0)
        assert (out_h, out_w) == (4, 4)


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 5, 5)))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(kernel), padding=1)
        assert np.allclose(out.data, x.data)

    def test_matches_manual_convolution(self):
        x_data = np.arange(9.0).reshape(1, 1, 3, 3)
        kernel = np.ones((1, 1, 2, 2))
        out = F.conv2d(Tensor(x_data), Tensor(kernel))
        expected = np.array([[8.0, 12.0], [20.0, 24.0]])
        assert np.allclose(out.data[0, 0], expected)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -1.0]))
        out = F.conv2d(x, w, b, padding=1)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -1.0)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(0)
        x_data = rng.standard_normal((2, 2, 5, 5))
        w_data = rng.standard_normal((3, 2, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        F.conv2d(x, w, stride=1, padding=1).sum().backward()

        def loss_wrt_w(array):
            return F.conv2d(Tensor(x_data), Tensor(array), stride=1, padding=1).data.sum()

        def loss_wrt_x(array):
            return F.conv2d(Tensor(array), Tensor(w_data), stride=1, padding=1).data.sum()

        for index in [(0, 0, 1, 1), (2, 1, 0, 2)]:
            assert w.grad[index] == pytest.approx(_numeric_grad(loss_wrt_w, w_data, index), rel=1e-5)
        for index in [(0, 0, 2, 2), (1, 1, 4, 0)]:
            assert x.grad[index] == pytest.approx(_numeric_grad(loss_wrt_x, x_data, index), rel=1e-5)

    def test_strided_output_shape(self):
        out = F.conv2d(Tensor(np.zeros((1, 1, 8, 8))), Tensor(np.zeros((4, 1, 3, 3))),
                       stride=2, padding=1)
        assert out.shape == (1, 4, 4, 4)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert F.max_pool2d(x, 2).data[0, 0, 0, 0] == 4.0

    def test_max_pool_gradient_routes_to_max(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = Tensor(data, requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad[0, 0, 1, 1] == 1.0
        assert x.grad.sum() == 1.0

    def test_avg_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert F.avg_pool2d(x, 2).data[0, 0, 0, 0] == pytest.approx(2.5)

    def test_avg_pool_gradient_is_uniform(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_adaptive_avg_pool_global(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.adaptive_avg_pool2d(x, 1)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == pytest.approx(7.5)

    def test_adaptive_avg_pool_rejects_other_sizes(self):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 2)


# --------------------------------------------------------------------------- #
# Byte-exact kernels: the strided-window lowering against the einsum oracle
# --------------------------------------------------------------------------- #
# The oracle is the earlier implementation: a per-(i, j) im2col copy loop,
# einsum contractions and a col2im scatter loop.  Stored reports and golden
# traces were recorded through it, so the kernels must match it byte for
# byte, not within a tolerance.
def _oracle_im2col(data, kernel_h, kernel_w, stride, padding):
    n, c, h, w = data.shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    if padding > 0:
        data = np.pad(data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    columns = np.empty((n, c, kernel_h, kernel_w, out_h, out_w))
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            columns[:, :, i, j, :, :] = data[:, :, i:i_end:stride, j:j_end:stride]
    return columns.reshape(n, c * kernel_h * kernel_w, out_h * out_w), out_h, out_w


def _oracle_col2im(columns, input_shape, kernel_h, kernel_w, stride, padding,
                   out_h, out_w):
    n, c, h, w = input_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    columns = columns.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += columns[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _oracle_conv2d(x, weight, bias, stride, padding, grad=None):
    """Forward output and, given ``grad``, (grad_weight, grad_input)."""
    n, c, h, w = x.shape
    out_channels, _, kernel_h, kernel_w = weight.shape
    columns, out_h, out_w = _oracle_im2col(x, kernel_h, kernel_w, stride, padding)
    weight_matrix = weight.reshape(out_channels, -1)
    out = np.einsum("ok,nkp->nop", weight_matrix, columns, optimize=True)
    out = out.reshape(n, out_channels, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    if grad is None:
        return out
    grad_matrix = grad.reshape(n, out_channels, out_h * out_w)
    grad_weight = np.einsum("nop,nkp->ok", grad_matrix, columns, optimize=True)
    grad_columns = np.einsum("ok,nop->nkp", weight_matrix, grad_matrix, optimize=True)
    grad_input = _oracle_col2im(grad_columns, x.shape, kernel_h, kernel_w,
                                stride, padding, out_h, out_w)
    return out, grad_weight.reshape(weight.shape), grad_input


def _oracle_max_pool2d(x, kernel_size, stride, grad):
    n, c, h, w = x.shape
    columns, out_h, out_w = _oracle_im2col(x, kernel_size, kernel_size, stride, 0)
    columns = columns.reshape(n, c, kernel_size * kernel_size, out_h * out_w)
    argmax = columns.argmax(axis=2)
    out = np.take_along_axis(columns, argmax[:, :, None, :], axis=2)
    grad_cols = np.zeros((n, c, kernel_size * kernel_size, out_h * out_w))
    np.put_along_axis(grad_cols, argmax[:, :, None, :],
                      grad.reshape(n, c, 1, out_h * out_w), axis=2)
    grad_cols = grad_cols.reshape(n, c * kernel_size * kernel_size, out_h * out_w)
    grad_input = _oracle_col2im(grad_cols, x.shape, kernel_size, kernel_size,
                                stride, 0, out_h, out_w)
    return out.reshape(n, c, out_h, out_w), grad_input


def _signed(rng, shape):
    """Normal draws with a third of the entries replaced by ±0.0."""
    values = rng.standard_normal(shape)
    zeros = rng.random(shape) < 1 / 3
    values[zeros] = np.copysign(0.0, values[zeros])
    return values


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    low = max(1, kernel - 2 * padding)
    return {
        "n": draw(st.integers(1, 3)), "c": draw(st.integers(1, 4)),
        "o": draw(st.integers(1, 4)), "kernel": kernel, "stride": stride,
        "padding": padding, "h": draw(st.integers(low, low + 5)),
        "w": draw(st.integers(low, low + 5)), "seed": draw(st.integers(0, 2**16)),
    }


def _same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestByteExactKernels:
    @given(conv_cases(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_conv2d_forward_and_gradients(self, case, with_bias):
        rng = np.random.default_rng(case["seed"])
        x = _signed(rng, (case["n"], case["c"], case["h"], case["w"]))
        weight = _signed(rng, (case["o"], case["c"], case["kernel"], case["kernel"]))
        bias = rng.standard_normal(case["o"]) if with_bias else None
        stride, padding = case["stride"], case["padding"]
        expected = _oracle_conv2d(x, weight, bias, stride, padding)
        grad = _signed(rng, expected.shape)
        expected, grad_weight, grad_input = _oracle_conv2d(
            x, weight, bias, stride, padding, grad)

        xt = Tensor(x, requires_grad=True)
        wt = Tensor(weight, requires_grad=True)
        bt = None if bias is None else Tensor(bias, requires_grad=True)
        out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
        out.backward(grad)
        assert out.data.flags.c_contiguous
        _same_bytes(out.data, expected)
        _same_bytes(wt.grad, grad_weight)
        _same_bytes(xt.grad, grad_input)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 9), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_max_pool2d_ties_signed_zeros_and_nan(self, n, c, kernel, stride, extra, seed):
        rng = np.random.default_rng(seed)
        size = kernel + extra
        pool = np.array([-1.0, -0.0, 0.0, 1.0, 1.0, 2.0, np.nan])
        x = rng.choice(pool, size=(n, c, size, size))
        out_shape = (n, c, (size - kernel) // stride + 1, (size - kernel) // stride + 1)
        grad = _signed(rng, out_shape)
        expected, grad_input = _oracle_max_pool2d(x, kernel, stride, grad)

        xt = Tensor(x, requires_grad=True)
        out = F.max_pool2d(xt, kernel, stride)
        out.backward(grad)
        assert out.data.flags.c_contiguous
        _same_bytes(out.data, expected)
        _same_bytes(xt.grad, grad_input)

    @given(conv_cases(), st.integers(2, 3), st.booleans(),
           st.sampled_from(["per-trial", "shared", "absent"]))
    @settings(max_examples=80, deadline=None)
    def test_trial_conv2d_matches_separate_forwards(self, case, trials, stacked, bias_kind):
        rng = np.random.default_rng(case["seed"])
        x = _signed(rng, (case["n"], case["c"], case["h"], case["w"]))
        weight_shape = (case["o"], case["c"], case["kernel"], case["kernel"])
        weights = _signed(rng, ((trials,) if stacked else ()) + weight_shape)
        biases = {"per-trial": rng.standard_normal((trials, case["o"])),
                  "shared": rng.standard_normal(case["o"]),
                  "absent": None}[bias_kind]
        stride, padding = case["stride"], case["padding"]
        expected = np.concatenate([
            _oracle_conv2d(x, weights[t] if stacked else weights,
                           biases[t] if bias_kind == "per-trial" else biases,
                           stride, padding)
            for t in range(trials)])

        with no_grad(), F.trial_batching(trials):
            out = F.conv2d(Tensor(np.concatenate([x] * trials)), Tensor(weights),
                           None if biases is None else Tensor(biases),
                           stride=stride, padding=padding)
        assert out.data.flags.c_contiguous
        _same_bytes(out.data, expected)

    @given(conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_im2col_and_col2im_match_the_loops(self, case):
        rng = np.random.default_rng(case["seed"])
        x = _signed(rng, (case["n"], case["c"], case["h"], case["w"]))
        args = (case["kernel"], case["kernel"], case["stride"], case["padding"])
        columns, out_h, out_w = F.im2col(x, *args)
        expected, exp_h, exp_w = _oracle_im2col(x, *args)
        assert (out_h, out_w) == (exp_h, exp_w)
        _same_bytes(columns, expected)
        grad_columns = _signed(rng, columns.shape)
        _same_bytes(F.col2im(grad_columns, x.shape, *args, out_h, out_w),
                    _oracle_col2im(grad_columns, x.shape, *args, out_h, out_w))
