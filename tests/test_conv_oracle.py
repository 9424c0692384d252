"""Differential test: the K-major conv lowering against the row-major oracle.

The oracle below is the earlier row-major im2col/col2im/conv2d/pooling,
kept verbatim.  The production path must reproduce it bit for bit: every
output and gradient is ``array_equal`` with equal sign bits, and the
``im2col`` patch matrix (the PE-mapping contract of ``core/mapper``) has
the same shape and values.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.functional import conv_output_size
from repro.nn.tensor import Tensor, astensor


# ------------------------------------------------------------------ oracle
def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: ``(N, C, H, W)`` input batch.

    Returns
    -------
    ``(N * OH * OW, C * KH * KW)`` patch matrix.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]            # (n, c, oh, ow, kh, kw)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution, ``x (N,C,H,W)`` * ``weight (F,C,KH,KW)`` -> ``(N,F,OH,OW)``."""
    x = astensor(x)
    weight = astensor(weight)
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {wc}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)

    cols = im2col(x.data, kh, kw, stride, padding)            # (N*OH*OW, C*KH*KW)
    wmat = weight.data.reshape(f, -1)                          # (F, C*KH*KW)
    out_data = cols @ wmat.T                                   # (N*OH*OW, F)
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = [x, weight] + ([bias] if bias is not None else [])
    out = x._make_child(out_data, parents)
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            g2 = g.transpose(0, 2, 3, 1).reshape(-1, f)        # (N*OH*OW, F)
            if weight.requires_grad:
                gw = (g2.T @ cols).reshape(weight.shape)
                weight._accumulate(gw)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=0))
            if x.requires_grad:
                gcols = g2 @ wmat                              # (N*OH*OW, C*KH*KW)
                x._accumulate(col2im(gcols, x.shape, kh, kw, stride, padding))
        out._backward = _backward
    return out


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    cols = cols.reshape(n * c * oh * ow, kernel * kernel)
    arg = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), arg].reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.zeros((cols.shape[0], kernel * kernel), dtype=g.dtype)
            gcols[np.arange(cols.shape[0]), arg] = g.reshape(-1)
            gx = col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling; used by the Rep-Net adaptor's downsampling stage."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    out_data = cols.mean(axis=1).reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.repeat(g.reshape(-1, 1), kernel * kernel, axis=1) / (kernel * kernel)
            gx = col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


# ------------------------------------------------------------------- grid
KERNELS = (1, 2, 3, 5)
STRIDES = (1, 2, 3)
PADDINGS = (0, 1, 2)
# (N, C, H, W): N=1, and heights/widths for which (H + 2p - k) % stride != 0
# at several grid points, so the last window leaves input rows unused.  With
# 4 filters every GEMM here is below SMALL_GEMM_MACS.
SHAPES = ((1, 3, 7, 8), (2, 2, 6, 9))
# (input dtype, weight dtype); the mixed pair is the Rep-Net case of
# float32 parameters against float64 activations.
DTYPES = {"f32": (np.float32, np.float32), "f64": (np.float64, np.float64),
          "f64x-f32w": (np.float64, np.float32)}
GRAD_MODES = {"x": (True, False), "w": (False, True), "xw": (True, True)}


def assert_bits_equal(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert np.array_equal(got, want), f"{what}: values differ"
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: sign bits differ"


def make_input(rng, shape, dtype, contiguous: bool) -> np.ndarray:
    n, c, h, w = shape
    if contiguous:
        return rng.standard_normal(shape).astype(dtype)
    # A channel-strided, NHWC-backed view: neither C- nor F-contiguous.
    base = rng.standard_normal((n, h, w, 2 * c)).astype(dtype)
    x = base.transpose(0, 3, 1, 2)[:, ::2]
    assert not x.flags.c_contiguous and not x.flags.f_contiguous
    return x


def run_conv(conv, x, w, b, stride, padding, grad_x, grad_w, seed_grad):
    tx = Tensor(x, requires_grad=grad_x)
    tw = Tensor(w, requires_grad=grad_w)
    tb = None if b is None else Tensor(b, requires_grad=True)
    out = conv(tx, tw, tb, stride=stride, padding=padding)
    out.backward(seed_grad)
    return out.data, tx.grad, tw.grad, None if tb is None else tb.grad


def check_conv(rng, shape, filters, kernel, stride, padding, dtype, bias):
    """Output and every gradient against the oracle, for each layout and grad mode."""
    x_dtype, w_dtype = DTYPES[dtype]
    n, c, h, w = shape
    oh = conv_output_size(h, kernel, stride, padding)
    ow = conv_output_size(w, kernel, stride, padding)
    for contiguous, (mode, (grad_x, grad_w)) in itertools.product(
            (True, False), GRAD_MODES.items()):
        x = make_input(rng, shape, x_dtype, contiguous)
        wt = rng.standard_normal((filters, c, kernel, kernel)).astype(w_dtype)
        b = rng.standard_normal(filters).astype(w_dtype) if bias else None
        seed_grad = rng.standard_normal((n, filters, oh, ow))
        got = run_conv(F.conv2d, x, wt, b, stride, padding, grad_x, grad_w, seed_grad)
        want = run_conv(conv2d, x, wt, b, stride, padding, grad_x, grad_w, seed_grad)
        case = f"shape={shape} contiguous={contiguous} grad={mode}"
        for name, g, o in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
            if o is None:
                assert g is None, f"{case}: {name} should be None"
                continue
            assert_bits_equal(g, o, f"{case}: {name}")


@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("dtype", list(DTYPES))
@pytest.mark.parametrize("kernel,stride,padding",
                         list(itertools.product(KERNELS, STRIDES, PADDINGS)))
def test_conv2d_bit_identical(kernel, stride, padding, dtype, bias):
    rng = np.random.default_rng(1000 * kernel + 100 * stride + 10 * padding + bias)
    for shape in SHAPES:
        check_conv(rng, shape, 4, kernel, stride, padding, dtype, bias)


# (x shape, filters, kernel, stride, padding) whose GEMMs exceed
# SMALL_GEMM_MACS, so they run on the K-major patches themselves.  Odd batch,
# image and filter counts leave partial BLAS tiles along every dimension.
LARGE = [((17, 16, 7, 7), 16, 3, 1, 1), ((3, 16, 15, 13), 24, 3, 1, 1),
         ((5, 8, 15, 15), 32, 5, 2, 2), ((9, 32, 9, 9), 64, 1, 1, 0),
         ((8, 16, 16, 16), 100, 3, 3, 0), ((2, 24, 13, 11), 64, 2, 1, 0)]


@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("dtype", list(DTYPES))
@pytest.mark.parametrize("shape,filters,kernel,stride,padding", LARGE)
def test_conv2d_bit_identical_large(shape, filters, kernel, stride, padding, dtype, bias):
    n, c, h, w = shape
    m = n * conv_output_size(h, kernel, stride, padding) \
        * conv_output_size(w, kernel, stride, padding)
    assert m * c * kernel * kernel * filters > F.SMALL_GEMM_MACS
    rng = np.random.default_rng(sum(shape) + filters + kernel + bias)
    check_conv(rng, shape, filters, kernel, stride, padding, dtype, bias)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding",
                         list(itertools.product(KERNELS, STRIDES, PADDINGS)))
def test_im2col_contract(kernel, stride, padding, dtype):
    """Same patch matrix as the oracle: the mapping the PEs are loaded from."""
    rng = np.random.default_rng(7 * kernel + 3 * stride + padding)
    for shape, contiguous in itertools.product(SHAPES, (True, False)):
        x = make_input(rng, shape, dtype, contiguous)
        assert_bits_equal(F.im2col(x, kernel, kernel, stride, padding),
                          im2col(x, kernel, kernel, stride, padding),
                          f"im2col shape={shape} contiguous={contiguous}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding",
                         list(itertools.product(KERNELS, STRIDES, PADDINGS)))
def test_col2im_matches_oracle(kernel, stride, padding, dtype):
    rng = np.random.default_rng(11 * kernel + 5 * stride + padding)
    for shape in SHAPES:
        n, c, h, w = shape
        m = n * conv_output_size(h, kernel, stride, padding) \
            * conv_output_size(w, kernel, stride, padding)
        cols = rng.standard_normal((m, c * kernel * kernel)).astype(dtype)
        cols[::2] = -0.0          # sums must start from +0.0, as the oracle's do
        for layout, arg in (("C", cols), ("T", np.ascontiguousarray(cols.T).T)):
            assert_bits_equal(F.col2im(arg, shape, kernel, kernel, stride, padding),
                              col2im(arg, shape, kernel, kernel, stride, padding),
                              f"col2im shape={shape} layout={layout}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 1), (3, 3), (3, 2), (3, 1)])
@pytest.mark.parametrize("pool", ["max", "avg"])
def test_pool_bit_identical(pool, kernel, stride, dtype):
    new, old = {"max": (F.max_pool2d, max_pool2d), "avg": (F.avg_pool2d, avg_pool2d)}[pool]
    rng = np.random.default_rng(97 * kernel + stride)
    for shape, contiguous in itertools.product(((1, 3, 7, 8), (4, 2, 9, 6)), (True, False)):
        x = make_input(rng, shape, dtype, contiguous)
        if pool == "max":
            x[..., 1, :] = x[..., 0, :]          # ties: the first maximum wins
        results = []
        for fn in (new, old):
            tx = Tensor(x, requires_grad=True)
            out = fn(tx, kernel, stride)
            out.backward(np.random.default_rng(5).standard_normal(out.shape))
            results.append((out.data, tx.grad))
        (out_new, gx_new), (out_old, gx_old) = results
        case = f"shape={shape} contiguous={contiguous}"
        assert_bits_equal(out_new, out_old, f"{case}: out")
        assert_bits_equal(gx_new, gx_old, f"{case}: grad_x")
