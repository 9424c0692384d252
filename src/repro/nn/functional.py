"""Neural-network functional primitives built on the autograd :class:`Tensor`.

Convolution is implemented with an explicit im2col/col2im pair, which is both
the fastest pure-numpy formulation and exactly the lowering the accelerator
model uses: a convolution becomes a GEMM whose weight matrix is what gets
N:M-sparsified, CSC-compressed and mapped onto the PIM PEs
(see :mod:`repro.core.mapper`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, astensor, unbroadcast


# --------------------------------------------------------------------- im2col
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    The patches are built K-major, in a ``(C*KH*KW, N*OH*OW)`` buffer filled
    by one slab copy per kernel tap whose inner axis is an image row; the
    result is the transposed view of that buffer.

    Parameters
    ----------
    x: ``(N, C, H, W)`` input batch.

    Returns
    -------
    ``(N * OH * OW, C * KH * KW)`` patch matrix (a transposed view).
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    xc = x.transpose(1, 0, 2, 3)                               # (c, n, h, w)
    if padding > 0:
        xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = xc
    else:
        xp = xc
    out = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, i, j] = xp[:, :, i:i_max:stride, j:j_max:stride]
    return out.reshape(c * kh * kw, n * oh * ow).T


#: Patch bytes :func:`col2im` scatters per block of images (about an L2 cache).
COL2IM_BLOCK_BYTES = 1 << 20


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    ``cols`` is read as ``(N, OH, OW, C, KH, KW)`` and each kernel tap is
    added, in ``(i, j)`` order onto zeros, into a channels-last padded
    buffer, so every write is a contiguous run of channels.  The result is
    an ``(N, C, H, W)`` view of that buffer.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kh, kw)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    # A few images at a time, so the KH*KW strided passes over their patch
    # rows read from cache rather than from memory.
    step = max(1, COL2IM_BLOCK_BYTES // cols[0].nbytes)
    for start in range(0, n, step):
        image, patches = padded[start:start + step], cols[start:start + step]
        for i in range(kh):
            i_max = i + stride * oh
            for j in range(kw):
                j_max = j + stride * ow
                image[:, i:i_max:stride, j:j_max:stride] += patches[..., i, j]
    if padding > 0:
        padded = padded[:, padding:-padding, padding:-padding]
    return padded.transpose(0, 3, 1, 2)


# ---------------------------------------------------------------- convolution
#: GEMMs of at most this many multiply-adds run on a row-major copy of the
#: patches.  OpenBLAS hands products this small to kernels whose summation
#: order depends on whether an operand is transposed; larger ones are packed
#: into panels first, and round the same from either layout.  The copy is
#: cheap at this size; above it, copying costs more than reading the
#: transposed view.  ``tests/test_conv_oracle.py`` covers both sides.
SMALL_GEMM_MACS = 1_000_000


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

    # The GEMMs are the row-major ones; cols is a transposed view, which BLAS
    # packs like any operand.  The input gradient stays row-major, because
    # the layout of a GEMM's output decides how BLAS tiles the product.
    cols = im2col(x.data, kh, kw, stride, padding)            # (N*OH*OW, C*KH*KW)
    wmat = weight.data.reshape(f, -1)                          # (F, C*KH*KW)
    if cols.size * f <= SMALL_GEMM_MACS:
        cols = np.ascontiguousarray(cols)
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


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x (N, in)`` @ ``weight.T (in, out)`` + bias."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# -------------------------------------------------------------------- pooling
def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
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
    # A mean over the rows of a transposed view rounds differently from one
    # over contiguous rows, which is what pooling has always averaged.
    out_data = np.ascontiguousarray(cols).mean(axis=1).reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.repeat(g.reshape(-1, 1), kernel * kernel, axis=1) / (kernel * kernel)
            gx = col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Reduce each channel's spatial map to a single value: ``(N,C,H,W) -> (N,C)``."""
    return x.mean(axis=(2, 3))


# ------------------------------------------------------------- nonlinearities
def relu(x: Tensor) -> Tensor:
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# -------------------------------------------------------------------- losses
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits (N, K)`` and integer ``targets (N,)``."""
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(f"targets must be a 1-D class-index array, got {targets.shape}")
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    return -picked.mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - astensor(target)
    return (diff * diff).mean()


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 accuracy as a plain float (no graph)."""
    pred = logits.data.argmax(axis=-1)
    return float((pred == np.asarray(targets)).mean())
