"""Neural layers built on the tensor autodiff: linear, conv2d (an im2col GEMM
forward and weight gradient that keep the input, not the column matrix, and a
per-kernel-offset GEMM input gradient), batch norm, global average pooling,
residual basic blocks, and softmax cross entropy.

Each layer exists twice: a pure functional form (the testable contract) and a
thin stateful class used to assemble networks.  All gradients flow through
the tensor graph.  ``linear_forward``, ``conv2d_forward``,
``batchnorm_forward``, ``softmax_cross_entropy`` and ``global_avg_pool`` are
custom-backward primitives, one graph node each; ``im2col`` is a plain array
function they do not expose to the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, ShapeError
from .tensor import Tensor, apply_op


# ---------------------------------------------------------------------------
# functional ops

def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[N,d_in] @ w[d_in,d_out] + b[d_out] broadcast over rows.

    One graph node, with the arithmetic of a matmul node followed by a
    broadcast add: dx = g @ w.T, dw = x.T @ g, db = g summed over rows.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear: expects rank-2 input and weight, got {list(x.shape)} x {list(w.shape)}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: input {list(x.shape)} vs weight {list(w.shape)}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {list(b.shape)} vs out dim {w.shape[1]}")
    xd, wd = x.data, w.data
    return apply_op(xd @ wd + b.data, [
        (x, lambda g: g @ wd.T),
        (w, lambda g: xd.T @ g),
        (b, lambda g: g.sum(axis=0)),
    ])


def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    # floor semantics: trailing rows that do not fit a full stride are dropped
    num = size + 2 * pad - k
    if num < 0:
        raise ShapeError(f"conv2d: kernel {k} exceeds padded input {size + 2 * pad}")
    return num // stride + 1


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Lower NCHW patches to a channel-major [C*k*k, N*H'*W'] column matrix.

    Rows run over (c, ky, kx) and columns over (n, y, x), the order the
    forward and weight-gradient GEMMs read without a copy.  A plain array
    function, not a graph op.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    img = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    img[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    col = np.empty((c, k, k, n, oh, ow), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            col[:, ky, kx] = img[:, :, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
    return col.reshape(c * k * k, n * oh * ow)


def conv2d_forward(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of x[N,C,H,W] with w[O,C,k,k] -> [N,O,H',W'], no bias.

    One graph node.  The forward and the weight gradient are one GEMM each
    against the im2col matrix; the output is an NCHW view over the
    [N,H',W',O] memory the forward GEMM wrote.  The node keeps x, not the
    column matrix (k*k times larger at stride 1): the forward's matrix is
    freed when its GEMM returns, and the weight gradient rebuilds the same
    values in the same layout, so its GEMM gives the same bits and backward
    holds one column matrix at a time.  The input gradient is one
    GEMM per kernel offset, [N*H'*W', O] @ w[:, :, ky, kx], each added in
    (ky, kx) order into a zeroed padded [N,Hp,Wp,C] buffer that is then
    copied to NCHW memory: every element sums the same terms in the same
    order as a column-gradient GEMM and col2im would, without the
    column-sized buffer.  Batchnorm's reductions follow these layouts, so
    they are part of the arithmetic.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expects 4-D input and weight, got {list(x.shape)}, {list(w.shape)}")
    n, c, h, width = x.shape
    o, cw, k, k2 = w.shape
    if cw != c or k != k2:
        raise ShapeError(f"conv2d: weight {list(w.shape)} does not match input channels {c}")
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(width, k, stride, pad)
    xd, wd, wshape = x.data, w.data, w.shape
    out = im2col(xd, k, stride, pad).T @ wd.reshape(o, c * k * k).T   # [N*oh*ow, O]
    # grad_x and grad_w run back to back on the same output gradient; when
    # both are in the graph, the first leaves its rows for the second, so a
    # gradient in NCHW memory is copied to rows once, not twice
    shared = x.requires_grad and w.requires_grad
    pending = []

    def rows(g):                                         # [N*oh*ow, O], as the forward GEMM wrote it
        if pending:
            return pending.pop()
        r = g.transpose(0, 2, 3, 1).reshape(-1, o)
        if shared:
            pending.append(r)
        return r

    def grad_x(g):
        gr = rows(g)
        gimg = np.zeros((n, h + 2 * pad, width + 2 * pad, c), dtype=gr.dtype)
        for ky in range(k):
            for kx in range(k):
                gimg[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += \
                    (gr @ wd[:, :, ky, kx]).reshape(n, oh, ow, c)
        return np.ascontiguousarray(gimg[:, pad:pad + h, pad:pad + width].transpose(0, 3, 1, 2))

    return apply_op(out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2), [
        (x, grad_x),
        (w, lambda g: (rows(g).T @ im2col(xd, k, stride, pad).T).reshape(wshape)),
    ])


@dataclass
class BatchNormState:
    """Per-channel running statistics shared between train and eval passes."""
    running_mean: np.ndarray
    running_var: np.ndarray
    batches_tracked: int = 0

    @classmethod
    def init(cls, channels: int) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=np.float32),
                   np.ones(channels, dtype=np.float32))


def batchnorm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                      state: BatchNormState, train: bool = True) -> Tensor:
    """Per-channel normalization over (N,H,W) with biased batch variance.

    Training normalizes by batch statistics and updates the running stats in
    place with momentum 0.1; evaluation uses the running stats and requires
    them populated.  eps is 1e-5.  One graph node; the training input
    gradient is (gx - mean(gx) - xhat * mean(gx * xhat)) / std, gx = gamma * g.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm: expects NCHW input, got {list(x.shape)}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: affine params must have shape [{c}]")
    axes, bshape = (0, 2, 3), (1, c, 1, 1)
    eps = x.dtype.type(1e-5)
    gam = gamma.data.reshape(bshape)
    if train:
        mu = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - mu
        var = (xhat * xhat).mean(axis=axes, keepdims=True)
        std = np.sqrt(var + eps)
        xhat /= std
        m = np.float32(0.1)
        state.running_mean = (1 - m) * state.running_mean + m * mu.reshape(c)
        state.running_var = (1 - m) * state.running_var + m * var.reshape(c)
        state.batches_tracked += 1

        def grad_x(g):
            # dx takes xhat's memory order, [N,H,W,C] after a conv, so the
            # conv's backward reads its GEMM rows without a copy
            gx = g * gam
            dx = np.subtract(gx, gx.mean(axis=axes, keepdims=True), out=np.empty_like(xhat))
            dx -= xhat * (gx * xhat).mean(axis=axes, keepdims=True)
            dx /= std
            return dx
    else:
        if state.batches_tracked == 0:
            raise ContractError("batchnorm: eval mode before any train-mode batch")
        std = np.sqrt(state.running_var.reshape(bshape).astype(x.dtype) + eps)
        xhat = x.data - state.running_mean.reshape(bshape).astype(x.dtype)
        xhat /= std

        def grad_x(g):
            return g * gam / std
    out = gam * xhat
    out += beta.data.reshape(bshape)
    return apply_op(out, [
        (x, grad_x),
        (gamma, lambda g: (g * xhat).sum(axis=axes)),
        (beta, lambda g: g.sum(axis=axes)),
    ])


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized.

    Backward is the closed form (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expects [N,C] logits, got {list(logits.shape)}")
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DataError(f"cross_entropy: {n} rows but {labels.shape} labels")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"cross_entropy: labels must lie in [0, {c})")
    dtype = logits.dtype
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    loss = -(z[rows, labels] - np.log(ez.sum(axis=1))).mean()

    def grad(g):
        gl = probs.copy()
        gl[rows, labels] -= 1.0
        return (gl / n).astype(dtype) * g

    return apply_op(np.asarray(loss, dtype=dtype), [(logits, grad)])


def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] spatial mean; one graph node whose backward spreads
    g / (H*W) over each window."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expects NCHW input, got {list(x.shape)}")
    shape = x.shape
    count = shape[2] * shape[3]
    return apply_op(x.data.mean(axis=(2, 3)), [
        (x, lambda g: np.broadcast_to(g[:, :, None, None], shape) / count),
    ])


# ---------------------------------------------------------------------------
# stateful layers

class Linear:
    def __init__(self, d_in: int, d_out: int, rng):
        self.w = T.create((d_in, d_out), ("kaiming_normal", d_in), rng, requires_grad=True)
        self.b = T.create((d_out,), "zeros", requires_grad=True)

    @staticmethod
    def param_count(d_in: int, d_out: int) -> int:
        return d_in * d_out + d_out

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        return linear_forward(x, self.w, self.b)

    def named_params(self, prefix: str):
        yield f"{prefix}.weight", self.w
        yield f"{prefix}.bias", self.b


class Conv2d:
    """A bias-free conv; every conv in the networks feeds a batchnorm or an
    aux head's relu."""

    def __init__(self, in_ch: int, out_ch: int, k: int, rng,
                 stride: int = 1, pad: int = 0):
        self.stride, self.pad = stride, pad
        fan_in = in_ch * k * k
        self.w = T.create((out_ch, in_ch, k, k), ("kaiming_normal", fan_in), rng, requires_grad=True)

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        return conv2d_forward(x, self.w, self.stride, self.pad)

    def named_params(self, prefix: str):
        yield f"{prefix}.weight", self.w


class BatchNorm2d:
    def __init__(self, channels: int):
        self.gamma = T.create((channels,), "ones", requires_grad=True)
        self.beta = T.create((channels,), "zeros", requires_grad=True)
        self.state = BatchNormState.init(channels)

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        return batchnorm_forward(x, self.gamma, self.beta, self.state, train)

    def named_params(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_bns(self, prefix: str):
        yield prefix, self


class ResidualBasic:
    """conv3x3(stride s) -> bn -> relu -> conv3x3 -> bn, plus skip, then relu.

    When channels or stride change, the skip path gets a 1x1 stride-matched
    projection followed by batch norm.
    """

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng):
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng, stride=stride, pad=1)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng, stride=1, pad=1)
        self.bn2 = BatchNorm2d(out_ch)
        if in_ch != out_ch or stride != 1:
            self.proj = Conv2d(in_ch, out_ch, 1, rng, stride=stride, pad=0)
            self.proj_bn = BatchNorm2d(out_ch)
        else:
            self.proj = None
            self.proj_bn = None
        self.in_ch, self.out_ch, self.stride = in_ch, out_ch, stride

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        out = T.relu(self.bn1.forward(self.conv1.forward(x, train), train))
        out = self.bn2.forward(self.conv2.forward(out, train), train)
        skip = x if self.proj is None else self.proj_bn.forward(self.proj.forward(x, train), train)
        return T.relu(T.add(out, skip))

    def named_params(self, prefix: str):
        yield from self.conv1.named_params(f"{prefix}.conv1")
        yield from self.bn1.named_params(f"{prefix}.bn1")
        yield from self.conv2.named_params(f"{prefix}.conv2")
        yield from self.bn2.named_params(f"{prefix}.bn2")
        if self.proj is not None:
            yield from self.proj.named_params(f"{prefix}.proj")
            yield from self.proj_bn.named_params(f"{prefix}.proj_bn")

    def named_bns(self, prefix: str):
        yield f"{prefix}.bn1", self.bn1
        yield f"{prefix}.bn2", self.bn2
        if self.proj_bn is not None:
            yield f"{prefix}.proj_bn", self.proj_bn
