"""Neural layers built on the tensor autodiff: linear, conv2d, batch norm
(optionally with the relu after it, or a residual unit's skip add and relu,
in the same node), global average pooling and softmax cross entropy.

Each op is a pure function, the testable contract.  ``linear_forward``,
``conv2d_forward``, ``batchnorm_forward``, ``softmax_cross_entropy`` and
``global_avg_pool`` are custom-backward primitives, one graph node each;
``im2col`` and ``kn2row`` are plain array functions they keep off the graph.
Networks are assembled from ``LayerList``s, each one list of named parts
down to its ``Param``s.

The conv and batchnorm arithmetic that the bit-identical digests rest on is
stated in full in ``conv2d_forward``'s and ``batchnorm_forward``'s
docstrings.  In short: a conv lowers at most SLAB_BYTES of its input at a
time, in slabs that never split a GEMM's reduction axis and, when there are
several, keep each slab GEMM above M*N*K = 1e6, below which OpenBLAS runs
small-matrix kernels with other last bits; its sums start at +0.0; and
batchnorm takes only NHWC memory, as a conv hands it on, and builds a graph
only in train mode.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, ShapeError
from .tensor import Tensor, apply_op

# the most bytes of column matrix a conv lowers at once (see conv2d_forward)
SLAB_BYTES = 1 << 20


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
    forward GEMM reads without a copy.  A plain array function, not a graph
    op.

    A stride-1 "same" conv (2*pad == k-1, so H'=H and W'=W) pads the image
    vertically only, as one flat run of (H+2p)*W + 2p floats per (c, n),
    and copies each (c, ky, kx) window of all N images as one slice of H*W
    contiguous floats starting at ky*W + kx.  A window's columns within p
    of a row edge read the neighbouring row there, so they are written
    over with +0.0.  Other convs pad both ways and copy one strided view
    per offset.  A column matrix holds copies of input elements and +0.0
    pads, in the same place either way, so both lowerings give the same
    bytes, and the GEMMs that read them the same bits.
    """
    n, c, h, w = x.shape
    if stride == 1 and 2 * pad == k - 1:
        return _im2col_same(x, k, pad)
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    img = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    img[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    col = np.empty((c, k, k, n, oh, ow), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            col[:, ky, kx] = img[:, :, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
    return col.reshape(c * k * k, n * oh * ow)


def _im2col_same(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    # im2col's contiguous-run lowering for stride 1 and 2*pad == k-1
    n, c, h, w = x.shape
    hw = h * w
    img = np.zeros((c, n, (h + 2 * pad) * w + 2 * pad), dtype=x.dtype)
    start = pad * w + pad
    img[:, :, start:start + hw].reshape(c, n, h, w, copy=False)[...] = x.transpose(1, 0, 2, 3)
    col = np.empty((c, k, k, n, h, w), dtype=x.dtype)
    runs = col.reshape(c, k, k, n, hw)
    for ky in range(k):
        for kx in range(k):
            runs[:, ky, kx] = img[:, :, ky * w + kx:ky * w + kx + hw]
            col[:, ky, kx, :, :, _wrapped(w, kx, pad)] = 0.0
    return col.reshape(c * k * k, n * hw)


def _wrapped(w: int, kx: int, pad: int) -> slice:
    """The output columns x of a stride-1 "same" conv whose input column
    x + kx - pad lies outside [0, w): as a flat run over rows they would
    read, or add into, the neighbouring row."""
    if kx < pad:
        return slice(0, min(w, pad - kx))
    return slice(max(0, w - (kx - pad)), w)


def _slabs(length: int, unit_bytes: int) -> list:
    """(start, stop) of the fewest near-equal slabs of ``length`` units whose
    lowered input fits SLAB_BYTES, ``unit_bytes`` each; a unit larger than
    that is a slab of its own."""
    count = -(-length // max(1, SLAB_BYTES // unit_bytes))
    bounds = [length * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _inside(size: int, out: int, kd: int, stride: int, pad: int):
    """Along one axis of kernel offset kd: the outputs [lo, hi) whose input
    i*stride + kd - pad lies in [0, size), and the slice of those inputs."""
    lo = min(out, max(0, -(-(pad - kd) // stride)))
    hi = max(lo, min(out, (size - 1 + pad - kd) // stride + 1))
    start = lo * stride + kd - pad
    return lo, hi, slice(start, start + (hi - lo) * stride, stride)


def kn2row(x: np.ndarray, k: int, stride: int, pad: int, first: int, stop: int) -> np.ndarray:
    """Lower kernel offsets first ... stop-1 (ky*k + kx) of NCHW x to a
    pixel-major [N, H', W', stop-first, C] buffer, whose [N*H'*W', offsets*C]
    view the weight-gradient GEMM reads.

    buf[n, y, x, s, c] = x[n, c, y*stride + ky - pad, x*stride + kx - pad],
    +0.0 where that falls outside the input: the entries of column matrix
    row (c, ky, kx), in the same (n, y, x) order.  Each offset's window is
    copied from ``x.transpose(0, 2, 3, 1)``, a view of the NHWC memory that
    relu and batchnorm hand on, so no padded copy of the input is made.  A
    plain array function, not a graph op.
    """
    n, c, h, w = x.shape
    oh, ow = conv_out_size(h, k, stride, pad), conv_out_size(w, k, stride, pad)
    xt = x.transpose(0, 2, 3, 1)
    buf = np.empty((n, oh, ow, stop - first, c), dtype=x.dtype)
    for s in range(first, stop):
        ky, kx = divmod(s, k)
        y0, y1, ys = _inside(h, oh, ky, stride, pad)
        x0, x1, xs = _inside(w, ow, kx, stride, pad)
        dst = buf[:, :, :, s - first]
        dst[:, :y0] = 0.0
        dst[:, y1:] = 0.0
        dst[:, y0:y1, :x0] = 0.0
        dst[:, y0:y1, x1:] = 0.0
        dst[:, y0:y1, x0:x1] = xt[:, ys, xs]
    return buf


def conv2d_forward(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of x[N,C,H,W] with w[O,C,k,k] -> [N,O,H',W'], no bias.

    One graph node.  The forward is an im2col GEMM, the weight gradient a
    kn2row GEMM and the input gradient one GEMM per kernel offset; none of
    them builds the whole [C*k*k, N*H'*W'] column matrix.  Each runs over
    slabs, the fewest near-equal ones whose lowered input fits SLAB_BYTES:

    - the forward per slab of images: ``im2col(x[i:j]).T @ wmat.T`` writes
      rows i*H'*W' ... j*H'*W' of the [N*H'*W', O] output, whose NCHW view
      the node returns;
    - the weight gradient per slab of kernel offsets: ``kn2row`` of offsets
      s0 ... s1-1 is an [N*H'*W', (s1-s0)*C] matrix whose columns are the
      column matrix's rows (c, ky, kx) for those offsets, and
      ``rows(g).T @`` it writes those columns of dW, held in (o, ky, kx, c)
      order and returned as its [O,C,k,k] view;
    - the input gradient per slab of images: each offset's product
      [n*H'*W', O] @ w[:, :, ky, kx] is added, in (ky, kx) order, into a
      zeroed padded [n,Hp,Wp,C] slab, whose interior is copied into the
      NCHW dx.  Every element sums the same terms in the same order as a
      column-gradient GEMM and col2im would.  A stride-1 "same" conv pads
      the slab vertically only, as im2col does, to a flat [n, Hp*W + 2p, C]
      buffer: each product gets +0.0 over its row-wrapping columns and is
      added as one run of H*W*C floats per image.  The sums start at +0.0,
      so they never hold -0.0 and adding +0.0 changes no bit.

    No slab splits a GEMM's reduction axis (C*k*k, N*H'*W' and O in turn),
    so every element is the same dot product over the same operands.  A
    conv whose column matrix fits SLAB_BYTES runs as one slab, the whole
    GEMM.  Slabs are near-equal, so when there are several, each holds
    about SLAB_BYTES / 2 or more of lowered input.  A forward or weight-
    gradient slab GEMM has M*N*K = O times its slab's elements, so
    with O >= 8 outputs it stays above 1e6, where OpenBLAS stops using its
    small-matrix kernels (with 256 KiB slabs some fall below it, and the
    ``resnet20-img16`` losses move).

    The node keeps x, not column matrices: the weight gradient lowers x
    again, runs first and drops each slab before it lowers the next and
    before the input gradient allocates dx.  An x that is a
    ``tensor.Remade`` it does not keep: the weight gradient rebuilds it and,
    once its slabs are done, hands the rebuild to x's ``keep_mask``.
    Each gradient reads the output gradient as [N*H'*W', O] rows: a view
    of what batchnorm hands back in [N,H,W,C] memory, a copy of a gradient
    in NCHW memory (an aux head's).
    Batchnorm's reductions follow these layouts, so they are part of the
    arithmetic.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expects 4-D input and weight, got {list(x.shape)}, {list(w.shape)}")
    n, c, h, width = x.shape
    o, cw, k, k2 = w.shape
    if cw != c or k != k2:
        raise ShapeError(f"conv2d: weight {list(w.shape)} does not match input channels {c}")
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(width, k, stride, pad)
    ohw, kk = oh * ow, k * k
    same = stride == 1 and 2 * pad == k - 1              # im2col's contiguous-run case
    xd, wd = x.data, w.data
    # the input the weight gradient lowers: a Remade input is rebuilt, not
    # kept, and once lowered handed to its op for relu's mask
    dw_input, lowered = (x.remake, x.keep_mask) if isinstance(x, T.Remade) else (lambda: xd, None)
    wmat = wd.reshape(o, c * kk)
    column_bytes = kk * ohw * xd.itemsize                # column matrix per image and input channel
    images = _slabs(n, c * column_bytes)
    out = np.empty((n * ohw, o), dtype=np.result_type(xd, wd))
    for i, j in images:
        np.matmul(im2col(xd[i:j], k, stride, pad).T, wmat.T, out=out[i * ohw:j * ohw])

    def rows(g):                                         # [N*oh*ow, O], as the forward GEMM wrote it
        return g.transpose(0, 2, 3, 1).reshape(-1, o)

    def grad_w(g):
        gr = rows(g)
        xs = dw_input()
        dw = np.empty((o, kk * c), dtype=np.result_type(gr, xs))
        for s0, s1 in _slabs(kk, n * ohw * c * xs.itemsize):
            np.matmul(gr.T, kn2row(xs, k, stride, pad, s0, s1).reshape(n * ohw, -1),
                      out=dw[:, s0 * c:s1 * c])
        if lowered is not None:                          # after the slabs, so the mask is not beside them
            lowered(xs)
        return dw.reshape(o, k, k, c).transpose(0, 3, 1, 2)

    def grad_x(g):
        gr = rows(g)
        dx = np.empty((n, c, h, width), dtype=gr.dtype)
        for i, j in images:
            part, m = gr[i * ohw:j * ohw], j - i
            if same:
                flat = np.zeros((m, (h + 2 * pad) * width + 2 * pad, c), dtype=gr.dtype)
                for ky in range(k):
                    for kx in range(k):
                        prod = (part @ wd[:, :, ky, kx]).reshape(m, h, width, c)
                        prod[:, :, _wrapped(width, kx, pad)] = 0.0
                        flat[:, ky * width + kx:ky * width + kx + ohw] += prod.reshape(m, ohw, c)
                start = pad * width + pad
                inner = flat[:, start:start + ohw].reshape(m, h, width, c)
            else:
                gimg = np.zeros((m, h + 2 * pad, width + 2 * pad, c), dtype=gr.dtype)
                for ky in range(k):
                    for kx in range(k):
                        gimg[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += \
                            (part @ wd[:, :, ky, kx]).reshape(m, oh, ow, c)
                inner = gimg[:, pad:pad + h, pad:pad + width]
            dx[i:j] = inner.transpose(0, 3, 1, 2)
        return dx

    return apply_op(out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2), [(w, grad_w), (x, grad_x)])


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


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=(0, 2, 3))`` of a 4-D a, with its bits.

    On NHWC memory numpy adds the [N*H*W, C] rows into the C sums one row
    after another, in an inner loop C floats long.  ``einsum`` makes the
    same adds in the same order over long runs of those rows.  With C = 1
    numpy sums the one column pairwise and einsum's bits differ, so C = 1
    and other layouts keep numpy's reduction.
    """
    c = a.shape[1]
    pixels = a.transpose(0, 2, 3, 1)
    if c > 1 and pixels.flags.c_contiguous:
        return np.einsum("mc->c", pixels.reshape(-1, c))
    return a.sum(axis=(0, 2, 3))


def _channel_mean(a: np.ndarray) -> np.ndarray:
    # a.mean(axis=(0, 2, 3)), divided as numpy's mean divides its sum
    n, _, h, w = a.shape
    total = _channel_sum(a)
    return np.true_divide(total, np.intp(n * h * w), out=total, casting="unsafe")


def batchnorm_forward(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                      train: bool = True, relu: bool = False, skip: Tensor = None) -> Tensor:
    """Per-channel normalization over (N,H,W) with biased batch variance,
    followed by ``tensor.relu``'s max(., 0) if ``relu``; with ``skip``, a
    tensor of the output's shape, relu(bn(x) + skip), a residual unit's
    tail.  eps is 1e-5.

    x must be [N,C,H,W] in NHWC memory, as a conv hands it on; any other
    layout raises ``ContractError``.  Train mode normalizes by batch
    statistics and builds the graph, a node whose input gradient is (gx -
    mean(gx) - xhat * mean(gx * xhat)) / std, gx = gamma * g.  Only a
    train-mode call with gradients enabled updates the running statistics
    (momentum 0.1) and ``batches_tracked``; under ``no_grad`` it gives
    the same output bits and leaves them alone, so a guided step's no-grad
    pass and its re-forward of a block update them once.  Eval mode
    normalizes by the running statistics, which must be populated, and
    builds no graph: with gradients enabled and a tracked input it raises
    ``ContractError``, so it runs under ``no_grad``.

    The node never keeps its output.  Its tracked output is a
    ``tensor.Remade`` whose ``remake`` returns the output while anything
    holds it, else rebuilds it from xhat with the forward's own ops, so
    with the same bytes and strides: ``tile(gamma) * xr``, ``+=
    tile(beta)``, with ``relu`` or ``skip`` then the skip added in place
    (so the output keeps the NHWC memory whatever the skip's layout) and
    ``np.maximum`` taken in place, the values of a separate add and
    ``tensor.relu``.  Of the skip the node keeps only what rebuilds
    it, a ``tensor.Remade`` skip's ``remake``, else its array, and a
    rebuild runs it first, so it holds at most two arrays.  With a relu the
    first edge to run makes relu's ``g * mask`` as ``tensor.relu`` does,
    with the mask that a consuming conv left (``keep_mask``) or one taken
    from the output.  The edges run gamma's, beta's, the skip's (that
    product unscaled, as an add passes it) and last x's, which scales it
    into gx = gamma * g: in place, unless the skip's gradient is that same
    array.

    xhat, the output and dx are NHWC memory too.  The channel sums
    (``_channel_sum``) add its [N*H*W, C] rows in row order, as numpy's
    reduction does.  The elementwise work runs on one row per image,
    [N, H*W*C], against per-channel vectors tiled along a row, so each loop
    is a whole image long, not C floats.  The mixed-layout backward
    products ``g * gamma`` and ``gx * xhat`` keep numpy's memory order,
    which fixes the order of their sums and so their bits.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm: expects NCHW input, got {list(x.shape)}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: affine params must have shape [{c}]")
    if skip is not None and skip.shape != x.shape:
        raise ShapeError(f"batchnorm: skip {list(skip.shape)} vs output {list(x.shape)}")
    if not x.data.transpose(0, 2, 3, 1).flags.c_contiguous:
        layout = "C-order" if x.data.flags.c_contiguous else f"strides {x.data.strides}"
        raise ContractError(f"batchnorm: expects NHWC memory, as a conv hands it on, got {layout}")
    bshape = (1, c, 1, 1)
    eps = x.dtype.type(1e-5)
    gam = gamma.data.reshape(bshape)
    gd, bd = gamma.data, beta.data
    # the closures read the skip through this, never through the tensor
    skip_data = None if skip is None else skip.remake if isinstance(skip, T.Remade) else _array(skip.data)

    def rows(a):                                         # one row per image, [N, H*W*C]
        return a.transpose(0, 2, 3, 1).reshape(n, -1)

    def tile(v):                                         # a per-channel vector along one row
        return np.tile(v, h * w)

    def image(r):                                        # the [N,C,H,W] view of rows
        return r.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def affine():                                        # gamma * xhat + beta, as NHWC memory
        out = tile(gd) * xr
        out += tile(bd)
        return image(out)

    def output():                                        # relu(affine [+ skip]), as add and relu make it
        s = None if skip_data is None else skip_data()
        out = affine()
        if s is not None:
            out += s
        return np.maximum(out, 0, out=out)

    if not train:
        if state.batches_tracked == 0:
            raise ContractError("batchnorm: eval mode before any train-mode batch")
        if T._grad_enabled and any(t.requires_grad for t in (x, gamma, beta)):
            raise ContractError("batchnorm: eval mode builds no graph; run it under no_grad")
        xr = rows(x.data) - tile(state.running_mean.astype(x.dtype))
        xr /= tile(np.sqrt(state.running_var.astype(x.dtype) + eps))
        return Tensor(output() if relu or skip is not None else affine())

    mu = _channel_mean(x.data)
    xr = rows(x.data) - tile(mu)
    var = _channel_mean(image(xr * xr))
    std = np.sqrt(var + eps)
    xr /= tile(std)
    xhat = image(xr)
    if T._grad_enabled:
        m = np.float32(0.1)
        state.running_mean = (1 - m) * state.running_mean + m * mu
        state.running_var = (1 - m) * state.running_var + m * var
        state.batches_tracked += 1

    def grad_x(gx):
        # gx = gamma * g, an array of the node's own: once its sums are
        # taken, the last product overwrites it.  dx takes xhat's NHWC
        # memory, so the conv's backward reads its GEMM rows without a copy
        scale = tile(_channel_mean(gx * xhat))
        dx = np.subtract(gx, _channel_mean(gx).reshape(bshape), out=np.empty_like(xhat))
        dr = rows(dx)
        dr -= np.multiply(xr, scale, out=gx.reshape(xr.shape) if gx.flags.c_contiguous else None)
        dr /= tile(std)
        return dx

    def grad_gamma(g):
        return _channel_sum(g * xhat)

    plain = not relu and skip is None
    out = affine() if plain else output()
    held = weakref.ref(out)

    def remake():
        y = held()
        return (affine() if plain else output()) if y is None else y

    def plain_grad_x(g):                                 # the last edge, g's last holder
        gx = g * gam
        del g                                            # freed before grad_x allocates
        return grad_x(gx)

    # x's edge runs last: gamma's and beta's temporaries are gone before dx
    # exists, and with relu, gx reuses the g * mask they read
    if plain:
        return apply_op(out, [(gamma, grad_gamma), (beta, _channel_sum), (x, plain_grad_x)], remake)

    mask = gm = None                 # relu's mask, left by a consumer; g * mask, made by the first edge
    shared = skip is not None and skip.requires_grad     # the skip's gradient is gm itself

    def keep_mask(y):                                    # what a consuming conv lowered
        nonlocal mask
        if mask is None:
            mask = y > 0

    def relu_grad(g):
        # backward runs each edge of a node once, with the same g
        nonlocal mask, gm
        if gm is None:
            gm, mask = T._masked(g, remake() > 0 if mask is None else mask), None
        return gm

    def relu_grad_x(g):                                  # the last edge, g's last holder: gx is gm scaled
        nonlocal gm
        gx, gm = relu_grad(g), None
        del g                                            # freed before grad_x allocates
        if shared:
            return grad_x(gx * gam)
        gx *= gam
        return grad_x(gx)

    edges = [(gamma, lambda g: grad_gamma(relu_grad(g))), (beta, lambda g: _channel_sum(relu_grad(g)))]
    if skip is not None:
        edges.append((skip, relu_grad))
    return apply_op(out, edges + [(x, relu_grad_x)], remake, keep_mask)


def _array(a: np.ndarray):
    """A function returning ``a``: a plain skip's rebuild."""
    return lambda: a


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
    total = ez.sum(axis=1, keepdims=True)
    probs = ez / total
    rows = np.arange(n)
    loss = -(z[rows, labels] - np.log(total[:, 0])).mean()

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
# layers as lists of named parts

class Param(Tensor):
    """A trainable tensor, the innermost part of a layout: a requires-grad leaf
    made by ``tensor.create``, named for its checkpoint entry by that layout."""

    __slots__ = ()

    def __init__(self, shape, init, *, rng=None):
        super().__init__(T.create(shape, init, rng).data, requires_grad=True)

    @staticmethod
    def param_count(shape, init) -> int:
        return math.prod(shape)

    def named_params(self, prefix):
        yield prefix, self


class LayerList:
    """A layer made of named parts: a leaf layer, a backbone unit or an aux head.

    ``layout(*args)`` states its parts once, as (name, class, args) triples
    in build order, each a ``Param`` or another ``LayerList``.  The
    constructor builds each as ``cls(*args, rng=rng)`` and sets it as an
    attribute under its name, ``param_count`` sums the parts' counts without
    building them, and the parameter and batchnorm walks follow the list, so
    rng draws and parameter names keep its order.
    """

    def __init__(self, *args, rng):
        self.layers = [(name, cls(*a, rng=rng)) for name, cls, a in self.layout(*args)]
        vars(self).update(self.layers)

    @classmethod
    def param_count(cls, *args) -> int:
        return sum(part.param_count(*a) for _, part, a in cls.layout(*args))

    def named_params(self, prefix):
        for name, part in self.layers:
            yield from part.named_params(f"{prefix}.{name}")

    def named_bns(self, prefix):
        for name, part in self.layers:
            if isinstance(part, BatchNorm2d):
                yield f"{prefix}.{name}", part


class Linear(LayerList):
    @staticmethod
    def layout(d_in: int, d_out: int) -> list:
        return [("weight", Param, ((d_in, d_out), ("kaiming_normal", d_in))),
                ("bias", Param, ((d_out,), "zeros"))]

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        return linear_forward(x, self.weight, self.bias)


class Conv2d(LayerList):
    """A bias-free conv, since every conv in the networks feeds a batchnorm or
    an aux head's relu; its stride and pad place the kernel and hold no parameters."""

    def __init__(self, in_ch: int, out_ch: int, k: int, stride: int = 1, pad: int = 0, *, rng):
        super().__init__(in_ch, out_ch, k, rng=rng)
        self.stride, self.pad = stride, pad

    @staticmethod
    def layout(in_ch: int, out_ch: int, k: int, *placement) -> list:
        return [("weight", Param, ((out_ch, in_ch, k, k), ("kaiming_normal", in_ch * k * k)))]

    def forward(self, x: Tensor, train: bool = True) -> Tensor:
        return conv2d_forward(x, self.weight, self.stride, self.pad)


class BatchNorm2d(LayerList):
    def __init__(self, channels: int, *, rng=None):
        super().__init__(channels, rng=rng)
        self.state = BatchNormState.init(channels)

    @staticmethod
    def layout(channels: int) -> list:
        return [("gamma", Param, ((channels,), "ones")), ("beta", Param, ((channels,), "zeros"))]

    def forward(self, x: Tensor, train: bool = True, relu: bool = False, skip: Tensor = None) -> Tensor:
        return batchnorm_forward(x, self.gamma, self.beta, self.state, train, relu, skip)
