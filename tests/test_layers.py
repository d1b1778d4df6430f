"""Layer library: forward values against hand/sliding-window oracles,
finite-difference gradient checks, the fused conv, batchnorm and batchnorm
with its relu against their unfused graph compositions, the conv lowered in
slabs against the whole-matrix conv, batchnorm's channel sums against
numpy's reductions, and the reach of every graph op."""

import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import pgl.gradcheck as G
import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ContractError, DataError, ShapeError
from pgl.gradcheck import run_case
from pgl.network import DecoupledModel, MlpSpec, ResidualUnit, ResNetSpec, StemUnit
from pgl.tensor import Tensor, backward
from pgl.training import NesterovSGD, evaluate, guided_epoch, local_epoch


def conv_oracle(x, w, stride, pad):
    """Direct sliding-window cross-correlation."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for i in range(n):
        for f in range(o):
            for y in range(oh):
                for z in range(ow):
                    patch = xp[i, :, y * stride:y * stride + k, z * stride:z * stride + k]
                    out[i, f, y, z] = (patch * w[f]).sum()
    return out


def matmul(a, b):
    """A rank-2 matmul graph node: followed by ``bias_add``, the unfused
    reference for linear; after the graph im2col, the one for conv."""
    ad, bd = a.data, b.data
    return T.apply_op(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def bias_add(a, b):
    """A graph node adding the row vector b to every row of a; b's gradient
    sums over the rows."""
    return T.apply_op(a.data + b.data, [(a, lambda g: g), (b, lambda g: g.sum(axis=0))])


def matmul_oracle(a, b):
    """Naive triple loop, independent of the numpy path under test."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def zero_bias_linear(x, w):
    return L.linear_forward(Tensor(x), Tensor(w), Tensor(np.zeros(w.shape[1], dtype=w.dtype)))


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor([0.0, 0.0])
        assert L.linear_forward(x, w, b).data.tolist() == [[1, 2]]

    def test_hand_oracle(self):
        x = Tensor([[1.0, 1.0]])
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 10.0])
        assert L.linear_forward(x, w, b).data.tolist() == [[14, 16]]

    def test_bias_shape_error(self):
        with pytest.raises(ShapeError):
            L.linear_forward(Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_zero_bias_identity_input(self):
        w = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert zero_bias_linear(np.eye(2), w).data.tolist() == [[5, 6], [7, 8]]

    def test_zero_bias_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = zero_bias_linear(a, b).data
        assert got.tolist() == [[19, 22], [43, 50]]
        assert np.allclose(got, matmul_oracle(a, b))

    def test_zero_bias_random_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m, k, n = rng.integers(1, 7, size=3)
            a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
            assert np.allclose(zero_bias_linear(a, b).data, matmul_oracle(a, b), atol=1e-6)

    @pytest.mark.parametrize("x, w", [((2, 3), (2, 3)), ((2, 3, 1), (3, 3))],
                             ids=["inner_dims", "rank"])
    def test_shape_error(self, x, w):
        with pytest.raises(ShapeError):
            zero_bias_linear(np.zeros(x), np.zeros(w))

    @pytest.mark.parametrize("n", [64, 5])
    def test_matches_unfused_composition(self, n):
        # one node with the arithmetic of matmul -> broadcast add: output, dx,
        # dW and db equal bit for bit
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(n, 64)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 128)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=128).astype(np.float32), requires_grad=True)
        proj = rng.normal(size=(n, 128)).astype(np.float32)
        runs = []
        for out in (L.linear_forward(x, w, b), bias_add(matmul(x, w), b)):
            grads = backward(out, proj)
            runs.append([out.data] + [grads[t.node_id].data for t in (x, w, b)])
        assert len(L.linear_forward(x, w, b).parents) == 3
        for a, ref in zip(*runs):
            assert a.dtype == ref.dtype == np.float32
            assert np.array_equal(a, ref)

    def test_gradcheck(self):
        assert run_case("linear", seed=0) < 1e-4


class TestConv2d:
    def test_1x1_identity_kernel(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = L.conv2d_forward(x, w, stride=1, pad=0)
        assert np.array_equal(out.data, x.data)

    def test_sliding_window_oracle(self):
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = L.conv2d_forward(Tensor(x), Tensor(w), stride=1, pad=0)
        assert out.data.reshape(2, 2).tolist() == [[12, 16], [24, 28]]
        assert np.allclose(out.data, conv_oracle(x, w, 1, 0))

    def test_random_against_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            got = L.conv2d_forward(Tensor(x), Tensor(w), stride, pad).data
            assert np.allclose(got, conv_oracle(x, w, stride, pad), atol=1e-6)

    def test_output_size_formula(self):
        assert L.conv_out_size(32, 3, 2, 1) == 16
        assert L.conv_out_size(32, 3, 1, 1) == 32

    def test_same_conv_identity(self):
        # stride 1, pad (k-1)/2, delta kernel reproduces the input exactly
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = L.conv2d_forward(Tensor(x), Tensor(w), stride=1, pad=1)
        assert np.array_equal(out.data, x)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            L.conv2d_forward(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_gradcheck(self):
        assert run_case("conv2d", seed=0) < 1e-4

    def test_backward_allocates_less_than_a_column_matrix(self):
        # the input gradient is built one kernel offset at a time, never as
        # the [C*k*k, N*H'*W'] column gradient; w is frozen, so only dx runs
        # (the weight gradient lowers x again, one slab at a time)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(64, 16, 16, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32))
        out = L.conv2d_forward(x, w, 1, 1)
        seed = np.ones_like(out.data)
        column_bytes = 16 * 9 * 64 * 16 * 16 * 4
        tracemalloc.start()
        try:
            grads = backward(out, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads[x.node_id].shape == x.shape
        assert peak < column_bytes

    def test_backward_frees_the_column_matrix_before_dx_exists(self):
        # the benchmark's stage-1 conv, whose 9 MiB column matrix is lowered
        # in slabs: the weight gradient rebuilds one slab at a time and frees
        # it before the input gradient allocates dx, which then adds one
        # image slab's padded gradient and product at a time; the bound adds
        # one slab to dx and the [N*H'*W', O] rows both gradients read, a
        # copy of the NCHW seed
        rng = np.random.default_rng(7)
        n, c, hw, o = 64, 16, 16, 16
        x = Tensor(rng.normal(size=(n, c, hw, hw)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(o, c, 3, 3)).astype(np.float32), requires_grad=True)
        out = L.conv2d_forward(x, w, 1, 1)
        seed = np.ones(out.shape, dtype=np.float32)
        assert c * 9 * n * hw * hw * 4 > 8 * L.SLAB_BYTES
        tracemalloc.start()
        try:
            grads = backward(out, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(grads) == {x.node_id, w.node_id}
        assert peak < x.data.nbytes + L.SLAB_BYTES + seed.nbytes

    @pytest.mark.parametrize("seed_layout", ["nhwc", "nchw"])
    def test_weight_gradient_holds_one_slab(self, seed_layout):
        # the stage-1 conv, whose weight gradient lowers one 1 MiB kernel
        # offset per slab: with x frozen it holds the [N*H'*W', O] rows (a
        # view of batchnorm's [N,H,W,C] gradient, a copy of an NCHW one),
        # one slab and dW, never a slab beside the next; the slack is for
        # Python objects, far below a slab
        rng = np.random.default_rng(8)
        n, c, hw, o = 64, 16, 16, 16
        x = Tensor(rng.normal(size=(n, c, hw, hw)).astype(np.float32))
        w = Tensor(rng.normal(size=(o, c, 3, 3)).astype(np.float32), requires_grad=True)
        out = L.conv2d_forward(x, w, 1, 1)
        seed = rng.normal(size=(n, hw, hw, o)).astype(np.float32).transpose(0, 3, 1, 2)
        if seed_layout == "nchw":
            seed = np.ascontiguousarray(seed)
        slab = n * hw * hw * c * 4
        assert slab == L.SLAB_BYTES
        rows = 0 if seed_layout == "nhwc" else seed.nbytes
        tracemalloc.start()
        try:
            grads = backward(out, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(grads) == {w.node_id}
        assert peak < rows + slab + w.data.nbytes + (64 << 10)

    def test_gradcheck_in_slabs(self, monkeypatch):
        # one image per forward slab and one kernel offset per weight-gradient
        # slab, so every axis a slab may split is split: the forward and the
        # input gradient run per image, the weight gradient per offset over
        # all images and channels
        images, offsets = [], []
        real_im2col, real_kn2row = L.im2col, L.kn2row

        def kn2row(x, *args):
            buf = real_kn2row(x, *args)
            offsets.append((x.shape[:2], buf.shape))
            return buf

        monkeypatch.setattr(L, "SLAB_BYTES", 1)
        monkeypatch.setattr(L, "im2col", lambda x, *args: images.append(x.shape[:2]) or real_im2col(x, *args))
        monkeypatch.setattr(L, "kn2row", kn2row)
        assert run_case("conv2d", seed=0) < 1e-4
        assert all(n == 1 for n, _ in images) and any(c > 1 for _, c in images)
        assert all(buf[3] == 1 and buf[0] == n and buf[4] == c for (n, c), buf in offsets)
        assert any(n > 1 and c > 1 for (n, c), _ in offsets)


def network_calls(name, key, spec, J, shape, monkeypatch):
    """Sorted ``key(*args)`` of every ``L.<name>`` call one local and one
    guided step make, heads included."""
    seen = set()
    real = getattr(L, name)

    def spy(*args):
        seen.add(key(*args))
        return real(*args)

    model = DecoupledModel(spec, J, "aux_adapt", seed=0)
    x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    batch_list = [(x, np.arange(shape[0]) % spec.num_classes)]
    opt = NesterovSGD()
    with monkeypatch.context() as m:
        m.setattr(L, name, spy)
        local_epoch(model, batch_list, opt, 0.01)
        guided_epoch(model, batch_list, opt, 0.01, update_aux=True)
    return sorted(seen)


def nhwc(a):
    """a's values in NHWC memory, the order a conv hands on its output."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


# ResNet-8 as the ResNet oracle trains it, and the benchmark's resnet20-img16
RESNET8 = (ResNetSpec(depth=8, num_classes=3, input_hw=8), 2, (16, 3, 8, 8))
RESNET20_IMG16 = (ResNetSpec(depth=20, num_classes=10, input_hw=16), 4, (64, 3, 16, 16))


def reference_im2col(x, k, stride, pad):
    """The plain lowering: np.pad, then one strided copy per kernel offset
    into [C*k*k, N*H'*W'], rows over (c, ky, kx) and columns over (n, y, x)."""
    n, c, h, wd = x.shape
    oh, ow = L.conv_out_size(h, k, stride, pad), L.conv_out_size(wd, k, stride, pad)
    img = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    col = np.empty((c, k, k, n, oh, ow), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            col[:, ky, kx] = img[:, :, ky:ky + stride * oh:stride,
                                 kx:kx + stride * ow:stride].transpose(1, 0, 2, 3)
    return col.reshape(c * k * k, n * oh * ow)


def reference_kn2row(x, k, stride, pad):
    """The reference column matrix rearranged pixel-major: [N, H', W', k*k, C]."""
    n, c, h, wd = x.shape
    oh, ow = L.conv_out_size(h, k, stride, pad), L.conv_out_size(wd, k, stride, pad)
    col = reference_im2col(x, k, stride, pad).reshape(c, k * k, n, oh, ow)
    return np.ascontiguousarray(col.transpose(2, 3, 4, 1, 0))


class TestIm2col:
    """``im2col``, whichever lowering it takes, and ``kn2row``, over every
    run of kernel offsets, write the reference's bytes for every conv the
    networks build and the edge shapes."""

    @staticmethod
    def _inputs(shape, dtype=np.float32):
        # random values with NaN, +-inf and -0.0 scattered in, in C order and
        # in NHWC memory; a column that wraps a row edge must read +0.0
        x = np.random.default_rng(shape).normal(size=shape).astype(dtype)
        flat = x.reshape(-1)
        flat[::7], flat[1::11], flat[2::13], flat[3::5] = np.nan, np.inf, -np.inf, -0.0
        return x, nhwc(x)

    def _check(self, shape, k, stride, pad, dtype=np.float32):
        for x in self._inputs(shape, dtype):
            got, want = L.im2col(x, k, stride, pad), reference_im2col(x, k, stride, pad)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
            want = reference_kn2row(x, k, stride, pad)
            for first, stop in [(0, k * k), (0, 1), (k * k - 1, k * k), (k * k // 3, k * k // 2 + 1)]:
                got = L.kn2row(x, k, stride, pad, first, stop)
                assert got.dtype == want.dtype and got.flags.c_contiguous
                assert got.tobytes() == want[:, :, :, first:stop].tobytes()

    @pytest.mark.parametrize("spec, J, shape", [RESNET8, RESNET20_IMG16], ids=["resnet8", "resnet20-img16"])
    def test_every_network_conv(self, spec, J, shape, monkeypatch):
        convs = network_calls("im2col", lambda x, k, stride, pad: (x.shape, k, stride, pad),
                              spec, J, shape, monkeypatch)
        kinds = {(k, stride, pad) for _, k, stride, pad in convs}
        # stem and stage convs, stride-2 convs and head convs, 1x1 projections
        assert kinds == {(3, 1, 1), (3, 2, 1), (1, 2, 0)}
        for in_shape, k, stride, pad in convs:
            self._check(in_shape, k, stride, pad)

    @pytest.mark.parametrize("shape, k, stride, pad", [
        ((2, 3, 4, 4), 1, 1, 0),          # 1x1 stride 1: no pad, no wrap
        ((2, 2, 6, 6), 5, 1, 2),          # two wrapped columns on each side
        ((3, 2, 5, 7), 3, 1, 1),          # H != W
        ((2, 2, 7, 5), 3, 2, 1),
        ((1, 3, 6, 6), 3, 1, 1),          # N = 1
        ((4, 1, 6, 6), 3, 1, 1),          # C = 1
        ((2, 2, 1, 1), 3, 1, 1),          # H = W = 1: every window but the centre is pad
        ((2, 2, 1, 1), 5, 1, 2),
        ((2, 2, 1, 1), 3, 2, 1),
        ((2, 2, 4, 4), 3, 1, 0),          # stride 1, not "same"
        ((2, 2, 8, 8), 3, 2, 0),          # the trailing row fits no full stride
        ((1, 1, 2, 2), 7, 1, 3),          # W < pad: a window wraps past a whole row
        ((2, 2, 3, 2), 9, 1, 4),
    ], ids=["k1", "k5", "h5w7", "h7w5-s2", "n1", "c1", "hw1", "hw1-k5", "hw1-s2", "pad0",
            "s2-floor", "w-lt-pad", "w-lt-pad-k9"])
    def test_edge_shapes(self, shape, k, stride, pad):
        self._check(shape, k, stride, pad)

    def test_float64(self):
        self._check((2, 3, 5, 4), 3, 1, 1, np.float64)

    def test_wrapped_columns_are_positive_zero(self):
        # all -0.0 input: interior entries keep their sign bit, every pad or
        # wrapped entry is +0.0
        x = np.full((2, 3, 4, 5), -0.0, dtype=np.float32)
        col = L.im2col(x, 3, 1, 1).reshape(3, 3, 3, 2, 4, 5)
        pad = np.ones((3, 3, 4, 5), dtype=bool)
        for ky in range(3):
            for kx in range(3):
                pad[ky, kx, max(0, 1 - ky):4 + min(0, 1 - ky), max(0, 1 - kx):5 + min(0, 1 - kx)] = False
        assert np.array_equal(np.signbit(col), np.broadcast_to(~pad[None, :, :, None], col.shape))
        rows = L.kn2row(x, 3, 1, 1, 0, 9).reshape(2, 4, 5, 3, 3, 3)
        assert np.array_equal(np.signbit(rows), np.broadcast_to(~pad.transpose(2, 3, 0, 1)[None, ..., None],
                                                                rows.shape))


# OpenBLAS runs a GEMM of M*N*K up to this through its small-matrix kernels,
# whose last bits differ from the large kernel's (see pgl.layers)
SMALL_GEMM_MNK = 100 ** 3


def whole_matrix_conv(x, w, stride, pad, g):
    """The conv on the whole column matrix, one GEMM per product: output,
    dW and dx for the output gradient g.  The input gradient adds one
    product per kernel offset, in (ky, kx) order, into a padded NHWC
    buffer."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    oh, ow = L.conv_out_size(h, k, stride, pad), L.conv_out_size(wd, k, stride, pad)
    col = reference_im2col(x, k, stride, pad)
    out = (col.T @ w.reshape(o, -1).T).reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    rows = g.transpose(0, 2, 3, 1).reshape(-1, o)
    dw = (rows.T @ col.T).reshape(w.shape)
    gimg = np.zeros((n, h + 2 * pad, wd + 2 * pad, c), dtype=g.dtype)
    for ky in range(k):
        for kx in range(k):
            gimg[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += \
                (rows @ w[:, :, ky, kx]).reshape(n, oh, ow, c)
    return out, dw, gimg[:, pad:pad + h, pad:pad + wd].transpose(0, 3, 1, 2)


def padded_image_dx(g, w, pad, images):
    """A stride-1 "same" conv's input gradient as the padded-image
    accumulation: per slab of images, each kernel offset's product is added,
    in (ky, kx) order, into a zeroed [n, H+2p, W+2p, C] image whose interior
    is dx."""
    n, o, h, wd = g.shape
    _, c, k, _ = w.shape
    rows = g.transpose(0, 2, 3, 1).reshape(-1, o)
    dx = np.empty((n, c, h, wd), dtype=g.dtype)
    for i, j in images:
        part = rows[i * h * wd:j * h * wd]
        gimg = np.zeros((j - i, h + 2 * pad, wd + 2 * pad, c), dtype=g.dtype)
        for ky in range(k):
            for kx in range(k):
                gimg[:, ky:ky + h, kx:kx + wd] += (part @ w[:, :, ky, kx]).reshape(j - i, h, wd, c)
        dx[i:j] = gimg[:, pad:pad + h, pad:pad + wd].transpose(0, 3, 1, 2)
    return dx


def output_gradient(rng, shape, nonfinite=True):
    """An [N,O,H,W] output gradient in [N,H,W,O] memory, as batchnorm gives
    it: normal values with -0.0 scattered in and, if ``nonfinite``, in each
    image one special pixel, on a row edge or inside: NaN, +inf or -inf in
    one channel, or -0.0 in every channel.  One special pixel per image
    keeps every GEMM row and every dx sum to one non-finite source, whose
    result no summation order changes."""
    n, o, h, w = shape
    g = rng.normal(size=(n, h, w, o)).astype(np.float32)
    g.reshape(-1)[5::7] = -0.0
    for i in range(n if nonfinite else 0):
        y, x = i * 5 % h, [0, w - 1, w // 2][i % 3]
        kind = i % 4
        if kind == 3:
            g[i, y, x] = -0.0
        else:
            g[i, y, x, i % o] = [np.nan, np.inf, -np.inf][kind]
    return g.transpose(0, 3, 1, 2)


class TestConvSlabs:
    """Lowered in slabs, every conv of a local and a guided step gives the
    whole-matrix conv's bytes, and each slab GEMM on a lowered input stays
    above OpenBLAS's small-kernel size."""

    @staticmethod
    def _nhwc(a):
        return a.transpose(0, 2, 3, 1).flags.c_contiguous

    def _check(self, x_shape, nhwc, w_shape, stride, pad, monkeypatch):
        """Whether the conv ran in slabs; asserts its bytes and slab GEMM sizes."""
        rng = np.random.default_rng([*x_shape, *w_shape, stride])
        x = rng.normal(size=x_shape).astype(np.float32)
        if nhwc:                      # the conv's input in the memory the network gave it
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        w = rng.normal(size=w_shape).astype(np.float32)
        n, c, h, wd = x_shape
        o, _, k, _ = w_shape
        oh, ow = L.conv_out_size(h, k, stride, pad), L.conv_out_size(wd, k, stride, pad)
        # the output gradient in [N,H',W',O] memory, as batchnorm gives it
        g = rng.normal(size=(n, oh, ow, o)).astype(np.float32).transpose(0, 3, 1, 2)
        sizes = []

        def spy(real):
            def lower(*args):
                buf = real(*args)
                sizes.append(buf.size)
                return buf
            return lower

        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        with monkeypatch.context() as m:
            m.setattr(L, "im2col", spy(L.im2col))
            m.setattr(L, "kn2row", spy(L.kn2row))
            out = L.conv2d_forward(xt, wt, stride, pad)
            grads = backward(out, g)
        got = (out.data, grads[wt.node_id].data, grads[xt.node_id].data)
        for a, want in zip(got, whole_matrix_conv(x, w, stride, pad, g)):
            assert a.shape == want.shape and a.dtype == want.dtype
            assert a.tobytes() == want.tobytes()
        if sizes == [c * k * k * n * oh * ow] * 2:
            return False              # one slab each way: the whole GEMMs
        # a forward slab GEMM is [slab columns, C*k*k] @ [C*k*k, O], a weight-
        # gradient one [O, N*H'*W'] @ [N*H'*W', slab offsets * C]: either way
        # M*N*K is O times the slab's elements
        for size in sizes:
            assert size * x.itemsize <= L.SLAB_BYTES
            assert size * o > SMALL_GEMM_MNK, (x_shape, w_shape, stride, size)
        return True

    @pytest.mark.parametrize("spec, J, shape, slabbed", [
        RESNET8 + (False,),           # every column matrix fits one slab
        RESNET20_IMG16 + (True,),
        RESNET20_IMG16[:2] + ((33, 3, 16, 16), True),    # a short final batch
    ], ids=["resnet8", "resnet20-img16", "resnet20-img16-n33"])
    def test_every_network_conv(self, spec, J, shape, slabbed, monkeypatch):
        convs = network_calls("conv2d_forward",
                              lambda x, w, stride, pad: (x.shape, self._nhwc(x.data), w.shape, stride, pad),
                              spec, J, shape, monkeypatch)
        ran = [self._check(*conv, monkeypatch) for conv in convs]
        assert any(ran) == slabbed

    @staticmethod
    def _check_same_dx(x_shape, w_shape, pad):
        # the contiguous-run input gradient against the padded-image one over
        # the same image slabs, whose GEMMs are the same calls; non-finite
        # entries may fill a small image, so a finite gradient runs too
        rng = np.random.default_rng([*x_shape, *w_shape])
        n, c, h, wd = x_shape
        o, _, k, _ = w_shape
        w = rng.normal(size=w_shape).astype(np.float32)
        for nonfinite in (False, True):
            x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
            g = output_gradient(rng, (n, o, h, wd), nonfinite)
            with np.errstate(invalid="ignore"):
                dx = backward(L.conv2d_forward(x, Tensor(w), 1, pad), g)[x.node_id].data
                want = padded_image_dx(g, w, pad, L._slabs(n, c * k * k * h * wd * 4))
            assert dx.shape == want.shape and dx.dtype == want.dtype and dx.flags.c_contiguous
            assert dx.tobytes() == want.tobytes()
            assert np.isnan(dx).any() == np.isinf(dx).any() == nonfinite

    @pytest.mark.parametrize("spec, J, shape", [RESNET8, RESNET20_IMG16], ids=["resnet8", "resnet20-img16"])
    @pytest.mark.parametrize("slab_bytes", [L.SLAB_BYTES, 1], ids=["default", "slab1"])
    def test_same_conv_input_gradient(self, spec, J, shape, slab_bytes, monkeypatch):
        convs = network_calls("conv2d_forward", lambda x, w, stride, pad: (x.shape, w.shape, stride, pad),
                              spec, J, shape, monkeypatch)
        same = [(x_shape, w_shape, pad) for x_shape, w_shape, stride, pad in convs
                if stride == 1 and 2 * pad == w_shape[2] - 1]
        assert len(same) >= 3                      # the stem and a conv per stage at least
        monkeypatch.setattr(L, "SLAB_BYTES", slab_bytes)
        for conv in same:
            self._check_same_dx(*conv)

    @pytest.mark.parametrize("x_shape, w_shape, pad", [
        ((2, 2, 6, 6), (3, 2, 5, 5), 2),         # two wrapped columns on each side
        ((3, 2, 5, 7), (4, 2, 3, 3), 1),         # H != W
        ((2, 2, 7, 5), (4, 2, 3, 3), 1),
        ((4, 1, 6, 6), (2, 1, 3, 3), 1),         # C = 1
        ((2, 2, 1, 1), (3, 2, 3, 3), 1),         # H = W = 1: every window but the centre is pad
        ((2, 2, 3, 2), (3, 2, 7, 7), 3),         # W < pad: a window wraps past a whole row
        ((2, 3, 4, 4), (2, 3, 1, 1), 0),         # 1x1: nothing wraps
    ], ids=["k5", "h5w7", "h7w5", "c1", "hw1", "w-lt-pad", "k1"])
    def test_same_conv_input_gradient_edge_shapes(self, x_shape, w_shape, pad):
        self._check_same_dx(x_shape, w_shape, pad)


def reference_conv2d(x, w, stride=1, pad=0):
    """The unfused conv: a graph im2col to [N*H'*W', C*k*k], then matmul.
    The weight's reshape-transpose and the output's reshape-transpose are
    test-local graph nodes."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    oh, ow = L.conv_out_size(h, k, stride, pad), L.conv_out_size(wd, k, stride, pad)
    img = np.pad(x.data, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    windows = [(ky, kx, np.s_[:, :, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride])
               for ky in range(k) for kx in range(k)]
    col = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for ky, kx, sl in windows:
        col[:, :, ky, kx] = img[sl]

    def grad(g):
        gcol = g.reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)
        gimg = np.zeros_like(img)
        for ky, kx, sl in windows:
            gimg[sl] += gcol[:, :, ky, kx]
        return gimg[:, :, pad:pad + h, pad:pad + wd]

    cols = T.apply_op(col.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * k * k), [(x, grad)])
    wmat = T.apply_op(w.data.reshape(o, c * k * k).transpose(1, 0),
                      [(w, lambda g: g.transpose(1, 0).reshape(w.shape))])
    rows = matmul(cols, wmat)
    return T.apply_op(rows.data.reshape(n, oh, ow, o).transpose(0, 3, 1, 2),
                      [(rows, lambda g: g.transpose(0, 2, 3, 1).reshape(rows.shape))])


class TestFusedConvBitExact:
    """The fused conv reproduces the unfused composition bit for bit: its
    output and input-gradient layouts feed batchnorm's reductions, so a
    layout change shows up as changed bits downstream."""

    @staticmethod
    def _run(conv, monkeypatch):
        monkeypatch.setattr(L, "conv2d_forward", conv)
        rng = np.random.default_rng(21)
        # stem 3x3, 3x3 stride 1, 3x3 stride 2 with its 1x1 stride-2 projection
        units = [StemUnit(3, 8, rng=rng), ResidualUnit(8, 8, 1, rng=rng), ResidualUnit(8, 16, 2, rng=rng)]
        x = Tensor(rng.normal(size=(16, 3, 8, 8)).astype(np.float32), requires_grad=True)
        # an aux head's 3x3 stride-2 conv -> relu on the relu'd boundary after
        # unit 1, whose gradient then sums the head's and the backbone's
        head = L.Conv2d(8, 8, 3, 2, 1, rng=rng)
        h = x
        for i, u in enumerate(units):
            h = u.forward(h, train=True)
            if i == 1:
                head_out = T.relu(head.forward(h, train=True))
        # one scalar root over both outputs: a node whose gradient at each
        # output is that output's random projection w, as sum(out * w) has
        pairs = [(t, rng.normal(size=t.shape).astype(np.float32)) for t in (h, head_out)]
        loss = T.apply_op(np.asarray(sum((t.data * w).sum() for t, w in pairs), np.float32),
                          [(t, lambda g, w=w: g * w) for t, w in pairs])
        grads = backward(loss)
        params = [p for i, u in enumerate(units + [head]) for _, p in u.named_params(f"u{i}")]
        return [h.data, head_out.data] + [grads[t.node_id].data for t in [x] + params]

    def test_matches_unfused_composition(self, monkeypatch):
        fused = self._run(L.conv2d_forward, monkeypatch)
        ref = self._run(reference_conv2d, monkeypatch)
        assert len(fused) == len(ref) == 3 + 19     # 2 outputs, x, 18 backbone + 1 head parameters
        for a, b in zip(fused, ref):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)

    # 3x3 stride 2 on H=7 with pad 1, and on H=8 with pad 0, where the
    # trailing row and column fit no full stride and are dropped
    @pytest.mark.parametrize("h, pad", [(7, 1), (8, 0)], ids=["pad1", "floor"])
    def test_layouts_match_unfused(self, h, pad):
        # output: an NCHW view over [N,H',W',O] memory; input gradient: NCHW memory
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(4, 3, h, h)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32), requires_grad=True)
        leaves = [x, w]
        oh = L.conv_out_size(h, 3, 2, pad)
        proj = rng.normal(size=(4, 5, oh, oh)).astype(np.float32)
        runs = []
        for conv in (L.conv2d_forward, reference_conv2d):
            out = conv(x, w, 2, pad)
            grads = backward(out, proj)
            runs.append((out.data, [grads[t.node_id].data for t in leaves]))
        (out, grads), (ref_out, ref_grads) = runs
        assert np.array_equal(out, ref_out) and out.strides == ref_out.strides
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)
        assert grads[0].flags.c_contiguous

    @pytest.mark.parametrize("slab_bytes", [L.SLAB_BYTES, 1], ids=["default", "slab1"])
    def test_same_conv_nonfinite_gradient_matches_unfused(self, slab_bytes, monkeypatch):
        # a stride-1 "same" conv on NHWC memory, as in a unit, whose output
        # gradient holds NaN, +-inf and -0.0 on row edges: the contiguous-run
        # input gradient gives the col2im bytes, and nothing leaks across a
        # row edge; dW's sums meet several non-finite terms, whose NaN payload
        # depends on the order, so only which entries are NaN must agree
        monkeypatch.setattr(L, "SLAB_BYTES", slab_bytes)
        rng = np.random.default_rng(23)
        data = np.ascontiguousarray(rng.normal(size=(12, 8, 8, 6)).astype(np.float32)).transpose(0, 3, 1, 2)
        x = Tensor(data, requires_grad=True)
        w = Tensor(rng.normal(size=(5, 6, 3, 3)).astype(np.float32), requires_grad=True)
        g = output_gradient(rng, (12, 5, 8, 8))
        runs = []
        with np.errstate(invalid="ignore"):
            for conv in (L.conv2d_forward, reference_conv2d):
                out = conv(x, w, 1, 1)
                grads = backward(out, g)
                runs.append((out.data, grads[x.node_id].data, grads[w.node_id].data))
        (out, dx, dw), (ref_out, ref_dx, ref_dw) = runs
        assert out.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
        assert np.isnan(dx).any() and np.isinf(dx).any() and np.isfinite(dx).any()
        assert np.array_equal(dw, ref_dw, equal_nan=True)


def reference_batchnorm(x, gamma, beta, state=None, eps=1e-5):
    """The unfused batchnorm.  Train mode (no ``state``): eleven test-local
    graph nodes (two per-channel means, the centring, the square, the eps
    add, the square root, the division, two reshapes, the scale and the
    shift).  Eval mode: ``state``'s running statistics are constants, so the
    means, the square and the eps add are not nodes.  A per-channel
    operand's gradient sums over the broadcast axes."""
    c, axes = x.shape[1], (0, 2, 3)

    def mean(t):                                 # over (N, H, W), keepdims
        shape, count = t.shape, t.shape[0] * t.shape[2] * t.shape[3]
        return T.apply_op(t.data.mean(axis=axes, keepdims=True),
                          [(t, lambda g: np.broadcast_to(g, shape) / count)])

    if state is None:
        mu = mean(x)
    else:
        mu = Tensor(state.running_mean.reshape(1, c, 1, 1).astype(x.dtype))
    xc = T.apply_op(x.data - mu.data, [
        (x, lambda g: g),
        (mu, lambda g: (-g).sum(axis=axes, keepdims=True)),
    ])
    xcd = xc.data
    if state is None:
        var = mean(T.apply_op(xcd * xcd, [(xc, lambda g: g * xcd), (xc, lambda g: g * xcd)]))
        var_eps = T.apply_op(var.data + np.float32(eps), [(var, lambda g: g)])
    else:
        var_eps = Tensor(state.running_var.reshape(1, c, 1, 1).astype(x.dtype) + x.dtype.type(eps))
    sd = np.sqrt(var_eps.data)
    std = T.apply_op(sd, [(var_eps, lambda g: g * 0.5 / sd)])
    xhat = T.apply_op(xc.data / sd, [
        (xc, lambda g: g / sd),
        (std, lambda g: (-g * xc.data / (sd * sd)).sum(axis=axes, keepdims=True)),
    ])

    def per_channel(t):
        return T.apply_op(t.data.reshape(1, c, 1, 1), [(t, lambda g: g.reshape(c))])

    gam, xh = per_channel(gamma), xhat.data
    scaled = T.apply_op(gam.data * xh, [
        (gam, lambda g: (g * xh).sum(axis=axes, keepdims=True)),
        (xhat, lambda g: g * gam.data),
    ])
    bet = per_channel(beta)
    return T.apply_op(scaled.data + bet.data, [
        (scaled, lambda g: g),
        (bet, lambda g: g.sum(axis=axes, keepdims=True)),
    ])


class TestBatchNorm:
    @pytest.mark.parametrize("train", [True, False], ids=["nhwc", "nhwc-eval"])
    def test_matches_unfused_composition(self, train):
        # same forward arithmetic on a conv output's memory, bit for bit;
        # the closed-form training input gradient reorders float32 sums, so
        # it agrees to a few ulps of the largest entry.  Eval mode builds no
        # graph, so only its forward is compared
        rng = np.random.default_rng(3)
        data = nhwc(rng.normal(2.0, 3.0, size=(32, 8, 6, 6)).astype(np.float32))
        x = Tensor(data, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 8).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
        proj = rng.normal(size=data.shape).astype(np.float32)
        if not train:
            state = L.BatchNormState(rng.normal(2.0, 1.0, 8).astype(np.float32),
                                     rng.uniform(4.0, 12.0, 8).astype(np.float32), batches_tracked=1)
            with T.no_grad():
                out = L.batchnorm_forward(x, gamma, beta, state, False)
                assert np.array_equal(out.data, reference_batchnorm(x, gamma, beta, state).data)
            return
        runs = []
        for out in (L.batchnorm_forward(x, gamma, beta, L.BatchNormState.init(8)),
                    reference_batchnorm(x, gamma, beta)):
            grads = backward(out, proj)
            runs.append([out.data] + [grads[t.node_id].data for t in (x, gamma, beta)])
        (out, gx, gg, gb), (ref_out, ref_gx, ref_gg, ref_gb) = runs
        assert np.array_equal(out, ref_out)
        assert np.array_equal(gg, ref_gg) and np.array_equal(gb, ref_gb)
        assert np.max(np.abs(gx - ref_gx)) <= 8 * np.finfo(np.float32).eps * np.max(np.abs(ref_gx))

    def test_c_order_input_raises(self):
        x = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))        # C order with C >= 2
        with pytest.raises(ContractError, match="NHWC memory.*C-order"):
            L.batchnorm_forward(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), L.BatchNormState.init(3))

    @pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn-relu"])
    def test_eval_builds_no_graph(self, relu):
        # eval mode under gradients with a tracked gamma would build a node:
        # it raises; under no_grad its output is untracked
        x = Tensor(nhwc(np.arange(36, dtype=np.float32).reshape(1, 4, 3, 3)))
        gamma = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(4, dtype=np.float32))
        state = L.BatchNormState(np.zeros(4, np.float32), np.ones(4, np.float32), 1)
        with pytest.raises(ContractError, match="eval mode builds no graph"):
            L.batchnorm_forward(x, gamma, beta, state, False, relu)
        with T.no_grad():
            out = L.batchnorm_forward(x, gamma, beta, state, False, relu)
        assert not out.requires_grad and not isinstance(out, T.Remade)

    @pytest.mark.parametrize("relu", [False, True], ids=["nhwc", "nhwc-relu"])
    def test_train_node_keeps_no_input(self, relu):
        # the node holds xhat, std and gamma, never x, with or without its
        # relu: a conv output dropped by its caller is freed before the
        # backward runs (a closure that captured x kept every conv output of
        # a step alive)
        rng = np.random.default_rng(4)
        data = nhwc(rng.normal(size=(8, 4, 5, 5)).astype(np.float32))
        x = Tensor(data, requires_grad=True)
        refs = [weakref.ref(a) for a in (x.data, x.data.base) if a is not None]
        gamma, beta = Tensor(np.ones(4, np.float32), requires_grad=True), Tensor(np.zeros(4, np.float32))
        out = L.batchnorm_forward(x, gamma, beta, L.BatchNormState.init(4), relu=relu)
        del x, data
        assert all(r() is None for r in refs)
        assert np.isfinite(backward(out, np.ones(out.shape, np.float32))[gamma.node_id].data).all()

    def test_standardizes_batch(self):
        rng = np.random.default_rng(2)
        x = Tensor(nhwc(rng.normal(3.0, 2.5, size=(8, 3, 4, 4)).astype(np.float32)))
        gamma, beta = Tensor(np.ones(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32))
        state = L.BatchNormState.init(3)
        out = L.batchnorm_forward(x, gamma, beta, state).data
        for c in range(3):
            assert abs(out[:, c].mean()) < 1e-4
            assert abs(out[:, c].var() - 1.0) < 1e-3

    def test_affine_shift_scale(self):
        rng = np.random.default_rng(3)
        x = Tensor(nhwc(rng.normal(size=(16, 2, 3, 3)).astype(np.float32)))
        gamma = Tensor(np.full(2, 2.0, dtype=np.float32))
        beta = Tensor(np.full(2, 3.0, dtype=np.float32))
        out = L.batchnorm_forward(x, gamma, beta, L.BatchNormState.init(2)).data
        assert abs(out.mean() - 3.0) < 1e-3
        assert abs(out.std() - 2.0) < 1e-2

    def test_running_stats_updated(self):
        x = Tensor(nhwc(np.ones((4, 2, 2, 2), dtype=np.float32) * 5))
        state = L.BatchNormState.init(2)
        L.batchnorm_forward(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state)
        assert np.allclose(state.running_mean, 0.5)       # 0.9*0 + 0.1*5
        assert np.allclose(state.running_var, 0.9)        # 0.9*1 + 0.1*0
        assert state.batches_tracked == 1
        assert np.all(state.running_var > 0)

    @pytest.mark.parametrize("relu, skip", [(False, False), (True, False), (False, True)],
                             ids=["bn", "bn-relu", "tail"])
    def test_only_a_grad_mode_call_updates_running_stats(self, relu, skip):
        # a guided step runs each block twice, under no_grad and then in its
        # re-forward: both give the same bits, and the statistics move once
        rng = np.random.default_rng(11)
        x = Tensor(nhwc(rng.normal(1.0, 2.0, size=(4, 3, 5, 5)).astype(np.float32)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        s = Tensor(rng.normal(size=x.shape).astype(np.float32), requires_grad=True) if skip else None
        state = L.BatchNormState.init(3)
        with T.no_grad():
            quiet = L.batchnorm_forward(x, gamma, beta, state, True, relu, s)
        assert not quiet.requires_grad
        assert np.array_equal(state.running_mean, np.zeros(3)) and np.array_equal(state.running_var, np.ones(3))
        assert state.batches_tracked == 0
        loud = L.batchnorm_forward(x, gamma, beta, state, True, relu, s)
        assert loud.requires_grad
        assert quiet.data.tobytes() == loud.data.tobytes() and quiet.data.strides == loud.data.strides
        assert state.batches_tracked == 1
        assert np.allclose(state.running_mean, 0.1 * x.data.mean(axis=(0, 2, 3)), rtol=1e-5, atol=1e-7)
        assert np.allclose(state.running_var, 0.9 + 0.1 * x.data.var(axis=(0, 2, 3)), rtol=1e-5)

    def test_eval_uses_running_stats(self):
        state = L.BatchNormState.init(1)
        state.running_mean[:] = 1.0
        state.running_var[:] = 4.0
        state.batches_tracked = 1
        x = Tensor(np.full((1, 1, 1, 2), 3.0, dtype=np.float32))
        with T.no_grad():
            out = L.batchnorm_forward(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, train=False)
        assert np.allclose(out.data, (3 - 1) / np.sqrt(4 + 1e-5), atol=1e-6)

    def test_eval_empty_state_error(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with T.no_grad(), pytest.raises(ContractError, match="eval mode before any train-mode batch"):
            L.batchnorm_forward(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                                L.BatchNormState.init(1), train=False)

    def test_gradcheck(self):
        assert run_case("batchnorm", seed=0) < 1e-3


def unfused_bn_forward(bn, x, train=True, relu=False, skip=None):
    """``BatchNorm2d.forward`` as ``tensor.relu`` of a plain batchnorm node,
    plus ``skip`` through a test-local sum node, whose output the next conv
    keeps as an array.  The sum takes the batchnorm output's NHWC memory,
    as an add in place into that output lays it out, whatever the skip's
    layout."""
    out = L.batchnorm_forward(x, bn.gamma, bn.beta, bn.state, train)
    if skip is not None:
        total = np.add(out.data, skip.data, out=np.empty_like(out.data))
        out = T.apply_op(total, [(out, lambda g: g), (skip, lambda g: g)])
    return T.relu(out) if relu or skip is not None else out


class TestBatchNormRelu:
    """Batchnorm with the relu after it, or with a residual unit's skip add
    and relu, is one node that keeps no output: it and the conv reading it
    rebuild the output.  Against ``tensor.relu`` of a batchnorm (plus the
    skip) feeding a conv that keeps its input, every byte of the outputs and
    gradients matches, and in eval mode, which builds no graph, every byte
    of the outputs."""

    @staticmethod
    def _input(train, nonfinite):
        # [N,C,H,W] in NHWC memory: normal values with -0.0 scattered in
        # and, if ``nonfinite``, NaN, +inf and -inf; in train mode all
        # three go in channel 1, whose statistics any one of them makes NaN
        a = np.random.default_rng(5).normal(size=(6, 5, 5, 4)).astype(np.float32)
        a.reshape(-1)[3::7] = -0.0
        if nonfinite:
            a[0, 0, 0, 1] = np.nan
            a[2, 4, 4, 1 if train else 2] = np.inf
            a[5, 2, 0, 1 if train else 3] = -np.inf
        return a.transpose(0, 3, 1, 2)

    @staticmethod
    def _affine():
        return np.array([1.5, 0.5, 1.0, 2.0], np.float32), np.array([-0.0, 0.25, -0.5, 0.1], np.float32)

    @staticmethod
    def _state(train):
        if train:
            return L.BatchNormState.init(4)
        return L.BatchNormState(np.array([0.0, 0.5, -0.5, 1.0], np.float32),
                                np.array([1.0, 2.0, 0.5, 4.0], np.float32), 1)

    @classmethod
    def _chain(cls, data, train, fused):
        # bn (+ relu) -> 3x3 "same" conv, seeded with a fixed projection;
        # in eval mode, under no_grad, only the outputs: channel 0 has
        # running mean 0 and beta -0.0, so an input of -0.0 reaches the
        # relu as -0.0
        rng = np.random.default_rng(6)
        x = Tensor(data, requires_grad=True)
        gamma, beta = (Tensor(p, requires_grad=True) for p in cls._affine())
        w = Tensor(rng.normal(size=(3, 4, 3, 3)).astype(np.float32), requires_grad=True)
        state = cls._state(train)

        def forward():
            if fused:
                return L.batchnorm_forward(x, gamma, beta, state, train, relu=True)
            return T.relu(L.batchnorm_forward(x, gamma, beta, state, train))
        if not train:
            with T.no_grad():
                y = forward()
                return [y.data, L.conv2d_forward(y, w, 1, 1).data]
        y = forward()
        assert isinstance(y, T.Remade) == fused
        assert not fused or y.remake() is y.data         # while held, the array itself
        out = L.conv2d_forward(y, w, 1, 1)
        # y's bytes and strides, in an array of the test's own, so the
        # output dies with y and remake() rebuilds it
        y_data = np.empty_like(y.data)
        y_data[...] = y.data
        remake, alive = (y.remake, weakref.ref(y.data)) if fused else (None, None)
        del y
        assert not fused or alive() is None
        remade = remake() if fused else y_data
        grads = backward(out, rng.normal(size=out.shape).astype(np.float32))
        return [y_data, remade, out.data] + [grads[t.node_id].data for t in (x, gamma, beta, w)]

    @pytest.mark.parametrize("nonfinite", [False, True], ids=["finite", "nonfinite"])
    @pytest.mark.parametrize("train", [True, False], ids=["nhwc", "nhwc-eval"])
    def test_node_matches_unfused(self, train, nonfinite):
        data = self._input(train, nonfinite)
        with np.errstate(invalid="ignore"):
            fused = self._chain(data, train, True)
            ref = self._chain(data, train, False)
        # y, its remake, the conv output, dx, dgamma, dbeta, dW; in eval
        # mode y and the conv output
        assert len(fused) == len(ref) == (7 if train else 2)
        for a, b in zip(fused, ref):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes() and a.strides == b.strides
        y = fused[0]
        assert np.isnan(y).any() == nonfinite and y.transpose(0, 2, 3, 1).flags.c_contiguous
        if not train:                            # the relu meets -0.0
            pre = L.batchnorm_forward(Tensor(data), *map(Tensor, self._affine()), self._state(False), False).data
            assert (np.signbit(pre) & (pre == 0)).any()

    @pytest.mark.parametrize("skip", ["remade", "c-order", "untracked"])
    @pytest.mark.parametrize("train", [True, False], ids=["nhwc", "nhwc-eval"])
    def test_tail_matches_unfused(self, train, skip):
        # relu(bn(x) + skip) feeding a conv, against bn, a sum node and
        # tensor.relu: the skip another fused node's output, a tracked
        # C-order leaf (added in place, so the output keeps NHWC strides)
        # or an untracked NHWC tensor
        data = self._input(train, nonfinite=False)

        def run(fused):
            rng = np.random.default_rng(10)
            x = Tensor(data, requires_grad=True)
            gamma, beta = (Tensor(p, requires_grad=True) for p in self._affine())
            src = Tensor(nhwc(rng.normal(size=data.shape).astype(np.float32)), requires_grad=skip != "untracked")
            w = Tensor(rng.normal(size=(3, 4, 3, 3)).astype(np.float32), requires_grad=True)
            if skip == "c-order":
                src.data = np.ascontiguousarray(src.data)
            bn = L.BatchNorm2d(4)
            bn.gamma.data[...], bn.beta.data[...] = self._affine()[::-1]
            bn.state = self._state(train)
            tail = L.BatchNorm2d(4)
            tail.gamma, tail.beta, tail.state = gamma, beta, self._state(train)
            forward = L.BatchNorm2d.forward if fused else unfused_bn_forward

            def chain():
                s = forward(bn, src, train, relu=True) if skip == "remade" else src
                y = forward(tail, x, train, skip=s)
                return y, L.conv2d_forward(y, w, 1, 1)
            if not train:
                with T.no_grad():
                    return [a.data for a in chain()]
            y, out = chain()
            assert isinstance(y, T.Remade) == fused
            grads = backward(out, rng.normal(size=out.shape).astype(np.float32))
            leaves = [x, gamma, beta, w] + [src] * (skip != "untracked") + [bn.gamma, bn.beta] * (skip == "remade")
            return [y.data, out.data] + [grads[t.node_id].data for t in leaves]

        fused, ref = run(True), run(False)
        assert len(fused) == len(ref) == ({"remade": 9, "c-order": 7, "untracked": 6}[skip] if train else 2)
        for a, b in zip(fused, ref):
            assert a.tobytes() == b.tobytes() and a.strides == b.strides
        assert fused[0].transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_units_match_unfused(self, layout, monkeypatch):
        # a stem and two residual units (the second with a projection):
        # unit outputs and every gradient, fused against the unfused forward
        remade = []
        real_conv = L.conv2d_forward
        monkeypatch.setattr(L, "conv2d_forward",
                            lambda x, *args: remade.append(isinstance(x, T.Remade)) or real_conv(x, *args))

        def run():
            rng = np.random.default_rng(7)
            units = [StemUnit(3, 8, rng=rng), ResidualUnit(8, 8, 1, rng=rng), ResidualUnit(8, 16, 2, rng=rng)]
            data = rng.normal(size=(8, 6, 6, 3)).astype(np.float32)
            data.reshape(-1)[2::9] = -0.0
            data = data.transpose(0, 3, 1, 2)
            x = Tensor(data if layout == "nhwc" else np.ascontiguousarray(data), requires_grad=True)
            h = x
            for u in units:
                h = u.forward(h, train=True)
            grads = backward(h, output_gradient(rng, h.shape, nonfinite=False))
            params = [p for i, u in enumerate(units) for _, p in u.named_params(f"u{i}")]
            return [h.data] + [grads[t.node_id].data for t in [x] + params]

        fused = run()
        # the stem's output feeds unit 1's conv1, each unit's bn1 its conv2,
        # and unit 1's output unit 2's conv1 and projection
        assert remade == [False, True, True, True, True, True]
        monkeypatch.setattr(L.BatchNorm2d, "forward", unfused_bn_forward)
        ref = run()
        assert remade[6:] == [False] * 6
        assert len(fused) == len(ref) == 2 + 18         # h, x and 18 parameters
        for a, b in zip(fused, ref):
            assert a.tobytes() == b.tobytes() and a.strides == b.strides

    @pytest.mark.parametrize("step, units, fused", [(local_epoch, 4, 7), (guided_epoch, 7, 12)],
                             ids=["local", "guided"])
    def test_output_dies_with_its_unit(self, step, units, fused, monkeypatch):
        # no grad_fn keeps a fused output: a residual unit's bn1 output is
        # freed before its tail runs, and the stem's or a unit's own output
        # once the next unit's forward returns, unless the step holds it as
        # a block's output.  A guided step runs block 1's stem and two units
        # twice, in its no-grad pass and in their re-forward
        made, checked, tails = [], [], []
        real_bn = L.batchnorm_forward

        def bn(x, gamma, beta, state, train=True, relu=False, skip=None):
            if skip is not None:                          # made[-1] is this unit's bn1 output
                tails.append(made[-1]() is None)
            out = real_bn(x, gamma, beta, state, train, relu, skip)
            if relu or skip is not None:
                made.append(weakref.ref(out.data))
            return out

        def watch(forward):
            def wrapped(unit, x, train=True):
                out = forward(unit, x, train)
                live = [r() for r in made if r() is not None]
                checked.append(all(a is out.data or a is x.data for a in live))
                return out
            return wrapped

        monkeypatch.setattr(L, "batchnorm_forward", bn)
        for cls in (StemUnit, ResidualUnit):
            monkeypatch.setattr(cls, "forward", watch(cls.forward))
        model = DecoupledModel(RESNET8[0], RESNET8[1], "aux_adapt", seed=0)
        rng = np.random.default_rng(8)
        batch = [(rng.normal(size=RESNET8[2]).astype(np.float32), rng.integers(0, 3, size=16))]
        step(model, batch, NesterovSGD(), 0.1)
        assert len(checked) == units and len(made) == fused     # stems, units' bn1 and tails
        assert all(checked) and tails == [True] * len(tails) and len(tails) == fused - units
        assert all(r() is None for r in made)


class TestChannelSums:
    """Batchnorm's channel sums return np.add.reduce's and np.mean's bits
    over (N, H, W).  Every batchnorm input the ResNets build is NHWC memory
    with C >= 2, which ``einsum`` sums; C = 1 keeps numpy's reduction, since
    einsum's sum of a single column has other bits."""

    @staticmethod
    def _input(shape, dtype):
        # NHWC memory: normal values with -0.0 scattered in; with C >= 2,
        # NaN, +inf and -inf (NaN with the +inf when C = 2); with C > 3, a
        # channel of -0.0 only
        n, c, h, w = shape
        a = np.random.default_rng(shape).normal(size=(n, h, w, c)).astype(dtype)
        a.reshape(-1)[3::5] = -0.0
        if c >= 2:
            a[0, 0, 0, 0] = np.nan
            a[-1, -1, -1, 1] = np.inf
            a[0, -1, 0, c - 1] = -np.inf
        if c > 3:
            a[..., 3] = -0.0
        return a.transpose(0, 3, 1, 2)

    @staticmethod
    def _check(a, monkeypatch):
        # the einsum calls the two sums made
        calls = []
        real = np.einsum
        with np.errstate(invalid="ignore"), monkeypatch.context() as m:
            m.setattr(np, "einsum", lambda *args: calls.append(args[0]) or real(*args))
            assert L._channel_sum(a).tobytes() == np.add.reduce(a, axis=(0, 2, 3)).tobytes()
            assert L._channel_mean(a).tobytes() == np.mean(a, axis=(0, 2, 3)).tobytes()
        return len(calls)

    @pytest.mark.parametrize("spec, J, shape", [RESNET8, RESNET8[:2] + ((8, 3, 8, 8),), RESNET20_IMG16],
                             ids=["resnet8", "resnet8-last-batch", "resnet20-img16"])
    def test_every_network_batchnorm(self, spec, J, shape, monkeypatch):
        inputs = network_calls("batchnorm_forward",
                               lambda x, *rest: (x.shape, x.data.transpose(0, 2, 3, 1).flags.c_contiguous),
                               spec, J, shape, monkeypatch)
        assert all(nhwc and s[1] >= 2 for s, nhwc in inputs)
        for s, _ in inputs:
            for dtype in (np.float32, np.float64):
                assert self._check(self._input(s, dtype), monkeypatch) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_other_layouts_keep_numpys_reduction(self, dtype, monkeypatch):
        a = self._input((4, 1, 6, 6), dtype)              # C = 1: NHWC and NCHW at once
        assert self._check(a, monkeypatch) == 0
        b = np.ascontiguousarray(self._input((4, 5, 6, 6), dtype))
        assert self._check(b, monkeypatch) == 0
        assert self._check(b[:, :, ::2], monkeypatch) == 0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = L.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert abs(loss.item() - np.log(10)) < 1e-6

    def test_confident_correct(self):
        logits = np.zeros((2, 5), dtype=np.float32)
        labels = np.array([1, 3])
        logits[np.arange(2), labels] = 20.0
        assert L.softmax_cross_entropy(Tensor(logits), labels).item() < 1e-6

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            logits = Tensor(rng.normal(size=(6, 4)).astype(np.float32) * 5)
            labels = rng.integers(0, 4, size=6)
            assert L.softmax_cross_entropy(logits, labels).item() >= 0

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 4)).astype(np.float32)
        labels = np.array([0, 2, 1])
        logits = Tensor(z, requires_grad=True)
        g = backward(L.softmax_cross_entropy(logits, labels))[logits.node_id].data
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        softmax = ez / ez.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        assert np.allclose(g, (softmax - onehot) / 3, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            L.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    def test_gradcheck(self):
        assert run_case("cross_entropy", seed=0) < 1e-4


class TestResidualBlock:
    def _zero_convs(self, block):
        block.conv1.weight.data[:] = 0
        block.conv2.weight.data[:] = 0
        if block.proj is not None:
            block.proj.weight.data[:] = 0

    def test_zero_weights_act_as_relu_skip(self):
        rng = np.random.default_rng(0)
        block = ResidualUnit(3, 3, 1, rng=rng)
        self._zero_convs(block)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = block.forward(Tensor(x), train=True)
        assert np.array_equal(out.data, np.maximum(x, 0))

    def test_identity_on_nonnegative_input(self):
        rng = np.random.default_rng(1)
        block = ResidualUnit(2, 2, 1, rng=rng)
        assert block.proj is None
        self._zero_convs(block)
        x = np.abs(rng.normal(size=(1, 2, 3, 3))).astype(np.float32)
        out = block.forward(Tensor(x), train=True)
        assert np.array_equal(out.data, x)

    def test_stride_halves_spatial(self):
        rng = np.random.default_rng(2)
        block = ResidualUnit(4, 8, 2, rng=rng)
        assert block.proj is not None
        out = block.forward(Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32)), train=True)
        assert out.shape == (1, 8, 4, 4)

    def test_channel_mismatch(self):
        block = ResidualUnit(3, 3, 1, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            block.forward(Tensor(np.zeros((1, 5, 4, 4), dtype=np.float32)))

    def test_gradcheck(self):
        assert run_case("residual_block", seed=0) < 1e-3


class TestInit:
    def test_linear_shapes(self):
        lin = L.Linear(2, 3, rng=np.random.default_rng(0))
        assert lin.weight.shape == (2, 3)
        assert lin.bias.shape == (3,) and np.all(lin.bias.data == 0)

    def test_batchnorm_init(self):
        bn = L.BatchNorm2d(16)
        assert np.all(bn.gamma.data == 1) and np.all(bn.beta.data == 0)

    def test_same_seed_bit_identical(self):
        a = L.Conv2d(3, 8, 3, rng=np.random.default_rng(12))
        b = L.Conv2d(3, 8, 3, rng=np.random.default_rng(12))
        assert np.array_equal(a.weight.data, b.weight.data)


class TestPooling:
    def test_global_avg_pool(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        out = L.global_avg_pool(x)
        assert out.data.tolist() == [[1.5, 5.5]]

    def test_backward_distributes(self):
        # each window's four inputs get a quarter of its output gradient
        x = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        seed = np.arange(6.0).reshape(2, 3)
        g = backward(L.global_avg_pool(x), seed)[x.node_id].data
        assert np.array_equal(g, np.broadcast_to(seed[:, :, None, None] / 4, x.shape))

    def test_gradcheck(self):
        assert run_case("global_avg_pool", seed=0) < 1e-4


class TestGradcheckCoverage:
    @staticmethod
    def _graph_ops():
        """Public functions of pgl.tensor and pgl.layers that build a graph node."""
        for mod in (T, L):
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name != "apply_op"
                        and "apply_op(" in inspect.getsource(fn)):
                    yield mod, name

    @classmethod
    def _spy(cls, monkeypatch):
        """Wrap every graph op; returns (their names, {name: the bound
        arguments of each call so far})."""
        ops = list(cls._graph_ops())
        called = {}

        def spy(mod, name, fn):
            sig = inspect.signature(fn)

            def wrapped(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                called.setdefault(f"{mod.__name__}.{name}", []).append(bound.arguments)
                return fn(*args, **kwargs)
            return wrapped

        for mod, name in ops:
            monkeypatch.setattr(mod, name, spy(mod, name, getattr(mod, name)))
        return {f"{mod.__name__}.{name}" for mod, name in ops}, called

    def test_every_graph_op_is_gradchecked(self, monkeypatch):
        names, called = self._spy(monkeypatch)
        assert {"pgl.tensor.relu", "pgl.layers.conv2d_forward",
                "pgl.layers.batchnorm_forward"} <= names
        assert "pgl.layers.im2col" not in names
        for _, gen, _ in G.CASES:
            for inputs, f, _ in gen(np.random.default_rng(0)):
                f(inputs)
        assert names - set(called) == set()
        # batchnorm runs as the networks run it: on NHWC memory in train mode
        bn = called["pgl.layers.batchnorm_forward"]
        assert all(a["x"].data.transpose(0, 2, 3, 1).flags.c_contiguous and a["train"] for a in bn)
        assert any(a["x"].shape[1] >= 2 for a in bn)

    def test_every_graph_op_is_reached_by_a_run(self, monkeypatch):
        # no graph op is kept that training and evaluation never build
        names, called = self._spy(monkeypatch)
        rng = np.random.default_rng(0)
        for spec, in_shape in [(MlpSpec(widths=[4, 4], num_classes=3), (2,)),
                               (ResNetSpec(depth=8, num_classes=3, input_hw=4), (3, 4, 4))]:
            model = DecoupledModel(spec, 2, "aux_adapt", seed=0)
            batch_list = [(rng.normal(size=(6,) + in_shape).astype(np.float32),
                           np.array([0, 1, 2, 0, 1, 2]))]
            opt = NesterovSGD()
            local_epoch(model, batch_list, opt, 0.01)
            guided_epoch(model, batch_list, opt, 0.01)
            evaluate(model, batch_list)
        assert names - set(called) == set()
