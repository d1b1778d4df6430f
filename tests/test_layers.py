"""Layer library: forward values against hand/sliding-window oracles,
finite-difference gradient checks, the fused conv and batchnorm against
their unfused graph compositions, and the reach of every graph op."""

import inspect
import tracemalloc

import numpy as np
import pytest

import pgl.gradcheck as G
import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ContractError, DataError, ShapeError
from pgl.gradcheck import run_case
from pgl.network import DecoupledModel, HeadConv, MlpSpec, ResNetSpec, StemUnit
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
        # (the weight gradient rebuilds one column matrix by design)
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
        units = [StemUnit(3, 8, rng), L.ResidualBasic(8, 8, 1, rng), L.ResidualBasic(8, 16, 2, rng)]
        x = Tensor(rng.normal(size=(16, 3, 8, 8)).astype(np.float32), requires_grad=True)
        # an aux head's 3x3 stride-2 conv -> relu on the relu'd boundary after
        # unit 1, whose gradient then sums the head's and the backbone's
        head = HeadConv(8, rng)
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


def reference_batchnorm(x, gamma, beta, eps=1e-5):
    """The unfused train-mode batchnorm: eleven test-local graph nodes (two
    per-channel means, the centring, the square, the eps add, the square
    root, the division, two reshapes, the scale and the shift).  A
    per-channel operand's gradient sums over the broadcast axes."""
    c, axes = x.shape[1], (0, 2, 3)

    def mean(t):                                 # over (N, H, W), keepdims
        shape, count = t.shape, t.shape[0] * t.shape[2] * t.shape[3]
        return T.apply_op(t.data.mean(axis=axes, keepdims=True),
                          [(t, lambda g: np.broadcast_to(g, shape) / count)])

    mu = mean(x)
    xc = T.apply_op(x.data - mu.data, [
        (x, lambda g: g),
        (mu, lambda g: (-g).sum(axis=axes, keepdims=True)),
    ])
    xcd = xc.data
    var = mean(T.apply_op(xcd * xcd, [(xc, lambda g: g * xcd), (xc, lambda g: g * xcd)]))
    var_eps = T.apply_op(var.data + np.float32(eps), [(var, lambda g: g)])
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
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_matches_unfused_composition(self, layout):
        # same forward arithmetic, bit for bit; the closed-form input gradient
        # reorders float32 sums, so it agrees to a few ulps of the largest entry
        rng = np.random.default_rng(3)
        data = rng.normal(2.0, 3.0, size=(32, 8, 6, 6)).astype(np.float32)
        if layout == "nhwc":                     # a conv output's memory order
            data = np.ascontiguousarray(data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        x = Tensor(data, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 8).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
        proj = rng.normal(size=data.shape).astype(np.float32)
        runs = []
        for out in (L.batchnorm_forward(x, gamma, beta, L.BatchNormState.init(8)),
                    reference_batchnorm(x, gamma, beta)):
            grads = backward(out, proj)
            runs.append([out.data] + [grads[t.node_id].data for t in (x, gamma, beta)])
        (out, gx, gg, gb), (ref_out, ref_gx, ref_gg, ref_gb) = runs
        assert np.array_equal(out, ref_out)
        assert np.array_equal(gg, ref_gg) and np.array_equal(gb, ref_gb)
        assert np.max(np.abs(gx - ref_gx)) <= 8 * np.finfo(np.float32).eps * np.max(np.abs(ref_gx))

    def test_standardizes_batch(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(3.0, 2.5, size=(8, 3, 4, 4)).astype(np.float32))
        gamma, beta = Tensor(np.ones(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32))
        state = L.BatchNormState.init(3)
        out = L.batchnorm_forward(x, gamma, beta, state).data
        for c in range(3):
            assert abs(out[:, c].mean()) < 1e-4
            assert abs(out[:, c].var() - 1.0) < 1e-3

    def test_affine_shift_scale(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(16, 2, 3, 3)).astype(np.float32))
        gamma = Tensor(np.full(2, 2.0, dtype=np.float32))
        beta = Tensor(np.full(2, 3.0, dtype=np.float32))
        out = L.batchnorm_forward(x, gamma, beta, L.BatchNormState.init(2)).data
        assert abs(out.mean() - 3.0) < 1e-3
        assert abs(out.std() - 2.0) < 1e-2

    def test_running_stats_updated(self):
        x = Tensor(np.ones((4, 2, 2, 2), dtype=np.float32) * 5)
        state = L.BatchNormState.init(2)
        L.batchnorm_forward(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state)
        assert np.allclose(state.running_mean, 0.5)       # 0.9*0 + 0.1*5
        assert np.allclose(state.running_var, 0.9)        # 0.9*1 + 0.1*0
        assert state.batches_tracked == 1
        assert np.all(state.running_var > 0)

    def test_eval_uses_running_stats(self):
        state = L.BatchNormState.init(1)
        state.running_mean[:] = 1.0
        state.running_var[:] = 4.0
        state.batches_tracked = 1
        x = Tensor(np.full((1, 1, 1, 2), 3.0, dtype=np.float32))
        out = L.batchnorm_forward(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, train=False)
        assert np.allclose(out.data, (3 - 1) / np.sqrt(4 + 1e-5), atol=1e-6)

    def test_eval_empty_state_error(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ContractError):
            L.batchnorm_forward(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                                L.BatchNormState.init(1), train=False)

    def test_gradcheck(self):
        assert run_case("batchnorm", seed=0) < 1e-3


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
        block.conv1.w.data[:] = 0
        block.conv2.w.data[:] = 0
        if block.proj is not None:
            block.proj.w.data[:] = 0

    def test_zero_weights_act_as_relu_skip(self):
        rng = np.random.default_rng(0)
        block = L.ResidualBasic(3, 3, 1, rng)
        self._zero_convs(block)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = block.forward(Tensor(x), train=True)
        assert np.array_equal(out.data, np.maximum(x, 0))

    def test_identity_on_nonnegative_input(self):
        rng = np.random.default_rng(1)
        block = L.ResidualBasic(2, 2, 1, rng)
        assert block.proj is None
        self._zero_convs(block)
        x = np.abs(rng.normal(size=(1, 2, 3, 3))).astype(np.float32)
        out = block.forward(Tensor(x), train=True)
        assert np.array_equal(out.data, x)

    def test_stride_halves_spatial(self):
        rng = np.random.default_rng(2)
        block = L.ResidualBasic(4, 8, 2, rng)
        assert block.proj is not None
        out = block.forward(Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32)), train=True)
        assert out.shape == (1, 8, 4, 4)

    def test_channel_mismatch(self):
        block = L.ResidualBasic(3, 3, 1, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            block.forward(Tensor(np.zeros((1, 5, 4, 4), dtype=np.float32)))

    def test_gradcheck(self):
        assert run_case("residual_block", seed=0) < 1e-3


class TestInit:
    def test_linear_shapes(self):
        lin = L.Linear(2, 3, np.random.default_rng(0))
        assert lin.w.shape == (2, 3)
        assert lin.b.shape == (3,) and np.all(lin.b.data == 0)

    def test_batchnorm_init(self):
        bn = L.BatchNorm2d(16)
        assert np.all(bn.gamma.data == 1) and np.all(bn.beta.data == 0)

    def test_same_seed_bit_identical(self):
        a = L.Conv2d(3, 8, 3, np.random.default_rng(12))
        b = L.Conv2d(3, 8, 3, np.random.default_rng(12))
        assert np.array_equal(a.w.data, b.w.data)


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
        """Wrap every graph op; returns (their names, the names called so far)."""
        ops = list(cls._graph_ops())
        called = set()

        def spy(mod, name, fn):
            def wrapped(*args, **kwargs):
                called.add(f"{mod.__name__}.{name}")
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
        assert names - called == set()

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
        assert names - called == set()
