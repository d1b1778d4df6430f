"""Tensor core: creation rules, primitive forward values, graph backward."""

import gc
import weakref

import numpy as np
import pytest

import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ContractError, ShapeError
from pgl.gradcheck import run_case
from pgl.tensor import Tensor, backward, create


def mul(a, b):
    """A test-local elementwise product node, for graphs whose gradients
    need a product; the core keeps no such op."""
    ad, bd = a.data, b.data
    return T.apply_op(ad * bd, [(a, lambda g: g * bd), (b, lambda g: g * ad)])


def scale(a, c):
    """A test-local node a * c for a constant c."""
    return T.apply_op(a.data * c, [(a, lambda g: g * c)])


def ones(t):
    return np.ones_like(t.data)


class TestCreate:
    def test_zeros(self):
        t = create((2, 2), "zeros")
        assert t.data.tolist() == [[0, 0], [0, 0]]
        assert t.dtype == np.float32

    def test_ones(self):
        assert create((2,), "ones").data.tolist() == [1, 1]

    def test_kaiming_deterministic(self):
        a = create((4, 4), "kaiming_normal", rng=7)
        b = create((4, 4), "kaiming_normal", rng=7)
        assert np.array_equal(a.data, b.data)

    def test_kaiming_std(self):
        t = create((2000, 16), ("kaiming_normal", 2000), rng=0)
        assert abs(t.data.std() - np.sqrt(2 / 2000)) < 0.002

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (-1, 3)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ShapeError):
            create(shape, "zeros")


class TestElementwise:
    def test_relu(self):
        assert T.relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0, 0, 2]

    def test_add(self):
        assert T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data.tolist() == [4, 6]

    def test_shape_mismatch(self):
        # add is the same-shape residual add; it broadcasts nothing
        for a, b in [((3,), (4,)), ((2, 3), (1, 3)), ((2, 3), (3,))]:
            with pytest.raises(ShapeError):
                T.add(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_relu_grad_zero_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = T.relu(x)
        g = backward(out, ones(out))
        assert g[x.node_id].data.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_passes_nan_with_zero_gradient(self, dtype):
        # a diverging activation stays NaN, so the per-epoch loss check sees it
        x = Tensor(np.array([np.nan, -1.0, 2.0], dtype=dtype), requires_grad=True)
        out = T.relu(x)
        assert out.dtype == dtype
        assert np.isnan(out.data[0]) and out.data[1:].tolist() == [0, 2]
        g = backward(out, ones(out))
        assert g[x.node_id].data.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("case", ["nchw_g_nhwc_mask", "nhwc_g_nhwc_mask", "2d"])
    def test_relu_backward_is_g_times_mask(self, case):
        # relu copies the mask into g's memory order before multiplying; the
        # result must keep g * mask's bits (signed zeros, NaN) and strides
        rng = np.random.default_rng(5)
        shape = (7, 9) if case == "2d" else (4, 6, 5, 3)      # 2-D, or [N,H,W,C]
        a = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        a.reshape(-1)[::7] = 0.0
        g.reshape(-1)[::11] = np.nan
        if case != "2d":
            a = a.transpose(0, 3, 1, 2)                         # NCHW view of NHWC memory
            g = g.transpose(0, 3, 1, 2)
            if case == "nchw_g_nhwc_mask":
                g = np.ascontiguousarray(g)
        out = T.relu(Tensor(a, requires_grad=True))
        (_, grad_fn), = out.parents
        got, ref = grad_fn(g), g * (a > 0)
        assert got.dtype == ref.dtype and got.strides == ref.strides
        assert got.tobytes() == ref.tobytes()


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = mul(x, x)
        g = backward(out, ones(out))
        assert g[x.node_id].data.tolist() == [2, 4, 6]

    def test_detach_blocks_one_path(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = mul(x.detach(), x)
        g = backward(out, ones(out))
        assert g[x.node_id].data.tolist() == [1, 2, 3]

    def test_non_scalar_loss_rejected(self):
        # without a seed gradient, backward needs a scalar loss
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.relu(x))

    def test_unreachable_absent(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([2.0], requires_grad=True)
        g = backward(T.relu(x), np.ones(1))
        assert x.node_id in g and z.node_id not in g

    def test_accumulation_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = T.add(mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
        g = backward(y, ones(y))
        assert g[x.node_id].data.tolist() == [5]

    def test_returns_leaf_gradients_only(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        w = Tensor([[3.0], [4.0]], requires_grad=True)
        out = T.relu(L.linear_forward(x, w, Tensor([0.0])))
        g = backward(out, ones(out))
        assert set(g) == {x.node_id, w.node_id}

    def test_sum_order_follows_creation(self):
        # x feeds three products; their terms reach x newest first, so the
        # float32 sum is (1e8 + -1e8) + 1 = 1, where oldest first gives 0
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        c1, c2, c3 = scale(x, 1.0), scale(x, -1e8), scale(x, 1e8)
        out = T.add(T.add(c1, c2), c3)
        g = backward(out, ones(out))
        assert g[x.node_id].data.tolist() == [1.0]

    def test_linearity(self):
        # grad(a*f + b*g) == a*grad f + b*grad g for scalar a, b
        rng = np.random.default_rng(11)
        xv = rng.uniform(-1, 1, size=5)
        for a, b in [(-2.0, 0.5), (0.5, 3.0), (3.0, -2.0)]:
            x = Tensor(xv.copy(), requires_grad=True)
            combo = T.add(scale(mul(x, x), a), scale(mul(T.relu(x), x), b))
            combo = backward(combo, ones(combo))[x.node_id].data
            x2 = Tensor(xv.copy(), requires_grad=True)
            gf = backward(mul(x2, x2), np.ones(5))[x2.node_id].data
            x3 = Tensor(xv.copy(), requires_grad=True)
            gg = backward(mul(T.relu(x3), x3), np.ones(5))[x3.node_id].data
            assert np.allclose(combo, a * gf + b * gg, atol=1e-5)


class TestSeededBackward:
    """``backward(out, grad)`` walks the graph from an output gradient: the
    vector-Jacobian product."""

    def test_hand_computed_product_through_linear_relu(self):
        x, w, b = (Tensor(np.array(v, dtype=np.float32), requires_grad=True)
                   for v in ([[1, 2]], [[1, -2], [3, 1]], [0.5, -1]))
        out = T.relu(L.linear_forward(x, w, b))          # relu([[7.5, -1]]) = [[7.5, 0]]
        g = backward(out, [[2.0, 5.0]])                  # a float64 seed, taken as float32
        gm = [[2.0, 0.0]]                                # seed * relu mask
        assert g[x.node_id].data.tolist() == [[2.0, 6.0]]          # gm @ w.T
        assert g[w.node_id].data.tolist() == [[2.0, 0.0], [4.0, 0.0]]  # x.T @ gm
        assert g[b.node_id].data.tolist() == gm[0]
        assert all(g[t.node_id].dtype == np.float32 for t in (x, w, b))

    @pytest.mark.parametrize("shape", [(2,), (1, 3), ()], ids=["length", "rank", "scalar"])
    def test_wrong_shape_seed_rejected(self, shape):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.relu(x), np.ones(shape))


class TestDetach:
    def test_values_bit_equal(self):
        x = Tensor([1.0, 2.0])
        d = x.detach()
        assert np.array_equal(d.data, x.data)
        assert not d.requires_grad

    def test_all_detached_inputs_give_empty_gradmap(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.add(x.detach(), x.detach())
        assert not y.requires_grad
        assert backward(y, ones(y)) == {}

    def test_ops_on_untracked_tensors_leave_tape_empty(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        out = T.relu(T.add(T.add(a, b), a))
        assert out.parents == () and not out.requires_grad

    def test_no_grad_builds_no_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            out = T.relu(T.add(x, x))
        assert out.parents == () and not out.requires_grad
        assert T.relu(x).requires_grad

    def test_upstream_producer_gets_no_gradient(self):
        w = Tensor([3.0], requires_grad=True)
        mid = T.add(w, w)
        out = T.add(mid.detach(), Tensor([2.0], requires_grad=True))
        g = backward(out, ones(out))
        assert w.node_id not in g and mid.node_id not in g


class TestGraphLifetime:
    """A node holds no array: an activation lives while a Python reference or
    a grad_fn that reads it reaches it, and ``backward`` releases the graph."""

    def test_interior_activation_lives_as_long_as_the_loss(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        hidden = T.relu(T.add(x, x))
        alive = weakref.ref(hidden.data)
        w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = L.linear_forward(hidden, w, Tensor(np.zeros(2, dtype=np.float32)))  # dW reads hidden
        del hidden
        gc.collect()
        assert alive() is not None
        del out
        gc.collect()
        assert alive() is None

    @staticmethod
    def _mlp(rng, x=None):
        if x is None:
            x = Tensor(rng.normal(size=(8, 5)).astype(np.float32))
        w1, w2 = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in [(5, 6), (6, 3)])
        b1, b2 = (Tensor(np.zeros(d, dtype=np.float32), requires_grad=True) for d in (6, 3))
        h = L.linear_forward(x, w1, b1)
        r = T.relu(h)
        loss = L.softmax_cross_entropy(L.linear_forward(r, w2, b2), [0, 1, 2, 0, 1, 2, 0, 1])
        return h, r, loss

    def test_unread_linear_output_is_collected(self):
        h, r, loss = self._mlp(np.random.default_rng(0))
        lin_out, lin_in = weakref.ref(h.data), weakref.ref(r.data)
        del h, r
        gc.collect()
        assert lin_out() is None          # relu keeps only its mask
        assert lin_in() is not None       # the second linear's dW reads its input
        assert loss.requires_grad

    def test_unread_batchnorm_output_is_collected(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 3, 5, 5)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        bn = L.batchnorm_forward(x, gamma, beta, L.BatchNormState.init(3))
        total = T.add(bn, x)                              # a residual add reads nothing
        out = T.relu(total)
        bn_out, sum_out = weakref.ref(bn.data), weakref.ref(total.data)
        del bn, total
        gc.collect()
        assert bn_out() is None and sum_out() is None
        assert set(backward(out, ones(out))) == {x.node_id, gamma.node_id, beta.node_id}

    def test_backward_frees_the_saved_arrays(self, monkeypatch):
        cols, plain_im2col = [], L.im2col

        def im2col(*args):
            col = plain_im2col(*args)
            cols.append(weakref.ref(col))
            return col

        monkeypatch.setattr(L, "im2col", im2col)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(8, 3, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32), requires_grad=True)
        conv = L.conv2d_forward(x, w, stride=1, pad=1)
        gc.collect()
        assert len(cols) == 1 and cols[0]() is None        # the forward's columns die with it
        _, r, loss = self._mlp(rng, L.global_avg_pool(conv))    # conv -> pool -> the MLP
        conv_in, lin_in = weakref.ref(x.data), weakref.ref(r.data)
        del x, conv, r
        gc.collect()
        assert conv_in() is not None and lin_in() is not None
        grads = backward(loss)
        gc.collect()
        assert conv_in() is None and lin_in() is None      # dW's inputs go with the graph
        assert w.node_id in grads and np.isfinite(loss.item())  # the loss value stays readable

    def test_second_backward_is_refused(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        hidden = T.relu(T.add(x, x))
        seed = np.ones(3)
        assert backward(hidden, seed)[x.node_id].data.tolist() == [2, 0, 2]
        with pytest.raises(ContractError):
            backward(hidden, seed)
        with pytest.raises(ContractError):          # shares hidden's released node
            backward(T.add(hidden, x), seed)
        # leaves are never released: a fresh graph on x differentiates as before
        assert backward(T.relu(T.add(x, x)), seed)[x.node_id].data.tolist() == [2, 0, 2]


class TestDeterminism:
    def test_forward_backward_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
            xw = T.apply_op(x.data @ w.data, [(x, lambda g: g @ w.data.T),
                                              (w, lambda g: x.data.T @ g)])
            out = T.relu(xw)
            g = backward(out, ones(out))
            return out.data.copy(), g[x.node_id].data.copy(), g[w.node_id].data.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestFiniteDifferences:
    """Analytic gradients vs the 64-bit central-difference oracle."""

    @pytest.mark.parametrize("op", ["add", "relu"])
    def test_primitive(self, op):
        assert run_case(op, seed=0) < 1e-4
