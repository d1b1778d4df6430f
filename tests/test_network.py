"""Backbone construction, partitioning, aux heads, and gradient isolation."""

import weakref

import numpy as np
import pytest

import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ConfigError
from pgl.layers import softmax_cross_entropy
from pgl.network import (AuxHead, DecoupledModel, MlpSpec, ResNetSpec, ResidualUnit,
                         aux_adapt_policy, block_plans, partition, unit_plan)
from pgl.tensor import Tensor, backward
from pgl.training import NesterovSGD, evaluate, guided_epoch, local_epoch


def small_mlp(J=2, widths=None, classes=2, seed=0):
    spec = MlpSpec(widths=widths or [8, 8, 8, 8], num_classes=classes)
    return DecoupledModel(spec, J, "aux_adapt", seed)


def core_sizes(units, part):
    """Partitionable units dealt out to each block."""
    return [sum(u.partitionable for u in units[start:end]) for start, end in part.ranges]


class TestBuildBackbone:
    def test_resnet32_unit_count(self):
        units = unit_plan(ResNetSpec(depth=32, num_classes=10))
        assert len(units) == 17                      # stem + 3*5 residual + classifier
        assert sum(u.cls is ResidualUnit for u in units) == 15

    def test_resnet110_residual_count(self):
        units = unit_plan(ResNetSpec(depth=110, num_classes=10))
        assert sum(u.cls is ResidualUnit for u in units) == 54

    def test_resnet_channel_progression(self):
        units = unit_plan(ResNetSpec(depth=20, num_classes=10))
        widths = [u.out_width for u in units if u.cls is ResidualUnit]
        assert widths == [16, 16, 16, 32, 32, 32, 64, 64, 64]

    def test_mlp_units(self):
        units = unit_plan(MlpSpec(widths=[8, 8, 8, 8], num_classes=2))
        assert len(units) == 5                       # 4 hidden + classifier
        assert [u.partitionable for u in units] == [True] * 4 + [False]

    def test_bad_depth(self):
        with pytest.raises(ConfigError):
            DecoupledModel(ResNetSpec(depth=33, num_classes=10), 1, "aux_adapt", seed=0)

    def test_resnet_forward_shapes(self):
        model = DecoupledModel(ResNetSpec(depth=8, num_classes=10), 1, "aux_adapt", seed=0)
        h = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
        for u in model.blocks[0]:
            h = u.forward(h, train=True)
        assert h.shape == (2, 10)


class TestPartition:
    def test_too_many_blocks(self):
        units = unit_plan(ResNetSpec(depth=32, num_classes=10))
        with pytest.raises(ConfigError):
            partition(units, 18)                     # only 17 units

    def test_one_unit_per_block(self):
        units = unit_plan(MlpSpec(widths=[4] * 16, num_classes=2))
        p = partition(units, 16)
        assert core_sizes(units, p) == [1] * 16

    def test_remainder_rule(self):
        units = unit_plan(ResNetSpec(depth=32, num_classes=10))
        p = partition(units, 4)
        assert core_sizes(units, p) == [4, 4, 4, 3]
        # stem merges into block 1, classifier into block 4
        assert p.ranges[0] == (0, 5)
        assert p.ranges[-1][1] == 17

    def test_ranges_reconstruct_units(self):
        units = unit_plan(MlpSpec(widths=[3] * 7, num_classes=2))
        p = partition(units, 3)
        covered = [i for start, end in p.ranges for i in range(start, end)]
        assert covered == list(range(len(units)))

    def test_spanning_allows_classifier_block(self):
        units = unit_plan(ResNetSpec(depth=32, num_classes=10))
        p = partition(units, 16)                     # 17 units incl. stem + classifier
        sizes = [end - start for start, end in p.ranges]
        assert sizes == [2] + [1] * 15
        assert max(sizes) - min(sizes) <= 1

    # up to the partitionable count the stem and the classifier merge into
    # the end blocks; above it every unit counts
    @pytest.mark.parametrize("spec, J, ranges", [
        (ResNetSpec(depth=32, num_classes=10), 4, [(0, 5), (5, 9), (9, 13), (13, 17)]),
        (ResNetSpec(depth=32, num_classes=10), 15,
         [(0, 2)] + [(i, i + 1) for i in range(2, 15)] + [(15, 17)]),
        (ResNetSpec(depth=32, num_classes=10), 16, [(0, 2)] + [(i, i + 1) for i in range(2, 17)]),
        (ResNetSpec(depth=32, num_classes=10), 17, [(i, i + 1) for i in range(17)]),
        (MlpSpec(widths=[4, 4], num_classes=2), 3, [(0, 1), (1, 2), (2, 3)]),
    ], ids=["resnet32-J4", "resnet32-J15", "resnet32-J16", "resnet32-J17", "mlp4x2-J3"])
    def test_ranges_pinned(self, spec, J, ranges):
        assert partition(unit_plan(spec), J).ranges == ranges

    def test_spanning_bound(self):
        units = unit_plan(MlpSpec(widths=[4, 4], num_classes=2))
        with pytest.raises(ConfigError):
            partition(units, 4)


class TestAuxAdapt:
    def test_paper_mapping(self):
        assert (aux_adapt_policy(16).n_conv, aux_adapt_policy(16).n_fc) == (2, 2)
        assert (aux_adapt_policy(32).n_conv, aux_adapt_policy(32).n_fc) == (1, 3)
        assert (aux_adapt_policy(64).n_conv, aux_adapt_policy(64).n_fc) == (1, 2)

    def test_fallback(self):
        spec = aux_adapt_policy(100)
        assert (spec.n_conv, spec.n_fc) == (1, 2)


class TestAttachAux:
    """Heads sit on blocks 1..J-1, on each block's last unit."""

    def test_two_blocks_one_head(self):
        m = small_mlp(J=2)
        assert len(m.heads) == 1
        assert [len(b.head) > 0 for b in m.plan] == [True, False]

    def test_resnet_j8_head_channels(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        units = unit_plan(spec)
        p = partition(units, 8)
        blocks = block_plans(spec, p, "aux_adapt")
        # independent enumeration: channel of the last unit in each block
        expected = [units[end - 1].out_width for (start, end) in p.ranges[:-1]]
        got = [b.head[0][1].args[0] for b in blocks[:-1]]      # the first head conv's channels
        assert got == expected
        assert expected == [16, 16, 32, 32, 32, 64, 64]
        assert [[name for name, _ in b.head] for b in blocks[:-1]] == [
            [f"conv{i}" for i in range(aux_adapt_policy(c).n_conv)] + ["pool"]
            + [f"fc{i}" for i in range(aux_adapt_policy(c).n_fc)] for c in expected]

    def test_fixed_policy_structure(self):
        spec = ResNetSpec(depth=20, num_classes=10)
        model = DecoupledModel(spec, 3, (1, 2), seed=0)
        assert len(model.heads) == 2
        for h in model.heads:
            assert [name for name, _ in h.layers] == ["conv0", "pool", "fc0", "fc1"]

    def test_head_forward_shapes(self):
        # one block per unit: block 1 is the stem alone, [16, 8, 8]
        spec = ResNetSpec(depth=8, num_classes=10, input_hw=8)
        stem = block_plans(spec, partition(unit_plan(spec), 5), (2, 2))[0]
        head = AuxHead(stem.head, rng=np.random.default_rng(0))
        out = head.forward(Tensor(np.zeros((4, 16, 8, 8), dtype=np.float32)))
        assert out.shape == (4, 10)
        mlp = MlpSpec(widths=[8], num_classes=5)                              # [8]
        hidden = block_plans(mlp, partition(unit_plan(mlp), 2), (1, 3))[0]
        dense = AuxHead(hidden.head, rng=np.random.default_rng(0))
        assert dense.forward(Tensor(np.zeros((4, 8), dtype=np.float32))).shape == (4, 5)


class TestBlockPlans:
    @pytest.mark.parametrize("J", [2, 4, "per-unit"])
    @pytest.mark.parametrize("spec", [
        ResNetSpec(depth=8, num_classes=10),
        ResNetSpec(depth=20, num_classes=10),
        ResNetSpec(depth=32, num_classes=10),
        ResNetSpec(depth=110, num_classes=10),
        MlpSpec(widths=[16, 16, 16, 16], num_classes=3),
        MlpSpec(widths=[7, 12, 5], num_classes=4, in_features=3),
    ], ids=["resnet8", "resnet20", "resnet32", "resnet110", "mlp16x4", "mlp7-12-5"])
    def test_block_params_match_built_model(self, spec, J):
        J = len(unit_plan(spec)) if J == "per-unit" else J
        model = DecoupledModel(spec, J, "aux_adapt", seed=0)
        assert len(model.plan) == J
        for j, block in enumerate(model.plan, 1):
            planned = sum(p.params for p in block.units) + sum(p.params for _, p in block.head)
            built = [p.size for _, p in model.block_params[j - 1]]
            if j < J:
                built += [p.size for _, p in model.head_params[j - 1]]
            assert planned == sum(built), f"block {j}"


def global_grads(model, x, y) -> dict:
    """The global loss's gradients: one backward over the chained blocks."""
    return backward(softmax_cross_entropy(model.forward_global(x, train=True), y))


def _param_ids(named):
    return {p.node_id for _, p in named}


class TestForwardLocal:
    def test_gradients_reach_only_own_block(self):
        m = small_mlp(J=4, widths=[8] * 8)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32))
        labels = np.array([0, 1, 0, 1])
        _, logits = m.forward_local(x, 1, train=True)
        grads = backward(softmax_cross_entropy(logits, labels))
        allowed = _param_ids(m.block_params[0]) | _param_ids(m.head_params[0])
        for j in range(2, 5):
            for _, p in m.block_params[j - 1]:
                assert p.node_id not in grads
        for name, p in [*m.block_params[0], *m.head_params[0]]:
            assert p.node_id in grads, name
        assert set(grads) - allowed == {nid for nid in grads if nid not in allowed}

    def test_matches_global_slices_bitwise(self):
        m = small_mlp(J=3, widths=[6] * 6, classes=3)
        x = np.random.default_rng(1).normal(size=(5, 2)).astype(np.float32)
        xs, h = [], Tensor(x)
        for j in range(1, 4):
            h = m.forward_block(h, j, train=False)
            xs.append(h.data)
        assert np.array_equal(m.forward_global(Tensor(x), train=False).data, xs[-1])
        h = Tensor(x)
        for j in range(1, 4):
            h, _ = m.forward_local(h, j, train=False)
            assert np.array_equal(h.data, xs[j - 1])
            h = Tensor(h.data)

    def test_last_block_uses_terminal_classifier(self):
        m = small_mlp(J=2)
        boundary = Tensor(np.zeros((2, 8), dtype=np.float32))
        x_j, logits = m.forward_local(boundary, 2, train=False)
        assert logits is x_j
        assert logits.shape == (2, 2)

    def test_block_index_bounds(self):
        m = small_mlp(J=2)
        with pytest.raises(ConfigError):
            m.forward_local(Tensor(np.zeros((1, 2), dtype=np.float32)), 3)


class TestForwardGlobal:
    def test_gradients_cover_theta_never_gamma(self):
        m = small_mlp(J=4, widths=[8] * 8)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 2)).astype(np.float32))
        grads = global_grads(m, x, np.array([0, 1, 0, 1]))
        for j in range(1, 5):
            for name, p in m.block_params[j - 1]:
                assert p.node_id in grads, name
        for j in range(1, 4):
            for name, p in m.head_params[j - 1]:
                assert p.node_id not in grads, name

    def test_eval_equals_chained_local(self):
        spec = ResNetSpec(depth=8, num_classes=4)
        m = DecoupledModel(spec, 2, "aux_adapt", seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        spec.input_hw = 16
        m.forward_global(Tensor(x), train=True)       # populate batchnorm stats
        with T.no_grad():                             # eval mode builds no graph
            logits_g = m.forward_global(Tensor(x), train=False)
            h = Tensor(x)
            for j in range(1, m.J + 1):
                h, logits_l = m.forward_local(h, j, train=False)
                h = Tensor(h.data)
        assert np.array_equal(logits_g.data, logits_l.data)

    def test_boundaries_are_detached(self):
        # a guided step re-forwards block j+1 on a leaf over block j's stored
        # output: the walk from the loss files that leaf's gradient and
        # reaches no earlier block
        m = small_mlp(J=3, widths=[4] * 6)
        h = Tensor(np.zeros((2, 2), dtype=np.float32))
        with T.no_grad():
            for j in (1, 2):
                h = m.forward_block(Tensor(h.data), j, train=True)
        leaf = Tensor(h.data, requires_grad=True)
        logits = m.forward_block(leaf, 3, train=True)
        assert logits.requires_grad and logits.parents
        grads = backward(softmax_cross_entropy(logits, np.array([0, 1])))
        assert grads[leaf.node_id].shape == leaf.shape == (2, 4)
        assert not _param_ids([*m.block_params[0], *m.block_params[1]]) & set(grads)

    @pytest.mark.parametrize("spec, shape", [
        (ResNetSpec(depth=8, num_classes=4, input_hw=8), (6, 3, 8, 8)),
        (MlpSpec(widths=[8] * 4, num_classes=4), (6, 2)),
    ], ids=["resnet8", "mlp"])
    def test_a_stored_input_dies_after_its_block_walks(self, spec, shape, monkeypatch):
        # a guided step keeps block j's output array X_j only until block
        # j+1 has walked: block j's re-forward makes it again, so the stored
        # one is gone by then, and the re-forward gives back its bytes and
        # strides
        m = DecoupledModel(spec, 2, "aux_adapt", seed=1)
        made = []
        forward = m.forward_block

        def record(x, j, train=True):
            out = forward(x, j, train)
            if j == 1:
                alive = [ref() is not None for ref, _, _ in made]
                made.append((weakref.ref(out.data), out.data.tobytes(), out.data.strides))
                assert alive == [False] * len(alive)
            return out

        monkeypatch.setattr(m, "forward_block", record)
        x = np.random.default_rng(4).normal(size=shape).astype(np.float32)
        guided_epoch(m, [(x, np.arange(shape[0]) % 4)], NesterovSGD(), 0.1)
        (_, stored, stored_strides), (ref, again, strides) = made
        assert ref() is None
        assert again == stored and strides == stored_strides

    @pytest.mark.parametrize("spec, shape", [
        (ResNetSpec(depth=8, num_classes=4, input_hw=8), (6, 3, 8, 8)),
        (MlpSpec(widths=[8] * 4, num_classes=4), (6, 2)),
    ])
    def test_boundaries_alias_the_graph_and_keep_their_bits(self, spec, shape, monkeypatch):
        # a head and block j+1's re-forward read the no-grad pass's own
        # array X_j, so nothing the global step or a head step runs may
        # write an activation in place; block j's re-forward makes X_j again
        # with its bits
        m = DecoupledModel(spec, 2, "aux_adapt", seed=1)
        outputs, head_inputs = [], []

        def record(forward):
            def wrapped(x, train=True):
                out = forward(x, train)
                outputs.append((out.data, out.data.copy()))
                return out
            return wrapped

        for units in m.blocks:
            monkeypatch.setattr(units[-1], "forward", record(units[-1].forward))
        aux_logits = m.aux_logits
        monkeypatch.setattr(m, "aux_logits", lambda x, j, train=True: head_inputs.append(x) or aux_logits(x, j, train))
        rng = np.random.default_rng(4)
        x = rng.normal(size=shape).astype(np.float32)
        y = np.array([0, 1, 2, 3, 0, 1])
        guided_epoch(m, [(x, y)], NesterovSGD(), 0.1, update_aux=True)
        assert len(outputs) == 2 * m.J - 1 and len(head_inputs) == m.J - 1
        assert [b.node for b in head_inputs] == [None] * (m.J - 1)
        assert all(b.data is out for b, (out, _) in zip(head_inputs, outputs))
        assert all(out.tobytes() == before.tobytes() for out, before in outputs)
        assert outputs[-1][1].tobytes() == outputs[0][1].tobytes()


BOOKKEEPING_SPECS = [MlpSpec(widths=[5] * 6, num_classes=3),
                     ResNetSpec(depth=8, num_classes=3, input_hw=8)]


class TestModelBookkeeping:
    def test_every_param_in_exactly_one_group(self):
        for spec in BOOKKEEPING_SPECS:
            m = DecoupledModel(spec, 3, "aux_adapt", seed=0)
            assert len(m.block_params) == 3 and len(m.head_params) == 2
            grouped = [named for g in m.block_params + m.head_params for named in g]
            walked = [named for j, units in enumerate(m.blocks, 1) for i, u in enumerate(units)
                      for named in u.named_params(f"block{j}.unit{i}")]
            walked += [named for j, head in enumerate(m.heads, 1) for named in head.named_params(f"aux{j}")]
            assert [(n, p.node_id) for n, p in grouped] == [(n, p.node_id) for n, p in walked]
            assert len(_param_ids(grouped)) == len(grouped)
            assert [(n, p.node_id) for n, p in grouped] == [(n, p.node_id) for n, p in m.named_params()]

    @pytest.mark.parametrize("spec", BOOKKEEPING_SPECS, ids=["mlp", "resnet8"])
    def test_epochs_walk_no_layer(self, spec, monkeypatch):
        m = DecoupledModel(spec, 3, "aux_adapt", seed=0)

        def walk(*args):
            raise AssertionError("a training step walked the layers for its parameters")

        monkeypatch.setattr(L.LayerList, "named_params", walk)
        monkeypatch.setattr(L.Param, "named_params", walk)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, *spec.in_shape)).astype(np.float32)
        batches = [(x, np.array([0, 1, 2, 0, 1, 2]))] * 2
        opt = NesterovSGD()
        before = [p.data.copy() for _, p in m.named_params()]
        local_epoch(m, batches, opt, 0.1)
        guided_epoch(m, batches, opt, 0.1, update_aux=True)
        guided_epoch(m, batches, opt, 0.1, update_aux=False)
        evaluate(m, batches)
        assert all(not np.array_equal(a, p.data) for a, (_, p) in zip(before, m.named_params()))

    def test_same_seed_same_init(self):
        a = small_mlp(J=2, seed=9)
        b = small_mlp(J=2, seed=9)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
