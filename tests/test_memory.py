"""Analytic memory model: frozen toy values, degenerate cases, monotonicity;
and the measured peak of a guided step against what its backward must keep."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

import pgl.layers as L
import pgl.tensor as T
from pgl.errors import ConfigError
from pgl.memory import (block_footprints, estimate, eval_rows, estimate_bp, estimate_local,
                        estimate_schedule_avg, unit_plan)
from pgl.network import DecoupledModel, MlpSpec, Partition, ResNetSpec, block_plans, partition
from pgl.tensor import Tensor, no_grad
from pgl.training import NesterovSGD, Schedule, guided_epoch, local_epoch


def toy_blocks(J=2):
    # 2 -> 4 -> 4 -> 4 -> 2 MLP with one-fc heads (4 -> 2).  Parameters:
    # dense 2->4: 12, dense 4->4: 20 each, classifier and head 4->2: 10 each.
    # At J=2 block 1 is the first two dense units plus the head, block 2 the
    # third dense unit and the classifier, taking in block 1's 4-wide output.
    spec = MlpSpec(widths=[4, 4, 4], num_classes=2)
    return block_plans(spec, partition(unit_plan(spec), J), (0, 1))


def params(plans):
    return sum(p.params for p in plans)


class TestEstimateBp:
    def test_frozen_toy_value(self):
        # batch 2: unit outputs 2 x (4 + 4 + 4 + 2) = 28, parameters 62
        assert estimate_bp(toy_blocks(), 2) == (28 + 3 * 62) * 4  # == 856

    def test_empty_network(self):
        assert estimate_bp([], 2) == 0

    def test_additive_in_blocks(self):
        a, b = toy_blocks()
        assert estimate_bp([a, b], 3) == estimate_bp([a], 3) + estimate_bp([b], 3)


class TestEstimateLocal:
    def test_frozen_toy_value(self):
        # batch 2.  block 1: outputs 2 x (4 + 4) + head 2 x 2 = 20, parameters
        # 12 + 20 + 10 = 42.  block 2: outputs 2 x (4 + 2) + boundary input
        # 2 x 4 = 20, parameters 20 + 10 = 30.
        blocks = toy_blocks()
        assert block_footprints(blocks, 2) == [(20 + 3 * 42) * 4, (20 + 3 * 30) * 4]  # 584, 440
        local = estimate_local(blocks, 2)
        assert local == 584
        assert local / estimate_bp(blocks, 2) == 584 / 856

    def test_j1_degenerates_to_bp(self):
        blocks = toy_blocks(J=1)
        assert blocks[0].head == ()
        assert estimate_local(blocks, 2) == estimate_bp(blocks, 2)

    def test_finer_split_of_uniform_net_never_costs_more(self):
        spec = MlpSpec(widths=[32] * 12, num_classes=2, in_features=32)
        plans = unit_plan(spec)
        costs = [estimate_local(block_plans(spec, partition(plans, J), (0, 1)), 8)
                 for J in (1, 2, 3, 4, 6, 12)]
        assert all(a >= b for a, b in zip(costs, costs[1:])), costs

    def test_mismatched_partition_rejected(self):
        spec = MlpSpec(widths=[4, 4, 4], num_classes=2)          # 4 units
        for part in (Partition(2, [(0, 1), (1, 2)]), Partition(3, [(0, 2), (2, 4)])):
            with pytest.raises(ConfigError):
                estimate(spec, part, 2, Schedule(E=4, regime="dgl"), (0, 1))

    def test_local_never_exceeds_bp_on_shipped_configs(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        plans = unit_plan(spec)
        for J in (2, 4, 8, 16):
            blocks = block_plans(spec, partition(plans, J), "aux_adapt")
            assert estimate_local(blocks, 256) <= estimate_bp(blocks, 256)
        mspec = MlpSpec(widths=[64] * 8, num_classes=3)
        mplans = unit_plan(mspec)
        for J in (1, 2, 4):
            blocks = block_plans(mspec, partition(mplans, J), "aux_adapt")
            assert estimate_local(blocks, 64) <= estimate_bp(blocks, 64)


class TestActivationSizes:
    """What the estimator sums: each block plan's unit and head outputs, its
    input, and its parameters, against the model built from the same plan."""

    def test_resnet32_stem_activation(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        blocks = block_plans(spec, partition(unit_plan(spec), 4), "aux_adapt")
        assert blocks[0].in_shape == (3, 32, 32)
        assert blocks[0].units[0].out_elements(1) == 16 * 32 * 32
        assert [b.in_shape for b in blocks[1:]] == [a.units[-1].out_shape for a in blocks[:-1]]

    def test_mlp_activation_prefix(self):
        spec = MlpSpec(widths=[8, 8], num_classes=2, in_features=8)
        blocks = block_plans(spec, partition(unit_plan(spec), 2), "aux_adapt")
        assert [u.out_elements(4) for b in blocks for u in b.units][:2] == [32, 32]

    def test_batch_linearity(self):
        # footprints are affine in the batch: activations scale, parameters stay
        spec = ResNetSpec(depth=20, num_classes=10)
        blocks = block_plans(spec, partition(unit_plan(spec), 3), "aux_adapt")
        f1, f2, f4 = (block_footprints(blocks, b) for b in (1, 2, 4))
        assert [c - b for b, c in zip(f2, f4)] == [2 * (b - a) for a, b in zip(f1, f2)]
        assert [2 * a - b for a, b in zip(f1, f2)] == [
            3 * 4 * params(b.units + tuple(p for _, p in b.head)) for b in blocks]

    @pytest.mark.parametrize("policy", ["aux_adapt", (0, 1), (2, 3)],
                             ids=["aux_adapt", "fixed0-1", "fixed2-3"])
    @pytest.mark.parametrize("spec", [
        ResNetSpec(depth=8, num_classes=10),
        ResNetSpec(depth=20, num_classes=10),
        ResNetSpec(depth=32, num_classes=10),
        ResNetSpec(depth=110, num_classes=10),
        MlpSpec(widths=[16, 16, 16, 16], num_classes=3),
        MlpSpec(widths=[7, 12, 5], num_classes=4, in_features=3),
    ], ids=["resnet8", "resnet20", "resnet32", "resnet110", "mlp16x4", "mlp7-12-5"])
    def test_param_counts_match_real_model(self, spec, policy):
        # one block per unit puts a head on every boundary, stem included;
        # test_network.py::TestBlockPlans checks each block's backbone part.
        # Each head's plan against the built head: the output shape of every
        # layer as AuxHead.forward produces it on a batch of 2, and the size
        model = DecoupledModel(spec, len(unit_plan(spec)), policy, seed=0)
        for j, (block, head) in enumerate(zip(model.plan, model.heads), 1):
            shapes = []
            for _, layer in head.layers:
                def spy(x, train=True, forward=layer.forward):
                    out = forward(x, train)
                    shapes.append(out.shape)
                    return out
                layer.forward = spy
            with no_grad():
                head.forward(Tensor(np.zeros((2,) + block.units[-1].out_shape, dtype=np.float32)))
            assert shapes == [(2,) + p.out_shape for _, p in block.head]
            built = sum(p.size for _, p in head.named_params(f"aux{j}"))
            assert params(p for _, p in block.head) == built


class TestScheduleAvg:
    BATCH = 64

    def _resnet_blocks(self, J=8):
        spec = ResNetSpec(depth=32, num_classes=10)
        return block_plans(spec, partition(unit_plan(spec), J), "aux_adapt")

    def test_guided_fraction_p10_q2(self):
        blocks = self._resnet_blocks()
        s = Schedule(E=160, P=10, Q=2, regime="pgl")
        avg = estimate_schedule_avg(blocks, self.BATCH, s)
        f = 30 / 160
        want = f * estimate_bp(blocks, self.BATCH) + (1 - f) * estimate_local(blocks, self.BATCH)
        assert avg == pytest.approx(want, rel=1e-12)

    def test_dgl_equals_local(self):
        blocks = self._resnet_blocks()
        s = Schedule(E=160, regime="dgl")
        assert estimate_schedule_avg(blocks, self.BATCH, s) == estimate_local(blocks, self.BATCH)

    def test_bp_equals_bp(self):
        blocks = self._resnet_blocks()
        s = Schedule(E=160, regime="bp")
        assert estimate_schedule_avg(blocks, self.BATCH, s) == estimate_bp(blocks, self.BATCH)

    def test_monotone_in_p_and_q(self):
        blocks = self._resnet_blocks()
        grid = {(p, q): estimate_schedule_avg(blocks, self.BATCH, Schedule(E=160, P=p, Q=q, regime="pgl"))
                for p in (5, 10, 15, 20) for q in (1, 2, 3)}
        for q in (1, 2, 3):
            vals = [grid[(p, q)] for p in (5, 10, 15, 20)]
            assert all(a > b for a, b in zip(vals, vals[1:])), vals
        for p in (5, 10, 15, 20):
            vals = [grid[(p, q)] for q in (1, 2, 3)]
            assert all(a < b for a, b in zip(vals, vals[1:])), vals

    def test_avg_between_extremes(self):
        blocks = self._resnet_blocks()
        s = Schedule(E=160, P=10, Q=2, regime="pgl")
        avg = estimate_schedule_avg(blocks, self.BATCH, s)
        assert estimate_local(blocks, self.BATCH) < avg < estimate_bp(blocks, self.BATCH)


class TestHeadlineProfile:
    def test_resnet32_j16_ratio(self):
        # the headline footprint configuration: J=16 over the 17-unit backbone
        spec = ResNetSpec(depth=32, num_classes=10)
        blocks = block_plans(spec, partition(unit_plan(spec), 16), "aux_adapt")
        ratio = estimate_local(blocks, 1024) / estimate_bp(blocks, 1024)
        assert ratio <= 0.60

    def test_estimator_is_pure(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        plans = unit_plan(spec)
        part = partition(plans, 16)
        s = Schedule(E=160, P=10, Q=2, regime="pgl")
        a = estimate(spec, part, 1024, s)
        b = estimate(spec, part, 1024, s)
        assert (a.peak_bp, a.peak_local, a.schedule_avg) == (b.peak_bp, b.peak_local, b.schedule_avg)

    def test_per_block_breakdown_peaks_at_local(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        blocks = block_plans(spec, partition(unit_plan(spec), 8), "aux_adapt")
        footprints = block_footprints(blocks, 256)
        assert max(footprints) == estimate_local(blocks, 256)
        assert len(footprints) == 8


class TestEvalRows:
    """Evaluation batches hold no more activation than a local step: rows x
    (widest unit input + output) fits in the largest block's activation
    elements at the training batch, and rows is the most that fit."""

    @staticmethod
    def _widest(spec):
        plans = unit_plan(spec)
        first = (spec.in_channels * spec.input_hw ** 2 if isinstance(spec, ResNetSpec)
                 else spec.in_features)
        ins = [first] + [math.prod(u.out_shape) for u in plans[:-1]]
        return max(i + math.prod(u.out_shape) for i, u in zip(ins, plans))

    @staticmethod
    def _local_activations(blocks, batch):
        # the local step's figure without optimizer state
        return max(f // 4 - 3 * params(b.units + tuple(p for _, p in b.head))
                   for f, b in zip(block_footprints(blocks, batch), blocks))

    @pytest.mark.parametrize("spec, J, policy, batch, want", [
        (MlpSpec(widths=[64] * 8, num_classes=3), 4, "aux_adapt", 64, 193),
        (MlpSpec(widths=[32] * 8, num_classes=3), 9, (0, 1), 64, None),
        (ResNetSpec(depth=20, num_classes=10, input_hw=16), 4, "aux_adapt", 64, 139),
        (ResNetSpec(depth=20, num_classes=10), 2, "aux_adapt", 64, None),
        (ResNetSpec(depth=20, num_classes=10), 4, "aux_adapt", 64, None),
        (ResNetSpec(depth=20, num_classes=10), 8, "aux_adapt", 64, None),
        (ResNetSpec(depth=32, num_classes=10), 2, "aux_adapt", 128, None),
        (ResNetSpec(depth=32, num_classes=10), 4, "aux_adapt", 128, None),
        (ResNetSpec(depth=32, num_classes=10), 8, "aux_adapt", 128, None),
    ], ids=["acceptance-mlp", "mlp32x8-j9", "resnet20-img16", "resnet20-j2", "resnet20-j4",
            "resnet20-j8", "resnet32-j2", "resnet32-j4", "resnet32-j8"])
    def test_fits_the_local_step(self, spec, J, policy, batch, want):
        blocks = block_plans(spec, partition(unit_plan(spec), J), policy)
        rows = eval_rows(blocks, batch)
        widest = self._widest(spec)
        local = self._local_activations(blocks, batch)
        assert rows >= batch
        assert rows * widest <= local < (rows + 1) * widest
        if want is not None:
            assert rows == want

    def test_never_below_batch(self):
        # one dense unit per block with a wide input: the widest step at the
        # training batch already exceeds the local figure
        spec = MlpSpec(widths=[2], num_classes=2, in_features=64)
        blocks = block_plans(spec, partition(unit_plan(spec), 2), (0, 1))
        assert self._local_activations(blocks, 8) < 8 * self._widest(spec)
        assert eval_rows(blocks, 8) == 8


class TestMeasuredPeak:
    """The running implementation keeps only what backward reads: the
    ``tracemalloc`` peak of one guided step stays close to the bytes its
    grad_fns must hold plus the one column matrix a weight gradient
    rebuilds."""

    @staticmethod
    def _saved_bytes(model, x, monkeypatch) -> int:
        """Bytes of every conv input (once per array: a projection shares its
        unit's input), batchnorm xhat (the size of its output) and 1-byte
        relu mask one global forward builds, plus its largest im2col column
        matrix, the one transient the weight gradient rebuilds."""
        conv_inputs, sizes, cols = {}, [], []

        def spy(fn, record):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                record(args, out)
                return out
            return wrapped

        with monkeypatch.context() as m:
            m.setattr(L, "conv2d_forward", spy(
                L.conv2d_forward, lambda args, _: conv_inputs.setdefault(id(args[0].data), args[0].data.nbytes)))
            m.setattr(L, "im2col", spy(L.im2col, lambda _, col: cols.append(col.nbytes)))
            m.setattr(L, "batchnorm_forward", spy(L.batchnorm_forward, lambda _, t: sizes.append(t.data.nbytes)))
            m.setattr(T, "relu", spy(T.relu, lambda _, t: sizes.append(t.data.size)))
            model.forward_global(Tensor(x), train=True)
        return sum(conv_inputs.values()) + sum(sizes) + max(cols)

    def test_guided_step_peak_is_near_the_saved_set(self, monkeypatch):
        model = DecoupledModel(ResNetSpec(depth=8, num_classes=10, input_hw=8), 2, "aux_adapt", seed=0)
        opt = NesterovSGD()
        rng = np.random.default_rng(0)
        batch = [(rng.normal(size=(16, 3, 8, 8)).astype(np.float32), rng.integers(0, 10, size=16))]
        # one step of each mode first, so every velocity exists, as in the benchmark's memory pass
        local_epoch(model, batch, opt, 0.1)
        guided_epoch(model, batch, opt, 0.1)
        saved = self._saved_bytes(model, batch[0][0], monkeypatch)
        gc.collect()
        gc.disable()                  # as in the benchmark: the peak repeats exactly
        try:
            tracemalloc.start()
            try:
                guided_epoch(model, batch, opt, 0.1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            gc.enable()
        assert peak <= 1.25 * saved, f"peak {peak} B is {peak / saved:.3f} x the saved set {saved} B"
