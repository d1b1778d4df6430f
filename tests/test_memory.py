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
from pgl.memory import block_footprints, estimate, eval_rows, estimate_bp, estimate_local, unit_plan
from pgl.network import DecoupledModel, MlpSpec, Partition, ResNetSpec, block_plans, partition
from pgl.tensor import Tensor, no_grad
from pgl.training import NesterovSGD, guided_epoch, local_epoch


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
                estimate(spec, part, 2, aux_policy=(0, 1))

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
        a = estimate(spec, part, 1024)
        b = estimate(spec, part, 1024)
        assert (a.peak_bp, a.peak_local, a.per_block) == (b.peak_bp, b.peak_local, b.per_block)

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
    ``tracemalloc`` peak of one guided or local step stays close to the
    bytes its grad_fns must hold plus one column-matrix slab."""

    @staticmethod
    def _saved_bytes(monkeypatch, forward, *args, holds_output=False):
        """(saved bytes, largest slab, result) of ``forward(*args)``.  The
        saved bytes count each array the graph holds once: every conv input
        a conv keeps (a projection shares its unit's input), every skip
        array a residual tail keeps, and every batchnorm's xhat (the size of
        its output) the forward builds.  A conv or a tail keeps no
        ``T.Remade`` input, the output of a batchnorm node, which it
        rebuilds from that xhat.  A plain relu keeps its
        output, which is the next conv's input (all but the last, small one
        before the pool), so it adds nothing.  With ``holds_output``,
        ``forward`` is ``forward_local`` and the array of the block output,
        which the local step holds to hand on, counts too (a head's conv
        kept it as an array before the residual tail was one node).  The
        largest slab is the biggest column matrix the forward's im2col
        calls build, at most ``L.SLAB_BYTES`` once a conv's whole matrix
        exceeds it: the one transient a weight gradient rebuilds beside the
        saved set."""
        held, sizes, cols = {}, [], []

        def spy(fn, record):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                record(args, kwargs, out)
                return out
            return wrapped

        def keep(t):
            if t is not None and not isinstance(t, T.Remade):
                held.setdefault(id(t.data), t.data.nbytes)

        def batchnorm(args, kwargs, out):
            sizes.append(out.data.nbytes)
            keep(kwargs.get("skip", args[6] if len(args) > 6 else None))

        with monkeypatch.context() as m:
            m.setattr(L, "conv2d_forward", spy(L.conv2d_forward, lambda args, _, __: keep(args[0])))
            m.setattr(L, "im2col", spy(L.im2col, lambda _, __, col: cols.append(col.nbytes)))
            m.setattr(L, "batchnorm_forward", spy(L.batchnorm_forward, batchnorm))
            result = forward(*args)
        if holds_output:
            held.setdefault(id(result[0].data), result[0].data.nbytes)
        return sum(held.values()) + sum(sizes), max(cols), result

    @staticmethod
    def _linear_inputs(monkeypatch, forward, *args):
        """(bytes, result) of ``forward(*args)``, where the bytes are those of
        every distinct input array its linear layers keep for their weight
        gradients.  In an MLP each relu output is the next linear layer's
        input, so these are what the forward saves."""
        kept = {}
        linear = L.linear_forward

        def spy(x, w, b):
            kept.setdefault(id(x.data), x.data.nbytes)
            return linear(x, w, b)

        with monkeypatch.context() as m:
            m.setattr(L, "linear_forward", spy)
            result = forward(*args)
        return sum(kept.values()), result

    @staticmethod
    def _model_and_batch(spec=ResNetSpec(depth=8, num_classes=10, input_hw=8), J=2, n=16):
        model = DecoupledModel(spec, J, "aux_adapt", seed=0)
        opt = NesterovSGD()
        rng = np.random.default_rng(0)
        batch = [(rng.normal(size=(n, *spec.in_shape)).astype(np.float32),
                  rng.integers(0, spec.num_classes, size=n))]
        # one step of each mode first, so every velocity exists, as in the benchmark's memory pass
        local_epoch(model, batch, opt, 0.1)
        guided_epoch(model, batch, opt, 0.1)
        return model, opt, batch

    @staticmethod
    def _peak(step) -> int:
        gc.collect()
        gc.disable()                  # as in the benchmark: the peak repeats exactly
        try:
            tracemalloc.start()
            try:
                step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            gc.enable()

    def _block_sets(self, monkeypatch, model, batch):
        """(saved bytes, largest slab, largest unit output) of each block's
        local forward; blocks 1..J-1 count the output the step hands on."""
        h, sets = Tensor(batch[0][0]), []
        for j in range(1, model.J + 1):
            saved, col, (x_j, _) = self._saved_bytes(monkeypatch, model.forward_local, h, j, True,
                                                     holds_output=j < model.J)
            largest = max(u.out_elements(len(batch[0][1])) for u in model.plan[j - 1].units) * 4
            sets.append((saved, col, largest))
            h = Tensor(x_j.data)
        return sets

    def test_guided_step_peak_is_near_the_saved_set(self, monkeypatch):
        # the set is one stored global forward's, what a bp step holds; a
        # guided step re-forwards one block at a time and stays within it
        model, opt, batch = self._model_and_batch()
        saved, col, _ = self._saved_bytes(monkeypatch, model.forward_global, Tensor(batch[0][0]), True)
        saved += col
        peak = self._peak(lambda: guided_epoch(model, batch, opt, 0.1))
        assert peak <= 1.25 * saved, f"peak {peak} B is {peak / saved:.3f} x the saved set {saved} B"

    def test_local_step_peak_is_near_its_blocks_saved_set(self, monkeypatch):
        # a local step holds one block's graph at a time.  The peak sits at a
        # stage-1 weight gradient's 576 KiB slab, beside the gradient
        # buffers, so it did not move when a residual unit's tail stopped
        # storing its output and the saved set shrank: the gate is 1.25 x
        # the largest block's set (with its slab) before that change,
        # 995,328 B, kept as bytes
        model, opt, batch = self._model_and_batch()
        saved = max(s + col for s, col, _ in self._block_sets(monkeypatch, model, batch))
        assert saved <= 995_328
        peak = self._peak(lambda: local_epoch(model, batch, opt, 0.1))
        assert peak <= 1_244_160, f"peak {peak} B exceeds 1,244,160 B (the saved set is {saved} B)"

    def test_benchmark_guided_step_peak_is_near_the_saved_set(self, monkeypatch):
        # resnet20-img16 at batch 64, against one stored global forward's
        # set: a conv that kept its batchnorm + relu input, 6.25 MiB over
        # the global forward, would put a stored step's peak near 1.35 x
        # the set, which counts no such input
        model, opt, batch = self._model_and_batch(ResNetSpec(depth=20, num_classes=10, input_hw=16), 4, 64)
        saved, col, _ = self._saved_bytes(monkeypatch, model.forward_global, Tensor(batch[0][0]), True)
        saved += col
        peak = self._peak(lambda: guided_epoch(model, batch, opt, 0.1))
        assert peak <= 1.25 * saved, f"peak {peak} B is {peak / saved:.3f} x the saved set {saved} B"

    def test_benchmark_local_step_peak_counts_no_column_matrix(self, monkeypatch):
        # resnet20-img16 at batch 64: block 1's stage-1 column matrix is
        # 9 MiB, so a conv that lowered it whole would put the peak far
        # above the bound, which counts no column matrix at all: the
        # block's saved set plus three gradient buffers of its largest
        # activation (an output gradient, its masked product and the input
        # gradient).  Slabs of at most L.SLAB_BYTES stay within it
        model, opt, batch = self._model_and_batch(ResNetSpec(depth=20, num_classes=10, input_hw=16), 4, 64)
        sets = self._block_sets(monkeypatch, model, batch)
        assert max(col for _, col, _ in sets) <= L.SLAB_BYTES
        bound = max(s + 3 * largest for s, _, largest in sets)
        peak = self._peak(lambda: local_epoch(model, batch, opt, 0.1))
        assert peak <= bound, f"peak {peak} B exceeds {bound} B"

    @pytest.mark.parametrize("J", [2, 4])
    def test_benchmark_guided_step_peaks_with_the_local_step(self, J):
        # resnet20-img16 at batch 64: a guided step re-forwards one block at
        # a time from its stored input, so it holds what a local step does
        # plus the stored block inputs, and peaks with the local step of the
        # same split.  Storing the whole global graph put it at 13.81 MiB,
        # against 12.25 (J=2) and 11.17 MiB (J=4) for the local step
        model, opt, batch = self._model_and_batch(ResNetSpec(depth=20, num_classes=10, input_hw=16), J, 64)
        local = self._peak(lambda: local_epoch(model, batch, opt, 0.1))
        guided = self._peak(lambda: guided_epoch(model, batch, opt, 0.1))
        assert guided <= local + 128 * 1024, f"guided peak {guided} B vs the local step's {local} B"

    @pytest.mark.parametrize("J", [2, 4])
    def test_benchmark_guided_step_peaks_with_the_bp_step(self, J):
        # resnet20-img16 at batch 64: a guided step holds no more than the
        # one-block step.  Holding the boundary arrays under the leaves of
        # one stored global forward put it at 14.31 (J=2) and 15.56 MiB
        # (J=4), against 13.81 MiB
        spec = ResNetSpec(depth=20, num_classes=10, input_hw=16)
        peaks = []
        for blocks in (1, J):
            model, opt, batch = self._model_and_batch(spec, blocks, 64)
            peaks.append(self._peak(lambda: guided_epoch(model, batch, opt, 0.1)))
        bp, guided = peaks
        assert guided <= bp + 128 * 1024, f"guided peak {guided} B vs the J=1 step's {bp} B"

    def test_benchmark_bp_step_peak(self, monkeypatch):
        # ResNet-20 as one block (J=1, a bp step) on resnet20-img16's batch:
        # a residual unit stores no output, so the step peaks below 15 MiB
        # (18.78 MiB when each unit kept its relu output)
        model, opt, batch = self._model_and_batch(ResNetSpec(depth=20, num_classes=10, input_hw=16), 1, 64)
        peak = self._peak(lambda: guided_epoch(model, batch, opt, 0.1))
        assert peak <= 15 * 2**20, f"peak {peak} B is {peak / 2**20:.2f} MiB"

    def test_acceptance_mlp_guided_step_holds_one_groups_update(self, monkeypatch):
        # The acceptance MLP at batch 64.  The global loss updates the blocks
        # one at a time, so the step holds at most the global forward's saved
        # set, plus one block's gradients gathered into one array, plus the one
        # temporary (mu * v) of its update.  The heads step before any block
        # graph is built, each holding its own saved set and the same two
        # arrays at its size.  Stepping every block only after one whole
        # backward held all their gradients at once: 234,284 B on this batch,
        # against a bound of 199,704 B
        model, opt, batch = self._model_and_batch(MlpSpec(widths=[64] * 8, num_classes=3), 4, 64)

        def nbytes(group):
            return sum(p.data.nbytes for _, p in group)

        h = Tensor(batch[0][0])
        saved, _ = self._linear_inputs(monkeypatch, model.forward_global, h, True)
        bound = saved + 2 * max(nbytes(g) for g in model.block_params)
        for j in range(1, model.J):
            x_j, _ = model.forward_local(h, j, True)
            h = Tensor(x_j.data)
            head_saved, _ = self._linear_inputs(monkeypatch, model.aux_logits, h, j, True)
            bound = max(bound, head_saved + 2 * nbytes(model.head_params[j - 1]))
        peak = self._peak(lambda: guided_epoch(model, batch, opt, 0.1))
        assert peak <= bound, f"peak {peak} B exceeds {bound} B"
