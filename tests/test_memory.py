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
from pgl.memory import (MemProfile, activation_sizes, block_footprints, estimate, eval_rows,
                        estimate_bp, estimate_local, estimate_schedule_avg, unit_plan)
from pgl.network import (DecoupledModel, MlpSpec, Partition, ResNetSpec, aux_head_spec,
                         head_plan, partition)
from pgl.tensor import Tensor, no_grad
from pgl.training import NesterovSGD, Schedule, guided_epoch, local_epoch


def toy_profile():
    # two blocks of two units each: activations 20 per block, one aux head of
    # 2 on block 1, boundary into block 2 is 10, no parameters anywhere
    return MemProfile(unit_activations=[10, 10, 10, 10], unit_params=[0, 0, 0, 0],
                      head_activations=[2], head_params=[0])


def toy_partition():
    return Partition(2, [(0, 2), (2, 4)], [2, 2])


class TestEstimateBp:
    def test_frozen_toy_value(self):
        profile = MemProfile([10, 10, 10, 10], [5, 0, 0, 0], [], [])
        assert estimate_bp(profile) == (40 + 3 * 5) * 4  # == 220

    def test_empty_network(self):
        assert estimate_bp(MemProfile([], [], [], [])) == 0

    def test_additive_in_blocks(self):
        a = MemProfile([3, 4], [2, 0], [], [])
        b = MemProfile([7], [1], [], [])
        combined = MemProfile([3, 4, 7], [2, 0, 1], [], [])
        assert estimate_bp(combined) == estimate_bp(a) + estimate_bp(b)


class TestEstimateLocal:
    def test_frozen_toy_value(self):
        local = estimate_local(toy_profile(), toy_partition())
        assert local == 30 * 4  # block 2: 20 acts + 10 boundary (block 1: 20 + 2 aux)
        bp = estimate_bp(toy_profile())
        assert bp == 40 * 4
        assert local / bp == 0.75

    def test_j1_degenerates_to_bp(self):
        profile = MemProfile([10, 10, 10, 10], [5, 0, 0, 0], [], [])
        part = Partition(1, [(0, 4)], [4])
        assert estimate_local(profile, part) == estimate_bp(profile)

    def test_finer_split_of_uniform_net_never_costs_more(self):
        spec = MlpSpec(widths=[32] * 12, num_classes=2, in_features=32)
        plans = unit_plan(spec)
        costs = []
        for J in (1, 2, 3, 4, 6, 12):
            part = partition(plans, J)
            profile = activation_sizes(spec, part, batch=8, aux_policy=(0, 1))
            costs.append(estimate_local(profile, part))
        assert all(a >= b for a, b in zip(costs, costs[1:])), costs

    def test_head_count_mismatch_rejected(self):
        part = Partition(2, [(0, 1), (1, 2)], [1, 1])
        for heads in ([5, 5, 5], [5, 5]):        # J + 1 heads, and a head on every block
            with pytest.raises(ConfigError):
                estimate_local(MemProfile([1, 1], [0, 0], heads, [0] * len(heads)), part)

    def test_local_never_exceeds_bp_on_shipped_configs(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        plans = unit_plan(spec)
        for J in (2, 4, 8):
            part = partition(plans, J)
            profile = activation_sizes(spec, part, batch=256)
            assert estimate_local(profile, part) <= estimate_bp(profile)
        part16 = partition(plans, 16)
        profile16 = activation_sizes(spec, part16, batch=256)
        assert estimate_local(profile16, part16) <= estimate_bp(profile16)
        mspec = MlpSpec(widths=[64] * 8, num_classes=3)
        mplans = unit_plan(mspec)
        for J in (1, 2, 4):
            part = partition(mplans, J)
            profile = activation_sizes(mspec, part, batch=64)
            assert estimate_local(profile, part) <= estimate_bp(profile)


class TestActivationSizes:
    def test_resnet32_stem_activation(self):
        spec = ResNetSpec(depth=32, num_classes=10)
        part = partition(unit_plan(spec), 4)
        profile = activation_sizes(spec, part, batch=1)
        assert profile.unit_activations[0] == 16 * 32 * 32

    def test_mlp_activation_prefix(self):
        spec = MlpSpec(widths=[8, 8], num_classes=2, in_features=8)
        part = partition(unit_plan(spec), 2)
        profile = activation_sizes(spec, part, batch=4)
        assert profile.unit_activations[:2] == [32, 32]

    def test_batch_linearity(self):
        spec = ResNetSpec(depth=20, num_classes=10)
        part = partition(unit_plan(spec), 3)
        p1 = activation_sizes(spec, part, batch=2)
        p2 = activation_sizes(spec, part, batch=4)
        assert p2.unit_activations == [2 * a for a in p1.unit_activations]
        assert p2.head_activations == [2 * a for a in p1.head_activations]
        assert p2.unit_params == p1.unit_params

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
        # one block per unit puts a head on every boundary, stem included
        plans = unit_plan(spec)
        model = DecoupledModel(spec, len(plans), policy, seed=0)
        profile = activation_sizes(spec, model.partition, batch=2, aux_policy=policy)
        assert sum(u.params for u in plans) + sum(profile.head_params) == model.param_count()
        # each head's plan against the built head: the output shape of every
        # layer as AuxHead.forward produces it on a batch of 2, and the size
        for j, head in enumerate(model.heads, 1):
            boundary = plans[model.partition.ranges[j - 1][1] - 1]
            plan = head_plan(aux_head_spec(policy, boundary.out_width, spec.num_classes), boundary)
            shapes = []
            for _, layer in head.layers:
                def spy(x, train=True, forward=layer.forward):
                    out = forward(x, train)
                    shapes.append(out.shape)
                    return out
                layer.forward = spy
            with no_grad():
                head.forward(Tensor(np.zeros((2,) + boundary.out_shape, dtype=np.float32)))
            assert shapes == [(2,) + p.out_shape for _, p in plan]
            assert profile.head_activations[j - 1] == sum(math.prod(s) for s in shapes)
            built = sum(p.size for _, p in head.named_params(f"aux{j}"))
            assert sum(p.params for _, p in plan) == profile.head_params[j - 1] == built


class TestScheduleAvg:
    def _resnet_setup(self, J=8):
        spec = ResNetSpec(depth=32, num_classes=10)
        plans = unit_plan(spec)
        part = partition(plans, J)
        profile = activation_sizes(spec, part, batch=64)
        return profile, part

    def test_guided_fraction_p10_q2(self):
        profile, part = self._resnet_setup()
        s = Schedule(E=160, P=10, Q=2, regime="pgl")
        avg = estimate_schedule_avg(profile, part, s)
        f = 30 / 160
        want = f * estimate_bp(profile) + (1 - f) * estimate_local(profile, part)
        assert avg == pytest.approx(want, rel=1e-12)

    def test_dgl_equals_local(self):
        profile, part = self._resnet_setup()
        s = Schedule(E=160, regime="dgl")
        assert estimate_schedule_avg(profile, part, s) == estimate_local(profile, part)

    def test_bp_equals_bp(self):
        profile, part = self._resnet_setup()
        s = Schedule(E=160, regime="bp")
        assert estimate_schedule_avg(profile, part, s) == estimate_bp(profile)

    def test_monotone_in_p_and_q(self):
        profile, part = self._resnet_setup()
        grid = {(p, q): estimate_schedule_avg(profile, part, Schedule(E=160, P=p, Q=q, regime="pgl"))
                for p in (5, 10, 15, 20) for q in (1, 2, 3)}
        for q in (1, 2, 3):
            vals = [grid[(p, q)] for p in (5, 10, 15, 20)]
            assert all(a > b for a, b in zip(vals, vals[1:])), vals
        for p in (5, 10, 15, 20):
            vals = [grid[(p, q)] for q in (1, 2, 3)]
            assert all(a < b for a, b in zip(vals, vals[1:])), vals

    def test_avg_between_extremes(self):
        profile, part = self._resnet_setup()
        s = Schedule(E=160, P=10, Q=2, regime="pgl")
        avg = estimate_schedule_avg(profile, part, s)
        assert estimate_local(profile, part) < avg < estimate_bp(profile)


class TestHeadlineProfile:
    def test_resnet32_j16_ratio(self):
        # the headline footprint configuration: J=16 over the 17-unit backbone
        spec = ResNetSpec(depth=32, num_classes=10)
        plans = unit_plan(spec)
        part = partition(plans, 16)
        profile = activation_sizes(spec, part, batch=1024, aux_policy="aux_adapt")
        ratio = estimate_local(profile, part) / estimate_bp(profile)
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
        plans = unit_plan(spec)
        part = partition(plans, 8)
        profile = activation_sizes(spec, part, batch=256)
        blocks = block_footprints(profile, part)
        assert max(blocks) == estimate_local(profile, part)
        assert len(blocks) == 8


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
    def _local_activations(spec, part, batch, policy):
        # the local step's figure without optimizer state
        p = activation_sizes(spec, part, batch, policy)
        bare = MemProfile(p.unit_activations, [0] * len(p.unit_params),
                          p.head_activations, [0] * len(p.head_params))
        return max(block_footprints(bare, part)) // bare.bytes_per_element

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
        part = partition(unit_plan(spec), J)
        rows = eval_rows(spec, part, batch, policy)
        widest = self._widest(spec)
        local = self._local_activations(spec, part, batch, policy)
        assert rows >= batch
        assert rows * widest <= local < (rows + 1) * widest
        if want is not None:
            assert rows == want

    def test_never_below_batch(self):
        # one dense unit per block with a wide input: the widest step at the
        # training batch already exceeds the local figure
        spec = MlpSpec(widths=[2], num_classes=2, in_features=64)
        part = partition(unit_plan(spec), 2)
        assert self._local_activations(spec, part, 8, (0, 1)) < 8 * self._widest(spec)
        assert eval_rows(spec, part, 8, (0, 1)) == 8


class TestMeasuredPeak:
    """The running implementation keeps only what backward reads: the
    ``tracemalloc`` peak of one guided step stays close to the bytes its
    grad_fns must hold."""

    @staticmethod
    def _saved_bytes(model, x, monkeypatch) -> int:
        """Bytes of every im2col column matrix, batchnorm xhat (the size of
        its output) and 1-byte relu mask one global forward builds."""
        sizes = []

        def spy(fn, nbytes):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                sizes.append(nbytes(out))
                return out
            return wrapped

        with monkeypatch.context() as m:
            m.setattr(L, "im2col", spy(L.im2col, lambda col: col.nbytes))
            m.setattr(L, "batchnorm_forward", spy(L.batchnorm_forward, lambda t: t.data.nbytes))
            m.setattr(T, "relu", spy(T.relu, lambda t: t.data.size))
            model.forward_global(Tensor(x), train=True)
        return sum(sizes)

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
