"""Schedules, the Nesterov update, local/guided epochs, and the full loop."""

import math

import numpy as np
import pytest

import pgl.data as D
import pgl.tensor as T
import pgl.training as TR
from pgl.config import RunConfig, SpiralsSpec
from pgl.errors import ConfigError, ContractError, DomainError, ShapeError
from pgl.layers import softmax_cross_entropy
from pgl.memory import eval_rows
from pgl.network import DecoupledModel, MlpSpec, ParamGroup, ResNetSpec
from pgl.tensor import Tensor
from pgl.training import (GUIDED, LOCAL, T95, NesterovSGD, Schedule, evaluate,
                          guided_epoch, guided_epoch_count, local_epoch, lr_at,
                          mode_of_epoch, paired, panel, train)


def guided_predicate(e, P, Q):
    """The defining condition: some k >= 1 has kP <= e < kP + Q."""
    return any(k * P <= e < k * P + Q for k in range(1, e // P + 2))


def mlp_config(**kw):
    base = dict(network=MlpSpec(widths=[8, 8, 8, 8], num_classes=2),
                blocks=2, aux="aux_adapt", regime="dgl", epochs=3, P=10, Q=2,
                lr0=0.1, batch_size=16, seed=0,
                dataset=SpiralsSpec(classes=2, n_per_class=32, test_n_per_class=32))
    base.update(kw)
    return RunConfig(**base).validate()


class TestSchedule:
    def test_paper_default_sequence(self):
        s = Schedule(E=160, P=10, Q=2, regime="pgl")
        assert mode_of_epoch(9, s) == LOCAL
        assert mode_of_epoch(10, s) == GUIDED
        assert mode_of_epoch(11, s) == GUIDED
        assert mode_of_epoch(12, s) == LOCAL

    def test_epoch_zero_always_local(self):
        for P, Q in [(2, 1), (5, 3), (10, 2)]:
            assert mode_of_epoch(0, Schedule(E=20, P=P, Q=Q, regime="pgl")) == LOCAL

    def test_matches_predicate_everywhere(self):
        for P in (2, 3, 5, 10, 15, 20):
            for Q in (1, 2, 3):
                if Q >= P:
                    continue
                s = Schedule(E=160, P=P, Q=Q, regime="pgl")
                for e in range(160):
                    want = GUIDED if guided_predicate(e, P, Q) else LOCAL
                    assert mode_of_epoch(e, s) == want, (P, Q, e)

    def test_count_p5_q3(self):
        s = Schedule(E=160, P=5, Q=3, regime="pgl")
        assert guided_epoch_count(s) == 93            # 31 periods * 3

    def test_count_p10_q2(self):
        assert guided_epoch_count(Schedule(E=160, P=10, Q=2, regime="pgl")) == 30

    def test_baseline_regimes(self):
        assert mode_of_epoch(0, Schedule(E=5, regime="dgl")) == LOCAL
        assert mode_of_epoch(4, Schedule(E=5, regime="bp")) == GUIDED

    def test_q_must_be_below_p(self):
        with pytest.raises(ConfigError):
            Schedule(E=10, P=5, Q=5, regime="pgl").validate()

    def test_p_above_e_is_allowed(self):
        s = Schedule(E=10, P=11, Q=2, regime="pgl")
        s.validate()
        assert guided_epoch_count(s) == 0


class TestLrSchedule:
    def test_initial(self):
        assert lr_at(0, 160, 0.8) == 0.8

    def test_midpoint(self):
        assert abs(lr_at(80, 160, 0.8) - 0.4) < 1e-12

    def test_final_epoch(self):
        want = 0.8 * 0.5 * (1 + math.cos(159 * math.pi / 160))
        got = lr_at(159, 160, 0.8)
        assert abs(got - want) < 1e-15
        assert got < 1e-4


def _velocities(groups, opt) -> dict:
    """Each stepped parameter's velocity by name: a view of its group's array."""
    return {name: v for g in groups if g.name in opt.velocity for name, v in g.views(opt.velocity[g.name])}


class TestNesterovSGD:
    def _step(self, theta, grad, lr, momentum, wd):
        p = Tensor(np.array([theta], dtype=np.float32), requires_grad=True)
        opt = NesterovSGD(momentum, wd)
        g = Tensor(np.array([grad], dtype=np.float32))
        group = ParamGroup("g", [("p", p)])
        opt.step(group, {p.node_id: g}, lr)
        return float(p.data[0]), float(_velocities([group], opt)["p"][0])

    def test_one_step_hand_oracle(self):
        theta, v = self._step(1.0, 0.5, lr=0.1, momentum=0.9, wd=0.0)
        assert abs(v - 0.5) < 1e-7
        assert abs(theta - 0.905) < 1e-7              # 1 - 0.1*(0.5 + 0.45)

    def test_plain_sgd_limit(self):
        theta, _ = self._step(1.0, 0.25, lr=0.2, momentum=0.0, wd=0.0)
        assert abs(theta - (1.0 - 0.2 * 0.25)) < 1e-7

    def test_weight_decay_only(self):
        theta, _ = self._step(1.0, 0.0, lr=1.0, momentum=0.9, wd=1e-4)
        assert abs(theta - 0.99981) < 1e-7            # 1 - (1e-4 + 0.9e-4)

    def test_shrink_factor_with_zero_grad(self):
        lr, wd, mu = 0.3, 1e-3, 0.9
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        before = p.data.copy()
        opt = NesterovSGD(mu, wd)
        opt.step(ParamGroup("g", [("p", p)]), {p.node_id: Tensor(np.zeros((3, 2), dtype=np.float32))}, lr)
        assert np.allclose(p.data, before * (1 - lr * wd * (1 + mu)), atol=1e-8)

    def test_in_place_matches_formula(self):
        # three steps, the first included, against the out-of-place formula
        # g = grad + wd*p; v = g (first) or mu*v + g; p -= lr*(g + mu*v)
        lr, wd, mu = 0.05, 1e-4, 0.9
        rng = np.random.default_rng(7)
        shapes = {"w": (64, 128), "b": (128,), "gamma": (16,)}
        params = {n: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for n, s in shapes.items()}
        group = ParamGroup("g", params.items())
        ref_p = {n: p.data.copy() for n, p in params.items()}
        ref_v = {}
        opt = NesterovSGD(mu, wd)
        for step in range(3):
            grads = {n: Tensor(rng.normal(size=s).astype(np.float32)) for n, s in shapes.items()}
            opt.step(group, {params[n].node_id: g for n, g in grads.items()}, lr)
            for n in shapes:
                g = grads[n].data + np.float32(wd) * ref_p[n]
                v = ref_v.get(n)
                v = g if v is None else np.float32(mu) * v + g
                ref_v[n] = v
                ref_p[n] = ref_p[n] - np.float32(lr) * (g + np.float32(mu) * v)
                stored = _velocities([group], opt)[n]
                assert np.array_equal(params[n].data, ref_p[n]), (step, n)
                assert np.array_equal(stored, ref_v[n]), (step, n)
                assert not np.shares_memory(stored, grads[n].data)
                assert not np.shares_memory(stored, params[n].data)

    def test_missing_gradient_raises(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="no gradient for parameter p"):
            NesterovSGD().step(ParamGroup("g", [("p", p)]), {}, 0.1)

    def test_misshapen_gradient_raises_before_any_update(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = NesterovSGD()
        grads = {a.node_id: Tensor(np.ones(2, dtype=np.float32)), b.node_id: Tensor(np.ones(2, dtype=np.float32))}
        with pytest.raises(ShapeError, match=r"\(b\)"):
            opt.step(ParamGroup("g", [("a", a), ("b", b)]), grads, 0.1)
        assert a.data.tolist() == [1.0, 1.0] and opt.velocity == {}

    def test_step_pops_the_groups_gradients(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        other = Tensor(np.ones(1, dtype=np.float32))
        grads = {a.node_id: Tensor(np.ones(2, dtype=np.float32)), -1: other}
        NesterovSGD().step(ParamGroup("g", [("a", a)]), grads, 0.1)
        assert grads == {-1: other}

    def test_rebound_parameter_raises(self):
        model = DecoupledModel(MlpSpec(widths=[4], num_classes=2), 1, "aux_adapt", seed=0)
        group = model.block_params[0]
        name, p = group.named[1]
        p.data = p.data.copy()
        grads = {q.node_id: Tensor(np.ones_like(q.data)) for _, q in group}
        with pytest.raises(ContractError, match=name):
            NesterovSGD().step(group, grads, 0.1)

    def test_groups_are_views_of_one_array(self):
        spec = MlpSpec(widths=[8, 8, 8, 8], num_classes=3)
        model = DecoupledModel(spec, 2, "aux_adapt", seed=0)
        for group in model.groups():
            assert group.data.dtype == np.float32 and group.data.ndim == 1
            assert group.data.size == sum(p.size for _, p in group)
            assert all(np.shares_memory(p.data, group.data) for _, p in group)
            assert group.rebound() is None
        opt = NesterovSGD()
        local_epoch(model, [(np.ones((4, 2), np.float32), np.array([0, 1, 2, 0]))], opt, 0.1)
        assert list(opt.velocity) == [group.name for group in model.groups()]
        for group in model.groups():
            v = opt.velocity[group.name]
            assert v.dtype == np.float32 and v.shape == group.data.shape
            assert not np.shares_memory(v, group.data)


def _measure_local_losses(model, x, y, boundaries=None):
    """Per-block losses on a fixed batch without any update.

    With ``boundaries`` given, each block is fed those recorded inputs
    instead of the freshly chained activations; otherwise the chained
    boundaries are recorded and returned alongside the losses."""
    losses = []
    recorded = []
    with T.no_grad():
        h = Tensor(x)
        for j in range(1, model.J + 1):
            inp = h if boundaries is None else (Tensor(x) if j == 1 else Tensor(boundaries[j - 2]))
            out, logits = model.forward_local(inp, j, train=True)
            losses.append(softmax_cross_entropy(logits, y).item())
            recorded.append(out.data.copy())
            h = out.detach()
    return losses, recorded


class TestLocalEpoch:
    def test_all_blocks_move_despite_isolation(self):
        cfg = mlp_config(blocks=4, network=MlpSpec(widths=[8] * 8, num_classes=2))
        model = cfg.build_model()
        init = {name: p.data.copy() for name, p in model.named_params()}
        train_set, _ = cfg.build_datasets()
        local_epoch(model, D.batches(train_set, 16, 0, 0), NesterovSGD(), lr=0.1)
        for j in range(1, 5):
            moved = any(not np.array_equal(init[name], p.data)
                        for name, p in model.block_params[j - 1])
            assert moved, f"block {j} never updated"

    def test_j1_equals_bp_epoch_bitwise(self):
        cfg = mlp_config(blocks=1)
        a = cfg.build_model()
        b = cfg.build_model()
        train_set, _ = cfg.build_datasets()
        batches = D.batches(train_set, 16, 0, 0)
        local_epoch(a, batches, NesterovSGD(), lr=0.1)
        guided_epoch(b, batches, NesterovSGD(), lr=0.1)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(pa.data, pb.data), na

    def test_small_lr_never_increases_batch_loss(self):
        # one local step at lr=1e-3 on a fixed batch, 20 random trials; each
        # block's loss is re-measured at the boundary inputs it stepped on
        for trial in range(20):
            model = DecoupledModel(MlpSpec(widths=[8, 8, 8, 8], num_classes=2),
                                   J=2, aux_policy="aux_adapt", seed=trial)
            rng = np.random.default_rng(trial)
            x = rng.normal(size=(16, 2)).astype(np.float32)
            y = rng.integers(0, 2, size=16)
            before, boundaries = _measure_local_losses(model, x, y)
            local_epoch(model, [(x, y)], NesterovSGD(), lr=1e-3)
            after, _ = _measure_local_losses(model, x, y, boundaries)
            for j, (b0, a0) in enumerate(zip(before, after), 1):
                assert a0 <= b0 + 1e-6, f"trial {trial} block {j}: {b0} -> {a0}"


class TestGuidedEpoch:
    def test_aux_updates_do_not_touch_backbone(self):
        cfg = mlp_config(blocks=3, network=MlpSpec(widths=[6] * 6, num_classes=2))
        with_aux = cfg.build_model()
        without_aux = cfg.build_model()
        train_set, _ = cfg.build_datasets()
        batches = D.batches(train_set, 16, 0, 0)
        guided_epoch(with_aux, batches, NesterovSGD(), lr=0.1, update_aux=True)
        guided_epoch(without_aux, batches, NesterovSGD(), lr=0.1, update_aux=False)
        for j in range(1, 4):
            for (na, pa), (_, pb) in zip(with_aux.block_params[j - 1],
                                         without_aux.block_params[j - 1]):
                assert np.array_equal(pa.data, pb.data), na

    def test_aux_heads_do_move_when_enabled(self):
        cfg = mlp_config(blocks=2)
        model = cfg.build_model()
        init = {name: p.data.copy() for name, p in model.head_params[0]}
        train_set, _ = cfg.build_datasets()
        guided_epoch(model, D.batches(train_set, 16, 0, 0), NesterovSGD(), lr=0.1)
        assert any(not np.array_equal(init[name], p.data)
                   for name, p in model.head_params[0])

    @pytest.mark.parametrize("update_aux", [True, False], ids=["aux", "no-aux"])
    @pytest.mark.parametrize("spec, J", [
        (MlpSpec(widths=[64] * 8, num_classes=3), 4),
        (ResNetSpec(depth=8, num_classes=3, input_hw=8), 2),
        (ResNetSpec(depth=8, num_classes=3, input_hw=8), 5),
    ], ids=["acceptance-mlp", "resnet8", "resnet8-j5"])
    def test_block_by_block_equals_one_stored_backward(self, spec, J, update_aux):
        # three batches, so velocities are made and then carried; at J=5 the
        # stem is block 1, whose batchnorm + relu output is a boundary
        a = DecoupledModel(spec, J, "aux_adapt", seed=3)
        b = DecoupledModel(spec, J, "aux_adapt", seed=3)
        rng = np.random.default_rng(3)
        n = 16
        batches = [(rng.normal(size=(n, *spec.in_shape)).astype(np.float32), rng.integers(0, 3, size=n))
                   for _ in range(3)]
        opt, velocity = NesterovSGD(), {}
        guided_epoch(a, batches, opt, 0.1, update_aux=update_aux)
        for x, y in batches:
            _stored_guided_step(b, x, y, velocity, 0.1, update_aux)
        for (name, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            assert pa.data.tobytes() == pb.data.tobytes(), name
        stepped = _velocities(a.groups(), opt)
        assert set(stepped) == set(velocity)
        for name, v in velocity.items():
            assert stepped[name].tobytes() == v.tobytes(), name
        for (name, bn_a), (_, bn_b) in zip(a.named_bns(), b.named_bns()):
            for stat in ("running_mean", "running_var"):
                assert getattr(bn_a.state, stat).tobytes() == getattr(bn_b.state, stat).tobytes(), name
            assert bn_a.state.batches_tracked == bn_b.state.batches_tracked

    def test_returns_global_and_aux_losses(self):
        cfg = mlp_config(blocks=2)
        model = cfg.build_model()
        train_set, _ = cfg.build_datasets()
        gl, aux = guided_epoch(model, D.batches(train_set, 16, 0, 0), NesterovSGD(), lr=0.1)
        assert gl > 0 and len(aux) == 1 and aux[0] > 0


def _stored_guided_step(model, x, y, velocity, lr, update_aux, mu=0.9, wd=1e-4):
    """A guided step as one backward over the whole chain, then one update of
    every block, parameter by parameter; then the heads on the boundaries.
    ``velocity`` maps parameter names to their velocities."""
    mu, wd, lr = np.float32(mu), np.float32(wd), np.float32(lr)

    def update(params, grads):
        for name, p in params:
            gd = wd * p.data
            gd += grads[p.node_id].data
            v = velocity.get(name)
            if v is None:
                v = velocity[name] = gd.copy()
            else:
                v *= mu
                v += gd
            gd += mu * v
            gd *= lr
            p.data -= gd

    h, boundary = Tensor(x), []
    for units in model.blocks:
        for unit in units:
            h = unit.forward(h, True)
        boundary.append(Tensor(h.data))
    update([named for group in model.block_params for named in group],
           T.backward(softmax_cross_entropy(h, y)))
    if update_aux:
        for j in range(1, model.J):
            logits = model.aux_logits(boundary[j - 1], j, True)
            update(model.head_params[j - 1], T.backward(softmax_cross_entropy(logits, y)))


class TestEvaluate:
    def _blob_model_with_oracle_weights(self):
        model = DecoupledModel(MlpSpec(widths=[2], num_classes=2), 1, "aux_adapt", seed=0)
        hidden, clf = (unit.fc for unit in model.blocks[0])
        hidden.weight.data[...] = np.eye(2)
        hidden.bias.data[...] = 0.0
        clf.weight.data[...] = [[1.0, -1.0], [-1.0, 1.0]]
        clf.bias.data[...] = 0.0
        return model

    def test_oracle_weights_on_separable_blobs(self):
        blobs = D.gen_blobs(50, 2, 2, spread=0.01, seed=0)
        model = self._blob_model_with_oracle_weights()
        assert evaluate(model, D.batches(blobs, 25, None, 0)) == 1.0

    def test_untrained_near_chance(self):
        accs = []
        for seed in range(6):
            model = DecoupledModel(MlpSpec(widths=[8, 8], num_classes=2), 1, "aux_adapt", seed=seed)
            blobs = D.gen_blobs(100, 2, 2, spread=0.5, seed=seed)
            accs.append(evaluate(model, D.batches(blobs, 50, None, 0)))
        assert abs(np.mean(accs) - 0.5) <= 0.25

    def test_deterministic(self):
        cfg = mlp_config()
        model = cfg.build_model()
        _, test_set = cfg.build_datasets()
        batches = D.batches(test_set, 16, None, 0)
        model.forward_global(Tensor(test_set.inputs[:4]), train=True)
        assert evaluate(model, batches) == evaluate(model, batches)


class ImageSpec:
    """A tiny synthetic image dataset: a fixed prototype per class plus noise."""

    def __init__(self, n: int, hw: int, classes: int):
        self.n, self.hw, self.classes = n, hw, classes

    def build(self, seed):
        rng = np.random.default_rng(seed)
        proto = rng.normal(size=(self.classes, 3, self.hw, self.hw))
        sets = []
        for _ in range(2):
            y = np.arange(self.n) % self.classes
            x = proto[y] + rng.normal(size=(self.n, 3, self.hw, self.hw))
            sets.append(D.Dataset(x.astype(np.float32), y.astype(np.int64), self.classes))
        return tuple(sets)


class TestEvalChunks:
    """train() evaluates in ``eval_rows``-row batches; the accuracies equal
    those of training-sized batches exactly.  So do the MLP's logits.  On this
    tiny ResNet the 2x2 stage's GEMMs are small enough that BLAS sums them in
    a row-count-dependent order, and logits move in the last bits."""

    @pytest.mark.parametrize("cfg, exact_logits", [
        (mlp_config(regime="pgl", P=2, Q=1, epochs=3,
                    dataset=SpiralsSpec(classes=2, n_per_class=100, test_n_per_class=90)), True),
        (mlp_config(network=ResNetSpec(depth=8, num_classes=3, input_hw=8), blocks=2,
                    regime="pgl", P=2, Q=1, epochs=3, batch_size=8,
                    dataset=ImageSpec(45, 8, 3)), False),
    ], ids=["mlp", "resnet"])
    def test_accuracies_equal_training_batch_evaluation(self, cfg, exact_logits):
        recs, model, _ = train(cfg)
        rows = eval_rows(model.plan, cfg.batch_size)
        train_set, test_set = cfg.build_datasets()
        # both cuts end in a short batch
        assert rows > cfg.batch_size
        assert all(len(ds) % rows and len(ds) % cfg.batch_size for ds in (train_set, test_set))
        for ds, acc in [(train_set, recs[-1].train_acc), (test_set, recs[-1].test_acc)]:
            assert evaluate(model, D.batches(ds, cfg.batch_size, None, 0)) == acc
            logits = []
            with T.no_grad():
                for size in (cfg.batch_size, rows):
                    logits.append(np.concatenate([model.forward_global(Tensor(x), train=False)[0][-1].data
                                                  for x, _ in D.batches(ds, size, None, 0)]))
            if exact_logits:
                assert np.array_equal(*logits)
            else:
                assert np.allclose(*logits, rtol=1e-5, atol=1e-5)


class TestTrain:
    def test_dgl_equals_pgl_with_inactive_guidance(self):
        recs_a, model_a, _ = train(mlp_config(regime="dgl", epochs=3))
        recs_b, model_b, _ = train(mlp_config(regime="pgl", epochs=3, P=4, Q=1))
        for ra, rb in zip(recs_a, recs_b):
            assert (ra.mode, ra.lr, ra.local_losses, ra.train_acc, ra.test_acc) == \
                   (rb.mode, rb.lr, rb.local_losses, rb.train_acc, rb.test_acc)
        for (na, pa), (_, pb) in zip(model_a.named_params(), model_b.named_params()):
            assert np.array_equal(pa.data, pb.data), na

    def test_guided_epoch_count_in_run(self):
        recs, _, _ = train(mlp_config(regime="pgl", epochs=12, P=10, Q=2))
        guided = [r.epoch for r in recs if r.mode == GUIDED]
        assert guided == [10, 11]

    def test_bp_regime_all_guided_no_aux_loss(self):
        recs, _, _ = train(mlp_config(regime="bp", epochs=2))
        assert all(r.mode == GUIDED for r in recs)
        assert all(v is None for r in recs for v in r.local_losses)

    def test_metrics_one_record_per_epoch(self):
        recs, _, _ = train(mlp_config(epochs=3))
        assert [r.epoch for r in recs] == [0, 1, 2]
        assert all(r.lr > 0 for r in recs)
        for r in recs:
            for v in r.local_losses:
                assert v is None or v >= 0

    def test_greedy_shortsightedness_soft_check(self):
        # early blocks carry higher local loss than the final block after
        # training; linear probes on every block keep head capacity matched
        # to the terminal classifier so the comparison is depth vs depth
        cfg = mlp_config(network=MlpSpec(widths=[32] * 8, num_classes=3), blocks=4,
                         aux=(0, 1), regime="dgl", epochs=15, lr0=0.1, batch_size=32,
                         dataset=SpiralsSpec(classes=3, n_per_class=128, test_n_per_class=64))
        first, last = [], []
        for seed in (0, 1):
            recs, _, _ = train(cfg.with_overrides(seed=seed).validate())
            tail = recs[-3:]
            first.append(np.mean([r.local_losses[0] for r in tail]))
            last.append(np.mean([r.local_losses[-1] for r in tail]))
        assert np.mean(first) >= np.mean(last)

    @pytest.mark.parametrize("mode, schedule", [(LOCAL, dict(epochs=2)), (GUIDED, dict(epochs=3, P=2, Q=1))],
                             ids=[LOCAL, GUIDED])
    def test_one_block_per_unit_trains(self, mode, schedule):
        # 5 units, 4 partitionable: the classifier is block 5 on its own
        cfg = mlp_config(blocks=5, regime="pgl", **schedule)
        recs, model, _ = train(cfg)
        assert [len(units) for units in model.blocks] == [1] * 5
        assert recs[-1].mode == mode
        losses = [[v for v in [r.global_loss] + r.local_losses if v is not None] for r in recs]
        assert len(losses[-1]) == 5                  # 5 local, or global + 4 heads
        assert all(math.isfinite(v) for epoch in losses for v in epoch)

    @pytest.mark.parametrize("regime, where", [("dgl", "block"), ("bp", "global")])
    def test_divergence_raises(self, regime, where):
        cfg = mlp_config(network=MlpSpec(widths=[32] * 4, num_classes=2), regime=regime,
                         lr0=50.0, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(DomainError, match=rf"epoch \d+: {where}"):
            train(cfg)


class TestPanel:
    def test_t95_matches_the_standard_table(self):
        assert len(T95) == 29
        assert [T95[d - 1] for d in (1, 4, 9, 29)] == [6.314, 2.132, 1.833, 1.699]
        assert all(a > b for a, b in zip(T95, T95[1:]))

    def test_paired_refuses_one_seed(self):
        with pytest.raises(ConfigError, match="at least 2 seeds"):
            paired([0.9], [0.8])
        assert paired(np.ones(40), np.zeros(40)) == (100.0, 0.0, 1.699)    # t held past 29 d.o.f.

    def test_every_cell_is_validated_before_the_first_run(self, monkeypatch):
        monkeypatch.setattr(TR, "train", lambda config: pytest.fail("a run started"))
        with pytest.raises(ConfigError, match="1 <= Q < P"):
            list(panel(mlp_config(regime="pgl"), {"good": dict(P=3, Q=1), "bad": dict(P=2, Q=2)}, [0]))
