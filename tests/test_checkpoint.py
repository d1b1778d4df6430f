"""PGLC checkpoint format: round trips, corruption detection, restore."""

import json

import numpy as np
import pytest

import pgl.checkpoint as C
import pgl.data as D
import pgl.tensor as T
from pgl.checkpoint import (apply_checkpoint, load_checkpoint, read_tensors,
                            save_checkpoint, write_tensors)
from pgl.cli import main
from pgl.config import RunConfig, SpiralsSpec, parse_config
from pgl.errors import CheckpointError
from pgl.network import DecoupledModel, MlpSpec, ResNetSpec
from pgl.tensor import Tensor
from pgl.training import NesterovSGD, evaluate, guided_epoch, local_epoch, train


class TestTensorFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"block1.conv0.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                   "block1.conv0.bias": rng.normal(size=4).astype(np.float32),
                   "meta.epoch": np.array([7.0], dtype=np.float32)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_tensors(tensors, p1)
        loaded = read_tensors(p1)
        write_tensors(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_recoverable_by_name(self, tmp_path):
        w = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "x.ckpt"
        write_tensors({"block1.conv0.weight": w}, path)
        got = read_tensors(path)["block1.conv0.weight"]
        assert np.array_equal(got, w)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_tensors({"w": np.zeros((8, 8), dtype=np.float32)}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_tensors(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_tensors({"w": np.zeros(3, dtype=np.float32)}, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            read_tensors(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_tensors({"w": np.ones(16, dtype=np.float32)}, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            read_tensors(path)

    def test_truncation_with_recomputed_crc_still_rejected(self, tmp_path):
        import struct
        import zlib

        path = tmp_path / "x.ckpt"
        write_tensors({"w": np.ones(64, dtype=np.float32)}, path)
        payload = path.read_bytes()[:-4]
        cut = payload[:len(payload) - 40]          # drop part of the tensor data
        path.write_bytes(cut + struct.pack("<I", zlib.crc32(cut)))
        with pytest.raises(CheckpointError, match="truncated"):
            read_tensors(path)

    def test_repeated_name_rejected(self, tmp_path):
        import struct
        import zlib

        def entry(value):       # a rank-1 tensor of one element, named "a"
            return struct.pack("<I", 1) + b"a" + struct.pack("<IQ", 1, 1) + np.float32(value).tobytes()

        # a well-formed file whose header counts two tensors, both named "a"
        payload = C.MAGIC + struct.pack("<II", C.VERSION, 2) + entry(1.0) + entry(2.0)
        path = tmp_path / "x.ckpt"
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointError, match="tensor a is stored twice"):
            read_tensors(path)


class TestModelCheckpoint:
    def _trained_model(self):
        cfg = RunConfig(network=MlpSpec(widths=[8, 8], num_classes=2), blocks=2,
                        regime="dgl", epochs=2, lr0=0.1, batch_size=16, seed=1,
                        dataset=SpiralsSpec(classes=2, n_per_class=24, test_n_per_class=24)).validate()
        records, model, opt = train(cfg)
        return cfg, model, opt

    def test_restore_reproduces_eval(self, tmp_path):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "final.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)

        fresh = cfg.build_model()
        fresh_opt = NesterovSGD(cfg.momentum, cfg.weight_decay)
        ckpt = load_checkpoint(path)
        apply_checkpoint(ckpt, fresh, fresh_opt)
        assert ckpt.epoch == 2

        _, test_set = cfg.build_datasets()
        batches = D.batches(test_set, 16, None, 0)
        assert evaluate(fresh, batches) == evaluate(model, batches)
        for (na, pa), (_, pb) in zip(model.named_params(), fresh.named_params()):
            assert np.array_equal(pa.data, pb.data), na
        for name, v in opt.velocity.items():
            assert np.array_equal(v, fresh_opt.velocity[name]), name

    def test_restore_continues_training_identically(self, tmp_path):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "mid.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        fresh = cfg.build_model()
        fresh_opt = NesterovSGD(cfg.momentum, cfg.weight_decay)
        apply_checkpoint(load_checkpoint(path), fresh, fresh_opt)

        train_set, _ = cfg.build_datasets()
        batches = D.batches(train_set, 16, cfg.seed, 2)
        local_epoch(model, batches, opt, lr=0.05)
        local_epoch(fresh, batches, fresh_opt, lr=0.05)
        for (na, pa), (_, pb) in zip(model.named_params(), fresh.named_params()):
            assert np.array_equal(pa.data, pb.data), na

    def test_batchnorm_state_round_trips(self, tmp_path):
        spec = ResNetSpec(depth=8, num_classes=2, input_hw=8)
        model = DecoupledModel(spec, 2, "aux_adapt", seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32))
        model.forward_global(x, train=True)
        path = tmp_path / "bn.ckpt"
        save_checkpoint(model, NesterovSGD(), epoch=0, path=path)

        fresh = DecoupledModel(spec, 2, "aux_adapt", seed=99)
        apply_checkpoint(load_checkpoint(path), fresh)
        for (pa, a), (pb, b) in zip(model.named_bns(), fresh.named_bns()):
            assert pa == pb
            assert np.array_equal(a.state.running_mean, b.state.running_mean)
            assert np.array_equal(a.state.running_var, b.state.running_var)
            assert a.state.batches_tracked == b.state.batches_tracked
        # eval mode must work right after restore
        with T.no_grad():
            logits_a = model.forward_global(x, train=False)[0][-1]
            logits_b = fresh.forward_global(x, train=False)[0][-1]
        assert np.array_equal(logits_a.data, logits_b.data)

    def test_missing_parameter_rejected(self, tmp_path):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "final.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        bigger = RunConfig(network=MlpSpec(widths=[8, 8, 8], num_classes=2), blocks=2,
                           dataset=SpiralsSpec(classes=2, n_per_class=24, test_n_per_class=24))
        with pytest.raises(CheckpointError):
            apply_checkpoint(load_checkpoint(path), bigger.build_model())

    def test_wrong_shape_velocity_rejected(self, tmp_path):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "final.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        tensors = read_tensors(path)
        name = "opt.velocity.block1.unit0.fc.weight"
        tensors[name] = tensors[name].T.copy()
        write_tensors(tensors, path)
        fresh_opt = NesterovSGD(cfg.momentum, cfg.weight_decay)
        with pytest.raises(CheckpointError, match=name):
            apply_checkpoint(load_checkpoint(path), cfg.build_model(), fresh_opt)

    @staticmethod
    def _state(model, opt):
        """Every parameter, velocity and running statistic as bytes, by name."""
        state = {name: p.data.tobytes() for name, p in model.named_params()}
        state.update((f"opt.velocity.{name}", v.tobytes()) for g in model.groups() if g.name in opt.velocity
                     for name, v in g.views(opt.velocity[g.name]))
        for prefix, bn in model.named_bns():
            state.update((f"{prefix}.{stat}", getattr(bn.state, stat).tobytes())
                         for stat in ("running_mean", "running_var"))
            state[f"{prefix}.batches_tracked"] = bn.state.batches_tracked
        return state

    @pytest.mark.parametrize("spec, J", [
        (MlpSpec(widths=[64] * 8, num_classes=3), 4),
        (ResNetSpec(depth=8, num_classes=3, input_hw=8), 2),
    ], ids=["acceptance-mlp", "resnet8"])
    def test_applied_checkpoint_trains_on_identically(self, tmp_path, spec, J):
        # save after a pgl epoch's local and guided sweeps; a model and an
        # optimizer restored into their own arrays then train on byte for byte
        rng = np.random.default_rng(5)
        batches = [[(rng.normal(size=(16, *spec.in_shape)).astype(np.float32), rng.integers(0, 3, size=16))
                    for _ in range(2)] for _ in range(2)]
        model, opt = DecoupledModel(spec, J, "aux_adapt", seed=0), NesterovSGD()
        local_epoch(model, batches[0], opt, 0.1)
        guided_epoch(model, batches[0], opt, 0.1)
        path = tmp_path / "pgl.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        fresh, fresh_opt = DecoupledModel(spec, J, "aux_adapt", seed=1), NesterovSGD()
        arrays = [g.data for g in fresh.groups()]
        apply_checkpoint(load_checkpoint(path), fresh, fresh_opt)
        assert all(g.data is a for g, a in zip(fresh.groups(), arrays))
        assert all(g.rebound() is None for g in fresh.groups())
        assert self._state(fresh, fresh_opt) == self._state(model, opt)
        for m, o in ((model, opt), (fresh, fresh_opt)):
            local_epoch(m, batches[1], o, 0.05)
            guided_epoch(m, batches[1], o, 0.05)
        assert self._state(fresh, fresh_opt) == self._state(model, opt)

    @pytest.mark.parametrize("with_opt", [False, True], ids=["no_opt", "opt"])
    def test_velocities_for_part_of_a_group_rejected(self, tmp_path, with_opt):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "final.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        tensors = read_tensors(path)
        del tensors["opt.velocity.aux1.fc1.bias"]
        write_tensors(tensors, path)
        with pytest.raises(CheckpointError, match="group aux1"):
            apply_checkpoint(load_checkpoint(path), cfg.build_model(), NesterovSGD() if with_opt else None)

    @pytest.mark.parametrize("update_aux", [True, False], ids=["pgl", "bp"])
    def test_velocities_saved_in_local_step_order(self, tmp_path, update_aux):
        # a guided step makes block J's velocities first; the file lists them
        # as a local epoch makes them: block j's, then head j's
        cfg = RunConfig(network=MlpSpec(widths=[8] * 4, num_classes=2), blocks=3,
                        dataset=SpiralsSpec(classes=2, n_per_class=24, test_n_per_class=24)).validate()
        model, opt = cfg.build_model(), NesterovSGD()
        guided_epoch(model, [(np.ones((4, 2), np.float32), np.array([0, 1, 0, 1]))], opt, 0.1, update_aux)
        path = tmp_path / "g.ckpt"
        save_checkpoint(model, opt, epoch=1, path=path)
        saved = [n[len("opt.velocity."):] for n in read_tensors(path) if n.startswith("opt.velocity.")]
        groups = model.groups() if update_aux else model.block_params
        assert saved == [name for g in groups for name, _ in g]
        assert list(opt.velocity)[0] == "block3"

    def _eval_with(self, tmp_path, capsys, corrupt):
        """Save a ResNet checkpoint, let ``corrupt`` edit its tensors, and
        return (exit code, stderr) of ``pgl eval`` on it."""
        raw = {"network": {"kind": "resnet", "depth": 8, "num_classes": 2, "input_hw": 8},
               "blocks": 2, "regime": "dgl", "epochs": 1,
               "dataset": {"kind": "spirals", "classes": 2}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        path = tmp_path / "final.ckpt"
        save_checkpoint(parse_config(config).build_model(), NesterovSGD(), epoch=0, path=path)
        tensors = read_tensors(path)
        corrupt(tensors)
        write_tensors(tensors, path)
        code = main(["eval", "--ckpt", str(path), "--config", str(config)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["missing", "wrong_shape"])
    def test_bad_batchnorm_stat_fails_eval_cleanly(self, tmp_path, capsys, corrupt):
        name = "block1.unit0.bn.running_var"

        def edit(tensors):
            if corrupt == "missing":
                del tensors[name]
            else:
                tensors[name] = tensors[name][:3].copy()

        code, err = self._eval_with(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error:") and name in err

    def test_unknown_tensor_fails_eval_cleanly(self, tmp_path, capsys):
        code, err = self._eval_with(tmp_path, capsys,
                                    lambda t: t.update(unknown=np.zeros(1, np.float32)))
        assert code == 1
        assert err.startswith("error:") and "unknown" in err

    @pytest.mark.parametrize("corrupt", ["missing", "wrong_shape"])
    def test_bad_epoch_rejected(self, tmp_path, capsys, corrupt):
        # a resume starts from meta.epoch, so a checkpoint must hold it as one value
        def edit(tensors):
            if corrupt == "missing":
                del tensors["meta.epoch"]
            else:
                tensors["meta.epoch"] = np.zeros((1, 2), np.float32)

        code, err = self._eval_with(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error:") and "meta.epoch" in err
        with pytest.raises(CheckpointError, match="meta.epoch"):
            load_checkpoint(tmp_path / "final.ckpt").epoch

    @pytest.mark.parametrize("with_opt", [False, True], ids=["no_opt", "opt"])
    @pytest.mark.parametrize("name", ["block1.unit0.fc.weights", "opt.velocity.block9.unit0.fc.weight"])
    def test_unread_tensor_rejected_with_or_without_optimizer(self, tmp_path, name, with_opt):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "final.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        tensors = read_tensors(path)
        tensors[name] = np.zeros(1, np.float32)
        write_tensors(tensors, path)
        fresh_opt = NesterovSGD() if with_opt else None
        with pytest.raises(CheckpointError, match=name):
            apply_checkpoint(load_checkpoint(path), cfg.build_model(), fresh_opt)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg, model, opt = self._trained_model()
        path = tmp_path / "final.ckpt"
        save_checkpoint(model, opt, epoch=2, path=path)
        before = path.read_bytes()

        class HalfWriter:
            """Writes half of the first chunk it is given, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(C, "open", lambda *a: HalfWriter(open(*a)), raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(model, opt, epoch=3, path=path)
        monkeypatch.undo()

        assert [p.name for p in tmp_path.iterdir()] == ["final.ckpt"]
        assert path.read_bytes() == before
        fresh = cfg.build_model()
        apply_checkpoint(load_checkpoint(path), fresh, NesterovSGD())
        for (na, pa), (_, pb) in zip(model.named_params(), fresh.named_params()):
            assert np.array_equal(pa.data, pb.data), na
