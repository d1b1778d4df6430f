"""CLI subcommands and config parsing, driven through main(argv)."""

import json

import numpy as np
import pytest

from pgl.cli import main, write_metrics
from pgl.config import config_from_dict, parse_config
from pgl.errors import ConfigError
from pgl.memory import estimate
from pgl.network import partition, unit_plan
from pgl.training import MetricsRecord, train


def spiral_config(tmp_path, **overrides):
    cfg = {
        "network": {"kind": "mlp", "widths": [8, 8, 8, 8], "num_classes": 2},
        "blocks": 2,
        "regime": "dgl",
        "epochs": 2,
        "P": 10, "Q": 2,
        "lr0": 0.1,
        "batch_size": 16,
        "seed": 0,
        "dataset": {"kind": "spirals", "classes": 2, "n_per_class": 24,
                    "test_n_per_class": 24, "noise": 0.05},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_valid_pgl_config(self, tmp_path):
        path = spiral_config(tmp_path, regime="pgl", P=10, Q=2, epochs=12)
        cfg = parse_config(path)
        assert (cfg.regime, cfg.P, cfg.Q) == ("pgl", 10, 2)

    def test_q_not_below_p_rejected(self, tmp_path):
        path = spiral_config(tmp_path, regime="pgl", P=5, Q=5)
        with pytest.raises(ConfigError, match="Q < P"):
            parse_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="regmie"):
            config_from_dict({"regmie": "pgl"})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="widht"):
            config_from_dict({"network": {"kind": "mlp", "widht": [4]}})

    def test_defaults_mirror_standard_recipe(self):
        cfg = config_from_dict({})
        assert (cfg.momentum, cfg.weight_decay, cfg.lr0) == (0.9, 1e-4, 0.8)
        assert (cfg.epochs, cfg.P, cfg.Q) == (160, 10, 2)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "regime": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_blocks_bound_checked(self, tmp_path):
        path = spiral_config(tmp_path, blocks=6)      # mlp has 4 hidden units + classifier
        with pytest.raises(ConfigError, match="blocks=6 out of range"):
            parse_config(path)

    def test_fixed_aux_range_checked(self, tmp_path):
        path = spiral_config(tmp_path, aux={"n_conv": 3, "n_fc": 1})
        with pytest.raises(ConfigError, match="n_conv"):
            parse_config(path)


class TestCmdTrain:
    def test_smoke_writes_metrics_and_checkpoint(self, tmp_path, capsys):
        path = spiral_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "final.ckpt").exists()
        assert "final test accuracy" in capsys.readouterr().out

    def test_metrics_schema(self, tmp_path):
        path = spiral_config(tmp_path)
        main(["train", "--config", str(path)])
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,mode,lr,global_loss,local_loss_1,local_loss_2,train_acc,test_acc"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "local"
        assert first[3] == ""                          # no global loss in local mode

    def test_deterministic_bytes(self, tmp_path):
        path = spiral_config(tmp_path)
        main(["train", "--config", str(path), "--out", str(tmp_path / "r1")])
        main(["train", "--config", str(path), "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == \
               (tmp_path / "r2" / "metrics.csv").read_bytes()
        assert (tmp_path / "r1" / "final.ckpt").read_bytes() == \
               (tmp_path / "r2" / "final.ckpt").read_bytes()

    def test_deterministic_across_processes(self, tmp_path):
        import subprocess
        import sys

        path = spiral_config(tmp_path)
        for out in ("p1", "p2"):
            proc = subprocess.run(
                [sys.executable, "-m", "pgl.cli", "train", "--config", str(path),
                 "--out", str(tmp_path / out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "p1" / "metrics.csv").read_bytes() == \
               (tmp_path / "p2" / "metrics.csv").read_bytes()
        assert (tmp_path / "p1" / "final.ckpt").read_bytes() == \
               (tmp_path / "p2" / "final.ckpt").read_bytes()

    def test_unwritable_out_dir_fails(self, tmp_path):
        path = spiral_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["train", "--config", str(path), "--out", str(blocker)]) == 1

    def test_divergence_nonzero_exit(self, tmp_path, capsys):
        path = spiral_config(tmp_path, lr0=50.0,
                             network={"kind": "mlp", "widths": [32] * 4, "num_classes": 2})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epoch ") and "diverged" in err
        assert not (tmp_path / "out" / "final.ckpt").exists()

    @pytest.mark.parametrize("regime", ["dgl", "bp", "pgl"])
    def test_collapse_nonzero_exit(self, tmp_path, capsys, regime):
        # lr0=50 leaves this MLP with finite losses but one output for every row
        path = spiral_config(tmp_path, regime=regime, lr0=50.0)
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 1: ") and "collapsed" in err
        assert not (tmp_path / "out" / "final.ckpt").exists()

    def test_chance_accuracy_alone_is_not_collapse(self, tmp_path, capsys):
        # this run ends at chance, but its logits still differ between rows
        path = spiral_config(tmp_path, regime="bp", seed=1)
        assert main(["train", "--config", str(path)]) == 0
        assert "final test accuracy: 0.5000" in capsys.readouterr().out
        assert (tmp_path / "out" / "final.ckpt").exists()

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        path = spiral_config(tmp_path, regime="pgl", P=2, Q=2)
        assert main(["train", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, overrides", [
        ("blocks", {"blocks": "2"}),
        ("lr0", {"lr0": "0.1"}),
        ("weight_decay", {"weight_decay": float("nan")}),
        ("epochs", {"epochs": 2.5}),
        ("batch_size", {"batch_size": 16.0}),
        ("seed", {"seed": "x"}),
        ("seed", {"seed": True}),
        ("network.widths", {"network": {"kind": "mlp", "widths": 8, "num_classes": 2}}),
        ("dataset.noise", {"dataset": {"kind": "spirals", "classes": 2, "noise": "x"}}),
        ("aux.n_conv", {"aux": {"n_conv": "a", "n_fc": 1}}),
        ("num_classes", {"network": {"kind": "mlp", "widths": [8]}}),
        ("seed", {"seed": -1}),
        ("train_images", {"dataset": {"kind": "idx"}}),
        ("n_conv", {"blocks": 1, "aux": {"n_conv": 9, "n_fc": 0}}),     # one block plans no head
        ("dataset.n_per_class", {"dataset": {"kind": "spirals", "classes": 2, "n_per_class": 0}}),
        ("dataset.test_n_per_class", {"dataset": {"kind": "spirals", "classes": 2, "test_n_per_class": 0}}),
        ("dataset.noise", {"dataset": {"kind": "spirals", "classes": 2, "noise": -0.5}}),
        ("dataset.d", {"network": {"kind": "mlp", "widths": [8], "num_classes": 3},
                       "dataset": {"kind": "blobs", "classes": 3, "d": 2}}),
        ("dataset.spread", {"dataset": {"kind": "blobs", "classes": 2, "spread": 0}}),
    ], ids=["blocks-str", "lr0-str", "weight_decay-nan", "epochs-float", "batch_size-float", "seed-str", "seed-bool",
            "widths-int", "noise-str", "aux-n_conv-str", "num_classes-missing", "seed-negative", "idx-paths-missing",
            "aux-range-without-heads", "spirals-n_per_class-0", "spirals-test_n_per_class-0", "spirals-noise-negative",
            "blobs-d-below-classes", "blobs-spread-0"])
    def test_mistyped_value_fails_cleanly(self, tmp_path, capsys, key, overrides):
        path = spiral_config(tmp_path, **overrides)
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, overrides", [
        ("in_features", {"network": {"kind": "mlp", "widths": [8], "num_classes": 2, "in_features": 5}}),
        ("in_features", {"network": {"kind": "mlp", "widths": [8], "num_classes": 2, "in_features": 0}}),
        ("in_features", {"network": {"kind": "mlp", "widths": [8], "num_classes": 2},
                         "dataset": {"kind": "blobs", "classes": 2, "d": 3}}),
        ("widths", {"network": {"kind": "mlp", "widths": [8, 0], "num_classes": 2}}),
        ("in_channels", {"network": {"kind": "resnet", "depth": 8, "num_classes": 2,
                                     "in_channels": 0, "input_hw": 8}}),
        ("input_hw", {"network": {"kind": "resnet", "depth": 8, "num_classes": 2, "input_hw": 0}}),
    ], ids=["in_features-vs-spirals", "in_features-0", "in_features-vs-blobs", "width-0",
            "in_channels-0", "input_hw-0"])
    def test_bad_input_shape_fails_cleanly(self, tmp_path, capsys, key, overrides):
        path = spiral_config(tmp_path, **overrides)
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--P", "2", "--Q", "1", "--seeds", "1"]],
                             ids=["train", "ablate"])
    def test_failed_first_forward_leaves_out_dir_as_it_was(self, tmp_path, capsys, command, existing):
        # a ResNet may name spirals as a placeholder; its 2-D samples fail the first conv
        path = spiral_config(tmp_path, network={"kind": "resnet", "depth": 8, "num_classes": 2, "input_hw": 8})
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept")
        assert main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if existing:
            assert [f.name for f in out.iterdir()] == ["notes.txt"]
            assert (out / "notes.txt").read_text() == "kept"
        else:
            assert not out.exists()

    def test_blobs_width_sets_the_input_shape(self, tmp_path, capsys):
        path = spiral_config(tmp_path, epochs=1,
                             network={"kind": "mlp", "widths": [8], "num_classes": 2, "in_features": 3},
                             dataset={"kind": "blobs", "classes": 2, "d": 3})
        assert main(["train", "--config", str(path)]) == 0


class TestCmdEval:
    def test_eval_matches_train_report(self, tmp_path, capsys):
        path = spiral_config(tmp_path)
        main(["train", "--config", str(path)])
        reported = capsys.readouterr().out
        final = [ln for ln in reported.splitlines() if "final test" in ln][0]
        ckpt = tmp_path / "out" / "final.ckpt"
        assert main(["eval", "--ckpt", str(ckpt), "--config", str(path)]) == 0
        evaluated = capsys.readouterr().out
        assert final.split(":")[1].strip() == evaluated.split(":")[1].strip()


class TestCmdGradcheck:
    def test_passes_on_fresh_checkout(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "10 ops checked" in out and "0 failed" in out

    def test_injected_relu_sign_flip_fails(self, monkeypatch):
        import pgl.gradcheck as G
        import pgl.tensor as T
        from pgl.tensor import apply_op

        def broken_relu(a):
            mask = a.data > 0
            return apply_op(np.where(mask, a.data, 0), [(a, lambda g: -g * mask)])

        monkeypatch.setattr(T, "relu", broken_relu)
        assert G.run_case("relu", seed=0) >= 1e-4          # relu's tolerance: the check fails


class TestCmdMemest:
    def test_resnet_local_below_bp(self, tmp_path, capsys):
        cfg = spiral_config(tmp_path,
                            network={"kind": "resnet", "depth": 32, "num_classes": 10},
                            dataset={"kind": "blobs", "classes": 10, "d": 10,
                                     "n_per_class": 4, "test_n_per_class": 4},
                            blocks=8, batch_size=1024, regime="pgl", epochs=160)
        assert main(["memest", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        ratio = float(out.split("local/bp = ")[1].split(")")[0])
        assert ratio < 1.0

    def test_j1_local_equals_bp(self, tmp_path, capsys):
        cfg = spiral_config(tmp_path, blocks=1)
        main(["memest", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert "(local/bp = 1.000)" in out

    def test_csv_option(self, tmp_path):
        cfg = spiral_config(tmp_path)
        csv_path = tmp_path / "mem.csv"
        main(["memest", "--config", str(cfg), "--csv", str(csv_path)])
        config = parse_config(cfg)
        est = estimate(config.network, partition(unit_plan(config.network), config.blocks),
                       config.batch_size, aux_policy=config.aux)
        want = [["quantity", "bytes"], ["peak_bp", str(est.peak_bp)], ["peak_local", str(est.peak_local)]]
        want += [[f"block_{j}", str(b)] for j, b in enumerate(est.per_block, 1)]
        assert len(est.per_block) == config.blocks
        assert [row.split(",") for row in csv_path.read_text().splitlines()] == want


class TestCmdAblate:
    def test_grid_row_count(self, tmp_path, capsys):
        cfg = spiral_config(tmp_path, regime="pgl", epochs=4, P=3, Q=1)
        assert main(["ablate", "--config", str(cfg), "--P", "2,3", "--Q", "1",
                     "--seeds", "2", "--out", str(tmp_path / "ab")]) == 0
        rows = [row.split(",") for row in (tmp_path / "ab" / "ablation.csv").read_text().splitlines()[1:]]
        assert [row[:4] for row in rows] == [["pgl", "2", "1", "0"], ["pgl", "2", "1", "1"], ["pgl", "3", "1", "0"],
                                             ["pgl", "3", "1", "1"], ["dgl", "", "", "0"], ["dgl", "", "", "1"]]
        # every row is the final accuracy of a direct train of its cell and seed
        config = parse_config(cfg)
        for regime, p, q, seed, acc in rows:
            cell = dict(P=int(p), Q=int(q)) if regime == "pgl" else {}
            records, _, _ = train(config.with_overrides(regime=regime, seed=int(seed), **cell).validate())
            assert acc == f"{records[-1].test_acc:.6f}"
        paired = [ln.split() for ln in capsys.readouterr().out.splitlines() if "pgl - dgl" in ln]
        assert [ln[:2] for ln in paired] == [["P=2", "Q=1"], ["P=3", "Q=1"]]
        assert all(ln[-1] == "6.314)" for ln in paired)          # 2 seeds: t at 1 d.o.f.

    def test_summary_includes_dgl_reference(self, tmp_path, capsys):
        cfg = spiral_config(tmp_path, regime="pgl", epochs=4, P=3, Q=1)
        main(["ablate", "--config", str(cfg), "--P", "2", "--Q", "1", "--seeds", "1",
              "--out", str(tmp_path / "ab")])
        out = capsys.readouterr().out
        assert "DGL" in out and "pgl - dgl" not in out    # one seed pairs nothing

    def test_empty_p_list_rejected(self, tmp_path, capsys):
        cfg = spiral_config(tmp_path)
        assert main(["ablate", "--config", str(cfg), "--P", "", "--Q", "1"]) == 1

    def test_non_integer_p_rejected(self, tmp_path, capsys):
        cfg = spiral_config(tmp_path)
        assert main(["ablate", "--config", str(cfg), "--P", "5,x", "--Q", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: P list")

    def test_invalid_pair_rejected(self, tmp_path):
        cfg = spiral_config(tmp_path)
        assert main(["ablate", "--config", str(cfg), "--P", "2", "--Q", "2"]) == 1


class TestConvTrainingViaIdx:
    def _write_idx_pair(self, tmp_path, n, tag):
        import struct

        rng = np.random.default_rng(0 if tag == "train" else 1)
        labels = np.arange(n, dtype=np.uint8) % 2
        images = np.zeros((n, 8, 8), dtype=np.uint8)
        # class 0 bright top half, class 1 bright bottom half, plus noise
        for i in range(n):
            half = slice(0, 4) if labels[i] == 0 else slice(4, 8)
            images[i, half, :] = 200
        images = np.clip(images + rng.integers(0, 40, size=images.shape), 0, 255).astype(np.uint8)
        img_path = tmp_path / f"{tag}_images.idx"
        lbl_path = tmp_path / f"{tag}_labels.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, n, 8, 8))
            f.write(images.tobytes())
        with open(lbl_path, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, n))
            f.write(labels.tobytes())
        return img_path, lbl_path

    @staticmethod
    def _config(tmp_path, tr_img, tr_lbl, te_img, te_lbl):
        cfg = {
            "network": {"kind": "resnet", "depth": 8, "num_classes": 2,
                        "in_channels": 1, "input_hw": 8},
            "blocks": 2,
            "regime": "pgl",
            "epochs": 3, "P": 2, "Q": 1,
            "lr0": 0.05,
            "batch_size": 8,
            "seed": 0,
            "dataset": {"kind": "idx", "train_images": str(tr_img), "train_labels": str(tr_lbl),
                        "test_images": str(te_img), "test_labels": str(te_lbl),
                        "mean": 0.5, "std": 0.5},
            "out_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cnn.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_resnet_trains_on_idx_images(self, tmp_path, capsys):
        tr_img, tr_lbl = self._write_idx_pair(tmp_path, 32, "train")
        te_img, te_lbl = self._write_idx_pair(tmp_path, 16, "test")
        path = self._config(tmp_path, tr_img, tr_lbl, te_img, te_lbl)
        assert main(["train", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        acc = float(out.split("final test accuracy:")[1].split()[0])
        assert acc >= 0.75                  # trivially separable halves
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4              # header + 3 epochs
        assert "guided" in lines[3]         # epoch 2 hits the P=2 calendar
        # the checkpoint (with batchnorm stats) evaluates identically
        assert main(["eval", "--ckpt", str(tmp_path / "out" / "final.ckpt"),
                     "--config", str(path)]) == 0
        eval_acc = float(capsys.readouterr().out.split("test accuracy:")[1].split()[0])
        assert eval_acc == acc

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_split_without_images_fails_cleanly(self, tmp_path, capsys, split):
        pairs = {tag: self._write_idx_pair(tmp_path, 0 if tag == split else 16, tag) for tag in ("train", "test")}
        path = self._config(tmp_path, *pairs["train"], *pairs["test"])
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{split}_images.idx" in err and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["no-images", "count-mismatch", "bad-magic", "truncated"])
    def test_refused_pair_leaves_no_out_dir(self, tmp_path, capsys, fault):
        import struct

        tr_img, tr_lbl = self._write_idx_pair(tmp_path, 0 if fault == "no-images" else 16, "train")
        path = self._config(tmp_path, tr_img, tr_lbl, *self._write_idx_pair(tmp_path, 16, "test"))
        if fault == "count-mismatch":
            tr_lbl.write_bytes(struct.pack(">II", 0x00000801, 15) + bytes(15))
        elif fault == "bad-magic":
            tr_img.write_bytes(bytes(4) + tr_img.read_bytes()[4:])
        elif fault == "truncated":
            tr_img.write_bytes(tr_img.read_bytes()[:-1])
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train_" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("std", [0, -0.5])
    def test_nonpositive_std_fails_before_any_output(self, tmp_path, capsys, std):
        # a zero std makes every image NaN, and a negative one flips its sign
        path = self._config(tmp_path, *self._write_idx_pair(tmp_path, 32, "train"),
                            *self._write_idx_pair(tmp_path, 16, "test"))
        cfg = json.loads(path.read_text())
        cfg["dataset"]["std"] = std
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dataset.std" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--P", "2", "--Q", "1", "--seeds", "1"]])
    def test_missing_files_fail_before_any_output(self, tmp_path, capsys, command):
        tr_img, tr_lbl = self._write_idx_pair(tmp_path, 32, "train")
        te_img = tmp_path / "missing_images.idx"
        path = self._config(tmp_path, tr_img, tr_lbl, te_img, tmp_path / "missing_labels.idx")
        assert main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dataset.test_images" in err and str(te_img) in err
        assert not (tmp_path / "out").exists()


class TestWriteMetrics:
    def test_absent_values_stay_empty(self, tmp_path):
        records = [MetricsRecord(0, "local", 0.1, None, [0.5, None], 0.5, 0.5)]
        path = tmp_path / "m.csv"
        write_metrics(records, 2, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[3] == "" and row[5] == ""
        assert row[4] == "0.5"
