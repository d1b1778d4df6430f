"""Data generators, deterministic batching, IDX parsing."""

import struct

import numpy as np
import pytest

import pgl.data as D
from pgl.config import BlobsSpec, RunConfig, SpiralsSpec
from pgl.errors import ConfigError, DataError, FormatError
from pgl.network import MlpSpec
from pgl.training import train


def write_idx_pair(tmp_path, images, labels, tag=""):
    """Independent IDX writer used as the round-trip fixture."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = images.shape
    img_path = tmp_path / f"images{tag}.idx"
    lbl_path = tmp_path / f"labels{tag}.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())
    return img_path, lbl_path


class TestBlobs:
    def test_exact_balance(self):
        ds = D.gen_blobs(50, 2, 2, spread=0.3, seed=0)
        assert len(ds) == 100
        assert np.bincount(ds.labels).tolist() == [50, 50]

    def test_bit_reproducible(self):
        a = D.gen_blobs(20, 3, 3, spread=0.2, seed=5)
        b = D.gen_blobs(20, 3, 3, spread=0.2, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_tiny_spread_is_linearly_separable(self):
        # a linear probe (J=1, single-linear-unit mlp, bp) must reach 1.0
        cfg = RunConfig(network=MlpSpec(widths=[2], num_classes=2),
                        blocks=1, regime="bp", epochs=8, lr0=0.1, batch_size=16,
                        seed=0, dataset=BlobsSpec(classes=2, n_per_class=40,
                                                  test_n_per_class=40, spread=0.01)).validate()
        records, _, _ = train(cfg)
        assert records[-1].test_acc == 1.0

    def test_needs_enough_dims(self):
        with pytest.raises(ConfigError):
            D.gen_blobs(10, 2, 3, spread=0.1, seed=0)


class TestSpirals:
    def test_counts(self):
        ds = D.gen_spirals(100, 3, noise=0.1, seed=0)
        assert len(ds) == 300
        assert np.bincount(ds.labels).tolist() == [100, 100, 100]

    def test_noise_free_points_on_curve(self):
        ds = D.gen_spirals(64, 2, noise=0.0, seed=0)
        for c in range(2):
            pts = ds.inputs[ds.labels == c].astype(np.float64)
            t = np.linspace(0.0, 1.0, 64)
            angle = 2 * np.pi * D.SPIRAL_TURNS * t + 2 * np.pi * c / 2
            want = np.stack([t * np.cos(angle), t * np.sin(angle)], axis=1)
            assert np.max(np.abs(pts - want)) < 1e-6

    def test_reproducible(self):
        a = D.gen_spirals(30, 3, noise=0.05, seed=2)
        b = D.gen_spirals(30, 3, noise=0.05, seed=2)
        assert np.array_equal(a.inputs, b.inputs)

    def test_noise_005_fit_by_deep_mlp(self):
        # recorded baseline: end-to-end training exceeds 95% train accuracy
        # in 60 epochs on this draw (measured 0.9514)
        cfg = RunConfig(network=MlpSpec(widths=[64] * 8, num_classes=3), blocks=1,
                        regime="bp", epochs=60, lr0=0.1, batch_size=64, seed=0,
                        dataset=SpiralsSpec(classes=3, n_per_class=96,
                                            test_n_per_class=96, noise=0.05)).validate()
        records, _, _ = train(cfg)
        assert records[-1].train_acc > 0.95


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(4, 5, 6), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = D.load_idx(img, lbl)
        assert ds.inputs.shape == (4, 1, 5, 6)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.inputs, images[:, None].astype(np.float32) / 255.0)

    def test_normalization(self, tmp_path):
        images = np.full((1, 2, 2), 255, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0])
        ds = D.load_idx(img, lbl, mean=0.5, std=0.5)
        assert np.allclose(ds.inputs, 1.0)            # (1.0 - 0.5) / 0.5

    def test_wrong_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(FormatError):
            D.load_idx(lbl, lbl)                      # labels file has 0x801, not 0x803

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        _, lbl3 = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2], tag="3")
        with pytest.raises(DataError):
            D.load_idx(img, lbl3)

    def test_truncated_file(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((4, 3, 3), np.uint8), [0, 1, 2, 3])
        blob = img.read_bytes()
        img.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated IDX file"):
            D.load_idx(img, lbl)


class TestBatches:
    def _tiny(self, n=10):
        return D.Dataset(np.arange(n * 2, dtype=np.float32).reshape(n, 2),
                         np.zeros(n, dtype=np.int64), 1)

    def test_short_final_batch_kept(self):
        sizes = [len(y) for _, y in D.batches(self._tiny(10), 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_batches_partition_indices(self):
        ds = self._tiny(17)
        got = np.sort(np.concatenate([x[:, 0] for x, _ in D.batches(ds, 5, seed=3, epoch=1)]))
        assert np.array_equal(got, ds.inputs[:, 0])

    def test_reshuffles_each_epoch(self):
        ds = self._tiny(128)
        e0 = np.concatenate([x[:, 0] for x, _ in D.batches(ds, 32, seed=1, epoch=0)])
        e1 = np.concatenate([x[:, 0] for x, _ in D.batches(ds, 32, seed=1, epoch=1)])
        assert not np.array_equal(e0, e1)

    def test_deterministic_in_seed_epoch(self):
        ds = self._tiny(64)
        a = D.batches(ds, 16, seed=9, epoch=4)
        b = D.batches(ds, 16, seed=9, epoch=4)
        for (xa, _), (xb, _) in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_unshuffled_eval_order(self):
        ds = self._tiny(6)
        x, _ = D.batches(ds, 6, seed=None, epoch=0)[0]
        assert np.array_equal(x, ds.inputs)


    def test_unshuffled_batches_are_views_in_order(self):
        ds = self._tiny(10)
        got = D.batches(ds, 4, seed=None, epoch=0)
        assert [len(y) for _, y in got] == [4, 4, 2]
        for (x, y), idx in zip(got, np.array_split(np.arange(10), [4, 8])):
            assert np.shares_memory(x, ds.inputs) and np.shares_memory(y, ds.labels)
            assert np.array_equal(x, ds.inputs[idx]) and np.array_equal(y, ds.labels[idx])
