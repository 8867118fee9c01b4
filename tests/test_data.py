"""Containers, synthetic data, splits, checkpoints."""

import json
import os
import struct
import zlib

import numpy as np
import pytest

from hvt import data as D
from hvt.config import RunConfig
from hvt.errors import (CheckpointCRCError, CheckpointError, CheckpointMagicError,
                        CheckpointManifestError, CheckpointVersionError,
                        ConfigError, ContainerFormatError, InputError)
from hvt.model import HVTConfig, init_params, normalize_images, param_shapes
from hvt.metrics import PredictionSet
from hvt.ssl import linear_probe
from hvt.tensor import RngStream


class TestImageContainer:
    def test_save_load_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        c = D.ImageContainer(rng.random((5, 8, 8, 3), dtype=np.float32),
                             np.array([0, 1, 2, -1, 3], dtype=np.int32))
        path = tmp_path / "set.hvtimg"
        c.save(path)
        back = D.ImageContainer.load(path)
        assert np.array_equal(back.images, c.images)
        assert np.array_equal(back.labels, c.labels)

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        c = D.ImageContainer(rng.random((3, 4, 4, 3), dtype=np.float32),
                             np.zeros(3, dtype=np.int32))
        p1, p2 = tmp_path / "a.img", tmp_path / "b.img"
        c.save(p1)
        D.ImageContainer.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.img"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ContainerFormatError):
            D.ImageContainer.load(p)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(2)
        c = D.ImageContainer(rng.random((2, 4, 4, 3), dtype=np.float32),
                             np.zeros(2, dtype=np.int32))
        p = tmp_path / "trunc.img"
        c.save(p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ContainerFormatError):
            D.ImageContainer.load(p)

    @pytest.mark.parametrize("count", [0, 2])
    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize("value", [2 ** 31, 2 ** 32 - 1])
    def test_oversized_header_dimension(self, tmp_path, count, field, value):
        # H, W or C so large that numpy cannot build the record dtype
        c = D.ImageContainer(np.zeros((count, 4, 4, 3), dtype=np.float32),
                             np.zeros(count, dtype=np.int32))
        p = tmp_path / "big.img"
        c.save(p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, 8 + 4 * field, value)
        p.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError):
            D.ImageContainer.load(p)

    def test_normalize(self):
        img = np.full((1, 2, 2, 3), 0.75, dtype=np.float32)
        out = normalize_images(img, (0.5, 0.5, 0.5), (0.25, 0.25, 0.25))
        np.testing.assert_allclose(out, 1.0)


class TestSyntheticData:
    def test_deterministic(self):
        a_l, a_u = D.generate_synthetic(3, size=(32, 32), seed=9, n_unlabeled=4)
        b_l, b_u = D.generate_synthetic(3, size=(32, 32), seed=9, n_unlabeled=4)
        assert np.array_equal(a_l.images, b_l.images)
        assert np.array_equal(a_u.images, b_u.images)

    def test_seven_classes_with_expected_labels(self):
        labeled, unlabeled = D.generate_synthetic(2, classes=7, size=(32, 32),
                                                  seed=0, n_unlabeled=5)
        assert sorted(set(labeled.labels.tolist())) == list(range(7))
        assert np.all(unlabeled.labels == -1)
        assert labeled.images.min() >= 0.0 and labeled.images.max() <= 1.0

    def test_negative_unlabeled_count_rejected(self):
        with pytest.raises(InputError, match="n_unlabeled"):
            D.generate_synthetic(2, size=(32, 32), n_unlabeled=-5)

    def test_linear_probe_on_raw_pixels_beats_chance(self):
        labeled, _ = D.generate_synthetic(12, size=(32, 32), seed=3)
        train, _, test = D.stratified_split(labeled, (0.70, 0.15, 0.15), seed=0)
        acc = linear_probe(train.images.reshape(len(train), -1), train.labels,
                           test.images.reshape(len(test), -1), test.labels,
                           classes=7, steps=200)
        assert acc > 1.0 / 7.0 + 0.15


class TestStratifiedSplit:
    def test_divisible_case_exact(self):
        labeled, _ = D.generate_synthetic(20, classes=3, size=(8, 8), seed=1)
        tr, va, te = D.stratified_split(labeled, seed=5)
        for cls in range(3):
            assert int((tr.labels == cls).sum()) == 14
            assert int((va.labels == cls).sum()) == 3
            assert int((te.labels == cls).sum()) == 3

    def test_partition_property(self):
        labeled, _ = D.generate_synthetic(7, classes=4, size=(8, 8), seed=2)
        tr, va, te = D.stratified_split(labeled, seed=5)
        assert len(tr) + len(va) + len(te) == len(labeled)
        key = lambda c: {c.images[i].tobytes() for i in range(len(c))}
        all_imgs = key(tr) | key(va) | key(te)
        assert len(all_imgs) == len(labeled)
        assert not (key(tr) & key(va)) and not (key(tr) & key(te)) and not (key(va) & key(te))

    def test_remainder_goes_to_train(self):
        labeled, _ = D.generate_synthetic(10, classes=2, size=(8, 8), seed=3)
        tr, va, te = D.stratified_split(labeled, seed=0)
        for cls in range(2):
            assert int((tr.labels == cls).sum()) == 8
            assert int((va.labels == cls).sum()) == 1
            assert int((te.labels == cls).sum()) == 1

    def test_deterministic(self):
        labeled, _ = D.generate_synthetic(5, classes=3, size=(8, 8), seed=4)
        a = D.stratified_split(labeled, seed=7)
        b = D.stratified_split(labeled, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.images, y.images)

    def test_class_below_minimum_rejected(self):
        labeled, _ = D.generate_synthetic(2, classes=2, size=(8, 8), seed=5)
        with pytest.raises(InputError):
            D.stratified_split(labeled)

    def test_unlabeled_rejected(self):
        c = D.ImageContainer(np.zeros((4, 4, 4, 3), np.float32),
                             np.array([0, 1, -1, 1], np.int32))
        with pytest.raises(InputError):
            D.stratified_split(c)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(0))
        path = tmp_path / "model.ckpt"
        D.save_checkpoint(path, params, cfg, {"step": 12})
        arrays, snap, meta = D.load_checkpoint(path)
        assert meta == {"step": 12}
        assert D.config_from_snapshot(snap) == cfg
        assert arrays.keys() == params.keys()
        for k in params:
            assert np.array_equal(arrays[k], params[k].numpy())

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(1))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        D.save_checkpoint(p1, params, cfg)
        arrays, snap, meta = D.load_checkpoint(p1)
        D.save_checkpoint(p2, arrays, D.config_from_snapshot(snap), meta or None)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float64_preserved(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 3))
        path = tmp_path / "f64.ckpt"
        D.save_checkpoint(path, {"x": arr})
        back, _, _ = D.load_checkpoint(path)
        assert back["x"].dtype == np.float64
        assert np.array_equal(back["x"], arr)

    def test_payload_corruption_raises_crc_error(self, tmp_path):
        path = tmp_path / "c.ckpt"
        D.save_checkpoint(path, {"x": np.ones((4, 4), np.float32)})
        blob = bytearray(path.read_bytes())
        blob[-30] ^= 0x01  # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCRCError):
            D.load_checkpoint(path)

    def test_bad_magic_and_version(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(CheckpointMagicError):
            D.load_checkpoint(p)
        good = tmp_path / "v.ckpt"
        D.save_checkpoint(good, {"x": np.ones(2, np.float32)})
        blob = bytearray(good.read_bytes())
        blob[8] = 99
        good.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            D.load_checkpoint(good)

    def test_manifest_mismatch_names_offenders(self, tmp_path):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(2))
        path = tmp_path / "mm.ckpt"
        arrays = {k: t for k, t in params.items() if k != "head.b"}
        arrays["head.w"] = np.zeros((1, 1), np.float32)
        D.save_checkpoint(path, arrays, cfg)
        with pytest.raises(CheckpointManifestError,
                           match=r"missing=\['head.b'\], wrong-shape=\['head.w'\]"):
            D.load_model(path)
        with pytest.raises(CheckpointManifestError, match="wrong-shape"):
            D.load_model(path, HVTConfig.desk(drop_path_max=0.0))

    def test_manifest_match_accepts(self, tmp_path):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(3))
        path = tmp_path / "ok.ckpt"
        extras = {"proj.w1": np.ones((cfg.dims[-1], 4), np.float32)}
        D.save_checkpoint(path, {**params, **extras}, cfg, {"step": 3})
        for given in (None, cfg):
            loaded, config, meta = D.load_model(path, given)
            assert config == cfg and meta == {"step": 3}
            assert list(loaded) == list(param_shapes(cfg))
            for k, t in loaded.items():
                assert t.requires_grad and np.array_equal(t.numpy(), params[k].numpy())

    def test_load_model_needs_a_model_config(self, tmp_path):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        path = tmp_path / "nocfg.ckpt"
        D.save_checkpoint(path, init_params(cfg, RngStream(4)))
        with pytest.raises(CheckpointManifestError, match="no config snapshot"):
            D.load_model(path)
        assert D.load_model(path, cfg)[1] == cfg
        D.save_checkpoint(path, init_params(cfg, RngStream(4)), {"bogus": 1})
        with pytest.raises(CheckpointError, match="not a model config"):
            D.load_model(path, cfg)

    def test_snapshot_without_norm_stats_loads_defaults(self, tmp_path):
        # checkpoints written before the stats joined the config snapshot
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        snapshot = D._snapshot_config(cfg)
        del snapshot["norm_mean"], snapshot["norm_std"]
        path = tmp_path / "old.ckpt"
        D.save_checkpoint(path, init_params(cfg, RngStream(5)), snapshot)
        _, config, _ = D.load_model(path)
        assert config == cfg
        assert config.norm_mean == (0.5, 0.5, 0.5)
        assert config.norm_std == (0.25, 0.25, 0.25)

    def test_given_config_must_keep_the_snapshot_stats(self, tmp_path):
        # the parameters were trained on pixels standardized with the
        # snapshot's stats; a snapshot without them has the defaults
        stats = HVTConfig.tiny(norm_mean=(0.3, 0.4, 0.5), norm_std=(0.2, 0.1, 0.3))
        old = D._snapshot_config(HVTConfig.tiny())
        del old["norm_mean"], old["norm_std"]
        for saved, same, other in ((stats, stats, HVTConfig.tiny()),
                                   (old, HVTConfig.tiny(), stats)):
            path = tmp_path / "c.ckpt"
            D.save_checkpoint(path, init_params(stats, RngStream(7)), saved)
            assert D.load_model(path, same)[1] == same
            with pytest.raises(ConfigError, match="norm_mean"):
                D.load_model(path, other)

    def test_snapshot_carries_norm_stats(self, tmp_path):
        cfg = HVTConfig.tiny(norm_mean=(0.3, 0.4, 0.5), norm_std=(0.2, 0.1, 0.3))
        path = tmp_path / "stats.ckpt"
        D.save_checkpoint(path, init_params(cfg, RngStream(6)), cfg)
        _, config, _ = D.load_model(path)
        assert config.norm_mean == (0.3, 0.4, 0.5)
        assert config.norm_std == (0.2, 0.1, 0.3)

    def _saved(self, tmp_path):
        path = tmp_path / "h.ckpt"
        D.save_checkpoint(path, {"x": np.ones((4, 4), np.float32)},
                          HVTConfig.tiny(drop_path_max=0.0), {"step": 1})
        return path, path.read_bytes()

    def test_cut_inside_snapshot_json_is_checkpoint_error(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:40])  # mid-way through the snapshot JSON
        with pytest.raises(CheckpointError, match="header"):
            D.load_checkpoint(path)

    def test_cut_inside_length_prefix_is_checkpoint_error(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:14])  # two bytes into the snapshot length
        with pytest.raises(CheckpointError, match="header"):
            D.load_checkpoint(path)

    def test_non_utf8_header_byte_is_checkpoint_error(self, tmp_path):
        path, blob = self._saved(tmp_path)
        bad = bytearray(blob)
        bad[17] = 0xFF  # inside the snapshot JSON, never valid UTF-8
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match="header"):
            D.load_checkpoint(path)

    @staticmethod
    def _assembled(path, snapshot, manifest, payload=b""):
        """A checkpoint with the given header values and a correct CRC."""
        snapshot, manifest = json.dumps(snapshot).encode(), json.dumps(manifest).encode()
        path.write_bytes(D.CKPT_MAGIC + struct.pack("<I", D.CKPT_VERSION)
                         + struct.pack("<I", len(snapshot)) + snapshot
                         + struct.pack("<I", len(manifest)) + manifest
                         + payload + struct.pack("<I", zlib.crc32(payload)))
        return path

    def test_manifest_offset_past_payload_is_checkpoint_error(self, tmp_path):
        path = self._assembled(
            tmp_path / "off.ckpt", {"config": None, "meta": {}},
            [{"name": "x", "dtype": "float32", "shape": [4], "offset": 64}],
            np.ones(4, "<f4").tobytes())
        with pytest.raises(CheckpointError, match="'x'"):
            D.load_checkpoint(path)

    def test_header_of_wrong_json_type_is_checkpoint_error(self, tmp_path):
        path = self._assembled(tmp_path / "list.ckpt", [], [])
        with pytest.raises(CheckpointError, match="header"):
            D.load_checkpoint(path)

    @pytest.mark.parametrize("change", [{"bogus": 1}, {"depths": "abc"},
                                        {"norm_std": [0.0, 0.0, 0.0]}],
                             ids=["unknown-key", "malformed-value", "zero-std"])
    def test_bad_config_snapshot_is_checkpoint_error(self, tmp_path, change):
        snapshot = {**D._snapshot_config(HVTConfig.tiny()), **change}
        path = self._assembled(tmp_path / "cfg.ckpt", {"config": snapshot, "meta": {}}, [])
        _, config, _ = D.load_checkpoint(path)
        with pytest.raises(CheckpointError, match="config snapshot"):
            D.config_from_snapshot(config)


class TestAtomicWrites:
    """Every artifact writer goes through ``atomic_open``: a write that
    fails leaves the old file, or none, and no temporary file."""

    WRITERS = {
        "container": lambda p: D.ImageContainer(np.zeros((2, 4, 4, 3), np.float32),
                                                np.array([0, 1], np.int32)).save(p),
        "checkpoint": lambda p: D.save_checkpoint(p, {"w": np.ones(3, np.float32)}),
        "csv": lambda p: D.write_csv(p, [{"a": 1.0}], ("a",)),
        "config": lambda p: RunConfig().save(p),
        "predictions": lambda p: PredictionSet(np.array([0, 1]), np.array([0, 1]),
                                               np.eye(2)).save_csv(p),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            self.WRITERS[writer](path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["artifact"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_the_old_file(self, tmp_path, writer):
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        over.write_bytes(b"old" * 1000)
        self.WRITERS[writer](fresh)
        self.WRITERS[writer](over)
        assert over.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh", "over"]

    def test_error_mid_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "log.csv"
        with pytest.raises(KeyError):
            D.write_csv(path, [{"a": 1.0}, {}], ("a",))  # row 2 lacks "a"
        assert os.listdir(tmp_path) == []
