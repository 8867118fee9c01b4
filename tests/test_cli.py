"""CLI surface: subcommands, exit codes, artifacts, reproducibility."""

import configparser
import dataclasses
import json
import os

import numpy as np
import pytest

from hvt import finetune as F
from hvt import model as M
from hvt import ssl as S
from hvt.cli import main
from hvt.config import RunConfig
from hvt.data import ImageContainer, save_checkpoint
from hvt.errors import ContractError
from hvt.metrics import PredictionSet
from hvt.model import init_params
from hvt.tensor import RngStream


def write_cfg(tmp_path, extra="", model_extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[model]\n"
        "input_size = 64\npatch_size = 8\ndepths = 1,1,1,1\n"
        "dims = 8,16,32,64\nheads = 1,2,4,8\ndrop_path_max = 0.0\n"
        "num_classes = 7\n"
        + model_extra +
        "[pretrain]\n"
        "epochs = 2\nbatch_size = 4\naccum_steps = 1\nwarmup_epochs = 0.5\n"
        "max_steps = 2\n"
        "[finetune]\n"
        "epochs = 2\nbatch_size = 8\naccum_steps = 1\nlr_max = 0.001\n"
        "freeze_epochs = 1\nema_decay = 0.9\nmax_steps = 4\n"
        + extra)
    return str(path)


def override_cfg(tmp_path, section, key, value):
    """``write_cfg`` with ``[section] key`` set to ``value``."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(write_cfg(tmp_path))
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, str(value))
    cfg = tmp_path / "bad.cfg"
    with open(cfg, "w") as f:
        cp.write(f)
    return str(cfg)


def perfect_preds_csv(path, n=40, classes=7):
    rng = np.random.default_rng(0)
    y = rng.integers(0, classes, size=n)
    probs = np.full((n, classes), 1e-6)
    probs[np.arange(n), y] = 1.0 - 1e-6 * (classes - 1)
    PredictionSet(y, y, probs).save_csv(path)
    return y


def fresh_checkpoint(tmp_path, cfg):
    config = RunConfig.load(cfg).model_config()
    path = tmp_path / "init.ckpt"
    save_checkpoint(path, init_params(config, RngStream(0)), config)
    return path


class TestUsageAndErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gen-data", "--out", "x", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        rc = main(["eval", "--preds", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_internal_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ContractError("broken invariant")

        monkeypatch.setattr("hvt.cli.fit_temperature", broken)
        csv = tmp_path / "v.csv"
        perfect_preds_csv(csv)
        rc = main(["calibrate", "--val-preds", str(csv), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "event=internal_error kind=ContractError" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    @pytest.mark.parametrize("defect", ["label", "short_row"])
    def test_malformed_prediction_csv_exits_1(self, tmp_path, capsys, command, defect):
        csv = tmp_path / "p.csv"
        perfect_preds_csv(csv)
        lines = csv.read_text().splitlines()
        parts = lines[3].split(",")
        if defect == "label":
            parts[1] = "2.5"
        else:
            parts = parts[:-1]
        lines[3] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        flag = {"eval": "--preds", "calibrate": "--val-preds"}[command]
        rc = main([command, flag, str(csv), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "line 4" in out

    def test_bad_container_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.hvtimg"
        bad.write_bytes(b"garbage!" * 4)
        rc = main(["pretrain", "--data", str(bad), "--out", str(tmp_path),
                   "--config", write_cfg(tmp_path)])
        assert rc == 1


class TestGenData:
    def test_deterministic_containers(self, tmp_path):
        cfg = write_cfg(tmp_path)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["gen-data", "--seed", "42", "--out", str(d),
                         "--config", cfg, "--n-per-class", "10",
                         "--n-unlabeled", "6"]) == 0
        for name in ("train", "val", "test", "unlabeled"):
            b1 = (d1 / f"{name}.hvtimg").read_bytes()
            b2 = (d2 / f"{name}.hvtimg").read_bytes()
            assert b1 == b2

    def test_negative_unlabeled_count_exits_1(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--config", write_cfg(tmp_path),
                   "--n-per-class", "3", "--n-unlabeled=-5"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "event=error kind=InputError" in out and "n_unlabeled" in out
        assert not (tmp_path / "d" / "unlabeled.hvtimg").exists()

    def test_split_counts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "data"
        assert main(["gen-data", "--seed", "1", "--out", str(out),
                     "--config", cfg, "--n-per-class", "10",
                     "--n-unlabeled", "3"]) == 0
        train = ImageContainer.load(out / "train.hvtimg")
        val = ImageContainer.load(out / "val.hvtimg")
        test = ImageContainer.load(out / "test.hvtimg")
        assert len(train) == 7 * 8 and len(val) == 7 and len(test) == 7


class TestEvalAndMcnemar:
    def test_eval_perfect_predictor(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        perfect_preds_csv(preds)
        out = tmp_path / "m"
        assert main(["eval", "--preds", str(preds), "--out", str(out)]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["accuracy"] == 1.0
        assert payload["macro_f1"] == 1.0
        assert (out / "reliability_bins.csv").exists()
        assert "accuracy=1" in capsys.readouterr().out

    def test_mcnemar_between_two_prediction_files(self, tmp_path):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 3, size=60)
        pa = y.copy()
        pb = y.copy()
        pb[:15] = (pb[:15] + 1) % 3  # model B wrong on 15 items
        probs = np.full((60, 3), 0.05)
        pa_csv, pb_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = probs.copy()
        rows[np.arange(60), pa] = 0.9
        PredictionSet(y, pa, rows).save_csv(pa_csv)
        rows = probs.copy()
        rows[np.arange(60), pb] = 0.9
        PredictionSet(y, pb, rows).save_csv(pb_csv)
        out = tmp_path / "mc"
        assert main(["mcnemar", "--preds-a", str(pa_csv), "--preds-b", str(pb_csv),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "mcnemar.json").read_text())
        assert payload["b"] == 15 and payload["c"] == 0
        assert abs(payload["p_value"] - 2 * 0.5 ** 15) < 1e-6

    def test_mcnemar_mismatched_truth_rejected(self, tmp_path):
        n = 10
        probs = np.full((n, 2), 0.5)
        ya = np.zeros(n, dtype=int)
        yb = np.ones(n, dtype=int)
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        PredictionSet(ya, ya, probs).save_csv(a_csv)
        PredictionSet(yb, yb, probs).save_csv(b_csv)
        assert main(["mcnemar", "--preds-a", str(a_csv), "--preds-b", str(b_csv),
                     "--out", str(tmp_path / "o")]) == 1

    def test_eval_on_nan_pixels_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        images = np.full((3, 64, 64, 3), np.nan, np.float32)
        data = tmp_path / "nan.hvtimg"
        ImageContainer(images, np.array([0, 1, 2], np.int32)).save(data)
        rc = main(["eval", "--checkpoint", str(fresh_checkpoint(tmp_path, cfg)),
                   "--data", str(data), "--config", cfg,
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert "kind=InputError" in capsys.readouterr().out
        assert not (tmp_path / "m" / "metrics.json").exists()

    def test_eval_on_truncated_checkpoint_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        ckpt = fresh_checkpoint(tmp_path, cfg)
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        data = tmp_path / "d"
        assert main(["gen-data", "--seed", "2", "--out", str(data),
                     "--config", cfg, "--n-per-class", "10",
                     "--n-unlabeled", "1"]) == 0
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", str(data / "test.hvtimg"), "--config", cfg,
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert "kind=CheckpointError" in capsys.readouterr().out


    def test_failed_report_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        preds = tmp_path / "preds.csv"
        perfect_preds_csv(preds)
        out = tmp_path / "m"
        out.mkdir()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["eval", "--preds", str(preds), "--out", str(out)]) == 1
        assert "kind=OSError" in capsys.readouterr().out
        assert os.listdir(out) == []


class TestLiveProgress:
    """A step's or an epoch's line is printed when it ends, before the loop
    writes its CSV log; the done lines say where micro-batches were made."""

    def test_lines_are_printed_before_the_loop_ends(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path)
        data, run = tmp_path / "d", tmp_path / "r"
        assert main(["gen-data", "--seed", "3", "--out", str(data), "--config", cfg,
                     "--n-per-class", "10", "--n-unlabeled", "8"]) == 0
        capsys.readouterr()
        printed, written = [], {}
        for module, phase in ((S, "pretrain"), (F, "finetune")):
            def spy(path, rows, fields, real=module.write_csv, phase=phase):
                printed.append(capsys.readouterr().out)
                written[phase] = ("".join(printed), len(rows))
                return real(path, rows, fields)
            monkeypatch.setattr(module, "write_csv", spy)
        assert main(["pretrain", "--data", str(data / "unlabeled.hvtimg"),
                     "--config", cfg, "--seed", "3", "--out", str(run)]) == 0
        assert main(["finetune", "--train", str(data / "train.hvtimg"),
                     "--val", str(data / "val.hvtimg"),
                     "--config", cfg, "--seed", "3", "--out", str(run)]) == 0
        lines = ("".join(printed) + capsys.readouterr().out).splitlines()
        for phase, row in (("pretrain", "pretrain_step"), ("finetune", "finetune_epoch")):
            before_log, rows = written[phase]
            assert rows >= 1 and before_log.count(f"event={row} ") == rows
            keys = ("grad_norm=", "clipped=") if phase == "pretrain" else (
                "grad_norm_max=", "clipped_frac=")
            for line in before_log.splitlines():
                if line.startswith(f"event={row} "):
                    assert all(f" {key}" in line for key in keys), line
            assert f"event={phase}_done" not in before_log
            done = [ln for ln in lines if ln.startswith(f"event={phase}_done ")]
            assert len(done) == 1
            assert done[0].split()[-1] in ("augment=worker", "augment=inline")


class TestContainerChecks:
    """eval, calibrate, rollout and finetune reject a container the model
    cannot read with InputError (exit 1) before any forward pass."""

    @staticmethod
    def _container(tmp_path, n, size):
        path = tmp_path / f"c{n}x{size}.hvtimg"
        images = np.random.default_rng(0).random((n, size, size, 3), dtype=np.float32)
        ImageContainer(images, np.arange(n, dtype=np.int32) % 7).save(path)
        return str(path)

    def _run(self, tmp_path, command, data):
        cfg = write_cfg(tmp_path)
        ckpt = str(fresh_checkpoint(tmp_path, cfg))
        args = {"eval": ["--checkpoint", ckpt, "--data", data],
                "calibrate": ["--checkpoint", ckpt, "--val", data],
                "rollout": ["--checkpoint", ckpt, "--data", data]}[command]
        return main([command, *args, "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("command", ["eval", "calibrate", "rollout"])
    def test_image_size_other_than_model_input_exits_1(self, tmp_path, capsys, command):
        rc = self._run(tmp_path, command, self._container(tmp_path, 4, 32))
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "32" in out

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_empty_container_exits_1(self, tmp_path, capsys, command):
        rc = self._run(tmp_path, command, self._container(tmp_path, 0, 64))
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "no images" in out

    @pytest.mark.parametrize("command", ["eval", "calibrate", "finetune"])
    def test_label_outside_model_classes_exits_1(self, tmp_path, capsys, command):
        path = str(tmp_path / "c.hvtimg")
        images = np.random.default_rng(0).random((8, 64, 64, 3), dtype=np.float32)
        ImageContainer(images, np.array([0, 1, 2, 3, 4, 5, 6, 7], dtype=np.int32)).save(path)
        if command == "finetune":
            rc = self._finetune(tmp_path, self._container(tmp_path, 8, 64), path)
        else:
            rc = self._run(tmp_path, command, path)
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "labels 0..7" in out

    def _finetune(self, tmp_path, train, val, extra=""):
        return main(["finetune", "--train", train, "--val", val,
                     "--config", write_cfg(tmp_path, extra), "--out", str(tmp_path / "o")])

    def test_finetune_val_of_other_size_exits_1(self, tmp_path, capsys):
        rc = self._finetune(tmp_path, self._container(tmp_path, 8, 64),
                            self._container(tmp_path, 4, 32))
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "c4x32" in out

    def test_finetune_empty_train_exits_1(self, tmp_path, capsys):
        rc = self._finetune(tmp_path, self._container(tmp_path, 0, 64),
                            self._container(tmp_path, 4, 64))
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "c0x64" in out and "no images" in out

    def test_finetune_train_of_other_size_without_augmentation_exits_1(self, tmp_path, capsys):
        rc = self._finetune(tmp_path, self._container(tmp_path, 8, 48),
                            self._container(tmp_path, 4, 64), extra="augment = false\n")
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "c8x48" in out

    def test_finetune_train_of_other_size_with_augmentation_exits_0(self, tmp_path, capsys):
        # the augmentation resamples every training view to the model input
        rc = self._finetune(tmp_path, self._container(tmp_path, 8, 48),
                            self._container(tmp_path, 4, 64))
        assert rc == 0
        assert "event=finetune_done" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "rollout"])
    def test_non_finite_pixels_exit_1(self, tmp_path, capsys, command):
        images = np.random.default_rng(0).random((8, 64, 64, 3), dtype=np.float32)
        images[0, 10, 20, 1] = np.nan
        images[5, 0, 0, 0] = np.inf
        data = str(tmp_path / "nan.hvtimg")
        ImageContainer(images, np.arange(8, dtype=np.int32) % 7).save(data)
        cfg = write_cfg(tmp_path)
        args = {"pretrain": ["--data", data],
                "finetune": ["--train", data, "--val", self._container(tmp_path, 4, 64)],
                "rollout": ["--checkpoint", str(fresh_checkpoint(tmp_path, cfg)),
                            "--data", data]}[command]
        rc = main([command, *args, "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=InputError" in out and "non-finite pixels" in out
        assert not (tmp_path / "o" / "rollout_full.csv").exists()

    def test_checkpoint_config_with_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        config = RunConfig.load(cfg).model_config()
        ckpt = tmp_path / "bad.ckpt"
        snapshot = {**dataclasses.asdict(config), "bogus": 1}
        save_checkpoint(ckpt, init_params(config, RngStream(0)),
                        snapshot)
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", self._container(tmp_path, 2, 64), "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "kind=CheckpointError" in capsys.readouterr().out


class TestLoopSizes:
    """Loop sizes the step driver cannot run are a ConfigError (exit 1) in
    both training commands, before any step."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("key,value", [("epochs", 0), ("batch_size", 0),
                                           ("accum_steps", 0), ("max_steps", -1)])
    def test_bad_loop_size_exits_1(self, tmp_path, capsys, command, key, value):
        cfg = override_cfg(tmp_path, command, key, value)
        data = TestContainerChecks._container(tmp_path, 8, 64)
        args = ["--data", data] if command == "pretrain" else ["--train", data, "--val", data]
        rc = main([command, *args, "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=ConfigError" in out and key in out
        assert f"event={command}_step" not in out and f"event={command}_epoch" not in out


class TestInputStandardization:
    """eval, calibrate and rollout standardize pixels with the stats the
    checkpoint was trained with, whatever ``--config`` says."""

    STATS = "norm_mean = 0.3,0.3,0.3\nnorm_std = 0.2,0.2,0.2\n"

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stats")
        cfg = write_cfg(root, model_extra=self.STATS)
        data = root / "data"
        assert main(["gen-data", "--seed", "3", "--out", str(data), "--config", cfg,
                     "--n-per-class", "10", "--n-unlabeled", "1"]) == 0
        assert main(["finetune", "--train", str(data / "train.hvtimg"),
                     "--val", str(data / "val.hvtimg"), "--config", cfg,
                     "--seed", "3", "--out", str(root / "run")]) == 0
        default_cfg = write_cfg(tmp_path_factory.mktemp("default"))
        return str(root / "run" / "finetune_final.ckpt"), data, [cfg, default_cfg, None]

    @staticmethod
    def _with_config(argv, cfg):
        return argv + (["--config", cfg] if cfg else [])

    def test_eval_ignores_config_stats(self, trained, tmp_path):
        ckpt, data, configs = trained
        outputs = []
        for i, cfg in enumerate(configs):
            out = tmp_path / str(i)
            assert main(self._with_config(
                ["eval", "--checkpoint", ckpt, "--data", str(data / "test.hvtimg"),
                 "--out", str(out)], cfg)) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("predictions.csv", "metrics.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_calibrate_ignores_config_stats(self, trained, tmp_path):
        ckpt, data, configs = trained
        outputs = []
        for i, cfg in enumerate(configs):
            out = tmp_path / str(i)
            assert main(self._with_config(
                ["calibrate", "--checkpoint", ckpt, "--val", str(data / "val.hvtimg"),
                 "--test", str(data / "test.hvtimg"), "--out", str(out)], cfg)) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("calibration.json", "test_predictions_calibrated.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_model_sees_raw_pixels_everywhere(self, tmp_path, monkeypatch):
        # the model standardizes its input once; a caller that standardized
        # too would hand it pixels outside [0, 1]
        seen, real = {}, M.normalize_images
        monkeypatch.setattr(M, "normalize_images", lambda x, mean, std: (
            seen.setdefault(stage, []).append((np.min(x), np.max(x))),
            real(x, mean, std))[1])
        cfg = write_cfg(tmp_path, "[eval]\ntta = true\n")
        config = RunConfig.load(cfg).model_config()
        data = TestContainerChecks._container(tmp_path, 8, 64)
        images = ImageContainer.load(data)
        stage = "pretrain_loop"
        params = init_params(config, RngStream(0))
        S.pretrain_loop(params, S.init_projection_head(64, RngStream(1), out_dim=8),
                        images.images, config,
                        S.PretrainSettings(epochs=1, batch_size=4, accum_steps=1,
                                           warmup_epochs=0.5, max_steps=2),
                        RngStream(2))
        stage = "finetune_loop"
        F.finetune_loop(params, images, images, config,
                        F.FinetuneSettings(epochs=2, batch_size=4, accum_steps=1,
                                           freeze_epochs=1, mixup_p=1.0),
                        RngStream(3))
        stage = "tta_predict"
        F.tta_predict(images.images[0], params, config)
        ckpt = str(fresh_checkpoint(tmp_path, cfg))
        for stage, args in (("eval", ["--data", data]),
                            ("calibrate", ["--val", data, "--test", data]),
                            ("rollout", ["--data", data])):
            assert main([stage, "--checkpoint", ckpt, *args, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        assert list(seen) == ["pretrain_loop", "finetune_loop", "tta_predict",
                              "eval", "calibrate", "rollout"]
        for stage, ranges in seen.items():
            assert all(0.0 <= lo and hi <= 1.0 for lo, hi in ranges), (stage, ranges)

    def test_rollout_predicts_as_eval(self, trained, tmp_path, capsys):
        ckpt, data, configs = trained
        test = str(data / "test.hvtimg")
        assert main(["eval", "--checkpoint", ckpt, "--data", test,
                     "--out", str(tmp_path)]) == 0
        probs = PredictionSet.load_csv(tmp_path / "predictions.csv").probs
        capsys.readouterr()
        for index in range(len(probs)):
            assert main(["rollout", "--checkpoint", ckpt, "--data", test,
                         "--index", str(index), "--out", str(tmp_path)]) == 0
            out = capsys.readouterr().out
            assert f"predicted={int(np.argmax(probs[index]))} " in out, (index, out)


class TestCalibrate:
    def test_from_prediction_csvs(self, tmp_path):
        rng = np.random.default_rng(2)
        n, c = 400, 4
        logits = rng.normal(size=(n, c)) * 2.0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        y = np.array([rng.choice(c, p=r) for r in probs])
        # overconfident file: sharpened probabilities
        sharp = probs ** 3
        sharp /= sharp.sum(axis=1, keepdims=True)
        val_csv, test_csv = tmp_path / "v.csv", tmp_path / "t.csv"
        PredictionSet.from_probs(y, sharp).save_csv(val_csv)
        PredictionSet.from_probs(y, sharp).save_csv(test_csv)
        out = tmp_path / "cal"
        assert main(["calibrate", "--val-preds", str(val_csv),
                     "--test-preds", str(test_csv), "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["temperature"] > 1.5  # sharpened by 3x, T* near 3
        assert payload["at_bound"] is False
        assert payload["val_nll_after"] <= payload["val_nll_before"]
        assert (out / "test_predictions_calibrated.csv").exists()


    def test_boundary_temperature_reported_at_bound(self, tmp_path, capsys):
        # log-probabilities of 0.01 x one-hot logits: every prediction is
        # right, so NLL keeps falling as T shrinks and the fit answers e^-3
        y = np.arange(70) % 7
        z = 0.01 * np.eye(7)[y]
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        val_csv = tmp_path / "v.csv"
        PredictionSet.from_probs(y, probs).save_csv(val_csv)
        out = tmp_path / "cal"
        assert main(["calibrate", "--val-preds", str(val_csv), "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["at_bound"] is True and payload["degenerate"] is False
        assert abs(payload["temperature"] - np.exp(-3.0)) < 1e-3 * np.exp(-3.0)
        assert "at_bound=True" in capsys.readouterr().out


class TestFullPipeline:
    def test_tiny_pipeline_end_to_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen-data", "--seed", "3", "--out", str(data),
                     "--config", cfg, "--n-per-class", "10",
                     "--n-unlabeled", "8"]) == 0
        assert main(["pretrain", "--data", str(data / "unlabeled.hvtimg"),
                     "--config", cfg, "--seed", "3", "--out", str(run)]) == 0
        assert (run / "pretrain_final.ckpt").exists()
        assert (run / "pretrain_log.csv").exists()
        assert main(["finetune", "--train", str(data / "train.hvtimg"),
                     "--val", str(data / "val.hvtimg"),
                     "--init", str(run / "pretrain_final.ckpt"),
                     "--config", cfg, "--seed", "3", "--out", str(run)]) == 0
        assert (run / "finetune_best.ckpt").exists()
        assert main(["eval", "--checkpoint", str(run / "finetune_best.ckpt"),
                     "--data", str(data / "test.hvtimg"),
                     "--config", cfg, "--out", str(run)]) == 0
        assert (run / "metrics.json").exists()
        assert (run / "predictions.csv").exists()
        assert main(["calibrate", "--checkpoint", str(run / "finetune_best.ckpt"),
                     "--val", str(data / "val.hvtimg"),
                     "--test", str(data / "test.hvtimg"),
                     "--config", cfg, "--out", str(run)]) == 0
        assert (run / "calibration.json").exists()
        assert main(["rollout", "--checkpoint", str(run / "finetune_best.ckpt"),
                     "--data", str(data / "test.hvtimg"), "--index", "0",
                     "--config", cfg, "--out", str(run)]) == 0
        grid = np.loadtxt(run / "rollout_grid.csv", delimiter=",", ndmin=2)
        full = np.loadtxt(run / "rollout_full.csv", delimiter=",", ndmin=2)
        assert full.shape == (64, 64)
        assert grid.min() >= 0.0 and grid.max() <= 1.0
        out_text = capsys.readouterr().out
        assert "event=rollout_done" in out_text

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path)
        data = tmp_path / "d"
        run = tmp_path / "r"
        assert main(["gen-data", "--seed", "4", "--out", str(data),
                     "--config", cfg, "--n-per-class", "10",
                     "--n-unlabeled", "4"]) == 0
        assert main(["pretrain", "--data", str(data / "unlabeled.hvtimg"),
                     "--config", cfg, "--seed", "4", "--out", str(run)]) == 0
        # finetune with a different architecture must fail the manifest check
        bigger = tmp_path / "big.cfg"
        bigger.write_text("[model]\ninput_size = 64\npatch_size = 8\n"
                          "depths = 1,1,1,1\ndims = 16,32,64,128\n"
                          "heads = 2,4,8,16\ndrop_path_max = 0.0\n"
                          "num_classes = 7\n"
                          "[finetune]\nepochs = 1\nbatch_size = 8\n"
                          "accum_steps = 1\nlr_max = 0.001\nfreeze_epochs = 0\n"
                          "ema_decay = 0.9\nmax_steps = 1\n")
        rc = main(["finetune", "--train", str(data / "train.hvtimg"),
                   "--val", str(data / "val.hvtimg"),
                   "--init", str(run / "pretrain_final.ckpt"),
                   "--config", str(bigger), "--seed", "4", "--out", str(run)])
        assert rc == 1

    def test_init_checkpoint_with_other_stats_rejected(self, tmp_path, capsys):
        # the warm start's backbone was trained on pixels standardized with
        # its own stats; fine-tuning must not swap them for the run config's
        cfg = write_cfg(tmp_path)
        config = dataclasses.replace(RunConfig.load(cfg).model_config(),
                                     norm_mean=(0.3,) * 3, norm_std=(0.2,) * 3)
        ckpt = tmp_path / "stats.ckpt"
        save_checkpoint(ckpt, init_params(config, RngStream(0)), config)
        data = TestContainerChecks._container(tmp_path, 8, 64)
        rc = main(["finetune", "--train", data, "--val", data, "--init", str(ckpt),
                   "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=ConfigError" in out and "norm_mean=(0.3, 0.3, 0.3)" in out
        assert "event=finetune_start" not in out

    def test_init_checkpoint_missing_a_tensor_rejected(self, tmp_path, capsys):
        # a warm start needs every model tensor; none keeps its fresh init
        cfg = write_cfg(tmp_path)
        config = RunConfig.load(cfg).model_config()
        params = init_params(config, RngStream(0))
        del params["head.b"]
        ckpt = tmp_path / "partial.ckpt"
        save_checkpoint(ckpt, params, config)
        data = TestContainerChecks._container(tmp_path, 8, 64)
        rc = main(["finetune", "--train", data, "--val", data, "--init", str(ckpt),
                   "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=CheckpointManifestError" in out and "'head.b'" in out


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nbogus_key = 1\n")
        assert main(["gen-data", "--out", str(tmp_path / "o"),
                     "--config", str(bad)]) == 1

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text("[mystery]\nx = 1\n")
        assert main(["gen-data", "--out", str(tmp_path / "o"),
                     "--config", str(bad)]) == 1

    COMMANDS = ["gen-data", "pretrain", "finetune", "eval", "calibrate", "rollout",
                "mcnemar"]

    @staticmethod
    def _args(tmp_path, command):
        """Inputs for ``command`` that would run under a good config; the
        checkpoint is made with one."""
        data = TestContainerChecks._container(tmp_path, 8, 64)
        (tmp_path / "good").mkdir()
        ckpt = str(fresh_checkpoint(tmp_path / "good", write_cfg(tmp_path / "good")))
        preds = str(tmp_path / "p.csv")
        perfect_preds_csv(preds)
        return {"gen-data": [], "pretrain": ["--data", data],
                "finetune": ["--train", data, "--val", data],
                "eval": ["--checkpoint", ckpt, "--data", data],
                "calibrate": ["--checkpoint", ckpt, "--val", data],
                "rollout": ["--checkpoint", ckpt, "--data", data],
                "mcnemar": ["--preds-a", preds, "--preds-b", preds]}[command]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("stat", ["norm_mean = 0.5,0.5", "norm_std = 0,0,0",
                                      "norm_mean = 0.5,nan,0.5"],
                             ids=["two-values", "zero-std", "nan"])
    def test_bad_norm_stats_exit_1(self, tmp_path, capsys, command, stat):
        # also where the model comes from a checkpoint or is not used
        cfg = write_cfg(tmp_path, model_extra=stat + "\n")
        args = self._args(tmp_path, command)
        rc = main([command, *args, "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "kind=ConfigError" in out and stat.split()[0] in out
        assert f"event={command}_start" not in out

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key,value", [
        ("input_size", 0), ("patch_size", 0), ("patch_size", -8), ("ffn_ratio", 0),
        ("depths", "1,0,1,1"), ("heads", "0,2,4,8")])
    def test_model_size_below_1_exits_1(self, tmp_path, capsys, command, key, value):
        # rejected before any division by a size, by every command
        cfg = override_cfg(tmp_path, "model", key, value)
        rc = main([command, *self._args(tmp_path, command), "--config", cfg,
                   "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "event=error kind=ConfigError" in out and key in out
        assert not (tmp_path / "o").exists() or not os.listdir(tmp_path / "o")

    @pytest.mark.parametrize("command,key,value", [
        ("eval", "batch_size", 0), ("eval", "batch_size", -1),
        ("eval", "ece_bins", 0), ("eval", "ece_bins", -3),
        ("calibrate", "ece_bins", 0), ("calibrate", "ece_bins", -3)])
    def test_eval_size_below_1_exits_1(self, tmp_path, capsys, command, key, value):
        cfg = override_cfg(tmp_path, "eval", key, value)
        rc = main([command, *self._args(tmp_path, command), "--config", cfg,
                   "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "event=error kind=ConfigError" in out and key in out

    def test_defaults_agree_with_the_dataclasses(self):
        # config.DEFAULTS and the dataclass field defaults are two copies
        assert RunConfig().model_config() == M.HVTConfig()
        assert RunConfig().pretrain_settings() == S.PretrainSettings()
        assert RunConfig().finetune_settings() == F.FinetuneSettings()

    def test_defaults_roundtrip(self, tmp_path):
        from hvt.config import RunConfig
        path = tmp_path / "full.cfg"
        RunConfig().save(path)
        loaded = RunConfig.load(str(path))
        assert loaded.values == RunConfig().values

    def test_desk_config_parses(self):
        from hvt.config import RunConfig
        cfg = RunConfig.load(os.path.join(os.path.dirname(__file__), "..",
                                          "configs", "desk.cfg"))
        model = cfg.model_config()
        assert model.dims == (16, 32, 64, 128)
        assert cfg.pretrain_settings().max_steps == 200
