"""One workload in one fresh process: set up, run timed rounds, check them.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and BLAS pinned to one thread. It calls the program only through
``hvt.cli.main``, in-process, the way the ``hvt`` command does.

A round is one fixed piece of user work (a short ``hvt pretrain``, a short
``hvt finetune``, or ``hvt eval`` with TTA then ``calibrate`` then
``rollout``). Every round of a run is identical, so each must give the same
digest; rounds repeat until ``--seconds`` of round time have passed. With
``--trace 1`` untraced and traced rounds alternate, which gives the
tracing overhead and shows that tracing leaves the arithmetic alone.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DESK_CFG = os.path.join(HERE, "desk.cfg")

# Round sizes. Pretrain: 10 optimizer steps of 2 micro-batches of 32 source
# images (64 views each), a checkpoint at step 5 and a final one. Finetune:
# 10 epochs of 98 training images (4 steps each), the first 2 with the
# backbone frozen. Infer: the desk recipe trains the checkpoint in set-up.
ROUND_OVERRIDES = {
    "pretrain-simclr": {("pretrain", "max_steps"): 10,
                        ("pretrain", "checkpoint_every"): 5},
    "finetune-sup": {("finetune", "max_steps"): 40},
    "infer-tta": {("eval", "tta"): "true"},
}
# Desk fine-tuning lands T* on the lower edge of the temperature bracket
# for some seeds; fit_temperature searches log T over [-3, 3].
T_LOWER_BOUND = math.exp(-3.0)


def cli(argv):
    """``hvt.cli.main`` with its key=value output captured; returns rc."""
    from hvt.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def derive_config(path, overrides):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(DESK_CFG)
    for (section, key), value in overrides.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, str(value))
    with open(path, "w") as f:
        cp.write(f)
    return path


def machine():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "hvt_threads": os.environ.get("HVT_THREADS", "unset"),
    }


class Workload:
    """Inputs made in set-up, the argv of one round, and its checks."""

    def __init__(self, name, seed, work):
        self.name, self.seed, self.work = name, seed, work
        self.data = os.path.join(work, "data")
        self.out = os.path.join(work, "round")
        self.cfg = derive_config(os.path.join(work, "round.cfg"),
                                 ROUND_OVERRIDES[name])

    def setup(self):
        rc = cli(["gen-data", "--config", DESK_CFG, "--seed", self.seed,
                  "--out", self.data])
        if rc:
            raise RuntimeError(f"gen-data exited {rc}")
        self.n_train = self._count("train")
        self.n_test = self._count("test")
        if self.name == "infer-tta":
            self.model = os.path.join(self.work, "model")
            rc = cli(["finetune", "--config", DESK_CFG, "--seed", self.seed,
                      "--train", self._split("train"), "--val", self._split("val"),
                      "--out", self.model])
            if rc:
                raise RuntimeError(f"set-up finetune exited {rc}")
            self.checkpoint = os.path.join(self.model, "finetune_final.ckpt")
        self.steps_per_round, self.images_per_round = self._expected()

    def _split(self, name):
        return os.path.join(self.data, f"{name}.hvtimg")

    def _count(self, name):
        from hvt.data import ImageContainer
        return len(ImageContainer.load(self._split(name)))

    @property
    def kind(self):
        return "infer" if self.name == "infer-tta" else "train"

    def commands(self):
        common = ["--config", self.cfg, "--seed", self.seed, "--out", self.out]
        if self.name == "pretrain-simclr":
            return [["pretrain", *common, "--data", self._split("unlabeled")]]
        if self.name == "finetune-sup":
            return [["finetune", *common, "--train", self._split("train"),
                     "--val", self._split("val")]]
        return [["eval", *common, "--checkpoint", self.checkpoint,
                 "--data", self._split("test")],
                ["calibrate", *common, "--checkpoint", self.checkpoint,
                 "--val", self._split("val"), "--test", self._split("test")],
                ["rollout", *common, "--checkpoint", self.checkpoint,
                 "--data", self._split("test")]]

    def _expected(self):
        """(steps, source images) one round must handle."""
        from hvt.config import RunConfig
        rc = RunConfig.load(self.cfg)
        if self.name == "pretrain-simclr":
            p = rc.values["pretrain"]
            steps = int(p["max_steps"])
            return steps, steps * int(p["batch_size"]) * int(p["accum_steps"])
        if self.name == "finetune-sup":
            f = rc.values["finetune"]
            micro = math.ceil(self.n_train / int(f["batch_size"]))
            per_epoch = math.ceil(micro / int(f["accum_steps"]))
            steps = int(f["max_steps"])
            if steps % per_epoch:
                raise RuntimeError("finetune max_steps must end on an epoch")
            return steps, steps // per_epoch * self.n_train
        return self.n_test, self.n_test

    def check(self, rcs, steps):
        """Checks one round's outputs; returns a dict of its results."""
        res = {"attempted": 0, "failed": 0, "failures": []}

        def op(ok, what):
            res["attempted"] += 1
            if not ok:
                res["failed"] += 1
                res["failures"].append(what)

        for argv, rc in zip(self.commands(), rcs):
            op(rc == 0, f"hvt {argv[0]} exited {rc}")
        op(len(steps) == self.steps_per_round,
           f"{len(steps)} steps, expected {self.steps_per_round}")
        digest = hashlib.sha256()
        try:
            self._check_outputs(op, res, digest)
        except (OSError, ValueError, KeyError) as e:
            op(False, f"outputs unreadable: {e}")
        res["digest"] = digest.hexdigest()
        return res

    def _check_outputs(self, op, res, digest):
        if self.kind == "train":
            log = os.path.join(self.out, "pretrain_log.csv" if self.name ==
                               "pretrain-simclr" else "finetune_log.csv")
            losses = self._losses(log)
            for value in losses:
                op(math.isfinite(value), f"non-finite loss {value}")
            res["final_loss"] = losses[-1] if losses else float("nan")
            ckpts = sorted(glob.glob(os.path.join(self.out, "*.ckpt")))
            for path in ckpts:
                op(self._reloads(path), f"{os.path.basename(path)} does not reload")
            for path in [log] + ckpts:
                digest.update(_read(path))
        else:
            log = os.path.join(self.model, "finetune_log.csv")
            losses = self._losses(log)
            res["final_loss"] = losses[-1] if losses else float("nan")
            for name in ("predictions.csv", "test_predictions_calibrated.csv"):
                for row in self._prob_rows(os.path.join(self.out, name)):
                    op(np.isfinite(row).all() and abs(row.sum() - 1.0) <= 1e-5,
                       f"{name}: bad probability row")
            cal = self._json("calibration.json")
            op(all(math.isfinite(v) for v in cal.values()
                   if isinstance(v, float)), "non-finite calibration value")
            rollout = np.loadtxt(os.path.join(self.out, "rollout_full.csv"),
                                 delimiter=",", ndmin=2)
            op(np.isfinite(rollout).all(), "non-finite rollout map")
            res["temperature_at_bound"] = int(
                abs(cal["temperature"] - T_LOWER_BOUND) < 1e-3 * T_LOWER_BOUND)
            res["rollout_degenerate"] = int(not rollout.any())
            for path in [log] + [os.path.join(self.out, n) for n in (
                    "predictions.csv", "calibration.json",
                    "test_predictions_calibrated.csv", "rollout_grid.csv")]:
                digest.update(_read(path))

    @staticmethod
    def _losses(path):
        with open(path) as f:
            rows = list(csv.DictReader(f))
        key = "loss" if rows and "loss" in rows[0] else "train_loss"
        return [float(r[key]) for r in rows]

    @staticmethod
    def _reloads(path):
        from hvt.data import load_checkpoint
        from hvt.errors import HVTError
        try:
            load_checkpoint(path)
        except (HVTError, OSError, ValueError):
            return False
        return True

    @staticmethod
    def _prob_rows(path):
        with open(path) as f:
            rows = list(csv.DictReader(f))
        cols = [k for k in (rows[0] if rows else {}) if k.startswith("p_")]
        return [np.array([float(r[c]) for c in cols]) for r in rows]

    def _json(self, name):
        with open(os.path.join(self.out, name)) as f:
            return json.load(f)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def run_round(workload, traced, spans):
    """One round, timed; ``spans`` is the run's tracer when traced."""
    # Removing the last round's outputs keeps a stale file from passing the
    # checks. It stays outside the timed region: on a filesystem mounted
    # with online discard, unlinking a file can take tens of milliseconds.
    shutil.rmtree(workload.out, ignore_errors=True)
    patches = tracer.Patches()
    clock = tracer.StepClock()
    if traced:
        spans.install(patches)
    clock.install(patches, workload.kind)
    try:
        start = time.perf_counter()
        rcs = [cli(argv) for argv in workload.commands()]
        seconds = time.perf_counter() - start
    finally:
        patches.restore()
    return rcs, seconds, clock.steps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_OVERRIDES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--work", required=True, help="scratch directory")
    ap.add_argument("--report", required=True, help="JSON report path")
    ap.add_argument("--spans", help="gzip CSV for the traced rounds' spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import hvt.cli
    src = os.path.dirname(os.path.dirname(os.path.abspath(hvt.cli.__file__)))
    os.makedirs(args.work, exist_ok=True)
    workload = Workload(args.workload, args.seed, args.work)
    workload.setup()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": time.monotonic() - args.t0, "hvt_src": src,
              "machine": machine()}
    if args.setup_only:
        _write(args.report, report)
        return 0

    spans = tracer.Tracer()
    traced_steps, rounds = [], []
    measured = {False: 0.0, True: 0.0}
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rcs, seconds, steps = run_round(workload, traced, spans)
        checked = workload.check(rcs, steps)
        checked.update(traced=traced, seconds=seconds, images=workload.images_per_round,
                       steps_ms=[1e3 * (e - s) for s, e in steps])
        rounds.append(checked)
        measured[traced] += seconds
        if traced:
            traced_steps += steps
        if sum(measured.values()) >= args.seconds and (
                not args.trace or measured[True] > 0):
            break
    report["rounds"] = rounds
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        n_traced = sum(r["traced"] for r in rounds)
        report["per_layer"] = tracer.analyse(spans.spans, traced_steps,
                                             spans.counts, n_traced)
        if args.spans:
            tracer.write_spans(args.spans, spans.spans, traced_steps)
    _write(args.report, report)
    return 0


def _write(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
