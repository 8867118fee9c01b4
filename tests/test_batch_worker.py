"""The batch worker end to end: ``hvt pretrain`` and ``hvt finetune`` in
fresh processes with a one-thread BLAS, where the step driver forks its
worker, against the same commands made to work in-process.

Each run is a subprocess so that the worker rule (read when hvt is
imported) and the process exit are real. The in-process path is forced by
making ``os.fork`` fail, which is how a worker that cannot start looks.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from hvt.cli import main
from hvt.data import ImageContainer
from hvt.tensor import RngStream

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the batch worker needs two usable CPUs")

# Runs hvt commands in-process, then prints one JSON line with their exit
# codes and the pids of the live child processes. argv[1] names the
# process's conditions, joined by "+"; argv[2] is the JSON list of commands.
RUNNER = r"""
import json, multiprocessing, os, signal, sys
modes, commands = set(sys.argv[1].split("+")), json.loads(sys.argv[2])
if "no-fork" in modes:
    def refuse():
        raise OSError("fork refused")
    os.fork = refuse
if "one-cpu" in modes:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import hvt.augment, hvt.finetune, hvt.ssl
from hvt.cli import main
from hvt.errors import InputError

if modes & {"kill-pretrain", "kill-finetune", "die"}:
    module = hvt.finetune if "kill-finetune" in modes else hvt.ssl
    real, calls = module.adamw_step, []

    def step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            pids = [p.pid for p in multiprocessing.active_children()]
            if "die" in modes:
                print(json.dumps({"worker": pids}), flush=True)
                os._exit(3)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        return real(*args, **kwargs)
    module.adamw_step = step

if "bad-pixel" in modes:
    real_augment = hvt.ssl.simclr_augment

    def augment(image, *args, **kwargs):
        if image.max() > 1.0:
            raise InputError("pixel above 1 in a source image")
        return real_augment(image, *args, **kwargs)
    hvt.ssl.simclr_augment = augment

rcs = [main(argv) for argv in commands]
print(json.dumps({"rcs": rcs, "children": [p.pid for p in multiprocessing.active_children()]}))
"""

CFG = """[model]
input_size = 64
patch_size = 8
depths = 1,1,1,1
dims = 8,16,32,64
heads = 1,2,4,8
drop_path_max = 0.1
num_classes = 7
[pretrain]
epochs = 2
batch_size = 4
accum_steps = 2
warmup_epochs = 0.5
checkpoint_every = 3
[finetune]
epochs = 2
batch_size = 8
accum_steps = 1
lr_max = 0.001
freeze_epochs = 1
ema_decay = 0.9
"""
N_UNLABELED = 12
SEED = 5


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("worker-data")
    cfg = root / "run.cfg"
    cfg.write_text(CFG)
    assert main(["gen-data", "--config", str(cfg), "--seed", str(SEED), "--out", str(root),
                 "--n-per-class", "8", "--n-unlabeled", str(N_UNLABELED)]) == 0
    return root


def commands(data, out):
    common = ["--config", str(data / "run.cfg"), "--seed", str(SEED), "--out", str(out)]
    return [["pretrain", *common, "--data", str(data / "unlabeled.hvtimg")],
            ["finetune", *common, "--train", str(data / "train.hvtimg"),
             "--val", str(data / "val.hvtimg"), "--init", str(out / "pretrain_final.ckpt")]]


def run(mode, argvs):
    """(stdout lines, the runner's JSON result or None) of one subprocess."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, mode, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return lines, result, proc


def events(lines, out):
    """The key=value lines with the output directory and the augment path
    taken out, and the augment path of each *_done line."""
    kept, paths = [], {}
    for line in lines:
        if line.startswith("event="):
            fields = line.replace(str(out), "<out>").split()
            for f in fields:
                if f.startswith("augment="):
                    paths[fields[0][len("event="):]] = f[len("augment="):]
            kept.append(" ".join(f for f in fields if not f.startswith("augment=")))
    return kept, paths


def artifacts(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def gone(pid):
    """The process has exited (a zombie left to an init that does not reap
    counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture(scope="module")
def reference(data, tmp_path_factory):
    """Pre-training then fine-tuning with the worker: (lines, out dir)."""
    out = tmp_path_factory.mktemp("worker-run")
    lines, result, proc = run("worker", commands(data, out))
    assert result is not None and result["rcs"] == [0, 0], proc.stderr
    assert result["children"], "the worker should be alive until the process exits"
    for pid in result["children"]:
        assert_exits(pid)
    return lines, out


def assert_exits(pid, within_s=10.0):
    deadline = time.monotonic() + within_s
    while not gone(pid):
        assert time.monotonic() < deadline, f"process {pid} still running"
        time.sleep(0.05)


def test_worker_and_in_process_runs_give_the_same_bytes(reference, data, tmp_path):
    lines, out = reference
    got_lines, result, proc = run("no-fork", commands(data, tmp_path))
    assert result == {"rcs": [0, 0], "children": []}, proc.stderr
    ref_events, ref_paths = events(lines, out)
    got_events, got_paths = events(got_lines, tmp_path)
    assert ref_paths == {"pretrain_done": "worker", "finetune_done": "worker"}
    assert got_paths == {"pretrain_done": "inline", "finetune_done": "inline"}
    assert got_events == ref_events
    assert sum(e.startswith("event=pretrain_step") for e in ref_events) == 4
    assert sum(e.startswith("event=finetune_epoch") for e in ref_events) == 2
    ref = artifacts(out)
    assert sorted(ref) == ["finetune_best.ckpt", "finetune_final.ckpt", "finetune_log.csv",
                           "pretrain_final.ckpt", "pretrain_log.csv",
                           "pretrain_step000003.ckpt"]
    assert artifacts(tmp_path) == ref


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_killed_worker_run_finishes_with_the_same_bytes(reference, data, tmp_path, phase):
    lines, out = reference
    got_lines, result, proc = run(f"kill-{phase}", commands(data, tmp_path))
    assert result == {"rcs": [0, 0], "children": []}, proc.stderr
    got_events, got_paths = events(got_lines, tmp_path)
    assert got_events == events(lines, out)[0]
    assert got_paths == {"pretrain_done": "inline" if phase == "pretrain" else "worker",
                         "finetune_done": "inline"}
    assert artifacts(tmp_path) == artifacts(out)


@pytest.mark.parametrize("mode", ["bad-pixel", "bad-pixel+no-fork"])
def test_input_error_in_a_batch_exits_1_as_in_process(data, tmp_path, mode):
    # The marked image sits in epoch 0's second micro-batch, the first one
    # made ahead (by the worker, where there is one).
    unlabeled = ImageContainer.load(data / "unlabeled.hvtimg")
    perm = RngStream(SEED).child("pretrain").child("shuffle", 0).permutation(N_UNLABELED)
    images = unlabeled.images.copy()
    images[perm[5], 0, 0, 0] = 2.0
    bad = tmp_path / "bad.hvtimg"
    ImageContainer(images, unlabeled.labels).save(bad)
    argv = ["pretrain", "--config", str(data / "run.cfg"), "--seed", str(SEED),
            "--out", str(tmp_path / "out"), "--data", str(bad)]
    lines, result, proc = run(mode, [argv])
    assert result is not None and result["rcs"] == [1], proc.stderr
    assert "event=error kind=InputError" in lines
    assert "error: pixel above 1 in a source image" in lines
    assert not any(line.startswith("event=pretrain_step") for line in lines)
    for pid in result["children"]:
        assert_exits(pid)


def test_no_child_is_left_when_the_parent_dies(data, tmp_path):
    lines, _, proc = run("die", commands(data, tmp_path)[:1])
    assert proc.returncode == 3, proc.stderr
    pids = json.loads(lines[-1])["worker"]
    assert len(pids) == 1
    assert_exits(pids[0])


def test_one_usable_cpu_means_no_worker(data, tmp_path):
    lines, result, proc = run("one-cpu", commands(data, tmp_path))
    assert result == {"rcs": [0, 0], "children": []}, proc.stderr
    assert events(lines, tmp_path)[1] == {"pretrain_done": "inline",
                                          "finetune_done": "inline"}
