"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

The workload tests start real worker processes on short runs (about a
minute in all on two cores).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, run.SRC)

EMITTED_AFTER_ANALYSE = {"trace.overhead_pct", "trace.untraced_step_ms",
                         "model.rollout_degenerate", "metrics.temperature_at_bound"}


def worker(tmp_path, workload, trace, seed=5, tag=""):
    work = tmp_path / f"{workload}-{trace}{tag}"
    report = tmp_path / f"{workload}-{trace}{tag}.json"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--work", str(work), "--report", str(report), "--t0", repr(time.monotonic())]
    subprocess.run(cmd, env=run.child_env(), cwd=run.ROOT, check=True, timeout=170)
    return json.loads(report.read_text())


def test_benchmark_json_follows_its_contract():
    bench = run.spec()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


def test_per_layer_names_are_the_emitted_ones():
    emitted = set(tracer.analyse([], [], tracer.Counter(), 0)) | EMITTED_AFTER_ANALYSE
    assert {m["name"] for m in run.spec()["per_layer"]} == emitted


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_and_loop_other_add_up_to_step_time():
    # step 0 is [0, 10]: a root span [1, 6] with a child [2, 4], then an
    # uncovered gap; the span [11, 12] lies outside every step.
    spans = [["augment.map_augment", 1.0, 6.0, -1, 2.0],
             ["augment.rotate", 2.0, 4.0, 0, 0.0],
             ["data.checkpoint_save", 11.0, 12.0, -1, 0.0]]
    m = tracer.analyse(spans, [(0.0, 10.0)], tracer.Counter(), 1)
    assert m["augment.busy_ms"] == 5e3
    assert m["augment.rotate.self_ms"] == 2e3
    assert m["loop.other_ms"] == 5e3
    assert m["trace.step_ms"] == 10e3
    assert tracer.step_ids(spans, [(0.0, 10.0)]) == [0, 0, -1]


def test_patches_restore_the_program():
    import hvt.tensor
    original = hvt.tensor.gelu
    patches = tracer.Patches()
    tracer.Tracer().install(patches)
    assert hvt.tensor.gelu is not original
    patches.restore()
    assert hvt.tensor.gelu is original


def _layer_counts(report):
    pl = report["per_layer"]
    return {k: v for k, v in pl.items() if k.endswith(".calls")
            or k in ("tensor.matmul.gflop", "augment.images", "data.bytes_written")}


@pytest.mark.parametrize("workload", ["pretrain-simclr", "finetune-sup"])
def test_counts_repeat_exactly_and_tracing_keeps_the_arithmetic(tmp_path, workload):
    first = worker(tmp_path, workload, 1, tag="a")
    second = worker(tmp_path, workload, 1, tag="b")
    plain = worker(tmp_path, workload, 0)
    assert _layer_counts(first) == _layer_counts(second)
    assert first["per_layer"]["tensor.matmul.calls"] > 0
    for report in (first, second, plain):
        assert all(r["failed"] == 0 for r in report["rounds"])
    rounds = first["rounds"] + second["rounds"] + plain["rounds"]
    assert any(r["traced"] for r in first["rounds"])
    assert len({r["digest"] for r in rounds}) == 1
    assert len({r["final_loss"] for r in rounds}) == 1


def test_infer_traced_rounds_match_untraced_and_count_known_defects(tmp_path):
    # Seed 3 is one on which the desk recipe lands T* on the bracket edge.
    report = worker(tmp_path, "infer-tta", 1, seed=3)
    rounds = report["rounds"]
    assert {r["traced"] for r in rounds} == {False, True}
    assert len({r["digest"] for r in rounds}) == 1
    assert all(r["failed"] == 0 for r in rounds)
    assert all(r["rollout_degenerate"] == 1 for r in rounds)
    assert all(r["temperature_at_bound"] == 1 for r in rounds)
    assert report["per_layer"]["tensor.backward.busy_ms"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "finetune-sup", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
