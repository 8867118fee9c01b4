"""Desk-pipeline benchmark for hvt.

    python3 perfbench/run.py --workload pretrain-simclr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in fresh processes of
``worker.py`` against the checkout's ``src``: two that only set up, then
one that sets up and runs timed rounds for ``--seconds``. The workloads are
closed loops with one caller, BLAS pinned to one thread and ``HVT_THREADS``
unset. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it print every metric by name and unit, the machine and the digest. The
full record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("pretrain-simclr", "finetune-sup", "infer-tta")
SETUPS = 3          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # samples the tail percentile must leave beyond it
DEADLINE_S = 170    # one workload, set-up probes included


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def code_id():
    """Hash of the program and benchmark sources: one commit's identity."""
    h = hashlib.sha256()
    for base, exts in ((os.path.join(SRC, "hvt"), (".py",)), (HERE, (".py", ".cfg"))):
        for name in sorted(os.listdir(base)):
            if name.endswith(exts):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env.pop("HVT_THREADS", None)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, work, report, deadline, setup_only, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--report", report]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(report) as f:
        return json.load(f)


def tail(values):
    """(value, percentile): the highest sample with TAIL_BEYOND beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(report, setups):
    rounds = [r for r in report["rounds"] if not r["traced"]]
    steps = [ms for r in rounds for ms in r["steps_ms"]]
    seconds = sum(r["seconds"] for r in rounds)
    tail_ms, tail_pct = tail(steps)
    attempted = sum(r["attempted"] for r in report["rounds"])
    failed = sum(r["failed"] for r in report["rounds"])
    values = {
        "setup_s": statistics.median(setups),
        "throughput_img_s": sum(r["images"] for r in rounds) / seconds,
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail_ms,
        "peak_rss_mb": report["peak_rss_mb"],
        "final_loss": report["rounds"][-1].get("final_loss", float("nan")),
        "error_rate": failed / attempted,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "throughput_img_s": f"{sum(r['images'] for r in rounds)} images in "
                            f"{seconds:.2f} s, {len(rounds)} rounds",
        "step_ms_p50": f"n={len(steps)}",
        "step_ms_tail": f"p{tail_pct:.1f}, n={len(steps)}, "
                        f"{round(len(steps) * (1 - tail_pct / 100))} beyond",
        "final_loss": "last logged loss" + (" of the set-up finetune"
                                            if report["workload"] == "infer-tta" else ""),
        "error_rate": f"{failed} of {attempted} operations failed",
    }
    return values, notes, attempted, failed


def check_digests(report, key):
    """Every round, traced or not, and every earlier run of this code and
    seed must give one digest. Returns (ok, digest, message)."""
    digests = {r["digest"] for r in report["rounds"]}
    if len(digests) != 1:
        return False, sorted(digests), "rounds of one run disagree"
    digest = digests.pop()
    path = os.path.join(OUT, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    before = seen.get(key)
    if before is not None and before != digest:
        return False, digest, f"differs from an earlier run ({before[:16]})"
    seen[key] = digest
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True, digest, "matches earlier runs" if before else "first run"


def per_layer(report):
    """The traced rounds' split, the tracing overhead and the defect counts."""
    rounds = report["rounds"]
    m = dict(report.get("per_layer", {}))
    traced = [r for r in rounds if r["traced"]]
    if traced:
        plain = [r for r in rounds if not r["traced"]]
        rate = [sum(r["images"] for r in rs) / sum(r["seconds"] for r in rs)
                for rs in (plain, traced)]
        m["trace.overhead_pct"] = 100.0 * (rate[0] / rate[1] - 1.0)
        m["trace.untraced_step_ms"] = statistics.fmean(
            ms for r in plain for ms in r["steps_ms"])
    for key, name in (("rollout_degenerate", "model.rollout_degenerate"),
                      ("temperature_at_bound", "metrics.temperature_at_bound")):
        m[name] = sum(r.get(key, 0) for r in rounds) / len(rounds)
    return m


def show(record, units):
    rounds = record["rounds"]
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} code={record['code']}")
    print("machine " + " ".join(f"{k}={v!r}" for k, v in record["machine"].items()))
    for name, value in record["end_to_end"].items():
        print(f"  {name:<18} {value:>14.6g} {units[name]:<6} "
              f"{record['notes'].get(name, '')}")
    print(f"  digest {record['digest']} ({record['digest_note']})")
    pl = record["per_layer"]
    if record["workload"] == "infer-tta":
        print("  known defects, counted and not failed, per round: "
              f"metrics.temperature_at_bound={pl['metrics.temperature_at_bound']:g} "
              f"model.rollout_degenerate={pl['model.rollout_degenerate']:g}")
    for failure in sorted({f for r in rounds for f in r["failures"]}):
        print(f"  FAILED: {failure}")
    if record["trace"]:
        print(f"  traced: {sum(r['traced'] for r in rounds)} rounds; self times "
              f"sum to {pl['trace.step_ms']:.3f} ms/step against an untraced "
              f"{pl['trace.untraced_step_ms']:.3f} ms/step; tracing overhead "
              f"{pl['trace.overhead_pct']:.1f}% of throughput")


def run_one(args, units, deadline):
    code = code_id()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{os.getpid()}-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(OUT, f"{tag}-spans.csv.gz") if args.trace else None
    try:
        setups = [run_worker(args, os.path.join(work, f"setup{i}"),
                             os.path.join(work, f"setup{i}.json"), deadline, True)
                  ["setup_s"] for i in range(SETUPS - 1)]
        report = run_worker(args, os.path.join(work, "main"),
                            os.path.join(work, "main.json"), deadline, False, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if os.path.realpath(report["hvt_src"]) != os.path.realpath(SRC):
        raise BenchError(f"worker imported hvt from {report['hvt_src']}")
    values, notes, attempted, failed = end_to_end(report, setups + [report["setup_s"]])
    ok, digest, why = check_digests(report, f"{code}:{args.workload}:{args.seed}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "code": code, "machine": report["machine"], "end_to_end": values,
              "notes": notes, "digest": digest, "digest_ok": ok, "digest_note": why,
              "per_layer": per_layer(report), "rounds": report["rounds"],
              "spans_file": spans}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    show(record, units)
    return record, ok and failed == 0, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if not os.path.isfile(os.path.join(SRC, "hvt", "cli.py")):
            raise BenchError(f"no hvt sources under {SRC}")
        bench = spec()
        os.makedirs(OUT, exist_ok=True)
        metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
        units = {"final_loss": "loss", "error_rate": "ratio"}
        units.update((m["name"], m["unit"]) for m in bench["end_to_end"])
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            results.append(run_one(one, units, time.monotonic() + DEADLINE_S))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    source = "per_layer" if args.trace else "end_to_end"
    out = {}
    for record, _, _, _ in results:
        prefix = f"{record['workload']}/" if len(results) > 1 else ""
        for m in metrics:
            out[prefix + m["name"]] = {"value": record[source][m["name"]],
                                       "unit": m["unit"]}
    print(json.dumps({"correct": all(ok for _, ok, _, _ in results),
                      "attempted": sum(a for _, _, a, _ in results),
                      "failed": sum(f for _, _, _, f in results),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
