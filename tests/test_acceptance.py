"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they print. Every tolerance is pinned here, not in helpers, so a glance at
a test shows exactly what it demands.
"""

import json
import math
import time

import numpy as np
import pytest

from hvt import tensor as T
from hvt import model as Mdl
from hvt import optim as O
from hvt import finetune as F
from hvt import metrics as Mx
from hvt import ssl as S
from hvt.cli import main as cli_main
from hvt.data import (ImageContainer, generate_synthetic, load_checkpoint,
                      normalize_images, save_checkpoint,
                      stratified_split)
from hvt.model import HVTConfig, attention_rollout, count_params, forward, init_params
from hvt.tensor import RngStream, Tensor, no_grad
from helpers import rel_err


def report(cid, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {cid} {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def test_c01_shape_chain_xl():
    start = time.monotonic()
    cfg = HVTConfig.xl()
    params = init_params(cfg, RngStream(0))
    img = np.random.default_rng(0).random((448, 448, 3), dtype=np.float32)
    with no_grad():
        res = forward(img, params, cfg)
    shapes = [s.shape for s in res.stages]
    elapsed = time.monotonic() - start
    ok = (shapes == [(1024, 192), (256, 384), (64, 768), (16, 1536)]
          and res.logits.shape == (7,) and elapsed < 60.0)
    assert report("C01", "xl-shape-chain", ok,
                  f"stages={shapes}, logits={res.logits.shape}, {elapsed:.1f}s")


def _fd(f, arr, i, h=1e-5):
    flat = arr.reshape(-1)
    orig = flat[i]
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2 * h)


def _check_op(build, arrays, seeds=10, samples=4):
    """Backward vs central differences on sampled entries, many seeds."""
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        arrs = [rng.normal(size=s) if isinstance(s, tuple) else s(rng)
                for s in arrays]
        loss, leaves = build(*arrs)
        loss.backward()
        pick = np.random.default_rng(1000 + seed)
        for arr, leaf in zip(arrs, leaves):
            idxs = pick.choice(arr.size, size=min(samples, arr.size), replace=False)
            for i in idxs:
                num = _fd(lambda: float(build(*arrs)[0].numpy()), arr, i)
                worst = max(worst, rel_err(leaf.grad.reshape(-1)[i], num))
    return worst


def test_c02_gradient_suite():
    start = time.monotonic()
    w5 = np.random.default_rng(99).normal(size=5)
    worst = 0.0

    def check(name, arrays, loss_fn):
        nonlocal worst
        op_worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            arrs = [a(rng) if callable(a) else rng.normal(size=a) for a in arrays]
            leaves = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrs]
            loss_fn(*leaves).backward()
            pick = np.random.default_rng(1000 + seed)
            for arr, leaf in zip(arrs, leaves):
                for i in pick.choice(arr.size, size=min(3, arr.size), replace=False):
                    def f():
                        fresh = [Tensor(a, dtype=np.float64) for a in arrs]
                        return float(loss_fn(*fresh).numpy())
                    num = _fd(f, arr, i)
                    op_worst = max(op_worst, rel_err(leaf.grad.reshape(-1)[i], num))
        worst = max(worst, op_worst)
        assert op_worst < 1e-3, f"{name}: rel err {op_worst:.2e}"

    sq = lambda out: (out * out).sum()
    check("matmul", [(3, 4), (4, 2)], lambda a, b: sq(T.matmul(a, b)))
    check("batched-matmul", [(2, 3, 4), (2, 4, 3)], lambda a, b: sq(T.matmul(a, b)))
    check("softmax", [(5,)], lambda a: sq(T.softmax(a, 0) * Tensor(w5, dtype=np.float64)))
    check("layer_norm", [(3, 5), (5,), (5,)], lambda x, g, b: sq(T.layer_norm(x, g, b)))
    check("gelu", [(6,)], lambda a: sq(T.gelu(a)))
    check("add", [(3, 4), (3, 4)], lambda a, b: sq(a + b))
    check("sub", [(3, 4), (3, 4)], lambda a, b: sq(a - b))
    check("mul", [(3, 4), (3, 4)], lambda a, b: sq(a * b))
    check("div", [(3, 4), lambda r: r.normal(size=(3, 4)) + 4.0],
          lambda a, b: sq(a / b))
    check("bias-broadcast", [(2, 3, 4), (4,)], lambda a, b: sq(a + b))
    check("scale", [(7,)], lambda a: sq(T.scale(a, -1.7)))
    check("exp", [(6,)], lambda a: sq(T.exp(a)))
    check("log", [lambda r: r.uniform(0.5, 3.0, size=6)], lambda a: sq(T.log(a)))
    check("sqrt", [lambda r: r.uniform(0.5, 3.0, size=6)], lambda a: sq(T.sqrt(a)))
    check("power", [lambda r: r.uniform(0.5, 3.0, size=6)], lambda a: sq(T.power(a, 1.7)))
    check("clamp_min", [lambda r: r.uniform(0.5, 3.0, size=6)],
          lambda a: sq(T.clamp_min(a, 1.0)))
    check("reduce-sum", [(4, 5)], lambda a: sq(T.reduce(a, "sum", axis=0)))
    check("reduce-mean", [(4, 5)], lambda a: sq(T.reduce(a, "mean", axis=1)))
    check("reduce-max", [(4, 5)], lambda a: sq(T.reduce(a, "max", axis=0)))
    check("reshape", [(4, 6)], lambda a: sq(T.reshape(a, (3, 8))))
    check("permute", [(2, 3, 4)], lambda a: sq(T.permute(a, (2, 0, 1))))
    check("concat", [(2, 3), (2, 2)], lambda a, b: sq(T.concat([a, b], 1)))
    check("slice", [(4, 6)], lambda a: sq(a[1:3, ::2]))
    check("broadcast_to", [(3, 1)], lambda a: sq(T.broadcast_to(a, (3, 5))))

    # full tiny model, every parameter tensor, sampled entries, 10 seeds
    model_worst = 0.0
    for seed in range(10):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(seed), dtype=np.float64)
        img = np.random.default_rng(seed).random((64, 64, 3))
        target = np.zeros(7)
        target[seed % 7] = 1.0

        def loss_value():
            res = forward(img, params, cfg)
            p = T.softmax(res.logits, axis=0)
            picked = (T.log(T.clamp_min(p, 1e-12)) * Tensor(target, dtype=np.float64)).sum()
            return T.scale(picked, -1.0)

        loss_value().backward()
        pick = np.random.default_rng(5000 + seed)
        for name, tensor in params.items():
            flat = tensor.data.reshape(-1)
            gflat = tensor.grad.reshape(-1)
            for i in pick.choice(flat.size, size=min(2, flat.size), replace=False):
                num = _fd(lambda: float(loss_value().numpy()), tensor.data, i)
                model_worst = max(model_worst, rel_err(gflat[i], num))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and model_worst < 1e-3 and elapsed < 300
    assert report("C02", "gradient-suite", ok,
                  f"ops worst={worst:.2e}, model worst={model_worst:.2e}, {elapsed:.0f}s")


def test_c03_nt_xent_oracle():
    def naive(emb, tau=0.5):
        z = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        n = emb.shape[0]
        pairing = S.default_pairing(n)
        total = 0.0
        for i in range(n):
            j = int(pairing[i])
            num = math.exp(float(z[i] @ z[j]) / tau)
            den = sum(math.exp(float(z[i] @ z[k]) / tau)
                      for k in range(n) if k != i)
            total += -math.log(num / den)
        return total / n

    rng = np.random.default_rng(0)
    worst = 0.0
    for b in (1, 2, 3, 4):
        emb = rng.normal(size=(2 * b, 16))
        got = float(S.nt_xent_loss(Tensor(emb, dtype=np.float64)).numpy())
        worst = max(worst, abs(got - naive(emb)))
    b1 = float(S.nt_xent_loss(
        Tensor(rng.normal(size=(2, 8)), dtype=np.float64)).numpy())
    ok = worst < 1e-6 and b1 == 0.0
    assert report("C03", "nt-xent-oracle", ok, f"max diff={worst:.2e}, B=1 loss={b1}")


def test_c04_loss_identities():
    rng = np.random.default_rng(1)
    probs_np = np.exp(rng.normal(size=(6, 7)))
    probs_np /= probs_np.sum(axis=1, keepdims=True)
    targets = rng.integers(0, 7, size=6)
    probs = Tensor(probs_np, dtype=np.float64)
    gap = abs(float(F.focal_loss(probs, targets, alpha=1.0, gamma=0.0).numpy())
              - float(F.cross_entropy(probs, targets).numpy()))
    logits = Tensor(np.eye(7)[[2, 5]] * 1e4, dtype=np.float64)
    perfect = float(F.combined_loss(logits, np.array([2, 5])).numpy())
    half = np.full((1, 7), 0.5 / 6.0)
    half[0, 0] = 0.5
    value = float(F.focal_loss(Tensor(half, dtype=np.float64), np.array([0])).numpy())
    ok = gap < 1e-7 and perfect == 0.0 and abs(value - 0.024755) < 1e-6
    assert report("C04", "loss-identities", ok,
                  f"focal-vs-ce={gap:.1e}, perfect={perfect}, focal(0.5)={value:.6f}")


def test_c05_scheduler_endpoints():
    eta0 = 5e-4
    wc = (O.warmup_cosine_lr(0, 10, 80, eta0),
          O.warmup_cosine_lr(10, 10, 80, eta0),
          O.warmup_cosine_lr(80, 10, 80, eta0))
    oc = (O.onecycle_lr(0, 10, 100), O.onecycle_lr(10, 10, 100),
          O.onecycle_lr(100, 10, 100))
    h = 1e-6

    def gap(f, t):
        left = 2 * f(t - h) - f(t - 2 * h)
        right = 2 * f(t + h) - f(t + 2 * h)
        return abs(left - right)

    g1 = gap(lambda t: O.warmup_cosine_lr(t, 10, 80, eta0), 10)
    g2 = gap(lambda t: O.onecycle_lr(t, 10, 100), 10)
    ok = (wc[0] == 0.0 and abs(wc[1] - eta0) < 1e-18 and abs(wc[2]) < 1e-18
          and abs(oc[0] - 1e-5) < 1e-18 and abs(oc[1] - 0.1) < 1e-18
          and abs(oc[2] - 1e-5) < 1e-12 and g1 < 1e-12 and g2 < 1e-12)
    assert report("C05", "scheduler-endpoints", ok,
                  f"wc={wc}, oc={oc}, gaps=({g1:.1e},{g2:.1e})")


def test_c06_stochastic_depth_expectation():
    p = 0.3
    n = 10_000
    x = Tensor(np.ones((n, 1, 1), dtype=np.float64))
    out = Mdl.drop_path(x, p, "train", RngStream(2024)).numpy()
    se = math.sqrt(p / (1 - p) / n)
    dev = abs(out.mean() - 1.0)
    infer = Mdl.drop_path(x, p, "infer")
    identity = np.array_equal(infer.numpy(), x.numpy())
    ok = dev < 3 * se and identity
    assert report("C06", "stochastic-depth-expectation", ok,
                  f"|mean-1|={dev:.4f} < 3SE={3 * se:.4f}, infer-identity={identity}")


def test_c07_ema_and_freeze_contracts():
    params = {f"p{i}": Tensor(np.random.default_rng(i).normal(size=(3, 3)),
                              requires_grad=True, dtype=np.float64)
              for i in range(3)}
    ema0 = O.EmaState.init(params, decay=0.0)
    for t in params.values():
        t.data = t.data * 1.3 + 0.1
    O.ema_update(ema0, params)
    tracks = all(np.array_equal(ema0.shadow[k], params[k].numpy()) for k in params)

    ema = O.EmaState.init(params, decay=0.9)
    for t in params.values():
        t.data = t.data + 1.0
    O.ema_update(ema, params)
    before = {k: t.numpy().copy() for k, t in params.items()}
    O.ema_swap_for_eval(ema, params)
    O.ema_swap_for_eval(ema, params)
    roundtrip = all(np.array_equal(params[k].numpy(), before[k]) for k in params)

    cfg = HVTConfig.tiny(drop_path_max=0.0)
    mparams = init_params(cfg, RngStream(3))
    init_copy = {k: t.numpy().copy() for k, t in mparams.items()}
    labeled, _ = generate_synthetic(6, size=(64, 64), seed=3)
    settings = F.FinetuneSettings(epochs=5, batch_size=21, accum_steps=1,
                                  lr_max=1e-3, freeze_epochs=5, ema_decay=0.99,
                                  policy=None, max_steps=0)
    F.finetune_loop(mparams, labeled, labeled, cfg, settings, RngStream(4))
    frozen_ok = all(np.array_equal(mparams[k].numpy(), init_copy[k])
                    for k in mparams if not k.startswith("head."))
    head_moved = not np.array_equal(mparams["head.w"].numpy(), init_copy["head.w"])
    ok = tracks and roundtrip and frozen_ok and head_moved
    assert report("C07", "ema-freeze-contracts", ok,
                  f"beta0-tracks={tracks}, swap-roundtrip={roundtrip}, "
                  f"frozen-5-epochs={frozen_ok}, head-trains={head_moved}")


def test_c08_desk_scale_overfit():
    start = time.monotonic()
    cfg = HVTConfig.desk(drop_path_max=0.0)
    labeled, _ = generate_synthetic(16, size=(64, 64), seed=11)
    params = init_params(cfg, RngStream(0))
    settings = F.FinetuneSettings(
        epochs=75, batch_size=16, accum_steps=1, lr_max=3e-3, lr_min=1e-5,
        warmup_frac=0.1, freeze_epochs=0, ema_decay=0.99, mixup_p=0.0,
        cutmix_p=0.0, policy=None, max_steps=500)
    res = F.finetune_loop(params, labeled, labeled, cfg, settings, RngStream(1))
    best = max(row["val_acc"] for row in res.log)
    steps_run = min(500, len(res.log) * math.ceil(len(labeled) / 16))
    elapsed = time.monotonic() - start
    ok = best >= 0.99 and elapsed < 600
    assert report("C08", "desk-overfit", ok,
                  f"train acc={best:.3f} within {steps_run} steps, {elapsed:.0f}s")


def _gap_features(params, cfg, images):
    x = normalize_images(images, cfg.norm_mean, cfg.norm_std)
    out = []
    with no_grad():
        for s in range(0, len(x), 64):
            out.append(forward(x[s:s + 64], params, cfg).features.numpy())
    return np.concatenate(out)


@pytest.mark.slow
def test_c09_ssl_directional_benefit():
    start = time.monotonic()
    margins = []
    for seed in range(5):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        labeled, unlabeled = generate_synthetic(29, size=(64, 64), seed=seed,
                                                n_unlabeled=256)
        train, _, test = stratified_split(labeled, (0.7, 0.0, 0.3), seed=seed)
        rng = RngStream(seed)
        params = init_params(cfg, rng)
        acc_rand = S.linear_probe(
            _gap_features(params, cfg, train.images), train.labels,
            _gap_features(params, cfg, test.images), test.labels, 7)
        ssl_params = {k: Tensor(v.numpy().copy(), requires_grad=True)
                      for k, v in params.items()}
        head = S.init_projection_head(cfg.dims[-1], rng)
        settings = S.PretrainSettings(epochs=60, batch_size=32, accum_steps=1,
                                      warmup_epochs=5, max_steps=300)
        S.pretrain_loop(ssl_params, head, unlabeled.images, cfg, settings,
                        rng.child("pre"))
        acc_ssl = S.linear_probe(
            _gap_features(ssl_params, cfg, train.images), train.labels,
            _gap_features(ssl_params, cfg, test.images), test.labels, 7)
        margins.append(acc_ssl - acc_rand)
    median = float(np.median(margins))
    elapsed = time.monotonic() - start
    ok = median > 0.0 and elapsed < 1800
    assert report("C09", "ssl-directional-benefit", ok,
                  f"margins={[round(m, 3) for m in margins]}, "
                  f"median={median:+.3f}, {elapsed:.0f}s")


def test_c10_calibration_machinery():
    rng = np.random.default_rng(7)
    n, c = 10_000, 4
    probs = rng.dirichlet(np.ones(c), size=n)
    y = np.array([rng.choice(c, p=row) for row in probs])
    ece_val = Mx.ece(Mx.PredictionSet.from_probs(y, probs))

    logits = rng.normal(size=(4000, 5)) * 1.5
    cal_probs = Mx.apply_temperature(logits, 1.0)
    labels = np.array([rng.choice(5, p=row) for row in cal_probs])
    t_star, _ = Mx.fit_temperature(2.0 * logits, labels)
    nll_at_t = Mx.nll(2.0 * logits, labels, t_star)
    nll_at_1 = Mx.nll(2.0 * logits, labels, 1.0)

    z = rng.normal(size=(500, 7)) * 3
    base = np.argmax(z, axis=1)
    argmax_ok = all(np.array_equal(np.argmax(Mx.apply_temperature(z, t), axis=1), base)
                    for t in (0.5, 1.15, 10.0))
    ok = (ece_val < 0.02 and abs(t_star - 2.0) <= 0.05
          and nll_at_t <= nll_at_1 and argmax_ok)
    assert report("C10", "calibration-machinery", ok,
                  f"ece={ece_val:.4f}, T*={t_star:.3f}, "
                  f"nll {nll_at_t:.4f}<={nll_at_1:.4f}, argmax={argmax_ok}")


def test_c11_mcnemar():
    a = np.ones(100, dtype=bool)
    b = a.copy()
    b[:15] = False
    _, p_150 = Mx.mcnemar_test(a, b)
    exact_ok = abs(p_150 - 6.103515625e-5) < 1e-6

    sym_ps = []
    for b_count in (4, 9, 20):
        x = np.ones(3 * b_count, dtype=bool)
        yy = np.ones_like(x)
        x[:b_count] = False
        yy[b_count:2 * b_count] = False
        _, p = Mx.mcnemar_test(x, yy)
        sym_ps.append(p)
    balanced_ok = all(p >= 0.75 for p in sym_ps)

    rng = np.random.default_rng(8)
    ca = rng.random(400) < 0.85
    cb = rng.random(400) < 0.70
    sab = Mx.mcnemar_test(ca, cb)
    sba = Mx.mcnemar_test(cb, ca)
    swap_ok = sab == sba
    ok = exact_ok and balanced_ok and swap_ok
    assert report("C11", "mcnemar", ok,
                  f"p(15,0)={p_150:.3e}, balanced p>=0.75={balanced_ok}, "
                  f"swap-symmetric={swap_ok}")


def test_c12_param_count_target():
    """The XL stage table implies ~273.6M parameters under the documented
    convention (qkv + output projection + r=4 FFN + biases) and ~251.1M
    even with projections and biases stripped; no convention consistent
    with the r=4 FFN reaches the quoted 158M. The target is asserted as
    stated rather than softened, so this check fails honestly."""
    cfg = HVTConfig.xl()
    total = sum(int(np.prod(s)) for s in Mdl.param_shapes(cfg).values())
    target = 158e6
    ok = 0.9 * target <= total <= 1.1 * target
    report("C12", "xl-param-count-158M", ok,
           f"counted={total / 1e6:.1f}M, allowed=[{0.9 * target / 1e6:.1f}M, "
           f"{1.1 * target / 1e6:.1f}M]")
    assert ok, (f"XL parameter count {total / 1e6:.1f}M is outside 158M +- 10%; "
                "the stage table and the quoted total are mutually inconsistent")


@pytest.mark.slow
def test_c13_persistence_and_pipeline_reproducibility(tmp_path):
    start = time.monotonic()
    # container + checkpoint round trips
    rng = np.random.default_rng(0)
    cont = ImageContainer(rng.random((4, 8, 8, 3), dtype=np.float32),
                          np.array([0, 1, 2, 3], np.int32))
    p1 = tmp_path / "c1.img"
    cont.save(p1)
    again = tmp_path / "c2.img"
    ImageContainer.load(p1).save(again)
    container_ok = p1.read_bytes() == again.read_bytes()
    ck1, ck2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    arrays = {"w": rng.normal(size=(5, 5)).astype(np.float32)}
    save_checkpoint(ck1, arrays, None, {"k": 1})
    loaded, snap, meta = load_checkpoint(ck1)
    save_checkpoint(ck2, loaded, snap, meta)
    ckpt_ok = ck1.read_bytes() == ck2.read_bytes()

    # full CLI pipeline, twice, byte-compared
    cfgp = "configs/desk.cfg"
    artifacts = ["data/train.hvtimg", "data/val.hvtimg", "data/test.hvtimg",
                 "data/unlabeled.hvtimg", "run/pretrain_log.csv",
                 "run/pretrain_final.ckpt", "run/finetune_log.csv",
                 "run/finetune_best.ckpt", "run/finetune_final.ckpt",
                 "run/predictions.csv", "run/metrics.json",
                 "run/reliability_bins.csv", "run/calibration.json",
                 "run/rollout_grid.csv", "run/rollout_full.csv"]

    def run_pipeline(root):
        data = str(root / "data")
        out = str(root / "run")
        assert cli_main(["gen-data", "--config", cfgp, "--seed", "77",
                         "--out", data]) == 0
        assert cli_main(["pretrain", "--data", f"{data}/unlabeled.hvtimg",
                         "--config", cfgp, "--seed", "77", "--out", out]) == 0
        assert cli_main(["finetune", "--train", f"{data}/train.hvtimg",
                         "--val", f"{data}/val.hvtimg",
                         "--init", f"{out}/pretrain_final.ckpt",
                         "--config", cfgp, "--seed", "77", "--out", out]) == 0
        assert cli_main(["eval", "--checkpoint", f"{out}/finetune_best.ckpt",
                         "--data", f"{data}/test.hvtimg",
                         "--config", cfgp, "--out", out]) == 0
        assert cli_main(["calibrate", "--checkpoint", f"{out}/finetune_best.ckpt",
                         "--val", f"{data}/val.hvtimg",
                         "--test", f"{data}/test.hvtimg",
                         "--config", cfgp, "--out", out]) == 0
        assert cli_main(["rollout", "--checkpoint", f"{out}/finetune_best.ckpt",
                         "--data", f"{data}/test.hvtimg", "--index", "0",
                         "--config", cfgp, "--out", out]) == 0

    r1, r2 = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(r1)
    single = time.monotonic() - start
    run_pipeline(r2)
    mismatched = [a for a in artifacts
                  if (r1 / a).read_bytes() != (r2 / a).read_bytes()]
    elapsed = time.monotonic() - start
    ok = container_ok and ckpt_ok and not mismatched and single < 2700
    assert report("C13", "persistence-and-reproducibility", ok,
                  f"roundtrips ok={container_ok and ckpt_ok}, "
                  f"mismatched={mismatched}, single run {single:.0f}s, "
                  f"both {elapsed:.0f}s")


def test_c14_attention_rollout():
    n = 4
    ident = Mdl.AttentionRecord(blocks=[np.eye(n)[None]], stage_ids=[3],
                                grid=(2, 2), image_size=(8, 8))
    grid_map, full_map = attention_rollout(ident)
    uniform_ok = np.ptp(grid_map) == 0.0 and np.ptp(full_map) == 0.0

    rng = np.random.default_rng(9)
    mats = []
    for _ in range(3):
        a = rng.random((2, n, n))
        mats.append(a / a.sum(axis=-1, keepdims=True))
    rec = Mdl.AttentionRecord(blocks=[m[None] for m in mats], stage_ids=[3] * 3,
                              grid=(2, 2), image_size=(8, 8))
    inters = Mdl.rollout_intermediates(rec)
    rows_ok = all(np.abs(r.sum(axis=1) - 1.0).max() < 1e-5 for r in inters)
    g, f = attention_rollout(rec)
    range_ok = 0.0 <= g.min() and g.max() <= 1.0 and 0.0 <= f.min() and f.max() <= 1.0
    ok = uniform_ok and rows_ok and range_ok
    assert report("C14", "attention-rollout", ok,
                  f"identity-uniform={uniform_ok}, row-sums={rows_ok}, "
                  f"range=[{f.min():.2f},{f.max():.2f}]")
