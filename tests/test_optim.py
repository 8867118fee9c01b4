"""Optimizer, schedulers, layer-wise decay, EMA, freeze contracts, and the
step driver with its batch worker."""

import functools
import math
import multiprocessing
import os
import signal
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from hvt import optim as O
from hvt import tensor as T
from hvt.errors import ConfigError, ContractError, InputError
from hvt.model import HVTConfig, init_params
from hvt.tensor import RngStream, Tensor


def toy_params(rng=None, n=3):
    rng = rng or np.random.default_rng(0)
    return {f"p{i}": Tensor(rng.normal(size=(2, 2)), requires_grad=True, dtype=np.float64)
            for i in range(n)}


class TestAdamW:
    def test_zero_grad_first_step_is_pure_decay(self):
        params = toy_params()
        theta0 = {k: t.numpy().copy() for k, t in params.items()}
        state = O.AdamWState.init(params, weight_decay=0.05)
        grads = {k: np.zeros_like(t.numpy()) for k, t in params.items()}
        O.adamw_step(params, grads, state, lr_t=0.01)
        for k in params:
            np.testing.assert_allclose(params[k].numpy(),
                                       theta0[k] - 0.01 * 0.05 * theta0[k],
                                       rtol=0, atol=1e-15)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        # scalar recurrence iterated independently
        params = {"w": Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)}
        state = O.AdamWState.init(params, weight_decay=0.0)
        g = {"w": np.array([0.5])}
        lr = 1e-3
        prev = params["w"].numpy().copy()
        for _ in range(400):
            prev = params["w"].numpy().copy()
            O.adamw_step(params, g, state, lr_t=lr)
        step = abs(float((params["w"].numpy() - prev)[0]))
        assert abs(step - lr) < 1e-5 * lr * 10

    def test_frozen_parameter_bit_identical(self):
        params = toy_params()
        frozen_copy = params["p1"].numpy().copy()
        state = O.AdamWState.init(params, weight_decay=0.1)
        freeze = O.FreezeMask(["p1"])
        rng = np.random.default_rng(1)
        for _ in range(20):
            grads = {k: rng.normal(size=(2, 2)) for k in params}
            O.adamw_step(params, grads, state, lr_t=0.05, freeze=freeze)
        assert np.array_equal(params["p1"].numpy(), frozen_copy)
        assert not np.array_equal(params["p0"].numpy(), frozen_copy)
        assert np.all(state.m["p1"] == 0.0)

    def test_nan_gradient_fails_fast(self):
        params = toy_params()
        state = O.AdamWState.init(params)
        grads = {k: np.zeros((2, 2)) for k in params}
        grads["p2"][0, 0] = np.nan
        with pytest.raises(ContractError, match="p2"):
            O.adamw_step(params, grads, state, lr_t=0.01)

    def test_backbone_freeze_mask(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(0))
        mask = O.FreezeMask.backbone(params)
        assert not mask.is_frozen("head.w")
        assert not mask.is_frozen("head.b")
        assert mask.is_frozen("patch_embed.w")
        assert mask.is_frozen("stages.2.blocks.0.attn.wq")


class TestClipGradNorm:
    def test_below_threshold_unchanged(self):
        grads = {"a": np.array([0.3, 0.4])}
        out, norm = O.clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        assert out["a"] is grads["a"]

    def test_three_four_five_triangle(self):
        grads = {"a": np.array([3.0, 4.0])}
        out, norm = O.clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(out["a"]) == pytest.approx(1.0, abs=1e-12)

    def test_global_norm_spans_parameters(self):
        grads = {"a": np.full((2,), 3.0), "b": np.full((2,), 4.0)}
        _, norm = O.clip_grad_norm(grads, 100.0)
        assert norm == pytest.approx(np.sqrt(9 * 2 + 16 * 2))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        grads = {"a": rng.normal(size=8) * 10, "b": rng.normal(size=3) * 10}
        once, _ = O.clip_grad_norm(grads, 1.0)
        twice, _ = O.clip_grad_norm({k: g.copy() for k, g in once.items()}, 1.0)
        for k in grads:
            np.testing.assert_allclose(twice[k], once[k], rtol=0, atol=1e-12)

    def test_bad_max_norm(self):
        with pytest.raises(ConfigError):
            O.clip_grad_norm({"a": np.ones(2)}, 0.0)


class TestSchedulers:
    def test_warmup_cosine_endpoints(self):
        eta0 = 5e-4
        assert O.warmup_cosine_lr(0, 10, 80, eta0) == 0.0
        assert O.warmup_cosine_lr(10, 10, 80, eta0) == pytest.approx(eta0)
        assert O.warmup_cosine_lr(80, 10, 80, eta0) == pytest.approx(0.0, abs=1e-18)

    def test_onecycle_endpoints(self):
        total = 100
        assert O.onecycle_lr(0, 10, total) == pytest.approx(1e-5)
        assert O.onecycle_lr(10, 10, total) == pytest.approx(0.1)
        assert O.onecycle_lr(total, 10, total) == pytest.approx(1e-5)

    def test_continuity_at_breakpoints(self):
        # one-sided limits by linear extrapolation toward the breakpoint
        h = 1e-6

        def limits(f, t):
            left = 2 * f(t - h) - f(t - 2 * h)
            right = 2 * f(t + h) - f(t + 2 * h)
            return left, right

        for t_w, total in ((10, 80), (3, 7)):
            left, right = limits(lambda t: O.warmup_cosine_lr(t, t_w, total, 5e-4), t_w)
            assert abs(left - right) < 1e-12
        left, right = limits(lambda t: O.onecycle_lr(t, 10, 100), 10)
        assert abs(left - right) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            O.warmup_cosine_lr(-1, 10, 80, 1e-3)
        with pytest.raises(ConfigError):
            O.onecycle_lr(101, 10, 100)


class TestLayerwiseDecay:
    def test_head_and_topmost_block(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)  # depths (1,1,1,1): 4 blocks
        factors = O.layerwise_lr_factors(cfg, decay=0.65)
        assert factors["head.w"] == 1.0
        assert factors["stages.3.blocks.0."] == pytest.approx(0.65)
        assert factors["stages.1.blocks.0."] == pytest.approx(0.65 ** 3)
        assert factors["stages.1.blocks.0."] == pytest.approx(0.274625)

    def test_merge_inherits_following_stage(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        factors = O.layerwise_lr_factors(cfg, decay=0.65)
        assert factors["merges.2.w"] == factors["stages.3.blocks.0."]
        assert factors["merges.0.w"] == factors["stages.1.blocks.0."]

    def test_patch_embed_deepest_and_monotone(self):
        cfg = HVTConfig.desk(drop_path_max=0.0)  # depths (1,1,2,1): 5 blocks
        factors = O.layerwise_lr_factors(cfg, decay=0.65)
        assert factors["patch_embed.w"] == pytest.approx(0.65 ** 5)
        ordered = [factors["head.w"],
                   factors["stages.3.blocks.0."],
                   factors["stages.2.blocks.1."],
                   factors["stages.2.blocks.0."],
                   factors["stages.1.blocks.0."],
                   factors["stages.0.blocks.0."],
                   factors["patch_embed.w"]]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_expand_to_parameter_names(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(0))
        per_param = O.expand_lr_factors(O.layerwise_lr_factors(cfg), params)
        assert set(per_param) == set(params)
        assert per_param["stages.3.blocks.0.attn.wq"] == pytest.approx(0.65)
        assert per_param["head.b"] == 1.0


class TestEMA:
    def test_decay_zero_tracks_weights(self):
        params = toy_params()
        ema = O.EmaState.init(params, decay=0.0)
        params["p0"].data = params["p0"].data + 1.0
        O.ema_update(ema, params)
        for k in params:
            np.testing.assert_array_equal(ema.shadow[k], params[k].numpy())

    def test_two_step_hand_recurrence(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        ema = O.EmaState.init(params, decay=0.5)
        params["w"].data = np.array([2.0])
        O.ema_update(ema, params)
        np.testing.assert_allclose(ema.shadow["w"], [1.5])

    def test_swap_roundtrip_bit_exact(self):
        params = toy_params()
        live = {k: t.numpy().copy() for k, t in params.items()}
        ema = O.EmaState.init(params, decay=0.9)
        for _ in range(3):
            for t in params.values():
                t.data = t.data * 1.1
            O.ema_update(ema, params)
        trained = {k: t.numpy().copy() for k, t in params.items()}
        O.ema_swap_for_eval(ema, params)
        assert ema.swapped
        assert not np.array_equal(params["p0"].numpy(), trained["p0"])
        O.ema_swap_for_eval(ema, params)
        for k in params:
            assert np.array_equal(params[k].numpy(), trained[k])
        del live

    def test_context_manager(self):
        params = toy_params()
        ema = O.EmaState.init(params, decay=0.5)
        params["p0"].data = params["p0"].data + 5.0
        O.ema_update(ema, params)
        before = params["p0"].numpy().copy()
        with O.ema_weights(ema, params):
            assert not np.array_equal(params["p0"].numpy(), before)
        assert np.array_equal(params["p0"].numpy(), before)

    def test_update_while_swapped_rejected(self):
        params = toy_params()
        ema = O.EmaState.init(params, decay=0.5)
        O.ema_swap_for_eval(ema, params)
        with pytest.raises(ContractError):
            O.ema_update(ema, params)

    def test_invalid_decay(self):
        with pytest.raises(ConfigError):
            O.EmaState.init(toy_params(), decay=1.0)


def idx_batch(idx, fail_on=None):
    """The driver tests' micro-batch job: its batch is its sample indices;
    it raises ``InputError`` when it holds sample ``fail_on``."""
    if fail_on in idx:
        raise InputError(f"sample {fail_on} is bad")
    return [int(k) for k in idx]


def drive(n, batch_size, accum_steps, epochs=1, max_steps=0, fail_on=None,
          on_step=None):
    """Runs the driver on a one-parameter model whose micro-batch loss is
    ``w * sum(idx)`` at w = 1, so each loss equals its gradient. Returns
    ``(result, events, micro, calls, rng)``: ``events`` holds the steps and
    epoch ends, ``micro`` each ``make_batch`` call, ``calls`` every callback
    in call order."""
    settings = SimpleNamespace(epochs=epochs, batch_size=batch_size,
                               accum_steps=accum_steps, max_steps=max_steps)
    w = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
    events, micro, calls = [], [], []

    def make_batch(epoch, start, idx):
        micro.append((epoch, start, list(idx)))
        calls.append(("make", epoch, start))
        return functools.partial(idx_batch, idx, fail_on)

    def batch_loss(epoch, start, batch):
        calls.append(("loss", epoch, start))
        assert batch == micro[[m[:2] for m in micro].index((epoch, start))][2]
        return T.reduce(w * Tensor(np.array([float(np.sum(batch))])), "sum")

    def apply_step(grads, step, losses):
        events.append(("step", step, float(grads["w"][0]), list(losses)))
        calls.append(("step", step))
        if on_step is not None:
            on_step(step)

    def end_epoch(epoch, losses):
        events.append(("end", epoch, list(losses)))
        calls.append(("end", epoch))

    rng = RngStream(7)
    result = O.run_steps({"w": w}, n, settings, rng, make_batch, batch_loss,
                         apply_step, end_epoch)
    return result, events, micro, calls, rng


class TestRunSteps:
    """The step driver, on whichever path this process's BLAS setting
    picks; both make the same batches."""

    @staticmethod
    def drive(n, batch_size, accum_steps, epochs=1, max_steps=0):
        (ran, _), events, micro, _, rng = drive(n, batch_size, accum_steps,
                                                epochs, max_steps)
        return ran, events, micro, rng

    @pytest.mark.parametrize("n,b,a", [(5, 1, 2), (10, 3, 2), (7, 7, 1), (9, 2, 3), (4, 8, 2)])
    def test_step_indices_and_steps_per_epoch(self, n, b, a):
        per_epoch = O.steps_per_epoch(n, SimpleNamespace(epochs=3, batch_size=b,
                                                         accum_steps=a, max_steps=0))
        assert per_epoch == math.ceil(math.ceil(n / b) / a)
        ran, events, micro, _ = self.drive(n, b, a, epochs=3)
        assert ran == 3 * per_epoch
        steps = [e[1] for e in events if e[0] == "step"]
        assert steps == list(range(3 * per_epoch))
        ends = [i for i, e in enumerate(events) if e[0] == "end"]
        assert ends == [(per_epoch + 1) * k + per_epoch for k in range(3)]
        assert len(micro) == 3 * math.ceil(n / b)

    def test_remainder_step_averages_over_its_own_count(self):
        _, events, micro, rng = self.drive(5, 1, 2)
        perm = [int(k) for k in rng.child("shuffle", 0).permutation(5)]
        assert [m[2] for m in micro] == [[k] for k in perm]
        steps = [e for e in events if e[0] == "step"]
        assert [len(e[3]) for e in steps] == [2, 2, 1]
        for (_, _, grad, losses), group in zip(steps, (perm[0:2], perm[2:4], perm[4:])):
            assert losses == [float(k) for k in group]
            assert grad == sum(group) / len(group)

    def test_max_steps_mid_epoch_ends_that_epoch_then_stops(self):
        ran, events, micro, _ = self.drive(5, 1, 2, epochs=4, max_steps=4)
        assert ran == 4
        assert [e[:2] for e in events] == [("step", 0), ("step", 1), ("step", 2),
                                           ("end", 0), ("step", 3), ("end", 1)]
        assert [m[:2] for m in micro[5:]] == [(1, 0), (1, 1)]

    def test_per_epoch_losses(self):
        _, events, _, rng = self.drive(6, 2, 2, epochs=2)
        for epoch, (_, _, losses) in enumerate(e for e in events if e[0] == "end"):
            perm = rng.child("shuffle", epoch).permutation(6)
            assert losses == [float(perm[s:s + 2].sum()) for s in (0, 2, 4)]

    @pytest.mark.parametrize("key,value", [("epochs", 0), ("batch_size", 0),
                                           ("accum_steps", 0), ("max_steps", -1)])
    def test_bad_loop_sizes_rejected(self, key, value):
        settings = SimpleNamespace(epochs=1, batch_size=1, accum_steps=1, max_steps=0)
        setattr(settings, key, value)
        with pytest.raises(ConfigError, match=key):
            O.steps_per_epoch(4, settings)
        with pytest.raises(ConfigError, match=key):
            O.run_steps({}, 4, settings, RngStream(0), None, None, None)

    def test_each_used_micro_batch_is_made_once_in_order(self):
        # 4 epochs of 5 micro-batches, 3 steps each; max_steps=4 ends the
        # run after epoch 1's second micro-batch, and nothing past it is made
        ran, _, micro, rng = self.drive(5, 1, 2, epochs=4, max_steps=4)
        perms = [rng.child("shuffle", e).permutation(5) for e in (0, 1)]
        assert micro == [(e, s, [int(perms[e][s])]) for e, s in
                         [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)]]
        assert ran == 4

    @pytest.mark.parametrize("n,b,a,epochs,max_steps",
                             [(5, 1, 2, 3, 0), (9, 2, 3, 2, 0), (5, 1, 2, 4, 4), (4, 8, 2, 2, 0)])
    def test_next_batch_is_made_before_the_current_loss(self, n, b, a, epochs, max_steps):
        _, _, micro, calls, _ = drive(n, b, a, epochs, max_steps)
        makes = [c[1:] for c in calls if c[0] == "make"]
        losses = [c[1:] for c in calls if c[0] == "loss"]
        assert makes == losses == [m[:2] for m in micro]
        pos = {c: i for i, c in enumerate(calls)}
        for k, key in enumerate(losses):
            if k + 1 < len(makes):  # made one micro-batch ahead, never two
                assert pos[("make", *makes[k + 1])] < pos[("loss", *key)]
            if k + 2 < len(makes):
                assert pos[("loss", *key)] < pos[("make", *makes[k + 2])]

    def test_steps_and_epoch_ends_keep_their_order(self):
        # the lookahead reaches into the next epoch before this one ends
        _, _, _, calls, _ = drive(4, 2, 1, epochs=2)
        assert [c for c in calls if c[0] in ("step", "end")] == [
            ("step", 0), ("step", 1), ("end", 0), ("step", 2), ("step", 3), ("end", 1)]
        assert calls.index(("make", 1, 0)) < calls.index(("end", 0))

    def test_inline_without_worker(self, monkeypatch):
        O._stop_worker()
        monkeypatch.setattr(O, "_BLAS_ONE_THREAD", False)
        (_, augment), *_ = drive(6, 2, 1, epochs=2)
        assert augment == "inline"


@pytest.fixture
def batch_worker(monkeypatch):
    """The driver with its batch worker enabled whatever this process's BLAS
    threads and CPUs; the worker is stopped again afterwards."""
    O._stop_worker()
    monkeypatch.setattr(O, "_BLAS_ONE_THREAD", True)
    monkeypatch.setattr(O, "_worker_failed", False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield
    O._stop_worker()


def worker_pids():
    return [p.pid for p in multiprocessing.active_children()
            if p.name == "hvt-batch-worker"]


class TestBatchWorker:
    def test_worker_makes_the_same_batches_and_is_reused(self, batch_worker):
        inline = drive(7, 2, 2, epochs=3, max_steps=5)
        first = drive(7, 2, 2, epochs=3, max_steps=5)
        pids = worker_pids()
        second = drive(7, 2, 2, epochs=3, max_steps=5)
        assert first[0] == second[0] == (5, "worker")
        assert len(pids) == 1 and worker_pids() == pids
        for got in (first, second):
            assert got[1:4] == inline[1:4]

    def test_error_in_a_job_reaches_the_caller_and_the_worker_survives(self, batch_worker):
        _, _, micro, _, rng = drive(6, 2, 1, epochs=1)
        bad = micro[1][2][0]  # in the second micro-batch: made by the worker
        with pytest.raises(InputError, match=f"sample {bad} is bad"):
            drive(6, 2, 1, epochs=1, fail_on=bad)
        pids = worker_pids()
        assert len(pids) == 1
        assert drive(6, 2, 1, epochs=1)[0] == (3, "worker")
        assert worker_pids() == pids

    def test_error_in_the_loss_drains_the_batch_in_flight(self, batch_worker):
        def boom(step):
            if step == 1:
                raise RuntimeError("loss failed")

        with pytest.raises(RuntimeError, match="loss failed"):
            drive(8, 2, 1, epochs=1, on_step=boom)
        assert drive(8, 2, 1, epochs=1)[0] == (4, "worker")

    def test_killed_worker_falls_back_in_process_with_the_same_result(self, batch_worker):
        reference = drive(9, 2, 1, epochs=2)
        assert reference[0] == (10, "worker")

        def kill(step):
            if step == 2:
                for pid in worker_pids():
                    os.kill(pid, signal.SIGKILL)

        killed = drive(9, 2, 1, epochs=2, on_step=kill)
        assert killed[0] == (10, "inline")
        assert killed[1:4] == reference[1:4]
        assert worker_pids() == []
        # a worker that died is not replaced
        assert drive(9, 2, 1, epochs=2)[0] == (10, "inline")
        assert worker_pids() == []

    def test_one_usable_cpu_means_no_worker(self, batch_worker, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert drive(6, 2, 1, epochs=2)[0] == (6, "inline")
        assert O._worker is None and worker_pids() == []

    def test_no_fork_while_another_thread_runs(self, batch_worker):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert drive(6, 2, 1, epochs=2)[0] == (6, "inline")
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert O._worker is None and worker_pids() == []
        assert drive(6, 2, 1, epochs=2)[0] == (6, "worker")

    def test_unpicklable_job_runs_in_process(self, batch_worker):
        settings = SimpleNamespace(epochs=1, batch_size=1, accum_steps=1, max_steps=0)
        w = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        seen = []
        ran, augment = O.run_steps(
            {"w": w}, 3, settings, RngStream(0),
            lambda epoch, start, idx: lambda: list(idx),
            lambda epoch, start, batch: T.reduce(w * Tensor(np.array(batch, float)), "sum"),
            lambda grads, step, losses: seen.append(losses))
        assert ran == 3 and augment == "inline"
        assert sorted(x for (x,) in seen) == [0.0, 1.0, 2.0]
