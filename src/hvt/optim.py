"""Training mechanics: the step driver, AdamW, clipping, schedules,
layer-wise decay, EMA.

Everything operates on the flat ``{name: Tensor}`` parameter dict from
``hvt.model``. :func:`run_steps` is the one loop over epochs and
micro-batches. A loop hands it two callbacks: ``make_batch`` plans a
micro-batch as a picklable job (augmentation and mixing) and
``batch_loss`` runs the forward pass and the loss on the job's result.
The driver calls ``backward`` on each loss and hands the averaged
gradients to the caller's step. Where a second core is free, one forked
worker process makes the next micro-batch while the current one trains;
the job computes the same bits in either process, so results do not
depend on where it ran. Gradients travel as plain ``{name: ndarray}``
dicts so the optimizer stays decoupled from the autodiff graph. A single
owner mutates parameters and optimizer state; snapshots for evaluation go
through :func:`ema_swap_for_eval`, which is an exact, reversible array
exchange.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class AdamWState:
    """Per-parameter first/second moments plus step count."""

    m: dict
    v: dict
    step: int = 0
    betas: tuple = ADAM_BETAS
    eps: float = ADAM_EPS
    weight_decay: float = 0.0

    @classmethod
    def init(cls, params, betas=ADAM_BETAS, eps=ADAM_EPS, weight_decay=0.0):
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
            betas=tuple(betas), eps=eps, weight_decay=weight_decay,
        )


class FreezeMask:
    """Per-parameter trainability; frozen names receive no update at all
    (parameters, moments and decay are untouched)."""

    def __init__(self, frozen=()):
        self.frozen = set(frozen)

    def is_frozen(self, name):
        return name in self.frozen

    @classmethod
    def backbone(cls, params):
        """Freeze everything except the classification head."""
        return cls(k for k in params if not k.startswith("head."))


def steps_per_epoch(n, settings):
    """Optimizer steps in one epoch of ``n`` samples, ``ceil(ceil(n/b)/a)``
    for batch size b and accumulation a; rejects loop sizes that cannot run."""
    for key in ("epochs", "batch_size", "accum_steps"):
        if getattr(settings, key) < 1:
            raise ConfigError(f"{key}={getattr(settings, key)} must be at least 1")
    if settings.max_steps < 0:
        raise ConfigError(f"max_steps={settings.max_steps} must be >= 0 (0 = all epochs)")
    return math.ceil(math.ceil(n / settings.batch_size) / settings.accum_steps)


def _micro_batches(n, settings, rng):
    """The micro-batches a run uses, in driver order, as ``(epoch, start,
    idx, closes_step)``. Each epoch's order comes from ``rng.child("shuffle",
    epoch)``; the plan ends with the micro-batch that closes step
    ``max_steps`` (0 = no limit)."""
    step = 0
    for epoch in range(settings.epochs):
        perm = rng.child("shuffle", epoch).permutation(n)
        count = 0
        for start in range(0, n, settings.batch_size):
            count += 1
            closes = count == settings.accum_steps or start + settings.batch_size >= n
            yield epoch, start, perm[start:start + settings.batch_size], closes
            if closes:
                step, count = step + 1, 0
                if step == settings.max_steps:
                    return


def run_steps(params, n, settings, rng, make_batch, batch_loss, apply_step,
              end_epoch=None):
    """Gradient accumulation over ``settings.epochs`` shuffled epochs.

    Each epoch draws its order from ``rng.child("shuffle", epoch)`` and
    cuts it into micro-batches of ``batch_size``. ``make_batch(epoch,
    start, idx)`` returns a micro-batch's *job*: a picklable callable,
    such as ``functools.partial`` of a module-level function, whose result
    ``batch_loss(epoch, start, batch)`` turns into the scalar loss. Every
    ``accum_steps`` micro-batches, and once more for an epoch's remainder,
    the summed gradients divided by that step's own micro-batch count go to
    ``apply_step(grads, step, losses)`` (step counts from 0; ``losses`` are
    the step's micro-batch losses). ``end_epoch(epoch, losses)`` follows
    each epoch's last step, also when ``max_steps`` (0 = no limit) ends the
    run mid-epoch.

    Only one micro-batch's graph is alive at a time: the driver drops its
    loss and batch once it has the loss value and the leaf gradients, and
    takes each gradient off its parameter (``grad`` is None afterwards), so
    a parameter the loss does not reach contributes no gradient.

    ``make_batch`` is called once per micro-batch the run uses, in order,
    one micro-batch ahead: the next job goes to the batch worker (see
    :func:`_batch_worker`) before ``batch_loss`` runs on the current batch,
    so the two overlap (the first job runs here while the worker makes the
    second). A job runs in this process when no worker is used, when it
    cannot be pickled, or when the worker fails; it computes the same bits
    either way. Returns ``(steps, augment)``: the number of steps run, and
    ``"worker"`` if the worker made every micro-batch sent to it, else
    ``"inline"``.
    """
    steps_per_epoch(n, settings)  # rejects loop sizes that cannot run
    plan = _micro_batches(n, settings, rng)
    batches = _Batches()
    step, losses, pending = 0, [], None
    for t in params.values():
        t.grad = None  # left by a backward outside this run
    nxt = next(plan, None)
    job = make_batch(*nxt[:3]) if nxt else None
    try:
        while nxt is not None:
            (epoch, start, _, closes), nxt = nxt, next(plan, None)
            upcoming = make_batch(*nxt[:3]) if nxt is not None else None
            batch, job = batches.take(job, upcoming), upcoming
            loss = batch_loss(epoch, start, batch)
            loss.backward()
            losses.append(float(loss.numpy()))
            del loss, batch  # free this graph before the next forward builds one
            # take each gradient off its leaf, so none outlives this
            # micro-batch or counts again where a later loss misses its leaf
            grads = {}
            for k, t in params.items():
                if t.grad is not None:
                    grads[k], t.grad = t.grad, None
            if pending is None:
                pending, count = dict(grads), 1
            else:
                for k, g in grads.items():
                    pending[k] = pending[k] + g
                count += 1
            if closes:
                apply_step({k: g / count for k, g in pending.items()}, step,
                           losses[-count:])
                step += 1
                pending = None
            if nxt is None or nxt[0] != epoch:
                if end_epoch is not None:
                    end_epoch(epoch, losses)
                losses = []
    finally:
        batches.drain()
    return step, batches.path()


# ----------------------------------------------------------------------
# batch worker: one forked process per process, making the next micro-batch

# OpenBLAS reads its thread count when numpy loads; a BLAS that may run
# more than one thread spins on the worker's core, so only a one-thread
# BLAS gets a worker.
_BLAS_ONE_THREAD = os.environ.get(
    "OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"
_worker = None          # the live _Worker, once forked
_worker_failed = False  # a worker that could not start or died: stay in-process


def _serve(conn, parent_end):
    """The worker's loop: run each job received and send back ``(True,
    batch)``, or ``(False, None)`` when the job raised, so the parent runs
    it itself and raises the error there. Exits on EOF."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides when to stop
    while True:
        try:
            job = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        try:
            reply = pickle.dumps((True, job()), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - the parent reruns the job
            reply = pickle.dumps((False, None))
        try:
            conn.send_bytes(reply)
        except OSError:
            return


class _Worker:
    """A forked process that runs pickled jobs from a pipe, one at a time."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child_end, self.conn),
                                name="hvt-batch-worker", daemon=True)
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_end.close()

    def stop(self):
        self.conn.close()
        self.proc.kill()  # it holds nothing to save, and may be mid-send
        self.proc.join()


def _batch_worker():
    """The process's batch worker, forked by the first training loop that
    can use it and reused by later loops; None where it is not used.

    It is used only where it was measured to help: at least two usable
    CPUs and a one-thread BLAS (``OPENBLAS_NUM_THREADS``, else
    ``OMP_NUM_THREADS``, equal to 1 when hvt is imported). It is forked
    only while this process runs a single thread, since a fork copies no
    other thread and whatever locks they hold. A worker that cannot start
    or dies is not replaced. It ends when this process exits, and on EOF
    when this process dies.
    """
    global _worker, _worker_failed
    if (_worker is None and not _worker_failed and _BLAS_ONE_THREAD
            and threading.active_count() == 1
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        try:
            _worker = _Worker()
        except Exception:  # noqa: BLE001 - any start-up failure means in-process
            _worker_failed = True
    return _worker


@atexit.register
def _stop_worker(failed=False):
    """End the worker: at exit, or after it failed, when later batches are
    made in-process."""
    global _worker, _worker_failed
    w, _worker = _worker, None
    _worker_failed = _worker_failed or failed
    if w is not None:
        w.stop()


class _Batches:
    """One loop's jobs: a job sent ahead goes to the batch worker; a job
    that was not sent (the first, or one that cannot be pickled), or that
    the worker did not make, runs here when its batch is taken."""

    def __init__(self):
        self.worker = _batch_worker()
        self.in_flight = False
        self.served = self.fallbacks = 0

    def take(self, job, upcoming):
        """``job``'s batch, with ``upcoming`` (None at the run's end) sent
        to the worker as early as the pipe allows: before ``job`` runs
        here, or once the worker's batch for ``job`` is received. At most
        one job is ever in flight."""
        if not self.in_flight:
            self._send(upcoming)
            return job()
        batch = self._receive(job)
        self._send(upcoming)
        return batch

    def _send(self, job):
        if self.worker is None or job is None:
            return
        try:
            data = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - a job that cannot travel runs here
            self.fallbacks += 1
            return
        try:
            self.worker.conn.send_bytes(data)
        except OSError:
            self._lost()
            return
        self.in_flight = True

    def _receive(self, job):
        self.in_flight = False
        try:
            ok, batch = pickle.loads(self.worker.conn.recv_bytes())
        except (EOFError, OSError):
            self._lost()
        else:
            if ok:
                self.served += 1
                return batch
            self.fallbacks += 1
        return job()

    def drain(self):
        """Receive and drop a batch still in flight after an exception."""
        if self.in_flight:
            self.in_flight = False
            try:
                self.worker.conn.recv_bytes()
            except (EOFError, OSError):
                self._lost()

    def _lost(self):
        self.fallbacks += 1
        self.worker = None
        _stop_worker(failed=True)

    def path(self):
        return "worker" if self.served and not self.fallbacks else "inline"


def adamw_step(params, grads, state, lr_t, lr_factors=None, freeze=None):
    """One decoupled-weight-decay AdamW update, in place on ``params``.

    ``lr_factors`` maps names to per-parameter multipliers (layer-wise
    decay); missing names default to 1. NaN gradients fail fast.
    """
    if lr_t < 0:
        raise ConfigError(f"negative learning rate {lr_t}")
    state.step += 1
    b1, b2 = state.betas
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, tensor in params.items():
        if freeze is not None and freeze.is_frozen(name):
            continue
        g = grads.get(name)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise ContractError(f"non-finite gradient for parameter {name!r}")
        lr = lr_t * (lr_factors.get(name, 1.0) if lr_factors else 1.0)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        theta = tensor.data
        tensor.data = (theta - lr * update - lr * state.weight_decay * theta).astype(
            theta.dtype, copy=False)
    return params, state


def clip_grad_norm(grads, max_norm):
    """Scale the whole gradient dict so its global L2 norm is <= max_norm.

    Returns ``(grads, global_norm)`` with the pre-clip norm; grads are
    replaced (not mutated) when scaling applies.
    """
    if max_norm <= 0:
        raise ConfigError("max_norm must be positive")
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        factor = max_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads, norm


# ----------------------------------------------------------------------
# schedules (t in fractional epochs, evaluated once per optimizer step)

def warmup_cosine_lr(t, t_w, total, eta0):
    """Linear warmup to eta0 over t_w, then cosine decay to 0 at ``total``."""
    if not 0 <= t <= total or t_w >= total:
        raise ConfigError(f"invalid schedule position t={t}, t_w={t_w}, T={total}")
    if t < t_w:
        return (t / t_w) * eta0
    return eta0 * 0.5 * (1.0 + np.cos(np.pi * (t - t_w) / (total - t_w)))


def onecycle_lr(t, t_warmup, total, eta_max=0.1, eta_min=1e-5):
    """Piecewise-linear one-cycle: rise to eta_max at t_warmup, then decay
    linearly to eta_min at ``total`` (no cosine tail)."""
    if not 0 <= t <= total:
        raise ConfigError(f"invalid schedule position t={t}, T={total}")
    if t < t_warmup:
        return eta_min + (eta_max - eta_min) * (t / t_warmup)
    return eta_max - (eta_max - eta_min) * (t - t_warmup) / (total - t_warmup)


def layerwise_lr_factors(config, decay=0.65):
    """Per-parameter learning-rate multipliers.

    The head gets 1.0; transformer blocks get decay**k where k counts
    positions below the head (last block k=1). Each merge inherits the
    factor of the first block of the stage it feeds; the patch embedding
    and positional table get the deepest factor.
    """
    if not 0 < decay <= 1:
        raise ConfigError(f"decay {decay} outside (0, 1]")
    total = config.total_blocks
    factors = {"head.w": 1.0, "head.b": 1.0}
    g = 0
    stage_first_factor = {}
    for s, depth in enumerate(config.depths):
        for i in range(depth):
            g += 1
            k = total - g + 1
            f = decay ** k
            if i == 0:
                stage_first_factor[s] = f
            factors[f"stages.{s}.blocks.{i}."] = f
    for s in range(config.n_stages - 1):
        factors[f"merges.{s}.w"] = stage_first_factor[s + 1]
    deepest = decay ** total
    factors["patch_embed.w"] = deepest
    factors["patch_embed.b"] = deepest
    factors["pos_embed"] = deepest
    return factors


def expand_lr_factors(factors, params):
    """Resolve prefix-keyed factors to one entry per parameter name."""
    out = {}
    for name in params:
        if name in factors:
            out[name] = factors[name]
            continue
        for prefix, f in factors.items():
            if prefix.endswith(".") and name.startswith(prefix):
                out[name] = f
                break
        else:
            out[name] = 1.0
    return out


# ----------------------------------------------------------------------
# EMA

@dataclass
class EmaState:
    """Shadow copy of all parameters smoothed as b*shadow + (1-b)*theta."""

    shadow: dict
    decay: float
    swapped: bool = False

    @classmethod
    def init(cls, params, decay=0.9999):
        if not 0.0 <= decay < 1.0:
            raise ConfigError(f"EMA decay {decay} outside [0, 1)")
        return cls(shadow={k: t.data.copy() for k, t in params.items()}, decay=decay)


def ema_update(ema, params):
    """Apply the exact recurrence once (in place on the shadow)."""
    if ema.swapped:
        raise ContractError("ema_update while weights are swapped for eval")
    b = ema.decay
    for name, tensor in params.items():
        s = ema.shadow.get(name)
        if s is None or s.shape != tensor.data.shape:
            raise ContractError(f"EMA shadow shape drift for {name!r}")
        s *= b
        s += (1.0 - b) * tensor.data
    return ema


def ema_swap_for_eval(ema, params):
    """Exchange live weights and the shadow; call again to restore.

    The exchange moves arrays without copying, so a double swap restores
    training weights bit-exactly.
    """
    for name, tensor in params.items():
        tensor.data, ema.shadow[name] = ema.shadow[name], tensor.data
    ema.swapped = not ema.swapped
    return ema


class ema_weights:
    """Context manager running a block under EMA weights."""

    def __init__(self, ema, params):
        self.ema, self.params = ema, params

    def __enter__(self):
        ema_swap_for_eval(self.ema, self.params)
        return self.params

    def __exit__(self, *exc):
        ema_swap_for_eval(self.ema, self.params)
        return False
