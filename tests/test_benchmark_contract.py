"""The benchmark's tracer (perfbench/tracer.py) finds hvt functions by name.

It replaces each ``"module:attr"`` binding where callers look it up, so a
renamed or deleted function would crash a traced benchmark run. These tests
resolve every binding the step clock and the tracer wrap, and check that
the training loops still call ``adamw_step`` through those bindings: the
step clock counts one step per call and the benchmark refuses a round
whose step count is wrong.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from hvt import finetune as F
from hvt import ssl as S
from hvt.data import ImageContainer
from hvt.model import HVTConfig, init_params
from hvt.tensor import RngStream

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


class _Recorder:
    """Stands in for ``tracer.Patches``: records each target, wraps nothing."""

    def __init__(self):
        self.targets = []

    def wrap(self, target, make):
        self.targets.append(target)


def _wrapped_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rec = _Recorder()
    for kind in ("train", "infer"):
        tracer.StepClock().install(rec, kind)
    tracer.Tracer().install(rec)
    return sorted(set(rec.targets))


@pytest.mark.parametrize("target", _wrapped_targets())
def test_wrapped_binding_resolves(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def _counted(monkeypatch, module):
    calls = []
    real = module.adamw_step

    def counting(params, grads, state, lr_t, **kwargs):
        calls.append((sorted(grads), kwargs.get("freeze")))
        return real(params, grads, state, lr_t, **kwargs)

    monkeypatch.setattr(module, "adamw_step", counting)
    return calls


def _images(n):
    return np.random.default_rng(0).random((n, 64, 64, 3), dtype=np.float32)


def test_pretrain_loop_steps_through_its_adamw_binding(monkeypatch):
    calls = _counted(monkeypatch, S)
    cfg = HVTConfig.tiny(drop_path_max=0.0)
    rng = RngStream(0)
    params, head = init_params(cfg, rng), S.init_projection_head(64, rng, out_dim=8)
    settings = S.PretrainSettings(epochs=2, batch_size=4, accum_steps=2,
                                  warmup_epochs=0.5, max_steps=3)
    res = S.pretrain_loop(params, head, _images(10), cfg, settings, RngStream(1))
    assert len(calls) == len(res.log) == 3
    assert all(freeze is None for _, freeze in calls)


def test_finetune_loop_steps_through_its_adamw_binding(monkeypatch):
    calls = _counted(monkeypatch, F)
    cfg = HVTConfig.tiny(drop_path_max=0.0)
    params = init_params(cfg, RngStream(0))
    labels = np.arange(10, dtype=np.int32) % cfg.num_classes
    train = ImageContainer(_images(10), labels)
    settings = F.FinetuneSettings(epochs=3, batch_size=4, accum_steps=2,
                                  freeze_epochs=1, policy=None, max_steps=5)
    res = F.finetune_loop(params, train, train, cfg, settings, RngStream(1))
    # 2 steps per epoch: 2 frozen, then 3 unfrozen, ending mid-epoch 3
    assert len(calls) == 5 and len(res.log) == 3
    assert [freeze is not None for _, freeze in calls] == [True, True, False, False, False]
    assert all(names == sorted(params) for names, _ in calls)
