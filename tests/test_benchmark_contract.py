"""The benchmark's tracer (perfbench/tracer.py) finds hvt functions by name.

It replaces each ``"module:attr"`` binding where callers look it up, so a
renamed or deleted function would crash a traced benchmark run. These tests
resolve every binding the step clock and the tracer wrap.
"""

import importlib
import importlib.util
import os

import pytest

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
