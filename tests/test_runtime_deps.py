"""hvt runs on numpy alone: scipy is a test-only reference.

Each test starts a fresh interpreter, so the modules the pytest process
has already imported (scipy among them) cannot hide a missing import.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hvt.metrics import PredictionSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BLOCK_SCIPY = """
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} blocked", name=name)
        return None

sys.meta_path.insert(0, _NoScipy())
"""

RUN_COMMANDS = """
import hvt, hvt.cli
rcs = [hvt.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"rcs": rcs,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """``mcnemar`` on two prediction files whose 30 discordant items take
    the chi-square branch, and ``eval --preds`` on one of them."""
    root = tmp_path_factory.mktemp("preds")
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, size=80)
    paths = []
    for wrong in (slice(0, 20), slice(20, 30)):
        pred = y.copy()
        pred[wrong] = (pred[wrong] + 1) % 3
        probs = np.full((80, 3), 0.05)
        probs[np.arange(80), pred] = 0.9
        paths.append(str(root / f"p{len(paths)}.csv"))
        PredictionSet(y, pred, probs).save_csv(paths[-1])
    return [["mcnemar", "--preds-a", paths[0], "--preds-b", paths[1],
             "--out", str(root / "mc")],
            ["eval", "--preds", paths[0], "--out", str(root / "ev")]], root


def run_fresh(prelude, argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import json, sys\n" + prelude + RUN_COMMANDS
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_run_with_scipy_blocked(commands):
    argvs, root = commands
    result = run_fresh(BLOCK_SCIPY, argvs)
    assert result == {"rcs": [0, 0], "scipy": []}
    report = json.loads((root / "mc" / "mcnemar.json").read_text())
    assert report["b"] + report["c"] >= 25 and 0.0 < report["p_value"] < 1.0
    assert (root / "ev" / "metrics.json").exists()


def test_commands_load_no_scipy_module(commands):
    argvs, _ = commands
    assert run_fresh("", argvs) == {"rcs": [0, 0], "scipy": []}
