"""Import budget: what a fresh interpreter loads for each kind of command.

`scipy.optimize` (and the `scipy.sparse`, `scipy.special` and `scipy.fft`
it pulls in) is imported only where a fit or an optimal assignment runs, so
`predict` and the other commands that never optimize start without it. Each
test runs a new interpreter with ``PYTHONPATH=src``, because the test
process itself has long since loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import curvegp.model
from curvegp.cli import EXIT_OK, main
from curvegp.curves import generate_synthetic
from curvegp.io import save_curve_csv
from curvegp.model import ModelConfig, OptimizerConfig, TrainingDesign, fit

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.fft",
            "xml.sax", "urllib.request", "http.client")


def run_python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def imported_modules(importtime_stderr: str) -> set:
    """Module names from ``python -X importtime`` output."""
    return {line.rsplit("|", 1)[1].strip()
            for line in importtime_stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_import_cli_leaves_optimizer_and_xml_out():
    proc = run_python("-c", "import curvegp.cli, sys, json; "
                      "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "curvegp.model" in loaded and "curvegp.metrics" in loaded
    assert not loaded & set(DEFERRED)


def test_predict_command_never_loads_the_optimizer(tmp_path):
    save_curve_csv(generate_synthetic("circle", 8), str(tmp_path / "c.csv"))
    (tmp_path / "cfg.txt").write_text("opt.restarts = 1\nopt.maxiter = 20\n")
    assert main(["fit", "--inputs", str(tmp_path / "c.csv"), "--config",
                 str(tmp_path / "cfg.txt"), "--out", str(tmp_path / "fit.json")]) == EXIT_OK
    proc = run_python("-X", "importtime", "-m", "curvegp.cli", "predict",
                      "--inputs", "c.csv", "--fit", "fit.json", "--m", "12",
                      "--out", "pred.json", "--svg", "pred.svg", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "pred.json").read_text())["means"]) == 12
    loaded = imported_modules(proc.stderr)
    assert "curvegp.model" in loaded
    assert not loaded & set(DEFERRED)


def test_fit_and_wasserstein_load_the_optimizer_when_called():
    script = (
        "import sys\n"
        "import curvegp.cli\n"
        "from curvegp.curves import generate_synthetic\n"
        "from curvegp.metrics import wasserstein2\n"
        "from curvegp.model import (ModelConfig, OptimizerConfig,\n"
        "                           TrainingDesign, fit)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "a = generate_synthetic('circle', 6).points\n"
        "print(wasserstein2(a, a[::-1]))\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "model = fit(TrainingDesign.from_curves([generate_synthetic('circle', 6)]),\n"
        "            ModelConfig(), OptimizerConfig(restarts=1, maxiter=20, seed=0))\n"
        "print(model.diagnostics['restarts'][0]['nfev'])\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    w2, nfev = proc.stdout.split()
    assert float(w2) == 0.0
    assert int(nfev) > 0


def test_fit_goes_through_the_module_minimize(monkeypatch):
    """L-BFGS-B runs through `curvegp.model.minimize`, the module global that
    imports `scipy.optimize` on first use (and the name tracers wrap)."""
    minimize, methods = curvegp.model.minimize, []

    def spy(*args, **kwargs):
        methods.append(kwargs["method"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(curvegp.model, "minimize", spy)
    fit(TrainingDesign.from_curves([generate_synthetic("circle", 6)]),
        ModelConfig(), OptimizerConfig(restarts=2, maxiter=20, seed=0))
    assert methods == ["L-BFGS-B", "L-BFGS-B"]
