"""Import budget: what a fresh interpreter loads for each kind of command.

`scipy.optimize` (and the `scipy.sparse`, `scipy.special` and `scipy.fft`
it pulls in) is imported only where a fit or an optimal assignment runs, so
`predict` and the other commands that never optimize start without it.
`scipy.linalg` (and the `numpy.testing` and `numpy.f2py` it pulls in) is
imported only at the first factorization or solve, so `import curvegp.cli`
and the commands that never factor a matrix start with numpy alone. Each
test runs a new interpreter with ``PYTHONPATH=src``, because the test
process itself has long since loaded everything.
"""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import curvegp.model
from curvegp.cli import EXIT_OK, main
from curvegp.curves import generate_synthetic
from curvegp.io import predicted_curve_to_dict, save_curve_csv, save_json
from curvegp.model import (MarginalLikelihoodObjective, ModelConfig,
                           OptimizerConfig, TrainingDesign, assemble_model, fit,
                           predict, predict_curve)

SRC = Path(__file__).resolve().parents[1] / "src"
OPTIMIZER = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.fft",
             "xml.sax", "urllib.request", "http.client")
LINALG = ("scipy.linalg", "numpy.testing", "numpy.f2py")


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
    assert not loaded & set(OPTIMIZER)
    assert not loaded & set(LINALG)
    assert "scipy" not in loaded


# commands that never factor a matrix, with the file each one writes
NO_FACTOR_COMMANDS = {
    "simulate": (["simulate", "--shape", "star", "--n", "12", "--seed", "1",
                  "--out", "sim.csv"], "sim.csv"),
    "preprocess": (["preprocess", "--inputs", "a.csv", "b.csv", "--outdir", "pre"],
                   "pre/b_pre.csv"),
    "register": (["register", "--source", "b.csv", "--target", "a.csv",
                  "--grid", "40", "--out", "reg.json"], "reg.json"),
    "plot": (["plot", "--pred", "pred.json", "--observed", "a.csv",
              "--out", "plot.svg"], "plot.svg"),
    "config": (["config", "print-defaults"], None),
}


@pytest.mark.parametrize("command", sorted(NO_FACTOR_COMMANDS))
def test_commands_without_factorization_load_no_scipy(tmp_path, command):
    a, b = generate_synthetic("star", 12), generate_synthetic("ellipse", 12)
    save_curve_csv(a, str(tmp_path / "a.csv"))
    save_curve_csv(b, str(tmp_path / "b.csv"))
    grid = np.arange(6) / 6.0
    covs = np.tile(0.01 * np.eye(2), (6, 1, 1))
    save_json(predicted_curve_to_dict(curvegp.model.PredictedCurve(
        grid, np.c_[np.cos(2 * np.pi * grid), np.sin(2 * np.pi * grid)], covs)),
        str(tmp_path / "pred.json"))
    argv, written = NO_FACTOR_COMMANDS[command]
    proc = run_python("-X", "importtime", "-m", "curvegp.cli", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if written:
        assert (tmp_path / written).stat().st_size > 0
    else:
        assert "model.family" in proc.stdout
    loaded = imported_modules(proc.stderr)
    assert "curvegp.model" in loaded
    assert not loaded & set(OPTIMIZER)
    assert not loaded & set(LINALG)


def test_predict_command_never_loads_the_optimizer(tmp_path):
    save_curve_csv(generate_synthetic("circle", 8), str(tmp_path / "c.csv"))
    (tmp_path / "cfg.txt").write_text("opt.restarts = 1\nopt.maxiter = 20\n")
    assert main(["fit", "--inputs", str(tmp_path / "c.csv"), "--config",
                 str(tmp_path / "cfg.txt"), "--out", str(tmp_path / "fit.json")]) == EXIT_OK
    proc = run_python("-X", "importtime", "-m", "curvegp.cli", "predict",
                      "--inputs", "c.csv", "--fit", "fit.json", "--m", "12",
                      "--out", "pred.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "pred.json").read_text())["means"]) == 12
    loaded = imported_modules(proc.stderr)
    assert "curvegp.model" in loaded
    assert not loaded & set(OPTIMIZER)


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


def test_fit_goes_through_the_lockstep_driver():
    """L-BFGS-B runs through `curvegp.model._lockstep`, which imports
    `scipy.optimize` at the first fit and not at an evaluation before it,
    and hands the objective each restart's points as often as the
    restart's record counts them."""
    script = (
        "import collections, json, sys\n"
        "import curvegp.model as model\n"
        "from curvegp.curves import generate_synthetic\n"
        "design = model.TrainingDesign.from_curves([generate_synthetic('circle', 6)])\n"
        "objective = model.MarginalLikelihoodObjective(design, model.ModelConfig())\n"
        "objective.value_and_grad(objective.default_start()[None])\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "evaluated, lockstep = collections.Counter(), model._lockstep\n"
        "def spy(evaluate, *args):\n"
        "    def counted(points, active):\n"
        "        evaluated.update(active)\n"
        "        return evaluate(points, active)\n"
        "    return lockstep(counted, *args)\n"
        "model._lockstep = spy\n"
        "fitted = model.fit(design, model.ModelConfig(),\n"
        "                   model.OptimizerConfig(restarts=2, maxiter=20, seed=0))\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "print(json.dumps([[r['nfev'] for r in fitted.diagnostics['restarts']],\n"
        "                  [evaluated[k] for k in range(2)]]))\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    nfev, evaluated = json.loads(proc.stdout)
    assert evaluated == nfev and all(n > 0 for n in nfev)


# Each entry point that factors or solves, called first in a fresh
# interpreter: (name, call on the pickled inputs). A LAPACK routine left
# unbound on one of these paths would fail there even when the in-process
# suite, which has factored long before, passes.
FIRST_USE = {
    "assemble_model": lambda x: assemble_model(x["design"], x["kernel"],
                                               x["noise_variance"]),
    "value_and_grad": lambda x: MarginalLikelihoodObjective(
        x["design"], ModelConfig()).value_and_grad(x["theta"][None]),
    "value": lambda x: MarginalLikelihoodObjective(
        x["design"], ModelConfig()).value(x["theta"]),
    "predict": lambda x: predict(x["model"], x["s"], x["d"], x["j"]),
    "predict_curve": lambda x: predict_curve(x["model"], 1, 9),
    "fit": lambda x: fit(x["design"], ModelConfig(),
                         OptimizerConfig(restarts=1, maxiter=15, seed=0)),
}

FIRST_USE_SCRIPT = """\
import pickle, sys
import test_startup
with open(sys.argv[1], "rb") as handle:
    inputs = pickle.load(handle)
assert "scipy.linalg" not in sys.modules
result = test_startup.FIRST_USE[sys.argv[2]](inputs)
assert "scipy.linalg" in sys.modules
with open(sys.argv[3], "wb") as handle:
    pickle.dump(result, handle)
"""


def first_use_inputs() -> dict:
    curves = [generate_synthetic("star", 9), generate_synthetic("ellipse", 7),
              generate_synthetic("circle", 8)]
    design = TrainingDesign.from_curves(curves, ["a", "b", "a"])
    objective = MarginalLikelihoodObjective(design, ModelConfig())
    theta = objective.default_start() + 0.01 * np.arange(objective.n_params)
    kernel, _ = objective.unpack(theta)
    return {"design": design, "kernel": kernel, "noise_variance": 2e-5, "theta": theta,
            "model": assemble_model(design, kernel, 2e-5),
            "s": np.linspace(0.0, 3.0, 7).repeat(2), "d": np.tile([0, 1], 7),
            "j": (np.arange(7) % 3).repeat(2)}


def assert_identical(got, want, where="result"):
    """Equal bit for bit: arrays by dtype, shape and bytes, floats by their
    bits, dataclasses, sequences and dicts item by item."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif is_dataclass(want):
        for f in fields(want):
            assert_identical(getattr(got, f.name), getattr(want, f.name),
                             f"{where}.{f.name}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_identical(a, b, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_identical(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), where
    else:
        assert got == want, where


@pytest.mark.parametrize("entry", sorted(FIRST_USE))
def test_first_factorization_in_a_fresh_process_matches(tmp_path, entry):
    inputs = first_use_inputs()
    with open(tmp_path / "inputs.pkl", "wb") as handle:
        pickle.dump(inputs, handle)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-c", FIRST_USE_SCRIPT,
                           str(tmp_path / "inputs.pkl"), entry,
                           str(tmp_path / "result.pkl")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "result.pkl", "rb") as handle:
        fresh = pickle.load(handle)
    assert_identical(fresh, FIRST_USE[entry](inputs), entry)
