"""Import budget: what a fresh interpreter loads for each kind of command.

The library loads four of SciPy's compiled modules and none of its
packages (`curvegp.model._scipy_module`): `linalg._flapack` and
`linalg._fblas` at the first factorization, solve or prediction,
`optimize._lbfgsb` at the first fit and `optimize._lsap` at `wasserstein2`'s
assignment. `scipy.linalg` and `scipy.optimize`, with the `scipy.sparse`,
`scipy.special`, `scipy.fft`, `numpy.testing` and `numpy.f2py` they pull
in, are never imported, so `import curvegp.cli` and the commands that never
factor a matrix start with numpy alone, and the others add only the
compiled modules they call. Whichever of the library and the packages loads
a compiled module first, both use that one module. Each test runs a new
interpreter with ``PYTHONPATH=src``, because the test process itself has
long since loaded everything.
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
# packages no command loads: SciPy's two the library once imported, the
# packages they pull in, and what those pull in from the standard library
PACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special",
            "scipy.fft", "numpy.testing", "numpy.f2py", "xml.sax", "urllib.request",
            "http.client")
# the compiled modules the library calls, by what loads them
LAPACK = {"scipy.linalg._flapack", "scipy.linalg._fblas"}
LBFGSB, LSAP = "scipy.optimize._lbfgsb", "scipy.optimize._lsap"

# runs ``python -m curvegp.cli`` and writes the names in `sys.modules` at
# exit to the file named by CURVEGP_MODULES
RUN_CLI = """\
import atexit, json, os, runpy, sys
def dump(path=os.environ["CURVEGP_MODULES"]):
    with open(path, "w") as handle:
        json.dump(sorted(sys.modules), handle)
atexit.register(dump)
sys.argv[0] = "curvegp"
runpy.run_module("curvegp.cli", run_name="__main__", alter_sys=True)
"""


def run_python(*args, cwd=None, env=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def run_cli(tmp_path, argv):
    """Run ``python -m curvegp.cli *argv`` in a fresh interpreter in
    ``tmp_path``; returns (the process, the modules loaded at its exit)."""
    modules = tmp_path / "modules.json"
    proc = run_python("-c", RUN_CLI, *argv, cwd=tmp_path,
                      env={"CURVEGP_MODULES": str(modules)})
    return proc, set(json.loads(modules.read_text()))


def scipy_modules(loaded) -> set:
    return {name for name in loaded if name == "scipy" or name.startswith("scipy.")}


def test_import_cli_leaves_optimizer_and_xml_out():
    proc = run_python("-c", "import curvegp.cli, sys, json; "
                      "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "curvegp.model" in loaded and "curvegp.metrics" in loaded
    assert not loaded & set(PACKAGES)
    assert not scipy_modules(loaded)


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
    proc, loaded = run_cli(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    if written:
        assert (tmp_path / written).stat().st_size > 0
    else:
        assert "model.family" in proc.stdout
    assert "curvegp.model" in loaded
    assert not loaded & set(PACKAGES)
    assert not scipy_modules(loaded)


def test_predict_command_never_loads_the_optimizer(tmp_path):
    save_curve_csv(generate_synthetic("circle", 8), str(tmp_path / "c.csv"))
    (tmp_path / "cfg.txt").write_text("opt.restarts = 1\nopt.maxiter = 20\n")
    assert main(["fit", "--inputs", str(tmp_path / "c.csv"), "--config",
                 str(tmp_path / "cfg.txt"), "--out", str(tmp_path / "fit.json")]) == EXIT_OK
    proc, loaded = run_cli(tmp_path, ["predict", "--inputs", "c.csv", "--fit", "fit.json",
                                      "--m", "12", "--out", "pred.json"])
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "pred.json").read_text())["means"]) == 12
    assert "curvegp.model" in loaded
    assert not loaded & set(PACKAGES)
    assert scipy_modules(loaded) == LAPACK


# commands that fit or score, with the file each one writes and the
# compiled modules of SciPy it loads, all of them (`predict`'s are above)
COMPILED_COMMANDS = {
    "fit": (["fit", "--inputs", "a.csv", "b.csv", "--config", "cfg.txt",
             "--out", "fit.json"], "fit.json", LAPACK | {LBFGSB}),
    "reconstruct": (["reconstruct", "--inputs", "a.csv", "--config", "cfg.txt",
                     "--m", "20", "--outdir", "rec"], "rec/a_mean.csv", LAPACK | {LBFGSB}),
    "landmarks": (["landmarks", "--inputs", "a.csv", "b.csv", "--p", "3",
                   "--n-trials", "2", "--config", "cfg.txt", "--out", "lm.json"],
                  "lm.json", LAPACK | {LBFGSB}),
    "metrics": (["metrics", "--pair", "a.csv", "b.csv", "--m", "30",
                 "--out", "met.json"], "met.json", {LSAP}),
}


@pytest.mark.parametrize("command", sorted(COMPILED_COMMANDS))
def test_commands_load_compiled_modules_and_no_scipy_package(tmp_path, command):
    curves = [generate_synthetic("star", 10), generate_synthetic("ellipse", 10)]
    for curve, name in zip(curves, "ab"):
        save_curve_csv(curve, str(tmp_path / f"{name}.csv"))
    (tmp_path / "cfg.txt").write_text("opt.restarts = 1\nopt.maxiter = 15\n")
    argv, written, compiled = COMPILED_COMMANDS[command]
    proc, loaded = run_cli(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / written).stat().st_size > 0
    assert not loaded & set(PACKAGES)
    assert scipy_modules(loaded) == compiled


def test_fit_and_wasserstein_load_the_optimizer_when_called():
    script = (
        "import sys\n"
        "import curvegp.cli\n"
        "from curvegp.curves import generate_synthetic\n"
        "from curvegp.metrics import wasserstein2\n"
        "from curvegp.model import (ModelConfig, OptimizerConfig,\n"
        "                           TrainingDesign, fit)\n"
        f"assert {LSAP!r} not in sys.modules\n"
        "a = generate_synthetic('circle', 6).points\n"
        "print(wasserstein2(a, a[::-1]))\n"
        f"assert {LSAP!r} in sys.modules and {LBFGSB!r} not in sys.modules\n"
        "model = fit(TrainingDesign.from_curves([generate_synthetic('circle', 6)]),\n"
        "            ModelConfig(), OptimizerConfig(restarts=1, maxiter=20, seed=0))\n"
        f"assert {LBFGSB!r} in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "print(model.diagnostics['restarts'][0]['nfev'])\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    w2, nfev = proc.stdout.split()
    assert float(w2) == 0.0
    assert int(nfev) > 0


def test_fit_goes_through_the_lockstep_driver():
    """L-BFGS-B runs through `curvegp.model._lockstep`, which loads SciPy's
    compiled `optimize._lbfgsb` at the first fit and not at an evaluation
    before it, and hands the objective each restart's points as often as
    the restart's record counts them."""
    script = (
        "import collections, json, sys\n"
        "import curvegp.model as model\n"
        "from curvegp.curves import generate_synthetic\n"
        "design = model.TrainingDesign.from_curves([generate_synthetic('circle', 6)])\n"
        "objective = model.MarginalLikelihoodObjective(design, model.ModelConfig())\n"
        "objective.value_and_grad(objective.default_start()[None])\n"
        f"assert {LBFGSB!r} not in sys.modules\n"
        "evaluated, lockstep = collections.Counter(), model._lockstep\n"
        "def spy(evaluate, *args):\n"
        "    def counted(points, active):\n"
        "        evaluated.update(active)\n"
        "        return evaluate(points, active)\n"
        "    return lockstep(counted, *args)\n"
        "model._lockstep = spy\n"
        "fitted = model.fit(design, model.ModelConfig(),\n"
        "                   model.OptimizerConfig(restarts=2, maxiter=20, seed=0))\n"
        f"assert {LBFGSB!r} in sys.modules and 'scipy.optimize' not in sys.modules\n"
        "print(json.dumps([[r['nfev'] for r in fitted.diagnostics['restarts']],\n"
        "                  [evaluated[k] for k in range(2)]]))\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    nfev, evaluated = json.loads(proc.stdout)
    assert evaluated == nfev and all(n > 0 for n in nfev)


def test_message_tables_are_scipys():
    """`setulb`'s messages are spelled from scipy's own tables, so a SciPy
    release that changes them fails here rather than changing the
    ``message`` of each restart's record."""
    from scipy.optimize import _lbfgsb_py
    assert curvegp.model.LBFGS_STATUS_MESSAGES == _lbfgsb_py.status_messages
    assert curvegp.model.LBFGS_TASK_MESSAGES == _lbfgsb_py.task_messages


# In a fresh interpreter, the library's compiled modules and SciPy's
# packages loaded in the order argv[1] names; then every routine the library
# calls is the one the packages export, from one module per extension, and
# the packages still work.
SHARED_MODULES_SCRIPT = """\
import sys
import numpy as np
from curvegp.model import _lbfgsb, _linalg, _scipy_module

def library():
    return _linalg(), _lbfgsb(), _scipy_module("optimize._lsap")

def packages():
    import scipy.linalg, scipy.optimize
    return scipy.linalg, scipy.optimize

if sys.argv[1] == "library_first":
    (linalg, setulb, lsap), (scipy_linalg, scipy_optimize) = library(), packages()
else:
    (scipy_linalg, scipy_optimize), (linalg, setulb, lsap) = packages(), library()
from scipy.optimize import _lbfgsb_py
for name in ("dpotrf", "dpotrs", "dpotri", "dtrtri", "dlauum"):
    assert getattr(linalg.lapack, name) is getattr(scipy_linalg.lapack, name), name
for name in ("dtrsm", "dgemm"):
    assert getattr(linalg.blas, name) is getattr(scipy_linalg.blas, name), name
assert setulb is _lbfgsb_py._lbfgsb.setulb
assert lsap.linear_sum_assignment is scipy_optimize.linear_sum_assignment
modules = sys.modules
assert scipy_linalg.lapack._flapack is linalg.lapack is modules["scipy.linalg._flapack"]
assert scipy_linalg.blas._fblas is linalg.blas is modules["scipy.linalg._fblas"]
assert _lbfgsb_py._lbfgsb is modules["scipy.optimize._lbfgsb"]
assert lsap is modules["scipy.optimize._lsap"]
assert scipy_linalg.cho_factor(np.eye(2))[0][1, 1] == 1.0
assert scipy_optimize.minimize(lambda x: (x @ x, 2 * x), [1.0, 2.0], jac=True,
                               method="L-BFGS-B").success
assert scipy_optimize.linear_sum_assignment([[1, 0], [0, 1]])[1].tolist() == [1, 0]
"""


@pytest.mark.parametrize("order", ["library_first", "packages_first"])
def test_library_and_packages_share_each_compiled_module(order):
    proc = run_python("-c", SHARED_MODULES_SCRIPT, order)
    assert proc.returncode == 0, proc.stderr


def test_loader_names_a_module_whose_file_does_not_exist():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module") as caught:
        curvegp.model._scipy_module("linalg._no_such_module")
    assert caught.value.name == "scipy.linalg._no_such_module"
    assert "scipy.linalg._no_such_module" not in sys.modules


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
assert not test_startup.LAPACK & set(sys.modules)
result = test_startup.FIRST_USE[sys.argv[2]](inputs)
assert test_startup.LAPACK <= set(sys.modules) and "scipy.linalg" not in sys.modules
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
