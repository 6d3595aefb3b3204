"""The benchmark's tracer (perfbench/tracing.py) against the library: every
traced name must exist, and every hooked return shape must still match, so a
rename or a changed return value fails here and not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

import curvegp.curves as curves_mod
import curvegp.metrics as metrics_mod
import curvegp.model as model_mod
from curvegp.curves import generate_synthetic
from curvegp.preprocess import center, scale_to_unit_length
from gram_oracle import one_row

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module_name, path):
    """The object a tracer target names, as stored on its module or class."""
    owner = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


def test_tracer_hooks_the_library(tracing):
    originals = {(m, p): target(m, p) for _, m, p, _ in tracing.TARGETS}
    curves = [scale_to_unit_length(center(generate_synthetic(
        "star", 8, rng_seed=k, noise_sd=0.02))) for k in range(2)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, path), original in originals.items():
            assert target(module_name, path) is not original, path
        design = model_mod.TrainingDesign.from_curves(curves, labels=["a", "b"])
        model = model_mod.fit(design, model_mod.ModelConfig(),
                              model_mod.OptimizerConfig(restarts=1, seed=0))
        model_mod.fit(model_mod.TrainingDesign.from_curves(curves),
                      model_mod.ModelConfig(),
                      model_mod.OptimizerConfig(restarts=1, seed=0))
        obj = model_mod.MarginalLikelihoodObjective(design, model_mod.ModelConfig())
        obj.value(obj.default_start())
        # fits run their restarts in lockstep, with no `minimize` span: the
        # restart counts come from this one call of the traced `minimize`
        result = model_mod.minimize(lambda theta: one_row(obj, theta), obj.default_start(),
                                    obj.bounds, 5)
        model_mod.predict(model, [0.1, 0.1], [0, 1], [1, 1])
        model_mod.predict_curve(model, 1, 10)
        ellipse = generate_synthetic("ellipse", 20, axes=(1.0, 0.5))
        metrics_mod.elastic_register(ellipse, curves[0], grid_size=16)
        metrics_mod.esd(curves[0], ellipse, grid_size=16)
        curves_mod.resample_equally_spaced(curves[1], 12)
        metrics = tracer.layer_metrics()
        gram_calls = [tracer.names[i] for i in tracer.span_name].count(
            "model.gram_and_grads")
    finally:
        tracer.uninstall()
    for (module_name, path), original in originals.items():
        assert target(module_name, path) is original, path
    assert metrics["model.design_s"] > 0
    assert metrics["model.fit_calls"] == 2
    assert metrics["model.restarts"] == 1
    assert (metrics["model.nfev"], metrics["model.lbfgs_nit"]) == (result.nfev, result.nit)
    # one objective Gram per evaluation and none more: `unpack` takes
    # sigma2's estimate at the best restart from `assemble_model`'s solve
    assert metrics["model.vg_calls"] > 0
    assert gram_calls == metrics["model.vg_calls"]
    # every Gram here is a stack of one row, (1, P, P) matrices: the tracer
    # counts 8 K.shape[0] ** 2 bytes per gradient matrix, which for a stack
    # is 8 times the rows squared. Every objective Gram forms the two
    # gradient matrices
    assert metrics["model.grad_bytes"] == 2 * 8 * metrics["model.vg_calls"]
    assert metrics["model.chol_s"] > 0
    assert metrics["model.predict_rows"] == 2
    assert metrics["coreg.gram_calls"] > 0
    assert metrics["kernels.corr_calls"] > 0
    assert metrics["metrics.dp_calls"] > 0
    assert metrics["metrics.reg_rounds"] > 0
    assert metrics["curves.arc_to_xy_calls"] > 0
