"""Command-line interface.

Subcommands: simulate, preprocess, fit, predict, reconstruct, landmarks,
register, metrics, plot, config. Exit codes: 0 success, 2 validation
error, 3 numerical failure, 4 I/O error. Each command writes where its
``--out`` or ``--outdir`` flag says. Config files (``--config``) set the
fields of ModelConfig and OptimizerConfig as ``model.*`` and ``opt.*`` keys.

The parser is built at the first `main` call and reused by every later one
in the process, so in-process callers pay for argparse's setup once. Its
defaults are shared by those calls, so none of them is mutable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache

from . import applications, metrics as metrics_mod, model as model_mod
from .curves import Curve, generate_synthetic, resample_equally_spaced
from .errors import ConfigError, NumericalError, ValidationError, whole_number
from .io import (atomic_write_text, fit_result_from_dict, fit_result_to_dict,
                 load_curve_csv, load_json, predicted_curve_from_dict,
                 predicted_curve_to_dict, save_curve_csv, save_json)
from .model import ModelConfig, OptimizerConfig, TrainingDesign
from .preprocess import preprocess_collection
from .svg import emit_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _config_fields():
    """(config class, field name, key, default) of every field of
    ModelConfig and OptimizerConfig."""
    for section, cls in (("model", ModelConfig), ("opt", OptimizerConfig)):
        for f in fields(cls):
            yield cls, f.name, f"{section}.{f.name}", f.default


CONFIG_DEFAULTS = {key: default for _, _, key, default in _config_fields()}


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Parse the flat `section.key = value` config format; unknown keys,
    malformed lines and a key set on a second line are rejected with the
    file and line number."""
    values = dict(CONFIG_DEFAULTS)
    first_line = {}  # the line on which each key was set
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is set again "
                              f"(first on line {first_line[key]})")
        first_line[key] = lineno
        default = CONFIG_DEFAULTS[key]
        try:
            if isinstance(default, int):
                values[key] = int(value)
            elif isinstance(default, float):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(path: str | None):
    """(ModelConfig, OptimizerConfig) from a config file, or the defaults."""
    if path is None:
        return configs_from_values(CONFIG_DEFAULTS)
    with open(path) as handle:
        return configs_from_values(parse_config_text(handle.read(), path))


def configs_from_values(values: dict):
    """(ModelConfig, OptimizerConfig) from a full table of config values."""
    kwargs = {ModelConfig: {}, OptimizerConfig: {}}
    for cls, name, key, _ in _config_fields():
        kwargs[cls][name] = values[key]
    return ModelConfig(**kwargs[ModelConfig]), OptimizerConfig(**kwargs[OptimizerConfig])


def _load_curves(paths):
    return [load_curve_csv(p) for p in paths]


def _stems(paths):
    """Each input's file name without its extension, which names its
    outputs; two inputs with one stem would overwrite each other's, so
    they are a ValidationError naming both."""
    seen = {}
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in seen:
            raise ValidationError(f"inputs {seen[stem]!r} and {path!r} share the "
                                  f"file stem {stem!r}, so their outputs would "
                                  f"overwrite each other")
        seen[stem] = path
    return list(seen)


# -- subcommand handlers ----------------------------------------------------

def cmd_simulate(args) -> int:
    curve = generate_synthetic(
        args.shape, args.n, radius=args.radius, axes=tuple(args.axes),
        amplitude=args.amplitude, petals=args.petals, scheme=args.scheme,
        noise_sd=args.noise_sd, rng_seed=args.seed)
    save_curve_csv(curve, args.out)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    stems = _stems(args.inputs)
    curves = _load_curves(args.inputs)
    processed, results = preprocess_collection(curves, args.template)
    report = []
    for base, curve, res in zip(stems, processed, results):
        save_curve_csv(curve, os.path.join(args.outdir, base + "_pre.csv"))
        report.append({"curve_id": base, "rotation": res.rotation.tolist(),
                       "shift": int(res.shift), "residual": res.residual})
    save_json(report, os.path.join(args.outdir, "alignment.json"))
    return EXIT_OK


def cmd_fit(args) -> int:
    model_config, opt_config = load_config(args.config)
    curves = _load_curves(args.inputs)
    labels = args.labels.split(",") if args.labels else None
    design = TrainingDesign.from_curves(curves, labels)
    model = model_mod.fit(design, model_config, opt_config)
    save_json(fit_result_to_dict(model), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    curves = _load_curves(args.inputs)
    model = fit_result_from_dict(load_json(args.fit), curves)
    pred = model_mod.predict_curve(model, args.curve, args.m)
    save_json(predicted_curve_to_dict(pred), args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    model_config, opt_config = load_config(args.config)
    stems = _stems(args.inputs)
    curves = _load_curves(args.inputs)
    model, preds = applications.reconstruct(curves, model_config, opt_config,
                                            m=args.m)
    save_json(fit_result_to_dict(model), os.path.join(args.outdir, "fit.json"))
    for base, pred in zip(stems, preds):
        save_curve_csv(Curve(pred.means),
                       os.path.join(args.outdir, base + "_mean.csv"))
        save_json(predicted_curve_to_dict(pred),
                  os.path.join(args.outdir, base + "_pred.json"))
    return EXIT_OK


def cmd_landmarks(args) -> int:
    curves = _load_curves(args.inputs)
    model_config, opt_config = load_config(args.config)
    if args.mode == "simultaneous":
        config = applications.LandmarkConfig(
            p=args.p, n_trials=args.n_trials,
            criterion=args.criterion, rng_seed=args.seed)
        result = applications.simultaneous_landmarks(curves, config,
                                                     model_config, opt_config)
        payload = {"p": args.p, "best_indices": list(result.indices),
                   "best_params": result.params.tolist(), "score": result.score,
                   "trials": [{"indices": list(sub), "score": score}
                              for sub, score in result.trials]}
    else:
        applications.sequential_settings(args.lam, args.candidates)  # before the fit
        design = TrainingDesign.from_curves(curves)
        model = model_mod.fit(design, model_config, opt_config)
        s_star = applications.sequential_landmark(model, lam=args.lam,
                                                  n_candidates=args.candidates)
        payload = {"lambda": args.lam, "selected_param": s_star}
    save_json(payload, args.out)
    return EXIT_OK


def cmd_register(args) -> int:
    source = load_curve_csv(args.source)
    target = load_curve_csv(args.target)
    reg = metrics_mod.elastic_register(source, target, grid_size=args.grid)
    payload = {"rotation": reg.rotation.tolist(), "gamma": reg.gamma.tolist(),
               "shift": int(reg.shift), "energy": reg.energy,
               "energies": list(reg.energies),
               "esd": reg.esd}
    save_json(payload, args.out)
    return EXIT_OK


def cmd_metrics(args) -> int:
    # esd registers on a grid of min(m, 100) points, which needs 8
    m = whole_number("m", args.m, 8)
    a = load_curve_csv(args.pair[0])
    b = load_curve_csv(args.pair[1])
    ra = resample_equally_spaced(a, m)
    rb = resample_equally_spaced(b, m)
    payload = {"imspe": metrics_mod.imspe(ra.points, b),
               "wasserstein2": metrics_mod.wasserstein2(ra.points, rb.points),
               "esd": metrics_mod.esd(a, b, grid_size=min(m, 100))}
    save_json(payload, args.out)
    return EXIT_OK


def cmd_plot(args) -> int:
    pred = predicted_curve_from_dict(load_json(args.pred))
    observed = load_curve_csv(args.observed) if args.observed else None
    truth = load_curve_csv(args.truth) if args.truth else None
    atomic_write_text(args.out, emit_svg(pred, observed=observed, truth=truth,
                                         title=args.title, scale=args.scale))
    return EXIT_OK


def cmd_config(args) -> int:
    # print-defaults, the one action the parser accepts
    for key, value in CONFIG_DEFAULTS.items():
        print(f"{key} = {value}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at its first call."""
    parser = argparse.ArgumentParser(
        prog="curvegp",
        description="Gaussian-process modeling and shape analysis of closed "
                    "planar curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic curve CSV")
    p.add_argument("--shape", choices=["circle", "ellipse", "star"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--scheme", choices=["equal", "clustered"], default="equal")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--axes", type=float, nargs=2, default=(1.0, 0.5))
    p.add_argument("--amplitude", type=float, default=0.3)
    p.add_argument("--petals", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preprocess", help="center, scale and align curves")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--template", type=int, default=0)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="fit the multi-output GP model")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--labels", default=None,
                   help="comma-separated group labels, one per curve; two "
                        "or more groups fit the group level")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="dense prediction from a saved fit")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--curve", type=int, default=0)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("reconstruct", help="joint fit + dense resampling")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("landmarks", help="landmark selection")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--mode", choices=["simultaneous", "sequential"],
                   default="simultaneous")
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--n-trials", type=int, default=30)
    p.add_argument("--criterion", choices=["imspe", "iuea"], default="imspe")
    p.add_argument("--candidates", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_landmarks)

    p = sub.add_parser("register", help="elastic registration of two curves")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("metrics", help="distance report for a curve pair")
    p.add_argument("--pair", nargs=2, required=True)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plot", help="render a prediction JSON as SVG")
    p.add_argument("--pred", required=True)
    p.add_argument("--observed", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--title", default="")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("config", help="configuration utilities")
    p.add_argument("action", choices=["print-defaults"])
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code. Arguments that
    argparse rejects return 2 after its usage message, and ``--help``
    returns 0 after the help; neither raises `SystemExit`."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ValidationError, CurveError, ConfigError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
