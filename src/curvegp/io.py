"""Serialization: curve CSV files, fit-result JSON and prediction JSON.

All writes are atomic (write to a temp file in the target directory, then
rename). Numbers are serialized in shortest round-trip decimal form, so a
load(save(x)) round trip reproduces values exactly. A fit file stores the
jitter beside the noise variance (``noise.jitter``), and `kernel_from_dict`
puts it back on the input kernel; every number read from a fit or
prediction file must be finite, and a bad one is named by its key.
`fit_result_from_dict` rebuilds the FittedModel from a fit and its curves,
which must give back the fit's log marginal likelihood when it has one.
A fit file holds the model's record, ``model.diagnostics``, as the model
holds it; nothing reads it back, so a reloaded model's record is the
nugget of its own factorization.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .coreg import CoregMatrix, MultiLevelKernel
from .curves import Curve
from .errors import ValidationError
from .kernels import PeriodicHyperparameters
from .model import PredictedCurve, TrainingDesign, assemble_model


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temporary file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def curve_to_csv(curve: Curve) -> str:
    """The CSV text of a curve: an x,y header and each point's coordinates
    as the shortest repr that reads back to the same float."""
    lines = ["x,y"]
    lines.extend(f"{x!r},{y!r}" for x, y in curve.points.tolist())
    return "\n".join(lines) + "\n"


def save_curve_csv(curve: Curve, path: str) -> None:
    atomic_write_text(path, curve_to_csv(curve))


def load_curve_csv(path: str) -> Curve:
    """The curve of an x,y CSV file. Blank lines are skipped; an error names
    the file's own line, blank lines counted."""
    with open(path) as handle:
        lines = [(lineno, line.strip()) for lineno, line in enumerate(handle, 1)
                 if line.strip()]
    if not lines or lines[0][1].replace(" ", "") != "x,y":
        raise ValidationError(f"{path}:{lines[0][0] if lines else 1}: expected header 'x,y'")
    points = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{path}:{lineno}: expected two comma-separated values")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return Curve(np.array(points))


def save_json(obj, path: str) -> None:
    """One line of compact JSON and a newline: without ``indent`` the
    standard library encodes with its C accelerator."""
    atomic_write_text(path, json.dumps(obj) + "\n")


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


LEVEL_TAGS = {"coord": "D", "curve": "C", "group": "G"}


def fit_result_to_dict(model) -> dict:
    """JSON-ready summary of a fitted model: hyperparameters, coreg levels
    with D/C/G tags, noise, likelihood, then every member of
    ``model.diagnostics`` as the model holds it (`model.fit` names them),
    then the group label of each curve so that the design can be rebuilt."""
    hyp, design = model.kernel.input_kernel, model.design
    coreg = {}
    for name, tag in LEVEL_TAGS.items():
        level = getattr(model.kernel, name)
        if level is not None:
            coreg[tag] = level.to_dict()
    return {
        "hyperparameters": {"family": hyp.family, "sigma2": hyp.sigma2,
                            "rho": hyp.rho, "tau": hyp.tau},
        "noise": {"noise_variance": model.noise_variance, "jitter": hyp.jitter},
        "coregionalization": coreg,
        "log_marginal_likelihood": model.log_marginal_likelihood,
        **model.diagnostics,
        "curve_labels": [str(design.group_labels[g]) for g in design.curve_group],
    }


def _entry(data: dict, path: str, what: str = "fit file"):
    """The value at a dotted key path of a dictionary read from a ``what``;
    a missing key is a ValidationError that names it."""
    keys = path.split(".")
    value = data
    for depth, key in enumerate(keys, start=1):
        if not isinstance(value, dict) or key not in value:
            raise ValidationError(f"{what} has no {'.'.join(keys[:depth])}")
        value = value[key]
    return value


def _number(data: dict, path: str, nonnegative: bool = False):
    """`_entry`, which must be a finite JSON number, and >= 0 when
    ``nonnegative``."""
    value = _entry(data, path)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (nonnegative and value < 0)):
        rule = "a finite number >= 0" if nonnegative else "a finite number"
        raise ValidationError(f"fit file: {path} must be {rule}, got {value!r}")
    return value


def _numbers(data: dict, path: str, what: str = "fit file") -> np.ndarray:
    """`_entry` as a float array; entries that are not finite numbers are
    rejected."""
    value = _entry(data, path, what)
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {path} must hold numbers ({exc})") from exc
    if not np.isfinite(array).all():
        raise ValidationError(f"{what}: {path} holds non-finite values")
    return array


def kernel_from_dict(data: dict):
    """Rebuild (MultiLevelKernel, noise variance) from a fit-result
    dictionary. A missing or malformed entry raises ValidationError naming
    its key.

    The jitter is a constant on the input kernel. Fits saved with a
    ``noise.jitter_mode`` key carry ``"constant"``; any other mode names a
    different kernel and is rejected."""
    if not isinstance(data, dict):
        raise ValidationError(
            f"a fit file holds a JSON object, got {type(data).__name__}")
    hyp = PeriodicHyperparameters(sigma2=_number(data, "hyperparameters.sigma2"),
                                  rho=_number(data, "hyperparameters.rho"),
                                  tau=_number(data, "hyperparameters.tau"),
                                  family=_entry(data, "hyperparameters.family"),
                                  jitter=_number(data, "noise.jitter", nonnegative=True))
    noise_variance = _number(data, "noise.noise_variance", nonnegative=True)
    mode = data["noise"].get("jitter_mode", "constant")
    if mode != "constant":
        raise ValidationError(f"unsupported noise.jitter_mode {mode!r} "
                              "in the fit: only constant jitter is modeled")
    coreg = data.get("coregionalization", {})
    if not isinstance(coreg, dict):
        raise ValidationError("fit file: coregionalization must be an object")
    levels = {}
    for name, tag in LEVEL_TAGS.items():
        if tag in coreg:
            path = f"coregionalization.{tag}"
            w, kappa = _numbers(data, f"{path}.w"), _numbers(data, f"{path}.kappa")
            try:
                levels[name] = CoregMatrix(w, kappa)
            except ValidationError as exc:
                raise ValidationError(f"fit file: {path}: {exc}") from exc
    if "coord" not in levels:
        levels["coord"] = CoregMatrix.identity(2)
    kernel = MultiLevelKernel(input_kernel=hyp, coord=levels["coord"],
                              curve=levels.get("curve"),
                              group=levels.get("group"))
    return kernel, noise_variance


# The largest relative gap between a fit file's log p and the one its
# curves give: far above LAPACK's differences between machines, far below
# the gap of other curves or of the fitted curves in another order.
LOG_P_RTOL = 1e-9


def fit_result_from_dict(data: dict, curves):
    """The inverse of `fit_result_to_dict`, given the fitted curves: the
    kernel from `kernel_from_dict`, the design from the curves and the
    fit's ``curve_labels`` (a list of strings; absent, one group), then
    `assemble_model`, which checks each level's size against the design.
    A fit that records ``log_marginal_likelihood`` must get it back from
    the curves, to a relative `LOG_P_RTOL`: other curves, or the fitted
    curves in another order, are a ValidationError naming both values."""
    kernel, noise_variance = kernel_from_dict(data)
    labels = data.get("curve_labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise ValidationError("fit file: curve_labels must be a list of strings")
    model = assemble_model(TrainingDesign.from_curves(curves, labels), kernel,
                           noise_variance)
    if "log_marginal_likelihood" in data:
        saved = _number(data, "log_marginal_likelihood")
        got = model.log_marginal_likelihood
        if abs(got - saved) > LOG_P_RTOL * abs(saved):
            raise ValidationError(
                f"fit file: log_marginal_likelihood is {saved!r}, but these inputs "
                f"give {got!r}: they are not the fitted curves in the fitted order")
    return model


def predicted_curve_to_dict(pred) -> dict:
    return {"grid": pred.grid.tolist(), "means": pred.means.tolist(),
            "covariances": pred.covariances.tolist()}


def predicted_curve_from_dict(data) -> PredictedCurve:
    """Rebuild a PredictedCurve from `predicted_curve_to_dict`'s dictionary.
    ``grid``, ``means`` and ``covariances`` must hold finite numbers of
    shapes (m,), (m, 2) and (m, 2, 2), m >= 1; anything else raises
    ValidationError naming the key."""
    arrays = {key: _numbers(data, key, "prediction file")
              for key in ("grid", "means", "covariances")}
    m = max(arrays["grid"].size, 1)
    for (key, value), shape in zip(arrays.items(), ((m,), (m, 2), (m, 2, 2))):
        if value.shape != shape:
            raise ValidationError(f"prediction file: {key} has shape {value.shape}, "
                                  f"expected {shape}")
    return PredictedCurve(**arrays)
