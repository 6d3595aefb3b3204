"""Span tracing of curvegp layers, installed from the benchmark's own files.

`Tracer.install()` replaces chosen curvegp functions and methods with
wrappers that record one span (name, start, end, parent) per call. A
function is replaced in every curvegp namespace that holds it, so a name
imported elsewhere (``applications.fit`` as well as ``model.fit``) is traced
too. Spans live in flat in-memory arrays and are written out once, by
`Tracer.write`, when the run ends. Nothing in the library is edited.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import curvegp.cli  # noqa: F401  (loads every curvegp module before patching)


# -- hooks: counts taken from call arguments and results ---------------------

def _count_grad_bytes(counts, args, kwargs, result):
    K, grads = result
    if grads is not None:  # computed, not measured: 8 bytes per dK entry
        counts["model.grad_bytes"] += 8 * K.shape[0] ** 2 * len(grads)


def _count_nugget(counts, args, kwargs, result):
    if result[1] > 0.0:
        counts["model.nugget_escalations"] += 1


def _count_lbfgs(counts, args, kwargs, result):
    counts["model.lbfgs_nit"] += int(result.nit)
    counts["model.nfev"] += int(result.nfev)
    if not result.success:
        counts["model.restart_failures"] += 1


def _count_predict_rows(counts, args, kwargs, result):
    counts["model.predict_rows"] += len(result[0])


def _count_rounds(counts, args, kwargs, result):
    counts["metrics.reg_rounds"] += len(result.energies) - 1


def _count_bytes(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["io.bytes_written"] += len(text.encode())


# (span name, module, attribute path, hook); the layer is the name's prefix.
TARGETS = [
    ("cli.main", "curvegp.cli", "main", None),
    ("curves.arc_to_xy_param", "curvegp.curves", "arc_to_xy_param", None),
    ("curves.xy_to_arc_param", "curvegp.curves", "xy_to_arc_param", None),
    ("curves.resample_equally_spaced", "curvegp.curves",
     "resample_equally_spaced", None),
    ("kernels.unit_correlation", "curvegp.kernels", "unit_correlation", None),
    ("coreg.multilevel_gram", "curvegp.coreg", "multilevel_gram", None),
    ("model.design", "curvegp.model", "TrainingDesign.from_curves", None),
    ("model.fit", "curvegp.model", "fit", None),
    ("model.minimize", "curvegp.model", "minimize", _count_lbfgs),
    ("model.value_and_grad", "curvegp.model",
     "MarginalLikelihoodObjective.value_and_grad", None),
    ("model.value", "curvegp.model", "MarginalLikelihoodObjective.value", None),
    ("model.gram_and_grads", "curvegp.model",
     "MarginalLikelihoodObjective.gram_and_grads", _count_grad_bytes),
    ("model.chol", "curvegp.model", "_chol_with_ladder", _count_nugget),
    ("model.assemble_model", "curvegp.model", "assemble_model", None),
    ("model.predict", "curvegp.model", "predict", _count_predict_rows),
    ("model.predict_curve", "curvegp.model", "predict_curve", None),
    ("preprocess.preprocess_collection", "curvegp.preprocess",
     "preprocess_collection", None),
    ("preprocess.rotation_seed_align", "curvegp.preprocess",
     "rotation_seed_align", None),
    ("preprocess.srvf", "curvegp.preprocess", "srvf", None),
    ("metrics.elastic_register", "curvegp.metrics", "elastic_register",
     _count_rounds),
    ("metrics.dp", "curvegp.metrics", "_dp_reparameterize", None),
    ("metrics.esd", "curvegp.metrics", "esd", None),
    ("metrics.wasserstein2", "curvegp.metrics", "wasserstein2", None),
    ("metrics.imspe", "curvegp.metrics", "imspe", None),
    ("applications.reconstruct", "curvegp.applications", "reconstruct", None),
    ("applications.simultaneous_landmarks", "curvegp.applications",
     "simultaneous_landmarks", None),
    ("applications.score_subset", "curvegp.applications", "_score_subset", None),
    ("io.load_curve_csv", "curvegp.io", "load_curve_csv", None),
    ("io.load_json", "curvegp.io", "load_json", None),
    ("io.save_curve_csv", "curvegp.io", "save_curve_csv", None),
    ("io.save_json", "curvegp.io", "save_json", None),
    ("io.atomic_write_text", "curvegp.io", "atomic_write_text", _count_bytes),
]

LAYERS = ("cli", "curves", "kernels", "coreg", "model", "preprocess",
          "metrics", "applications", "io")


class Tracer:
    """Records spans around calls into curvegp while installed and enabled."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_end.append(0.0)
            tracer.stack.append(index)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer.span_end[index] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every curvegp namespace that holds it."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "curvegp" or key.startswith("curvegp.")]
        for name, module_name, path, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:  # a method or classmethod, patched on its class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, hook)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        names = np.array([self.names[i] for i in self.span_name], dtype=object)
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        return names, end - start, parent

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time its children cover."""
        names, dur, parent = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        totals: dict = {}
        for name, value in zip(names, own):
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer metrics named in the benchmark, from spans and counts."""
        names, dur, parent = self._arrays()
        own = self.self_times()
        span_names = list(names)

        def spans(*wanted):
            return dur[np.isin(names, wanted)]

        def outermost(*wanted):
            """Time inside any of the named spans, counting nested ones once."""
            wanted = set(wanted)
            total = 0.0
            for i, name in enumerate(span_names):
                if name not in wanted:
                    continue
                p = parent[i]
                while p >= 0 and span_names[p] not in wanted:
                    p = parent[p]
                if p < 0:
                    total += float(dur[i])
            return total

        c = self.counts
        vg = spans("model.value_and_grad")
        restarts = len(spans("model.minimize"))
        failed = c["model.restart_failures"] + c["model.minimize.raised"]
        trials = len(spans("applications.score_subset"))
        return {
            "model.vg_calls": len(vg),
            "model.vg_s": float(vg.sum()),
            "model.vg_s_p50": float(np.median(vg)) if len(vg) else 0.0,
            "model.gram_s": float(spans("model.gram_and_grads").sum()),
            "model.grad_bytes": c["model.grad_bytes"],
            "model.chol_s": float(spans("model.chol").sum()),
            "model.nugget_escalations": c["model.nugget_escalations"],
            "model.solve_grad_s": own.get("model.value_and_grad", 0.0),
            "model.fit_calls": len(spans("model.fit")),
            "model.fit_s": float(spans("model.fit").sum()),
            "model.restarts": restarts,
            "model.restart_fail_frac": failed / restarts if restarts else 0.0,
            "model.lbfgs_nit": c["model.lbfgs_nit"],
            "model.nfev": c["model.nfev"],
            "model.assemble_s": float(spans("model.assemble_model").sum()),
            "model.predict_s": outermost("model.predict_curve", "model.predict"),
            "model.predict_rows": c["model.predict_rows"],
            "model.design_s": float(spans("model.design").sum()),
            "coreg.gram_calls": len(spans("coreg.multilevel_gram")),
            "coreg.gram_s": float(spans("coreg.multilevel_gram").sum()),
            "kernels.corr_calls": len(spans("kernels.unit_correlation")),
            "kernels.corr_s": float(spans("kernels.unit_correlation").sum()),
            "curves.arc_to_xy_calls": len(spans("curves.arc_to_xy_param")),
            "curves.arc_to_xy_s": float(spans("curves.arc_to_xy_param").sum()),
            "curves.xy_to_arc_calls": len(spans("curves.xy_to_arc_param")),
            "curves.xy_to_arc_s": float(spans("curves.xy_to_arc_param").sum()),
            "preprocess.align_s": float(
                spans("preprocess.rotation_seed_align").sum()),
            "preprocess.srvf_calls": len(spans("preprocess.srvf")),
            "metrics.register_s": float(spans("metrics.elastic_register").sum()),
            "metrics.dp_calls": len(spans("metrics.dp")),
            "metrics.dp_s": float(spans("metrics.dp").sum()),
            "metrics.reg_rounds": c["metrics.reg_rounds"],
            "metrics.w2_s": float(spans("metrics.wasserstein2").sum()),
            "metrics.imspe_s": float(spans("metrics.imspe").sum()),
            "applications.trials": trials,
            "applications.trial_fail_frac": (
                c["applications.score_subset.raised"] / trials if trials else 0.0),
            "applications.score_s": own.get("applications.score_subset", 0.0),
            "io.load_s": outermost("io.load_curve_csv", "io.load_json"),
            "io.save_s": outermost("io.save_curve_csv", "io.save_json",
                                   "io.atomic_write_text"),
            "io.bytes_written": c["io.bytes_written"],
            "cli.self_s": own.get("cli.main", 0.0),
        }

    def layer_self_times(self) -> dict:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_times().items():
            totals[name.split(".", 1)[0]] += value
        return totals

    def write(self, path) -> None:
        """Write the spans as CSV rows: index, name, start, end, parent."""
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.span_name, self.span_start,
                                                 self.span_end, self.span_parent)):
                handle.write(f"{i},{self.names[n]},{s!r},{e!r},{p}\n")
