"""Multi-output Gaussian-process modeling of closed planar curves.

Periodic kernels over arc length, coregionalization across coordinates,
curves and groups, SRVF-based preprocessing and elastic registration,
shape metrics, and curve-analysis workflows (reconstruction, landmark
selection). A grouped fit is ``fit(TrainingDesign.from_curves(curves,
labels))``: two or more groups always fit the group level.
"""

from .curves import (Curve, arc_to_xy_param, generate_synthetic,
                     polygon_length, resample_equally_spaced, xy_to_arc_param)
from .kernels import PeriodicHyperparameters, gram
from .coreg import CoregMatrix, MultiLevelKernel, multilevel_gram
from .model import (FittedModel, ModelConfig, OptimizerConfig, PredictedCurve,
                    TrainingDesign, assemble_model, fit, predict,
                    predict_curve)
from .preprocess import (AlignmentResult, Srvf, apply_alignment, center,
                         preprocess_collection, rotation_seed_align,
                         scale_to_unit_length, srvf)
from .metrics import Registration, elastic_register, esd, imspe, iuea, wasserstein2
from .applications import (LandmarkConfig, LandmarkResult, reconstruct,
                           sequential_landmark, simultaneous_landmarks)

__version__ = "0.1.0"

__all__ = [
    # submodules loaded by the imports above
    "applications", "coreg", "curves", "errors", "kernels", "metrics",
    "model", "preprocess",
    # curves
    "Curve", "arc_to_xy_param", "generate_synthetic", "polygon_length",
    "resample_equally_spaced", "xy_to_arc_param",
    # kernels
    "PeriodicHyperparameters", "gram",
    # coreg
    "CoregMatrix", "MultiLevelKernel", "multilevel_gram",
    # model
    "FittedModel", "ModelConfig", "OptimizerConfig", "PredictedCurve",
    "TrainingDesign", "assemble_model", "fit", "predict", "predict_curve",
    # preprocess
    "AlignmentResult", "Srvf", "apply_alignment", "center",
    "preprocess_collection", "rotation_seed_align", "scale_to_unit_length",
    "srvf",
    # metrics
    "Registration", "elastic_register", "esd", "imspe", "iuea", "wasserstein2",
    # applications
    "LandmarkConfig", "LandmarkResult", "reconstruct", "sequential_landmark",
    "simultaneous_landmarks",
]
