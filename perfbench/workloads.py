"""The benchmark's workloads: seeded inputs, CLI job lists and output checks.

Each workload writes its inputs as CSV/JSON files and builds a list of jobs.
A job is the CLI calls one user task needs (for example `preprocess` then
`reconstruct` on one collection); the benchmark times each job as a whole
and then runs its check. A check returns the job's quality figures and
raises `CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from curvegp.curves import (Curve, generate_synthetic, polygon_length,
                            resample_equally_spaced)
from curvegp.io import (kernel_from_dict, load_curve_csv, load_json,
                        save_curve_csv, save_json)
from curvegp.metrics import imspe
from curvegp.model import TrainingDesign, assemble_model
from curvegp.preprocess import center, scale_to_unit_length

# Per-job mean IMSPE of the reconstructed means against the noise-free truth
# (unit-length curves). Over 90 seeded jobs it had median 4e-4 and maximum
# 1.6e-3; a reconstruction that misses the curve's shape scores above 1e-2.
RECON_IMSPE_MAX = 5e-3
# A similar copy should have esd 0: exact copies mostly get 0.0. On the
# current code about 1 in 30 noisy copies gets 0.01 to 0.07 instead, because
# elastic_register's seed search stops at a wrong offset. That miss is
# counted and reported (`copy_esd_miss_frac`); the check fails only when a
# copy is not registered as the same shape: above half the smallest esd of
# two different shapes in this workload (0.30 over 48 seeded pairs).
COPY_ESD_MAX = 1e-6
COPY_ESD_SAME_SHAPE = 0.15
PREDICT_MATCH_TOL = 1e-10


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Job:
    argvs: list
    check: object  # callable returning {quality name: value}


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _check_covariances(covs, where):
    covs = np.asarray(covs, dtype=float)
    _require(np.all(np.isfinite(covs)), f"{where}: non-finite covariance")
    _require(np.allclose(covs, covs.transpose(0, 2, 1), rtol=0, atol=1e-12),
             f"{where}: covariance blocks not symmetric")
    scale = max(float(np.max(np.abs(covs))), 1e-300)
    eig = np.linalg.eigvalsh(0.5 * (covs + covs.transpose(0, 2, 1)))
    _require(eig.min() >= -1e-9 * scale, f"{where}: covariance block not PSD "
             f"(min eigenvalue {eig.min():.3e})")


def _check_prediction(path):
    data = load_json(path)
    means = np.asarray(data["means"], dtype=float)
    _require(np.all(np.isfinite(means)), f"{path}: non-finite means")
    _check_covariances(data["covariances"], path)
    return data


# -- reconstruct_sparse ------------------------------------------------------

class ReconstructSparse:
    """`preprocess` then `reconstruct --m 200` on seeded noisy collections."""

    name = "reconstruct_sparse"
    nominal_job_s = 1.7
    min_jobs = 4
    n_curves = 2
    n_points = 60
    restarts = 2

    def _curve_pair(self, rng, k, n_points):
        """One star and one ellipse; jobs alternate which one is clustered."""
        specs = []
        for c in range(self.n_curves):
            shape = "star" if c % 2 == 0 else "ellipse"
            specs.append(dict(
                shape=shape, n=n_points, radius=float(rng.uniform(0.8, 1.2)),
                axes=(1.0, float(rng.uniform(0.4, 0.7))),
                amplitude=float(rng.uniform(0.15, 0.3)),
                petals=int(rng.integers(3, 6)),
                scheme="clustered" if (c + k) % 2 else "equal",
                cluster_center=float(rng.uniform(0.0, 2 * np.pi)),
                noise_sd=0.02, rng_seed=_seed(rng)))
        return specs

    def _job(self, workdir, rng, k, n_points):
        job_dir = os.path.join(workdir, f"job{k:03d}")
        raw, truths = [], []
        for c, spec in enumerate(self._curve_pair(rng, k, n_points)):
            path = os.path.join(job_dir, f"c{c}.csv")
            save_curve_csv(generate_synthetic(**spec), path)
            raw.append(path)
            truths.append(generate_synthetic(**{**spec, "noise_sd": 0.0}))
        pre = os.path.join(job_dir, "pre")
        rec = os.path.join(job_dir, "rec")
        argvs = [["preprocess", "--inputs", *raw, "--outdir", pre],
                 ["reconstruct", "--inputs",
                  *[os.path.join(pre, f"c{c}_pre.csv") for c in range(len(raw))],
                  "--config", os.path.join(workdir, "recon.cfg"),
                  "--m", "200", "--outdir", rec]]

        def check():
            alignment = load_json(os.path.join(pre, "alignment.json"))
            fit = load_json(os.path.join(rec, "fit.json"))
            errors = []
            for c, (path, truth) in enumerate(zip(raw, truths)):
                pred = _check_prediction(os.path.join(rec, f"c{c}_pre_pred.json"))
                # map the truth through the transform preprocess applied
                observed = load_curve_csv(path)
                mean = observed.points.mean(axis=0)
                length = polygon_length(center(observed))
                pts = np.roll((truth.points - mean) / length,
                              -alignment[c]["shift"], axis=0)
                pts = pts @ np.asarray(alignment[c]["rotation"]).T
                errors.append(imspe(np.asarray(pred["means"]), Curve(pts)))
            value = float(np.mean(errors))
            _require(value < RECON_IMSPE_MAX,
                     f"{rec}: reconstruction IMSPE {value:.3e} >= {RECON_IMSPE_MAX}")
            return {"recon_imspe": value,
                    "recon_nll": -float(fit["log_marginal_likelihood"])}

        return Job(argvs, check)

    def generate(self, workdir, seed, n_jobs):
        rng = np.random.default_rng([seed, 1])
        with open(os.path.join(workdir, "recon.cfg"), "w") as handle:
            handle.write(f"opt.restarts = {self.restarts}\n")
        warmup = self._job(workdir, np.random.default_rng([seed, 1, 0]), -1, 12)
        return warmup, [self._job(workdir, rng, k, self.n_points)
                        for k in range(n_jobs)]

    quality = {"recon_imspe": "1", "recon_nll": "nat"}


# -- landmarks_search --------------------------------------------------------

class LandmarksSearch:
    """`landmarks --mode simultaneous` on seeded star triples."""

    name = "landmarks_search"
    nominal_job_s = 1.3
    min_jobs = 3
    n_curves = 3
    n_points = 20
    p = 4
    n_trials = 5
    restarts = 2

    def _job(self, workdir, rng, k, n_points, n_trials):
        job_dir = os.path.join(workdir, f"job{k:03d}")
        paths = []
        for c in range(self.n_curves):
            curve = generate_synthetic(
                "star", n_points, radius=float(rng.uniform(0.8, 1.2)),
                amplitude=float(rng.uniform(0.2, 0.35)), petals=4,
                noise_sd=0.01, rng_seed=_seed(rng))
            paths.append(os.path.join(job_dir, f"s{c}.csv"))
            save_curve_csv(curve, paths[-1])
        out = os.path.join(job_dir, "landmarks.json")
        argvs = [["landmarks", "--inputs", *paths, "--mode", "simultaneous",
                  "--p", str(self.p), "--n-trials", str(n_trials),
                  "--seed", str(_seed(rng)),
                  "--config", os.path.join(workdir, "landmarks.cfg"),
                  "--out", out]]

        def check():
            data = load_json(out)
            best = data["best_indices"]
            _require(len(best) == self.p and len(set(best)) == self.p,
                     f"{out}: best indices {best} are not {self.p} distinct")
            _require(all(0 <= i < n_points for i in best),
                     f"{out}: best indices {best} out of range")
            scores = [trial["score"] for trial in data["trials"]]
            _require(len(scores) > 0, f"{out}: no trial succeeded")
            _require(data["score"] == min(scores),
                     f"{out}: score is not the minimum over the trials")
            first_best = data["trials"][scores.index(min(scores))]
            _require(first_best["indices"] == best,
                     f"{out}: best indices are not those of the best trial")
            return {"landmark_score": float(data["score"])}

        return Job(argvs, check)

    def generate(self, workdir, seed, n_jobs):
        rng = np.random.default_rng([seed, 2])
        with open(os.path.join(workdir, "landmarks.cfg"), "w") as handle:
            handle.write(f"opt.restarts = {self.restarts}\n")
        warmup = self._job(workdir, np.random.default_rng([seed, 2, 0]), -1, 8, 1)
        return warmup, [self._job(workdir, rng, k, self.n_points, self.n_trials)
                        for k in range(n_jobs)]

    quality = {"landmark_score": "1"}


# -- register_pairs ----------------------------------------------------------

class RegisterPairs:
    """`register --grid 200` then `metrics --m 200` on seeded curve pairs.

    Each job registers a star onto two sources: a clustered-sampled ellipse
    (a different shape, several DP rounds) and a rotated, scaled,
    translated and seed-shifted copy of the star (one or two rounds). Both
    kinds in every job keep the job times of one population, so their
    median does not jump between the two kinds from seed to seed.
    """

    name = "register_pairs"
    nominal_job_s = 3.0
    min_jobs = 4
    grid = 200

    def _sources(self, rng, target):
        """The different shape, then the similar copy, of the target."""
        different = generate_synthetic(
            "ellipse", int(rng.integers(40, 60)),
            axes=(1.0, float(rng.uniform(0.4, 0.8))), scheme="clustered",
            cluster_center=float(rng.uniform(0.0, 2 * np.pi)),
            noise_sd=0.005, rng_seed=_seed(rng))
        angle = rng.uniform(0.0, 2 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        pts = rng.uniform(0.5, 2.0) * target.points @ rot.T + rng.normal(size=2)
        copy = Curve(np.roll(pts, int(rng.integers(1, target.n)), axis=0))
        return different, copy

    def _job(self, workdir, rng, k, grid):
        job_dir = os.path.join(workdir, f"job{k:03d}")
        target = generate_synthetic(
            "star", int(rng.integers(50, 70)), radius=float(rng.uniform(0.8, 1.2)),
            amplitude=float(rng.uniform(0.15, 0.3)), petals=int(rng.integers(3, 6)),
            noise_sd=0.005, rng_seed=_seed(rng))
        a = os.path.join(job_dir, "a.csv")
        save_curve_csv(target, a)
        argvs, pairs = [], []
        for name, source in zip(("different", "copy"), self._sources(rng, target)):
            b = os.path.join(job_dir, f"{name}.csv")
            save_curve_csv(source, b)
            reg_out = os.path.join(job_dir, f"register-{name}.json")
            met_out = os.path.join(job_dir, f"metrics-{name}.json")
            argvs += [["register", "--source", b, "--target", a, "--grid", str(grid),
                       "--out", reg_out],
                      ["metrics", "--pair", a, b, "--m", str(grid), "--out", met_out]]
            pairs.append((name == "copy", reg_out, met_out))

        def check():
            energies, misses = [], []
            for is_copy, reg_out, met_out in pairs:
                reg = load_json(reg_out)
                energies.append(_check_registration(reg, reg_out))
                met = load_json(met_out)
                for where, value in ((reg_out, reg["esd"]), (met_out, met["esd"])):
                    _require(0.0 <= value <= np.pi,
                             f"{where}: esd {value} not in [0, pi]")
                    if is_copy:
                        _require(value <= COPY_ESD_SAME_SHAPE,
                                 f"{where}: esd {value:.3e} of a similar copy "
                                 f"exceeds {COPY_ESD_SAME_SHAPE}")
                        misses.append(value > COPY_ESD_MAX)
                        if misses[-1]:
                            print(f"known defect: {where}: esd {value:.3e} of a "
                                  f"similar copy exceeds {COPY_ESD_MAX}",
                                  file=sys.stderr)
                for key in ("imspe", "wasserstein2"):
                    _require(np.isfinite(met[key]) and met[key] >= 0.0,
                             f"{met_out}: {key} = {met[key]}")
            return {"reg_energy": float(np.mean(energies)),
                    "copy_esd_miss_frac": float(np.mean(misses))}

        return Job(argvs, check)

    def generate(self, workdir, seed, n_jobs):
        rng = np.random.default_rng([seed, 3])
        warmup = self._job(workdir, np.random.default_rng([seed, 3, 0]), -1, 20)
        return warmup, [self._job(workdir, rng, k, self.grid)
                        for k in range(n_jobs)]

    quality = {"reg_energy": "1", "copy_esd_miss_frac": "1"}


def _check_registration(reg, where) -> float:
    """Checks a `register` output; returns its final energy."""
    energies = np.asarray(reg["energies"], dtype=float)
    _require(np.all(np.diff(energies) <= 1e-12),
             f"{where}: registration energies increase")
    _require(reg["energy"] == energies[-1],
             f"{where}: final energy is not the last of the trace")
    gamma = np.asarray(reg["gamma"], dtype=float)
    _require(gamma[0] == 0.0 and abs(gamma[-1] - 1.0) <= 1e-12,
             f"{where}: gamma does not run from 0 to 1")
    _require(np.all(np.diff(gamma) >= 0.0), f"{where}: gamma not monotone")
    return float(reg["energy"])


# -- predict_dense -----------------------------------------------------------

# Fixed hyperparameters for the saved fit: unit-length curves (tau = 1).
PREDICT_FIT = {
    "hyperparameters": {"family": "periodic_matern32", "sigma2": 0.01,
                        "rho": 0.15, "tau": 1.0},
    "noise": {"noise_variance": 1e-5, "jitter": 1e-3, "jitter_mode": "constant"},
}


class PredictDense:
    """`predict --m 400` for each curve of a 10 x 40 common-grid collection."""

    name = "predict_dense"
    nominal_job_s = 0.25
    min_jobs = 40
    n_curves = 10
    n_points = 40
    m = 400

    def generate(self, workdir, seed, n_jobs):
        rng = np.random.default_rng([seed, 4])
        paths = []
        for c in range(self.n_curves):
            dense = generate_synthetic(
                "star" if c % 2 == 0 else "ellipse", 400,
                radius=float(rng.uniform(0.8, 1.2)),
                axes=(1.0, float(rng.uniform(0.4, 0.8))),
                amplitude=float(rng.uniform(0.15, 0.3)),
                petals=int(rng.integers(3, 6)), noise_sd=0.002, rng_seed=_seed(rng))
            curve = scale_to_unit_length(center(
                resample_equally_spaced(dense, self.n_points)))
            paths.append(os.path.join(workdir, f"c{c}.csv"))
            save_curve_csv(curve, paths[-1])
        fit = dict(PREDICT_FIT)
        fit["coregionalization"] = {
            "D": {"w": [[0.3], [0.1]], "kappa": [1.0, 1.0]},
            "C": {"w": [[float(w)] for w in rng.uniform(0.5, 1.0, self.n_curves)],
                  "kappa": [0.2] * self.n_curves}}
        fit_path = os.path.join(workdir, "fit.json")
        save_json(fit, fit_path)
        first_outputs = {}  # (curve, m) -> output of the first such job
        models = []  # the fitted model, assembled by the first check

        def make_job(k, curve, m):
            out = os.path.join(workdir, f"pred{k:03d}.json")
            argv = ["predict", "--inputs", *paths, "--fit", fit_path,
                    "--curve", str(curve), "--m", str(m), "--out", out]

            def check():
                data = _check_prediction(out)
                if (curve, m) in first_outputs:
                    _require(data == first_outputs[(curve, m)],
                             f"{out}: differs from an earlier identical job")
                else:
                    first_outputs[(curve, m)] = data
                    _check_full_covariance(data, curve, m)
                return {}

            return Job([argv], check)

        def _check_full_covariance(data, curve, m):
            """predict_curve's 2x2 blocks equal the diagonal blocks of the
            full posterior covariance from model.predict."""
            if not models:
                kernel, noise = kernel_from_dict(load_json(fit_path))
                design = TrainingDesign.from_curves(
                    [load_curve_csv(p) for p in paths])
                models.append(assemble_model(design, kernel, noise))
            model = models[0]
            grid = np.asarray(data["grid"], dtype=float)
            mean, cov = model.predict(np.repeat(grid, 2), np.tile([0, 1], m),
                                      np.full(2 * m, curve))
            blocks = np.array([cov[2 * i:2 * i + 2, 2 * i:2 * i + 2]
                               for i in range(m)])
            _require(np.max(np.abs(blocks - np.asarray(data["covariances"])))
                     <= PREDICT_MATCH_TOL,
                     f"curve {curve}: 2x2 blocks differ from full covariance")
            _require(np.max(np.abs(mean.reshape(m, 2) - np.asarray(data["means"])))
                     <= PREDICT_MATCH_TOL,
                     f"curve {curve}: means differ from model.predict")

        warmup = make_job(-1, 0, 50)
        return warmup, [make_job(k, k % self.n_curves, self.m)
                        for k in range(n_jobs)]

    quality = {}


WORKLOADS = {w.name: w for w in (ReconstructSparse(), LandmarksSearch(),
                                 RegisterPairs(), PredictDense())}


def job_count(workload, seconds: int) -> int:
    """Fixed job-list length for a run of about ``seconds`` on the reference
    machine; it depends only on the workload and the run length."""
    return max(workload.min_jobs, round(seconds / workload.nominal_job_s))
