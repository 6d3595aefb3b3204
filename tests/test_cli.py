"""CLI and serialization: subcommands, exit codes, config parsing, SVG."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import curvegp
from curvegp.applications import sequential_landmark
from curvegp.cli import (CONFIG_DEFAULTS, EXIT_IO, EXIT_OK, EXIT_VALIDATION,
                         configs_from_values, main, parse_config_text)
from curvegp.coreg import multilevel_gram
from curvegp.curves import Curve, generate_synthetic
from curvegp.errors import ConfigError, ValidationError
from curvegp.metrics import esd
from curvegp.io import (curve_to_csv, fit_result_from_dict, load_curve_csv,
                        save_curve_csv, save_json)
from curvegp.model import (NUGGET_LADDER, ModelConfig, OptimizerConfig,
                           PredictedCurve, TrainingDesign, fit, predict_curve)
from curvegp.preprocess import center, scale_to_unit_length
from curvegp.svg import emit_svg


def read_json(path):
    """The JSON document in the file at ``path``."""
    return json.loads(Path(path).read_text())


class TestConfig:
    def test_defaults_returned_for_empty(self):
        assert parse_config_text("") == CONFIG_DEFAULTS

    def test_override_and_comments(self):
        values = parse_config_text("# comment\nopt.restarts = 3\nmodel.jitter = 0.5\n")
        assert values["opt.restarts"] == 3
        assert values["model.jitter"] == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("model.bogus = 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("opt.seed = 1\nnot a setting\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("opt.restarts = many")

    def test_key_set_twice_rejected(self, tmp_path, capsys):
        # a second line for a key once overrode the first without a word:
        # 2 then 8 restarts fitted 8
        with pytest.raises(ConfigError, match=r"^cfg\.txt:3: config key 'opt\.restarts' "
                           r"is set again \(first on line 1\)$"):
            parse_config_text("opt.restarts = 2\nopt.seed = 1\nopt.restarts = 8\n",
                              "cfg.txt")
        curve = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "circle", "--n", "8",
                     "--out", curve]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 2  # two\n\nopt.restarts=2\n")
        capsys.readouterr()
        assert main(["fit", "--inputs", curve, "--config", str(cfg),
                     "--out", str(tmp_path / "fit.json")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.strip() == (
            f"error: {cfg}:3: config key 'opt.restarts' is set again (first on line 1)")
        assert not (tmp_path / "fit.json").exists()

    def test_print_defaults(self, capsys):
        assert main(["config", "print-defaults"]) == EXIT_OK
        out = capsys.readouterr().out
        reparsed = parse_config_text(out)
        assert reparsed == CONFIG_DEFAULTS

    def test_unknown_action_exits_2(self, capsys):
        assert main(["config", "bogus"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "invalid choice: 'bogus'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["predict", "--help"]])
    def test_help_returns_0(self, argv, capsys):
        # argparse's exit after the help is a return code, as its errors are
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: curvegp") and captured.err == ""


# a valid value other than the default, for the keys whose type does not give one
OTHER_VALUES = {"model.family": "periodic_rbf"}


def other_value(key: str, default) -> str:
    """Config text for a valid value of ``key`` other than its default."""
    if key in OTHER_VALUES:
        return OTHER_VALUES[key]
    if isinstance(default, (int, float)):
        return str(2 * default + 1)
    return default + "-other"


class TestConfigKeys:
    def test_keys_in_order(self):
        assert list(CONFIG_DEFAULTS) == [
            "model.family", "model.jitter", "opt.restarts", "opt.seed",
            "opt.maxiter"]

    def test_defaults_are_the_config_defaults(self):
        assert configs_from_values(CONFIG_DEFAULTS) == (ModelConfig(),
                                                         OptimizerConfig())

    @pytest.mark.parametrize("key", list(CONFIG_DEFAULTS))
    def test_every_key_reaches_the_configs(self, key):
        values = parse_config_text(f"{key} = {other_value(key, CONFIG_DEFAULTS[key])}")
        assert values[key] != CONFIG_DEFAULTS[key]
        assert configs_from_values(values) != configs_from_values(CONFIG_DEFAULTS)

    @pytest.mark.parametrize("key, value", [("output.dir", "elsewhere"),
                                            ("model.jitter_mode", "nugget"),
                                            ("opt.method", "anneal"),
                                            ("model.tau", "auto"),
                                            ("model.noise_lo", "1e-07"),
                                            ("model.noise_hi", "1e-3"),
                                            ("model.coord_rank", "2"),
                                            ("model.fit_group", "true"),
                                            ("model.fit_coord", "false"),
                                            ("model.fit_curve", "false"),
                                            ("model.curve_rank", "2"),
                                            ("model.group_rank", "1")])
    def test_removed_key_rejected_with_file_and_line(self, tmp_path, capsys,
                                                     key, value):
        curve = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "circle", "--n", "8",
                     "--out", curve]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"opt.restarts = 1\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["fit", "--inputs", curve, "--config", str(cfg),
                     "--out", str(tmp_path / "fit.json")]) == EXIT_VALIDATION
        assert f"{cfg}:2: unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("key, value, field", [
        ("opt.restarts", "0", "opt.restarts"),
        ("opt.maxiter", "-5", "opt.maxiter"),
        ("model.jitter", "-1", "model.jitter"),
        ("model.jitter", "inf", "model.jitter"),
        ("opt.seed", "-1", "opt.seed"),
        ("model.family", "foo", "model.family")])
    def test_value_out_of_range_exits_2_naming_the_field(self, tmp_path, capsys,
                                                         key, value, field):
        # these once exited 3 ("all restarts failed"), 0, or 2 with a
        # message that named no setting
        curve = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "circle", "--n", "8",
                     "--out", curve]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        short = "opt.restarts = 1" if key == "opt.maxiter" else "opt.maxiter = 5"
        cfg.write_text(f"{short}\n{key} = {value}\n")  # a key is set once
        capsys.readouterr()
        assert main(["fit", "--inputs", curve, "--config", str(cfg),
                     "--out", str(tmp_path / "fit.json")]) == EXIT_VALIDATION
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("command, flag", [("fit", "--seed"), ("predict", "--svg")])
    def test_removed_flag_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                     command, flag):
        # the fit's seed is the config key opt.seed, and `plot --pred` draws
        # a prediction
        curve = str(tmp_path / "c.csv")
        save_curve_csv(generate_synthetic("circle", 8), curve)
        fit_path = str(tmp_path / "fit.json")
        argv = {"fit": ["fit", "--inputs", curve, "--out", fit_path],
                "predict": ["predict", "--inputs", curve, "--fit", fit_path,
                            "--out", str(tmp_path / "pred.json")]}[command]
        assert main(argv + [flag, str(tmp_path / "x")]) == EXIT_VALIDATION
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.csv"]


class TestCurveCsv:
    def test_round_trip_exact(self, tmp_path):
        c = generate_synthetic("star", 17, noise_sd=0.01, rng_seed=3)
        path = str(tmp_path / "c.csv")
        save_curve_csv(c, path)
        loaded = load_curve_csv(path)
        assert np.array_equal(c.points, loaded.points)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(Exception, match="header"):
            load_curve_csv(str(path))

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\nnope\n")
        with pytest.raises(Exception, match=":3:"):
            load_curve_csv(str(path))

    @pytest.mark.parametrize("text, line", [
        ("x,y\n\n0,0\n1,0\n\nfoo,1\n", 6), ("x,y\n\n\n0,0\n1,0,2\n", 5),
        ("\n\na,b\n0,0\n", 3), ("", 1), ("\n \n", 1)])
    def test_error_names_the_file_line_blank_lines_counted(self, tmp_path, text, line):
        # blank lines were dropped before numbering: the bad row above was
        # reported on line 4, and a header error always on line 1
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:{line}: "):
            load_curve_csv(str(path))

    @pytest.mark.parametrize("points", [
        [[-0.0, 5e-324], [1e308, 1 / 3], [1 / 3, -1e308]],
        generate_synthetic("star", 200, noise_sd=0.01, rng_seed=3).points])
    def test_text_is_the_repr_of_each_coordinate(self, points):
        # points.tolist() gives each coordinate the repr that float(x)!r
        # gives its numpy scalar
        curve = Curve(np.array(points))
        rows = [f"{float(x)!r},{float(y)!r}" for x, y in curve.points]
        assert curve_to_csv(curve) == "\n".join(["x,y", *rows]) + "\n"


class TestSaveJson:
    def test_save_json_writes_one_compact_line(self, tmp_path):
        path = str(tmp_path / "obj.json")
        obj = {"a": [0.1, 1e-300, -2.5], "b": {"c": None, "d": "x"}}
        save_json(obj, path)
        text = Path(path).read_text()
        assert text == json.dumps(obj) + "\n"
        assert json.loads(text) == obj


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        argv = ["simulate", "--shape", "circle", "--n", "15", "--seed", "7",
                "--noise-sd", "0.02"]
        assert main(argv + ["--out", out1]) == EXIT_OK
        assert main(argv + ["--out", out2]) == EXIT_OK
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--shape", "star", "--n", "10",
                     "--amplitude", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("noise_sd", ["nan", "inf"])
    def test_non_finite_noise_sd_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                            noise_sd):
        # --noise-sd nan once exited 0 and wrote a curve with no noise
        out = tmp_path / "x.csv"
        code = main(["simulate", "--shape", "star", "--n", "10", "--seed", "1",
                     "--noise-sd", noise_sd, "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: noise_sd must be finite and >= 0, got {float(noise_sd)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes, name", [
        (["--shape", "circle", "--radius", "0"], "radius"),
        (["--shape", "circle", "--radius", "nan"], "radius"),
        (["--shape", "circle", "--radius", "inf"], "radius"),
        (["--shape", "star", "--radius", "-1"], "radius"),
        (["--shape", "ellipse", "--axes", "0", "0.5"], "axes[0]"),
        (["--shape", "ellipse", "--axes", "1", "-0.5"], "axes[1]")],
        ids=["circle-0", "circle-nan", "circle-inf", "star-neg", "ellipse-a-0", "ellipse-b-neg"])
    def test_size_that_is_not_positive_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                  sizes, name):
        # --radius 0 once printed a merge warning and a three-point error,
        # and --axes 0 0.5 and a star's --radius -1 wrote a curve
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", *sizes, "--n", "10", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {name} must be finite and > 0, got ")
        assert not out.exists()
        assert not caught


SRC = Path(__file__).resolve().parents[1] / "src"


def simulate_alone(argv, out):
    """The bytes ``curvegp simulate`` writes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "curvegp.cli", "simulate", *argv,
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    return out.read_bytes()


class TestParserReuse:
    """`main` parses every argv of a process with one parser."""

    AXES = ["--shape", "ellipse", "--n", "12", "--seed", "4", "--axes", "2", "1"]
    DEFAULT = ["--shape", "ellipse", "--n", "12", "--seed", "4"]

    def test_calls_in_one_process_write_what_each_writes_alone(self, tmp_path):
        assert main(["simulate", *self.AXES, "--out", str(tmp_path / "axes.csv")]) == EXIT_OK
        assert main(["simulate", *self.DEFAULT, "--out", str(tmp_path / "default.csv")]) == EXIT_OK
        assert (tmp_path / "axes.csv").read_bytes() == simulate_alone(self.AXES, tmp_path / "a.csv")
        assert (tmp_path / "default.csv").read_bytes() == simulate_alone(self.DEFAULT,
                                                                         tmp_path / "d.csv")

    def test_an_argparse_exit_leaves_the_next_parse_intact(self, tmp_path, capsys):
        assert main(["simulate", "--shape", "square", "--n", "12",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
        assert "invalid choice: 'square'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert main(["simulate", *self.DEFAULT, "--out", str(tmp_path / "default.csv")]) == EXIT_OK
        assert (tmp_path / "default.csv").read_bytes() == simulate_alone(self.DEFAULT,
                                                                         tmp_path / "d.csv")

    def test_no_parser_is_built_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        main(["config", "print-defaults"])
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["simulate", *self.DEFAULT, "--out", str(tmp_path / "d.csv")]) == EXIT_OK
        assert main(["config", "print-defaults"]) == EXIT_OK
        assert built == []


def valid_fit() -> dict:
    """A fit file of one curve with fixed hyperparameters."""
    return {"hyperparameters": {"family": "periodic_matern32", "sigma2": 0.5,
                                "rho": 0.2, "tau": 1.0},
            "noise": {"noise_variance": 1e-5, "jitter": 1e-3},
            "coregionalization": {"D": {"w": [[0.3], [0.1]], "kappa": [1.0, 1.0]}}}


def _at(path, edit):
    """A change to a fit dict that calls ``edit(entry, key)`` on the entry
    holding the last key of a dotted path."""
    def change(data):
        *parents, last = path.split(".")
        entry = data
        for key in parents:
            entry = entry[key]
        edit(entry, last)
        return data
    return change


def _without(path):
    """A change to a fit dict that deletes the key at a dotted path."""
    return _at(path, dict.pop)


def _setting(path, value):
    """A change to a fit dict that sets the key at a dotted path."""
    return _at(path, lambda entry, key: entry.__setitem__(key, value))


MALFORMED_FITS = {
    # name: (change to a valid fit dict, key the message names)
    "no-jitter": (_without("noise.jitter"), "noise.jitter"),
    # each non-finite noise value once exited 2 with numpy's "array must not
    # contain infs or NaNs", naming no key, and a negative one named neither
    # key exactly
    **{f"{value}-{key}": (_setting(f"noise.{key}", value), f"noise.{key}")
       for key in ("noise_variance", "jitter")
       for value in (float("nan"), float("inf"), float("-inf"), -1e-3)},
    # a nan W or kappa entry once passed CoregMatrix unchecked
    "nan-w": (_setting("coregionalization.D.w", [[0.3], [float("nan")]]),
              "coregionalization.D.w"),
    "nan-kappa": (_setting("coregionalization.D.kappa", [float("nan"), 1.0]),
                  "coregionalization.D.kappa"),
    # a negative kappa once went unnamed, and a 3-d W exited 1 with a
    # TypeError traceback from the coordinate basis
    "negative-kappa": (_setting("coregionalization.D.kappa", [-1.0, 1.0]),
                       "coregionalization.D"),
    "3d-w": (_setting("coregionalization.D.w", [[[0.3]], [[0.1]]]),
             "coregionalization.D"),
    "no-sigma2": (_without("hyperparameters.sigma2"), "hyperparameters.sigma2"),
    "no-noise": (_without("noise"), "fit file has no noise"),
    "string-sigma2": (lambda data: {**data, "hyperparameters": {
        **data["hyperparameters"], "sigma2": "abc"}}, "hyperparameters.sigma2"),
    "no-kappa": (_without("coregionalization.D.kappa"), "coregionalization.D.kappa"),
    "top-level-list": (lambda data: [data], "JSON object"),
    # the recorded log p the inputs are checked against must be a number
    **{f"{value}-log-p": (_setting("log_marginal_likelihood", value),
                          "log_marginal_likelihood") for value in (float("nan"), "abc")},
}


class TestFitPredictPipeline:
    def test_end_to_end(self, tmp_path):
        curve_path = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "circle", "--n", "10",
                     "--out", curve_path]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 2\nopt.maxiter = 80\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", curve_path, "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        data = read_json(fit_path)
        assert "hyperparameters" in data and "D" in data["coregionalization"]
        assert set(data["noise"]) == {"noise_variance", "jitter"}
        pred_path = str(tmp_path / "pred.json")
        svg_path = str(tmp_path / "pred.svg")
        assert main(["predict", "--inputs", curve_path, "--fit", fit_path,
                     "--m", "20", "--out", pred_path]) == EXIT_OK
        pred = read_json(pred_path)
        assert len(pred["means"]) == 20
        assert main(["plot", "--pred", pred_path, "--out", svg_path]) == EXIT_OK
        ET.parse(svg_path)  # well-formed XML

    @pytest.mark.parametrize("mode, code", [("constant", EXIT_OK),
                                            ("nugget", EXIT_VALIDATION)])
    def test_predict_checks_the_saved_jitter_mode(self, tmp_path, capsys, mode, code):
        # older fit files carry the jitter mode: "constant" is the kernel
        # still modeled, and a fit with diagonal (nugget) jitter is refused
        # rather than predicted under constant jitter
        curve_path = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "circle", "--n", "10",
                     "--out", curve_path]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 10\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", curve_path, "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        data = read_json(fit_path)
        data["noise"]["jitter_mode"] = mode
        save_json(data, fit_path)
        pred_path = tmp_path / "pred.json"
        capsys.readouterr()
        assert main(["predict", "--inputs", curve_path, "--fit", fit_path,
                     "--m", "10", "--out", str(pred_path)]) == code
        if code == EXIT_OK:
            assert len(read_json(pred_path)["means"]) == 10
        else:
            assert "noise.jitter_mode 'nugget'" in capsys.readouterr().err
            assert not pred_path.exists()

    @pytest.mark.parametrize("member, value", [
        ("method", "anneal"),
        ("constraint_report", {"passed": True, "violations": []})],
        ids=["method", "constraint_report"])
    def test_predict_ignores_the_saved_method(self, tmp_path, member, value):
        # older fit files name the optimizer and carry a constraint report;
        # these members describe how the fit was found, not the kernel, so
        # they are ignored
        curve_path = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "circle", "--n", "10",
                     "--out", curve_path]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 10\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", curve_path, "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        argv = ["predict", "--inputs", curve_path, "--fit", fit_path, "--m", "10",
                "--out"]
        assert main(argv + [str(tmp_path / "current.json")]) == EXIT_OK
        save_json({**read_json(fit_path), member: value}, fit_path)
        assert main(argv + [str(tmp_path / "older.json")]) == EXIT_OK
        assert ((tmp_path / "older.json").read_bytes()
                == (tmp_path / "current.json").read_bytes())

    @pytest.mark.parametrize("case", sorted(MALFORMED_FITS))
    def test_predict_on_malformed_fit_exit_2(self, tmp_path, capsys, case):
        # each of these once escaped as a KeyError or TypeError traceback
        # (exit 1) from io.kernel_from_dict
        curve_path = str(tmp_path / "c.csv")
        save_curve_csv(generate_synthetic("circle", 10), curve_path)
        fit_path = str(tmp_path / "fit.json")
        pred_path = tmp_path / "pred.json"
        argv = ["predict", "--inputs", curve_path, "--fit", fit_path,
                "--m", "10", "--out", str(pred_path)]
        save_json(valid_fit(), fit_path)
        assert main(argv) == EXIT_OK
        pred_path.unlink()
        change, key = MALFORMED_FITS[case]
        save_json(change(valid_fit()), fit_path)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not pred_path.exists()

    def test_fit_json_records_each_restart(self, tmp_path):
        paths = []
        for k in range(2):
            paths.append(str(tmp_path / f"c{k}.csv"))
            save_curve_csv(generate_synthetic("star", 8, rng_seed=k,
                                              noise_sd=0.01), paths[-1])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 3\nopt.maxiter = 4\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", *paths, "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        data = read_json(fit_path)
        # L-BFGS-B is the only optimizer; the record is written once, in the
        # model's diagnostics
        assert list(data) == ["hyperparameters", "noise", "coregionalization",
                              "log_marginal_likelihood", "nugget", "best_restart",
                              "restarts", "curve_labels"]
        records = data["restarts"]
        scores = [r["score"] for r in records]
        assert data["best_restart"] == int(np.argmax(scores))
        assert data["nugget"] in NUGGET_LADDER
        assert [r["restart"] for r in records] == [0, 1, 2]
        for record in records:
            assert list(record) == ["restart", "score", "nit", "nfev", "success",
                                    "message", "max_nugget"]
            assert isinstance(record["score"], float)
            assert record["max_nugget"] == 0.0
            assert 0 < record["nit"] <= 4 and record["nfev"] >= record["nit"]
            assert isinstance(record["success"], bool)
            assert isinstance(record["message"], str) and record["message"]
        # four iterations do not converge: the optimizer says so
        assert any(not r["success"] for r in records)

    def _grouped_fit(self, tmp_path):
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 10, rng_seed=k, noise_sd=0.01, amplitude=0.1 + 0.1 * k)))
            for k in range(3)]
        paths = []
        for k, curve in enumerate(curves):
            paths.append(str(tmp_path / f"c{k}.csv"))
            save_curve_csv(curve, paths[-1])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 30\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", *paths, "--labels", "a,b,a",
                     "--config", str(cfg), "--out", fit_path]) == EXIT_OK
        model = fit(TrainingDesign.from_curves(curves, ["a", "b", "a"]),
                    ModelConfig(), OptimizerConfig(restarts=1, maxiter=30))
        return paths, fit_path, model

    def test_predict_uses_fitted_group_labels(self, tmp_path):
        paths, fit_path, model = self._grouped_fit(tmp_path)
        assert read_json(fit_path)["curve_labels"] == ["a", "b", "a"]
        pred_path = str(tmp_path / "pred.json")
        assert main(["predict", "--inputs", *paths, "--fit", fit_path,
                     "--curve", "1", "--m", "15", "--out", pred_path]) == EXIT_OK
        pred = read_json(pred_path)
        expected = predict_curve(model, 1, 15)
        for key in ("grid", "means", "covariances"):  # bit for bit
            assert np.array(pred[key]).tobytes() == getattr(expected, key).tobytes()

    def test_labels_couple_curves_across_groups(self, tmp_path):
        # labels fit the group level, so curves in different groups share
        # covariance: with G held at I every cross-group entry would be 0.0
        paths = []
        for k, n in enumerate((10, 11, 12)):
            paths.append(str(tmp_path / f"c{k}.csv"))
            save_curve_csv(scale_to_unit_length(center(generate_synthetic(
                "star", n, rng_seed=k, noise_sd=0.01))), paths[-1])
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", *paths, "--labels", "a,b,a",
                     "--out", fit_path]) == EXIT_OK
        model = fit_result_from_dict(read_json(fit_path),
                                     [load_curve_csv(p) for p in paths])
        d = model.design
        K = multilevel_gram(model.kernel, d.s, j_a=d.j, curve_group=d.curve_group)
        g = d.curve_group[d.j]
        assert np.any(K[g[:, None] != g[None, :]] != 0.0)

    @pytest.mark.parametrize("labels", [5, [[1], [2], [1]], "aba", [1, 2, 1]])
    def test_predict_bad_curve_labels_exit_2(self, tmp_path, capsys, labels):
        # a fit writes curve_labels as a list of strings: a number or nested
        # lists once ended in a TypeError traceback (exit 1), and a string or
        # numbers were read as labels without complaint
        paths, fit_path, _ = self._grouped_fit(tmp_path)
        save_json({**read_json(fit_path), "curve_labels": labels}, fit_path)
        pred_path = tmp_path / "pred.json"
        capsys.readouterr()
        assert main(["predict", "--inputs", *paths, "--fit", fit_path,
                     "--out", str(pred_path)]) == EXIT_VALIDATION
        assert "curve_labels" in capsys.readouterr().err
        assert not pred_path.exists()

    def _pair_fit(self, tmp_path):
        """A star, an ellipse and a circle (30 points, noise sd 0.01, seeds
        1, 2, 3), and a fit of the star and the ellipse."""
        paths = []
        for k, shape in enumerate(("star", "ellipse", "circle"), start=1):
            paths.append(str(tmp_path / f"s{k}.csv"))
            assert main(["simulate", "--shape", shape, "--n", "30", "--noise-sd", "0.01",
                         "--seed", str(k), "--out", paths[-1]]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 30\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", *paths[:2], "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        return paths, fit_path

    @pytest.mark.parametrize("inputs", [(1, 0), (0, 2)], ids=["swapped", "foreign"])
    def test_predict_on_curves_the_fit_is_not_of_exit_2(self, tmp_path, capsys, inputs):
        # the fit's log p names its curves in their order: the swapped pair
        # and a foreign curve once predicted with exit 0
        paths, fit_path = self._pair_fit(tmp_path)
        saved = read_json(fit_path)["log_marginal_likelihood"]
        pred_path = tmp_path / "pred.json"
        capsys.readouterr()
        assert main(["predict", "--inputs", *(paths[i] for i in inputs), "--fit", fit_path,
                     "--out", str(pred_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: fit file: log_marginal_likelihood is "
                            rf"{re.escape(repr(saved))}, but these inputs give "
                            r"-?\d+\.\d+(e-?\d+)?: they are not the fitted curves in "
                            r"the fitted order\n", err)
        assert not pred_path.exists()

    def test_predict_on_the_fitted_curves_is_the_fit_bit_for_bit(self, tmp_path):
        paths, fit_path = self._pair_fit(tmp_path)
        curves = [load_curve_csv(p) for p in paths[:2]]
        model = fit(TrainingDesign.from_curves(curves), ModelConfig(),
                    OptimizerConfig(restarts=1, maxiter=30))
        assert read_json(fit_path)["log_marginal_likelihood"] == model.log_marginal_likelihood
        for curve in ("0", "1"):
            pred_path = tmp_path / f"pred{curve}.json"
            assert main(["predict", "--inputs", *paths[:2], "--fit", fit_path,
                         "--curve", curve, "--m", "15", "--out", str(pred_path)]) == EXIT_OK
            want = predict_curve(model, int(curve), 15)
            pred = read_json(pred_path)
            for key in ("grid", "means", "covariances"):
                assert np.array(pred[key]).tobytes() == getattr(want, key).tobytes()

    def test_fit_without_a_log_p_is_not_checked(self, tmp_path):
        # a hand-made fit file of hyperparameters and noise alone predicts
        # on any curves of its layout
        paths, fit_path = self._pair_fit(tmp_path)
        data = read_json(fit_path)
        del data["log_marginal_likelihood"]
        save_json(data, fit_path)
        pred_path = tmp_path / "pred.json"
        assert main(["predict", "--inputs", paths[1], paths[0], "--fit", fit_path,
                     "--out", str(pred_path)]) == EXIT_OK
        assert pred_path.exists()

    def test_predict_label_count_mismatch_exit_2(self, tmp_path):
        paths, fit_path, _ = self._grouped_fit(tmp_path)
        code = main(["predict", "--inputs", *paths[:2], "--fit", fit_path,
                     "--out", str(tmp_path / "pred.json")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("inputs, curve, message", [
        (2, "0", "curve level has 3 rows, but the design has 2 curves"),
        (4, "3", "curve level has 3 rows, but the design has 4 curves"),
        (3, "0", "group level has 2 rows, but the design has 1 groups")],
        ids=["C-on-2-curves", "C-on-4-curves", "G-on-1-group"])
    def test_predict_level_size_mismatch_exit_2(self, tmp_path, capsys, inputs,
                                                curve, message):
        # a 3-curve, 2-group fit without its labels: 2 inputs once predicted
        # with exit 0 from the first two rows of C, 4 inputs exited 2 naming
        # no key, and 3 inputs read as one group used G's 2 rows
        paths, fit_path, _ = self._grouped_fit(tmp_path)
        data = read_json(fit_path)
        del data["curve_labels"]
        save_json(data, fit_path)
        extra = str(tmp_path / "c3.csv")
        save_curve_csv(generate_synthetic("circle", 10), extra)
        pred_path = tmp_path / "pred.json"
        capsys.readouterr()
        code = main(["predict", "--inputs", *(paths + [extra])[:inputs], "--fit",
                     fit_path, "--curve", curve, "--out", str(pred_path)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not pred_path.exists()

    @pytest.mark.parametrize("edit", [
        {"hyperparameters.sigma2": 1e308, "coregionalization.C.w": [[10.0], [10.0]]},
        {"coregionalization.C.w": [[1e200], [1e200]]},
        {"coregionalization.D.w": [[1.0, 0.0], [1e200, 1.0]]}],
        ids=["sigma2-times-C", "C-w", "D-w"])
    def test_predict_overflowing_fit_exit_2(self, tmp_path, edit):
        # each overflows the training covariance: numpy's "array must not
        # contain infs or NaNs" once reached the user in place of the
        # message, and then its "overflow encountered" warning came before
        # it; a new interpreter shows stderr as a user sees it
        paths = []
        for k in range(2):
            paths.append(str(tmp_path / f"c{k}.csv"))
            save_curve_csv(generate_synthetic("star", 8, rng_seed=k,
                                              noise_sd=0.01), paths[-1])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 10\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", *paths, "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        data = read_json(fit_path)
        for path, value in edit.items():
            _setting(path, value)(data)
        save_json(data, fit_path)
        pred_path = tmp_path / "pred.json"
        src = Path(curvegp.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "curvegp.cli", "predict", "--inputs", *paths,
             "--fit", fit_path, "--out", str(pred_path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr == ("error: the training covariance is not finite: the "
                               "kernel's sigma2 or level matrices are too large\n")
        assert not pred_path.exists()

    @pytest.mark.parametrize("curve", ["2", "-1"])
    def test_predict_curve_out_of_range_exit_2(self, tmp_path, capsys, curve):
        paths = []
        for k in range(2):
            paths.append(str(tmp_path / f"c{k}.csv"))
            save_curve_csv(generate_synthetic("star", 8, rng_seed=k,
                                              noise_sd=0.01), paths[-1])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 10\n")
        fit_path = str(tmp_path / "fit.json")
        assert main(["fit", "--inputs", *paths, "--config", str(cfg),
                     "--out", fit_path]) == EXIT_OK
        code = main(["predict", "--inputs", *paths, "--fit", fit_path,
                     "--curve", curve, "--out", str(tmp_path / "pred.json")])
        assert code == EXIT_VALIDATION
        assert "out of range" in capsys.readouterr().err
        assert not (tmp_path / "pred.json").exists()

    def test_fit_two_point_curve_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,0\n1,0\n")
        code = main(["fit", "--inputs", str(bad), "--out", str(tmp_path / "f.json")])
        assert code == EXIT_VALIDATION

    def test_fit_non_finite_coordinate_exit_2(self, tmp_path, capsys):
        # the curve rejects the nan as it is read, before any arithmetic on it
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,0\n1,0\n1,nan\n0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--inputs", str(bad),
                         "--out", str(tmp_path / "f.json")])
        assert code == EXIT_VALIDATION
        assert "curve point 2 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_missing_file_exit_4(self, tmp_path):
        code = main(["fit", "--inputs", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.json")])
        assert code == EXIT_IO


class TestMetricsCommand:
    def test_identical_pair_zero(self, tmp_path):
        path = str(tmp_path / "c.csv")
        main(["simulate", "--shape", "ellipse", "--n", "40", "--out", path])
        out = str(tmp_path / "metrics.json")
        assert main(["metrics", "--pair", path, path, "--m", "40",
                     "--out", out]) == EXIT_OK
        report = read_json(out)
        assert report["imspe"] == pytest.approx(0.0, abs=1e-12)
        assert report["wasserstein2"] == pytest.approx(0.0, abs=1e-12)
        assert report["esd"] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("m", [5, 7])
    def test_m_below_eight_names_m(self, tmp_path, capsys, m):
        # esd registers on a grid of min(m, 100) points, which needs 8: the
        # error named grid_size, a parameter the command does not take
        path = str(tmp_path / "c.csv")
        main(["simulate", "--shape", "ellipse", "--n", "40", "--out", path])
        capsys.readouterr()
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--pair", path, path, "--m", str(m),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: m must be a whole number >= 8, got {m}\n"
        assert not out.exists()
        assert main(["metrics", "--pair", path, path, "--m", "8",
                     "--out", str(out)]) == EXIT_OK


class TestRegisterCommand:
    def test_register_outputs(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["simulate", "--shape", "circle", "--n", "40", "--out", a])
        main(["simulate", "--shape", "ellipse", "--n", "40", "--out", b])
        out = str(tmp_path / "reg.json")
        assert main(["register", "--source", b, "--target", a, "--grid", "40",
                     "--out", out]) == EXIT_OK
        reg = read_json(out)
        assert len(reg["gamma"]) == 41
        diffs = np.diff(reg["energies"])
        assert np.all(diffs <= 1e-12)

    def test_register_esd_equals_library_esd(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["simulate", "--shape", "star", "--n", "45", "--out", a])
        main(["simulate", "--shape", "ellipse", "--n", "35", "--out", b])
        out = str(tmp_path / "reg.json")
        assert main(["register", "--source", b, "--target", a, "--grid", "50",
                     "--out", out]) == EXIT_OK
        expected = esd(load_curve_csv(a), load_curve_csv(b), grid_size=50)
        assert read_json(out)["esd"] == expected


class TestPreprocessCommand:
    def test_writes_aligned_curves(self, tmp_path):
        paths = []
        for i, shape in enumerate(["star", "star"]):
            p = str(tmp_path / f"c{i}.csv")
            main(["simulate", "--shape", shape, "--n", "20", "--seed", str(i),
                  "--noise-sd", "0.01", "--out", p])
            paths.append(p)
        outdir = str(tmp_path / "out")
        assert main(["preprocess", "--inputs", *paths, "--outdir", outdir]) == EXIT_OK
        report = read_json(os.path.join(outdir, "alignment.json"))
        assert len(report) == 2
        assert os.path.exists(os.path.join(outdir, "c0_pre.csv"))

    def test_curve_far_from_the_origin_keeps_every_point(self, tmp_path):
        # written as text: at the old closure test the 40th point of this
        # star was silently dropped
        star = generate_synthetic("star", 40).points + [1e6, 2e6]
        path = tmp_path / "far.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in star.tolist()))
        outdir = tmp_path / "out"
        assert main(["preprocess", "--inputs", str(path), "--outdir", str(outdir)]) == EXIT_OK
        assert load_curve_csv(str(outdir / "far_pre.csv")).n == 40


class TestSharedStem:
    """Each input's outputs are named after its file stem, so two inputs
    with one stem exit 2, naming both, before anything is written."""

    @pytest.mark.parametrize("names", [("a/c.csv", "b/c.csv"), ("c.csv", "c.txt")])
    @pytest.mark.parametrize("command", ["preprocess", "reconstruct"])
    def test_exits_2_naming_both_and_writes_nothing(self, tmp_path, capsys, command,
                                                    names):
        paths = []
        for seed, name in enumerate(names):
            path = tmp_path / "in" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            save_curve_csv(generate_synthetic("star", 10, noise_sd=0.01, rng_seed=seed),
                           str(path))
            paths.append(str(path))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 20\n")
        outdir = tmp_path / "out"
        argv = [command, "--inputs", *paths, "--outdir", str(outdir)]
        if command == "reconstruct":
            argv += ["--config", str(cfg), "--m", "12"]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{paths[0]!r} and {paths[1]!r} share the file stem 'c'" in err
        assert not outdir.exists()


class TestReconstructCommand:
    def test_creates_its_output_directory(self, tmp_path):
        curve = str(tmp_path / "c.csv")
        assert main(["simulate", "--shape", "ellipse", "--n", "8",
                     "--out", curve]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 20\n")
        assert main(["reconstruct", "--inputs", curve, "--config", str(cfg),
                     "--m", "12", "--outdir", str(tmp_path / "a" / "recon")]) == EXIT_OK
        assert sorted(os.listdir(tmp_path / "a" / "recon")) == [
            "c_mean.csv", "c_pred.json", "fit.json"]


class TestCheckedBeforeTheFit:
    """A bad prediction count, sequential weight or candidate count exits 2
    with the library's message before any fit runs."""

    @pytest.mark.parametrize("argv, message", [
        (["reconstruct", "--m", "2"], "m must be a whole number >= 3, got 2"),
        (["landmarks", "--mode", "sequential", "--lam", "2"],
         "lambda weight must lie in [0, 1]"),
        (["landmarks", "--mode", "sequential", "--candidates", "5"],
         "n_candidates must be a whole number >= 10, got 5")],
        ids=["reconstruct-m", "sequential-lam", "sequential-candidates"])
    def test_exits_2_without_fitting(self, tmp_path, capsys, monkeypatch, argv, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")
        monkeypatch.setattr("curvegp.model.fit", no_fit)
        monkeypatch.setattr("curvegp.applications.fit", no_fit)
        curve = str(tmp_path / "s.csv")
        save_curve_csv(generate_synthetic("star", 8), curve)
        out = ["--outdir", str(tmp_path / "out")] if argv[0] == "reconstruct" else [
            "--out", str(tmp_path / "out.json")]
        capsys.readouterr()
        assert main([*argv, "--inputs", curve, *out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["s.csv"]


class TestLandmarksCommand:
    def test_score_is_the_best_trial_score(self, tmp_path):
        curve = str(tmp_path / "s.csv")
        assert main(["simulate", "--shape", "star", "--n", "8", "--petals", "3",
                     "--amplitude", "0.15", "--out", curve]) == EXIT_OK
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 30\n")
        out = str(tmp_path / "landmarks.json")
        assert main(["landmarks", "--inputs", curve, "--p", "4", "--n-trials", "3",
                     "--seed", "2", "--config", str(cfg), "--out", out]) == EXIT_OK
        data = read_json(out)
        assert set(data) == {"p", "best_indices", "best_params", "score", "trials"}
        assert data["score"] == min(trial["score"] for trial in data["trials"])

    def test_sequential_mode_writes_the_sequential_landmark(self, tmp_path):
        # --mode sequential fits the curves and writes sequential_landmark's
        # choice on that fit
        curve = str(tmp_path / "s.csv")
        save_curve_csv(generate_synthetic("star", 8, petals=3, amplitude=0.15), curve)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("opt.restarts = 1\nopt.maxiter = 30\n")
        out = str(tmp_path / "landmarks.json")
        assert main(["landmarks", "--inputs", curve, "--mode", "sequential",
                     "--lam", "0.3", "--candidates", "50", "--config", str(cfg),
                     "--out", out]) == EXIT_OK
        model = fit(TrainingDesign.from_curves([load_curve_csv(curve)]),
                    *configs_from_values(parse_config_text(cfg.read_text())))
        assert read_json(out) == {"lambda": 0.3, "selected_param": sequential_landmark(
            model, lam=0.3, n_candidates=50)}

    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, capsys):
        # numpy once rejected it with "expected non-negative integer"
        curve = str(tmp_path / "s.csv")
        save_curve_csv(generate_synthetic("star", 8), curve)
        out = tmp_path / "landmarks.json"
        capsys.readouterr()
        assert main(["landmarks", "--inputs", curve, "--p", "4", "--n-trials", "2",
                     "--seed", "-1", "--out", str(out)]) == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


def valid_prediction() -> dict:
    """A prediction file of three grid points."""
    return {"grid": [0.0, 1.0, 2.0], "means": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "covariances": [np.eye(2).tolist()] * 3}


def _set(key, value):
    """A change to a prediction dict that sets one key."""
    return lambda data: {**data, key: value}


MALFORMED_PREDICTIONS = {
    # name: (change to a valid prediction dict, part of the message)
    "nan-mean": (_set("means", [[0.0, 0.0], [float("nan"), 0.0], [0.0, 1.0]]),
                 "means"),
    "no-grid": (_without("grid"), "grid"),
    "short-covariances": (_set("covariances", [np.eye(2).tolist()] * 2),
                          "covariances"),
    "inf-covariance": (_set("covariances", [[[float("inf"), 0.0], [0.0, 1.0]]]
                            + [np.eye(2).tolist()] * 2), "covariances"),
    "one-coordinate-means": (_set("means", [[0.0], [1.0], [0.0]]), "means"),
    "string-grid": (_set("grid", ["a", "b", "c"]), "grid"),
    "top-level-list": (lambda data: [data], "prediction file has no grid"),
}


class TestPlotCommand:
    @pytest.mark.parametrize("case", sorted(MALFORMED_PREDICTIONS))
    def test_malformed_prediction_exits_2_and_writes_no_svg(self, tmp_path, capsys,
                                                             case):
        # a nan mean once went into the SVG with exit 0, a file without grid
        # exited 1 with a KeyError traceback, and short covariances exit 0
        pred, svg = tmp_path / "pred.json", tmp_path / "out" / "p.svg"
        argv = ["plot", "--pred", str(pred), "--out", str(svg)]
        save_json(valid_prediction(), str(pred))
        assert main(argv) == EXIT_OK
        svg.unlink()
        change, key = MALFORMED_PREDICTIONS[case]
        save_json(change(valid_prediction()), str(pred))
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf", "-inf"])
    def test_scale_not_finite_and_positive_exits_2_and_writes_no_svg(
            self, tmp_path, capsys, scale):
        # a negative, zero or nan scale once exited 0 and wrote negative,
        # zero or nan ellipse radii into the SVG
        pred, svg = tmp_path / "pred.json", tmp_path / "out" / "p.svg"
        save_json(valid_prediction(), str(pred))
        argv = ["plot", "--pred", str(pred), "--out", str(svg), f"--scale={scale}"]
        assert main(argv) == EXIT_VALIDATION
        assert (capsys.readouterr().err
                == f"error: scale must be finite and > 0, got {float(scale)}\n")
        assert not svg.exists()

    def test_positive_scale_sizes_the_ellipses(self, tmp_path):
        pred = tmp_path / "pred.json"
        save_json(valid_prediction(), str(pred))
        radii = {}
        for scale in ("0.5", "2"):
            svg = tmp_path / f"p{scale}.svg"
            assert main(["plot", "--pred", str(pred), "--out", str(svg),
                         "--scale", scale]) == EXIT_OK
            radii[scale] = [float(e.get("rx")) for e in ET.parse(svg).iter()
                            if e.tag.endswith("ellipse")]
        assert len(radii["2"]) == 3
        assert np.allclose(radii["2"], [4 * r for r in radii["0.5"]])


class TestNonFiniteCurvePoint:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["plot", "landmarks", "preprocess",
                                         "register", "metrics"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, value):
        # plot --observed once wrote an SVG holding nan, landmarks exited 3
        # ("every landmark trial failed to fit"), and preprocess, register
        # and metrics exited 2 with a numpy message about the SVD or matrix
        star = generate_synthetic("star", 8, petals=3, amplitude=0.15)
        good, bad = str(tmp_path / "good.csv"), tmp_path / "bad.csv"
        save_curve_csv(star, good)
        lines = Path(good).read_text().splitlines()
        lines[4] = f"{value},0.5"  # the fourth point
        bad.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "pred.json"
        save_json({"grid": [0.0, 1.0, 2.0], "means": [[0, 0], [1, 0], [0, 1]],
                   "covariances": [np.eye(2).tolist()] * 3}, str(pred))
        out = tmp_path / "out"
        argv = {"plot": ["--pred", str(pred), "--observed", str(bad),
                         "--out", str(out / "p.svg")],
                "landmarks": ["--inputs", str(bad), "--p", "4", "--n-trials", "2",
                              "--out", str(out / "l.json")],
                "preprocess": ["--inputs", good, str(bad), "--outdir", str(out)],
                "register": ["--source", str(bad), "--target", good,
                             "--out", str(out / "r.json")],
                "metrics": ["--pair", good, str(bad), "--out", str(out / "m.json")]}
        capsys.readouterr()
        assert main([command, *argv[command]]) == EXIT_VALIDATION
        assert "curve point 3 is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSvg:
    def make_pred(self, m=12):
        c = scale_to_unit_length(center(generate_synthetic("circle", 8)))
        model = fit(TrainingDesign.from_curves([c]), ModelConfig(),
                    OptimizerConfig(restarts=1, maxiter=60, seed=0))
        return predict_curve(model, 0, m), c

    def test_one_ellipse_per_grid_point(self):
        pred, obs = self.make_pred(12)
        doc = emit_svg(pred, observed=obs, title="demo")
        root = ET.fromstring(doc)
        ellipses = root.findall(".//{http://www.w3.org/2000/svg}ellipse")
        assert len(ellipses) == 12

    @pytest.mark.parametrize("title", ["a & b", "<x>", "1 > 0 < 2", "\"q\" 'q'",
                                       "&amp; <&>", ""])
    def test_title_escaped_as_by_saxutils(self, title):
        from xml.sax.saxutils import escape
        pred = PredictedCurve(grid=np.arange(3) / 3, means=np.eye(3, 2),
                              covariances=np.zeros((3, 2, 2)))
        doc = emit_svg(pred, title=title)
        if title:
            assert f"<title>{escape(title)}</title>" in doc
            assert ET.fromstring(doc).find(
                "{http://www.w3.org/2000/svg}title").text == title
        else:
            assert "<title>" not in doc

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_scale_not_finite_and_positive_rejected(self, scale):
        # a negative or nan scale once wrote rx="-0.1" or rx="nan"
        pred = PredictedCurve(grid=np.arange(3) / 3, means=np.eye(3, 2),
                              covariances=np.tile(np.eye(2), (3, 1, 1)))
        with pytest.raises(ValidationError,
                           match=re.escape(f"scale must be finite and > 0, got {scale}")):
            emit_svg(pred, scale=scale)

    def test_zero_covariance_degenerate(self):
        pred = PredictedCurve(grid=np.arange(5) / 5,
                              means=np.ones((5, 2)),
                              covariances=np.zeros((5, 2, 2)))
        root = ET.fromstring(emit_svg(pred))
        for el in root.findall(".//{http://www.w3.org/2000/svg}ellipse"):
            assert float(el.get("rx")) == 0.0
            assert float(el.get("ry")) == 0.0

    def test_diagonal_covariance_axis_aligned(self):
        covs = np.tile(np.diag([0.04, 0.01]), (4, 1, 1))
        pred = PredictedCurve(grid=np.arange(4) / 4,
                              means=np.zeros((4, 2)), covariances=covs)
        root = ET.fromstring(emit_svg(pred))
        for el in root.findall(".//{http://www.w3.org/2000/svg}ellipse"):
            angle = float(el.get("transform").split("(")[1].split(" ")[0])
            assert angle % 90.0 == pytest.approx(0.0, abs=1e-9)
