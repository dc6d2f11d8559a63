import argparse
import json
import os
import random
import re
import subprocess
import sys
import warnings

import pytest

import wavecert
from wavecert.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CERTIFIED,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    _build_parser,
    main,
    parse_config_text,
)
from wavecert.bundled import config_text
from wavecert.errors import ConfigError
from wavecert.expr import differentiate, evaluate, parse, render
from wavecert.rays import fan
from wavecert.report import dumps_stable, strip_duration

VERIFY_OK = """
# classical multiplier configuration
[problem]
A.diagonal = true
A.entries = ["1", "1"]
weight = "(x1^2 + x2^2)/2"

[region]
dim = 2
box = [[1, 3], [-1, 1]]
constraints = ["(x1 - 2)^2 + x2^2 - 1"]

[options]
resolution = 17
threads = 1
"""

VERIFY_BAD_GRADIENT = VERIFY_OK.replace(
    'box = [[1, 3], [-1, 1]]', 'box = [[-1, 1], [-1, 1]]'
).replace(
    'constraints = ["(x1 - 2)^2 + x2^2 - 1"]', 'constraints = ["x1^2 + x2^2 - 1"]'
)

CONSTRUCT_OK = """
[problem]
A.diagonal = true
A.entries = ["exp(x1 + x2)", "exp(x1 + x2)"]

[region]
dim = 2
box = [[1, 3], [-1, 1]]
constraints = ["(x1 - 2)^2 + x2^2 - 1"]

[options]
resolution = 17
threads = 1
"""

# A = cos(4 pi (x1 - 1))^2 - 1/2 is positive on the 5-point search grid, and
# -1/2 at x1 = 1.125 on the refined grid of 9
CONSTRUCT_REFINED_NOT_DEFINITE = """
[problem]
A.diagonal = true
A.entries = ["cos(12.566370614359172*(x1 - 1))^2 - 0.5"]

[region]
dim = 1
box = [[1, 2]]

[options]
resolution = 5
"""

# a diagonal field that is not positive definite on the unit square
CONSTRUCT_NOT_DEFINITE = """
[problem]
A.diagonal = true
A.entries = ["x2 - 0.5", "x1 - 0.5"]

[region]
dim = 2
box = [[0, 1], [0, 1]]

[options]
resolution = 17
threads = 1
"""

CONSTRUCT_HOPELESS = """
[problem]
A.diagonal = true
A.entries = ["1 + x1^2 + x2^2", "1 + x1^2 + x2^2"]

[region]
dim = 2
box = [[-1.4142135623730951, 1.4142135623730951], [-1.4142135623730951, 1.4142135623730951]]
constraints = ["x1^2 + x2^2 - 2"]

[options]
resolution = 17
threads = 1
lambda_max = 64
"""

CURVATURE_CFG = """
[problem]
A.diagonal = true
A.entries = ["exp(mu1*x1)", "exp(-mu2*x1^2)"]
constants = {"mu1": 0.5, "mu2": 0.1}

[region]
dim = 2
box = [[0.7752551286084111, 3.224744871391589], [-1.224744871391589, 1.224744871391589]]
constraints = ["(x1 - 2)^2 + x2^2 - 1.5"]

[options]
resolution = 17
threads = 1
"""

RAYS_CFG = """
[problem]
A.diagonal = true
A.entries = ["1", "1"]

[region]
dim = 2
box = [[-1.4142135623730951, 1.4142135623730951], [-1.4142135623730951, 1.4142135623730951]]
constraints = ["x1^2 + x2^2 - 2"]

[options]
resolution = 9
count = 8
horizon = 5
step = 0.001
center = [0, 0]
threads = 1
"""

# constant full 3D field whose smallest eigenvalue sits at rounding level:
# depending on the LAPACK build it is reported as nonpositive (exit 2) or the
# pencil's Cholesky factorization of A breaks down (exit 4)
VERIFY_NEAR_SINGULAR_3D = """
[problem]
A.diagonal = false
A.entries = ["0.1694396984756563", "0.42913033744089385", "-0.0529087922503212", "1.0868341254667249", "-0.13399910455596403", "0.016521159578136563"]
weight = "(x1^2 + x2^2 + x3^2)/2"

[region]
dim = 3
box = [[1, 3], [-1, 1], [-1, 1]]
constraints = ["(x1 - 2)^2 + x2^2 + x3^2 - 1"]

[options]
resolution = 5
"""


# the weight's Hessian times A^2 leaves double range inside the disk, though
# every exponential stays below the 1e300 guard
VERIFY_OVERFLOW = """
[problem]
A.diagonal = true
A.entries = ["exp(x1^3 + x2^3)", "exp(x1^3 + x2^3)"]
weight = "exp(230*x1)"

[region]
dim = 2
box = [[1, 3], [1, 3]]
constraints = ["(x1 - 2)^2 + (x2 - 2)^2 - 1"]

[options]
resolution = 33
"""


# the search grid (82 per axis) fits the grid budget; the re-check's (163) does not
CONSTRUCT_3D_OVER_BUDGET = """
[problem]
A.diagonal = true
A.entries = ["exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)"]

[region]
dim = 3
box = [[1, 3], [-1, 1], [-1, 1]]
constraints = ["(x1 - 2)^2 + x2^2 + x3^2 - 1"]

[options]
resolution = 82
"""

# CI's 3-D configs: the ball of the search above at resolution 17, and a full
# field on it
CONSTRUCT_3D = CONSTRUCT_3D_OVER_BUDGET.replace("resolution = 82", "resolution = 17")
FULL_3D_ENTRIES = [
    "2 + 0.3*sin(x1*x2)", "0.1*cos(x2)", "0.05*x3",
    "2 + 0.3*exp(-x2^2)", "0.1*sin(x1*x3)", "1.5 + log(1 + x1^2)/8",
]
VERIFY_FULL_3D = f"""
[problem]
A.diagonal = false
A.entries = {json.dumps(FULL_3D_ENTRIES)}
weight = "(x1^2 + x2^2 + x3^2)/2"

[region]
dim = 3
box = [[1, 3], [-1, 1], [-1, 1]]
constraints = ["(x1 - 2)^2 + x2^2 + x3^2 - 1"]

[options]
resolution = 21
"""

# a full 4-D field on the 4-ball of the same center: no closed-form screen
FULL_4D_ENTRIES = [
    "2 + 0.3*sin(x1*x2)", "0.1*cos(x2)", "0.05*x3", "0.02*x4",
    "2 + 0.3*exp(-x2^2)", "0.1*sin(x1*x3)", "0.03*cos(x4)",
    "1.5 + log(1 + x1^2)/8", "0.05*x1*x4",
    "1.8 + 0.1*x4^2",
]
VERIFY_FULL_4D = f"""
[problem]
A.diagonal = false
A.entries = {json.dumps(FULL_4D_ENTRIES)}
weight = "(x1^2 + x2^2 + x3^2 + x4^2)/2"

[region]
dim = 4
box = [[1, 3], [-1, 1], [-1, 1], [-1, 1]]
constraints = ["(x1 - 2)^2 + x2^2 + x3^2 + x4^2 - 1"]

[options]
resolution = 11
"""

# a power literal beyond double range: not folded at parse time, it evaluates
# to a non-finite coefficient
VERIFY_HUGE_POWER = VERIFY_OK.replace(
    'A.entries = ["1", "1"]', 'A.entries = ["1 + 1e-300^-2*0", "1"]'
)


# the first constraint keeps the second's log to x1 >= 0.5
VERIFY_GUARDED = VERIFY_OK.replace(
    'box = [[1, 3], [-1, 1]]', 'box = [[-1, 3], [-1, 1]]'
).replace(
    'constraints = ["(x1 - 2)^2 + x2^2 - 1"]',
    'constraints = ["0.5 - x1", "log(x1) - 1 + x2^2"]',
)

def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_round_trip_sections(self):
        sections = parse_config_text(VERIFY_OK)
        assert sections["problem"]["A.diagonal"] is True
        assert sections["region"]["dim"] == 2
        assert sections["options"]["resolution"] == 17

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[problem]\nA.diagonal = true\ntypo_key = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[problems]\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[region]\ndim = 2\ndim = 3\n")

    def test_bad_json_value(self):
        with pytest.raises(ConfigError, match="bad JSON"):
            parse_config_text("[region]\ndim = two\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[problem]\nA.diagonal\n", "line 2: expected 'key = value'"),
            ("A.diagonal = true\n[problem]\n", "line 1: key outside any section"),
        ],
    )
    def test_malformed_line(self, tmp_path, capsys, text, message):
        assert main(["verify", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing"):
            RunConfig.from_text("[problem]\nA.diagonal = true\n")

    def test_dimension_mismatch(self):
        cfg = RunConfig.from_text(
            '[problem]\nA.diagonal = true\nA.entries = ["1", "1", "1"]\n'
            "[region]\ndim = 2\nbox = [[0, 1], [0, 1]]\n"
        )
        with pytest.raises(ConfigError, match="dimension"):
            cfg.build_field()

    def test_readme_config_example_is_a_valid_config(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as handle:
            block = re.search(r"```ini\n(.*?)```", handle.read(), re.DOTALL).group(1)
        cfg = RunConfig.from_text(block)
        assert cfg.entries == ["exp(x1 + x2)", "exp(x1 + x2)"]
        assert cfg.options["force_j"] == 1 and cfg.options["center"] == [0, 0]

    def test_module_docstring_config_example_is_a_valid_config(self):
        import wavecert.cli as cli

        block = re.search(r"::\n\n(.*?)\n\n(?=\S)", cli.__doc__, re.DOTALL).group(1)
        cfg = RunConfig.from_text(block)
        assert cfg.weight_text == "(x1^2 + x2^2)/2" and cfg.constants == {"mu1": 0.5}
        assert cfg.options["force_j"] == 1 and cfg.options["center"] == [0, 0]

    def test_readme_library_example_prints_what_its_comments_state(self, capsys):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as handle:
            block = re.search(r"```python\n(.*?)```", handle.read(), re.DOTALL).group(1)
        namespace = {}
        exec(block, namespace)
        lam, margin, verdict = capsys.readouterr().out.split()
        assert lam == "1.0009765625" and margin.startswith("0.0607")
        assert verdict == "certified" and namespace["cert"].refinement_report.resolution == 65


class TestVerifyCommand:
    def test_certified_exit_zero(self, tmp_path, capsys):
        code = main(["verify", "--config", write(tmp_path, VERIFY_OK)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "certified" in out

    def test_failed_gradient_exit_two(self, tmp_path):
        code = main(["verify", "--config", write(tmp_path, VERIFY_BAD_GRADIENT)])
        assert code == EXIT_NOT_CERTIFIED

    def test_guarding_constraint_is_evaluated_in_order(self, tmp_path):
        out = tmp_path / "guarded.json"
        code = main(["verify", "--config", write(tmp_path, VERIFY_GUARDED), "--json", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "certified"

    def test_missing_weight_is_config_error(self, tmp_path):
        code = main(["verify", "--config", write(tmp_path, CONSTRUCT_OK)])
        assert code == EXIT_CONFIG

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_json_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "--config", write(tmp_path, VERIFY_OK), "--json", str(out)])
        text = out.read_text()
        assert '"verdict": "certified"' in text
        assert '"duration_seconds"' in text

    def test_dump_grid(self, tmp_path):
        dump = tmp_path / "grid.csv"
        main(
            [
                "verify",
                "--config",
                write(tmp_path, VERIFY_OK),
                "--dump-grid",
                str(dump),
            ]
        )
        assert dump.read_text().startswith("x1,x2,eig_min_pencil")

    def test_resolution_flag_overrides(self, tmp_path):
        out = tmp_path / "r.json"
        main(
            [
                "verify", "--config", write(tmp_path, VERIFY_OK),
                "--resolution", "9", "--json", str(out),
            ]
        )
        assert '"resolution": 9' in out.read_text()

    def test_near_singular_field_exits_cleanly(self, tmp_path):
        code = main(["verify", "--config", write(tmp_path, VERIFY_NEAR_SINGULAR_3D)])
        assert code in {EXIT_NOT_CERTIFIED, EXIT_NUMERIC}

    def test_threads_echo_is_requested_value(self, tmp_path, monkeypatch):
        unset = RunConfig.from_text(VERIFY_OK.replace("threads = 1\n", "")).echo()
        one = RunConfig.from_text(VERIFY_OK).echo()
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert RunConfig.from_text(VERIFY_OK.replace("threads = 1\n", "")).echo() == unset
        assert RunConfig.from_text(VERIFY_OK).echo() == one
        assert unset["options"]["threads"] is None
        assert one["options"]["threads"] == 1
        out = tmp_path / "r.json"
        main(
            [
                "verify", "--config", write(tmp_path, VERIFY_OK),
                "--threads", "3", "--json", str(out),
            ]
        )
        assert json.loads(out.read_text())["config"]["options"]["threads"] == 3


class TestConstructCommand:
    def test_certificate_emitted(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(
            ["construct", "--config", write(tmp_path, CONSTRUCT_OK), "--json", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert '"sign_case": "positive"' in text
        assert '"axis": 1' in text
        stdout = capsys.readouterr().out
        assert "lambda" in stdout

    @pytest.mark.parametrize(
        "text,verdict,resolution",
        [
            (config_text("isotropic-exp"), "certified", 65),
            (config_text("cubic-exp"), "failed_positivity", 65),
            (CONSTRUCT_REFINED_NOT_DEFINITE, "failed_coefficient", 9),
        ],
        ids=["isotropic-exp-certified", "cubic-exp-failed_positivity", "1d-failed_coefficient"],
    )
    def test_refinement_is_printed(self, tmp_path, capsys, text, verdict, resolution):
        # the re-check of the certified weight on the 2r - 1 grid
        assert main(["construct", "--config", write(tmp_path, text)]) == EXIT_OK
        assert f"\n  refinement: {verdict} at {resolution}\n" in capsys.readouterr().out

    def test_no_admissible_index(self, tmp_path):
        out = tmp_path / "na.json"
        code = main(
            [
                "construct",
                "--config",
                write(tmp_path, CONSTRUCT_HOPELESS),
                "--json",
                str(out),
            ]
        )
        assert code == EXIT_NOT_CERTIFIED
        report = out.read_text()
        assert '"verdict": "no_admissible_index"' in report
        assert '"sign_ranges"' in report

    def test_forced_axis_exhausts_budget(self, tmp_path):
        out = tmp_path / "forced.json"
        code = main(
            [
                "construct",
                "--config", write(tmp_path, CONSTRUCT_HOPELESS),
                "--force-j", "1",
                "--json", str(out),
            ]
        )
        assert code == EXIT_NOT_CERTIFIED
        assert '"verdict": "lambda_max_exceeded"' in out.read_text()

    @pytest.mark.parametrize("flags", [[], ["--force-j", "1"]])
    def test_field_not_definite_checks_no_weight(self, tmp_path, monkeypatch, flags):
        from wavecert.coeff import CoefficientField
        from wavecert.condition import GridProblem

        def refuse(*args, **kwargs):
            raise AssertionError("a weight or a partial of A was evaluated")

        monkeypatch.setattr(GridProblem, "check", refuse)
        monkeypatch.setattr(CoefficientField, "partial_values", refuse)
        out = tmp_path / "npd.json"
        argv = ["construct", "--config", write(tmp_path, CONSTRUCT_NOT_DEFINITE), *flags]
        assert main([*argv, "--json", str(out)]) == EXIT_NOT_CERTIFIED
        report = json.loads(out.read_text())
        assert report["verdict"] == "failed_coefficient"
        assert report["result"]["alpha_min"] == -0.5
        assert report["result"]["margin"] is None

    def test_field_not_definite_prints_no_null_values(self, tmp_path, capsys):
        argv = ["construct", "--config", write(tmp_path, CONSTRUCT_NOT_DEFINITE)]
        assert main(argv) == EXIT_NOT_CERTIFIED
        out = capsys.readouterr().out
        assert "wavecert construct: failed_coefficient" in out
        assert "alpha_min: " in out
        assert "None" not in out
        assert "margin" not in out and "grad_min" not in out

    def test_forced_axis_overflow_is_numeric_error(self, tmp_path, capsys):
        code = main(
            [
                "construct",
                "--config", write(tmp_path, CONSTRUCT_HOPELESS),
                "--force-j", "1",
                "--lambda-max", "1048576",
            ]
        )
        assert code == EXIT_NUMERIC
        assert "translate the domain" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,sign_case",
        [
            (None, "positive"),  # symmetric ranges: a tie goes to the positive case
            (
                (
                    "box = [[-1.4142135623730951, 1.4142135623730951], "
                    "[-1.4142135623730951, 1.4142135623730951]]\n"
                    'constraints = ["x1^2 + x2^2 - 2"]',
                    "box = [[-1.4, 0.4], [-1.4, 1.4]]",
                ),
                "negative",
            ),
        ],
        ids=["tie", "asymmetric-box"],
    )
    def test_forced_axis_takes_the_larger_sign_margin(self, tmp_path, edit, sign_case):
        text = CONSTRUCT_HOPELESS if edit is None else CONSTRUCT_HOPELESS.replace(*edit)
        out = tmp_path / "forced.json"
        argv = ["construct", "--config", write(tmp_path, text), "--force-j", "1"]
        assert main([*argv, "--lambda-max", "8", "--json", str(out)]) == EXIT_NOT_CERTIFIED
        result = json.loads(out.read_text())["result"]
        assert (result["axis"], result["sign_case"]) == (1, sign_case)

    def test_refinement_grid_over_budget_exits_before_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        from wavecert.condition import GridProblem

        def attempt(*args):
            raise AssertionError("the rate search ran")

        monkeypatch.setattr(GridProblem, "_margins", attempt)
        argv = ["construct", "--config", write(tmp_path, CONSTRUCT_3D_OVER_BUDGET)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "resolution 163 in dimension 3 asks for 4330747 grid points" in err

    def test_forced_axis_out_of_range(self, tmp_path, capsys):
        argv = ["construct", "--config", write(tmp_path, CONSTRUCT_HOPELESS), "--force-j", "3"]
        assert main(argv) == EXIT_CONFIG
        assert "out of range" in capsys.readouterr().err

    def test_forced_axis_out_of_range_prepares_no_grid(self, tmp_path, monkeypatch):
        import wavecert.cli as cli

        builds, prepare = [], cli.GridProblem

        def counted(*args, **kwargs):
            builds.append(args)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(cli, "GridProblem", counted)
        monkeypatch.setattr(cli, "sample", counted)
        argv = ["construct", "--config", write(tmp_path, config_text("cubic-exp")), "--force-j", "3"]
        assert main(argv) == EXIT_CONFIG
        assert builds == []

    def test_recheck_grid_that_cannot_be_sampled_exits_before_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        from wavecert.condition import GridProblem

        def attempt(*args):
            raise AssertionError("the rate search ran")

        # the search grid at 3 misses x1 = 1.5, where the constraint takes
        # log(0); the re-check grid at 5 holds it, and is sampled first
        monkeypatch.setattr(GridProblem, "_margins", attempt)
        text = (
            '[problem]\nA.diagonal = true\nA.entries = ["1 + x1^2 + x2^2", "1 + x1^2 + x2^2"]\n'
            '[region]\ndim = 2\nbox = [[1, 3], [1, 3]]\nconstraints = ["log((x1 - 1.5)^2) - 10"]\n'
            "[options]\nresolution = 3\nlambda_max = 8\ntarget_margin = 1e300\n"
        )
        assert main(["construct", "--config", write(tmp_path, text)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric error: log of non-positive value at point (1.5, 1.0)\n"

    @pytest.mark.parametrize(
        "name,flags,want",
        [
            ("cubic-exp", ["--lambda-max", "8"], (1, "positive", 7.0, 1.0, -2.3028231689242316e20)),
            (
                "disk-trap",
                ["--force-j", "1"],
                (1, "positive", 3.6516504294495533, 1.0, -391.34958040780305),
            ),
            # rate 1 runs first, so a budget of 1 still reports a failing attempt
            ("cubic-exp", ["--lambda-max", "1"], (1, "positive", 7.0, 1.0, -2.3028231689242316e20)),
        ],
    )
    def test_lambda_max_exceeded_result(self, tmp_path, name, flags, want):
        # the reported shift is computed apart from the search, for the pair it ran on
        out = tmp_path / "exceeded.json"
        argv = ["construct", "--config", write(tmp_path, config_text(name)), *flags]
        assert main([*argv, "--json", str(out)]) == EXIT_NOT_CERTIFIED
        report = json.loads(out.read_text())
        assert report["verdict"] == "lambda_max_exceeded"
        result = report["result"]
        got = (result["axis"], result["sign_case"], result["shift"], result["best_lambda"])
        assert (*got, result["best_report"]["margin"]) == want
        assert result["best_report"]["verdict"] == "failed_positivity"

    def test_construct_measures_the_sign_ranges_once(self, tmp_path, monkeypatch):
        import wavecert.cli as cli
        import wavecert.weight as weight

        calls, measure = [], weight.sign_ranges

        def counted(da):
            calls.append(da.shape)
            return measure(da)

        for module in (cli, weight):
            monkeypatch.setattr(module, "sign_ranges", counted)
        assert main(["construct", "--config", write(tmp_path, CONSTRUCT_OK)]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name", ["isotropic-exp", "cubic-exp"], ids=["construct-isotropic", "construct-cubic"]
    )
    def test_certificate_replays_through_verify(self, tmp_path, name):
        text = config_text(name)
        cert_out, verify_out = tmp_path / "cert.json", tmp_path / "verify.json"
        cert_dump, verify_dump = tmp_path / "cert.csv", tmp_path / "verify.csv"
        argv = ["construct", "--config", write(tmp_path, text), "--json", str(cert_out)]
        assert main([*argv, "--dump-grid", str(cert_dump)]) == EXIT_OK
        cert = json.loads(cert_out.read_text())["result"]
        assert "dump_path" not in cert["report"]
        replay = text.replace("[region]", f"weight = {json.dumps(cert['weight'])}\n\n[region]")
        argv = ["verify", "--config", write(tmp_path, replay, "replay.cfg"), "--json", str(verify_out)]
        assert main([*argv, "--dump-grid", str(verify_dump)]) == EXIT_OK
        verified = json.loads(verify_out.read_text())["result"]
        keys = ("margin", "matrix_min_eig", "worst_point_margin", "grad_min", "minors_min")
        assert {k: verified[k] for k in keys} == {k: cert["report"][k] for k in keys}
        # the search's certified attempt writes the same grid dump verify does
        assert cert_dump.read_bytes() == verify_dump.read_bytes()

    def test_grid_dump_reruns_no_tape_or_assembly(self, tmp_path, monkeypatch):
        import wavecert.condition as condition
        from wavecert.expr import Tape

        argv = ["construct", "--config", write(tmp_path, config_text("cubic-exp"))]
        names = ("min_eigenvalue", "leading_principal_minors", "_multiplier")
        runs = []
        for extra in ([], ["--dump-grid", str(tmp_path / "grid.csv")]):
            counts = dict.fromkeys(names + ("tape",), 0)

            def counted(name, fn):
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)

                return wrapper

            for name in names:
                monkeypatch.setattr(condition, name, counted(name, getattr(condition, name)))
            monkeypatch.setattr(Tape, "__call__", counted("tape", Tape.__call__))
            assert main([*argv, *extra]) == EXIT_OK
            monkeypatch.undo()
            runs.append(counts)
        # the dump comes from the certified attempt's matrices, not a re-check:
        # it re-runs no tape and no assembly, and adds only the one per-row
        # pencil pass its CSV needs, since the attempts ran only the rows that
        # could attain their margin; the minors run for the certificate and the
        # refinement only
        assert runs[0]["tape"] > 0 and runs[0]["_multiplier"] > 10
        assert runs[1] == {**runs[0], "min_eigenvalue": runs[0]["min_eigenvalue"] + 1}
        assert runs[1]["leading_principal_minors"] == 2

    def test_grid_dump_fills_only_the_rows_the_screen_skipped(self, tmp_path, monkeypatch):
        import wavecert.condition as condition

        rows, full = [], condition.min_eigenvalue

        def counted(m, w=None):
            rows.append((len(m), w is not None))
            return full(m, w)

        monkeypatch.setattr(condition, "min_eigenvalue", counted)
        out, dump = tmp_path / "cert.json", tmp_path / "grid.csv"
        argv = ["construct", "--config", write(tmp_path, config_text("cubic-exp"))]
        assert main([*argv, "--dump-grid", str(dump), "--json", str(out)]) == EXIT_OK
        # the certified attempt ran LAPACK on one of the 797 pencils, which
        # attains the margin; the dump runs the other 796 and no row twice
        assert json.loads(out.read_text())["result"]["report"]["point_count"] == 797
        assert [count for count, pencil in rows if pencil] == [796]
        assert len(dump.read_text().splitlines()) == 798

    def test_construct_dump_grid(self, tmp_path):
        dump = tmp_path / "cert_grid.csv"
        code = main(
            [
                "construct", "--config", write(tmp_path, CONSTRUCT_OK),
                "--dump-grid", str(dump),
            ]
        )
        assert code == EXIT_OK
        header = dump.read_text().splitlines()[0]
        assert header == "x1,x2,eig_min_pencil,eig_min_matrix,grad_norm,minor1,minor2"

    def test_construct_dump_grid_matches_a_direct_check(self, tmp_path):
        from wavecert.condition import GridProblem
        from wavecert.domain import sample

        from test_weight import search

        dump = tmp_path / "cert_grid.csv"
        cfg_path = write(tmp_path, CONSTRUCT_OK)
        assert main(["construct", "--config", cfg_path, "--dump-grid", str(dump)]) == EXIT_OK
        cfg = RunConfig.from_text(CONSTRUCT_OK)
        field, grid = cfg.build_field(), sample(cfg.build_region(), 17)
        cert = search(GridProblem(field, grid), 1, "positive")
        direct = tmp_path / "direct.csv"
        GridProblem(field, grid).check(cert.weight, direct)
        assert dump.read_bytes() == direct.read_bytes()

    def test_nondiagonal_rejected(self, tmp_path):
        text = CONSTRUCT_OK.replace(
            'A.diagonal = true', 'A.diagonal = false'
        ).replace(
            'A.entries = ["exp(x1 + x2)", "exp(x1 + x2)"]',
            'A.entries = ["2", "x1", "3"]',
        )
        assert main(["construct", "--config", write(tmp_path, text)]) == EXIT_CONFIG


class TestDumpedEqualsUndumped:
    # a dump runs every row, the report without one only the rows that can
    # attain each 2x2 or 3x3 minimum (every row in 4-D): the reports are equal
    # but for verify's name of its dump
    @pytest.mark.parametrize(
        "command, text",
        [
            ("verify", VERIFY_OK),
            ("verify", VERIFY_FULL_3D),
            ("construct", CONSTRUCT_3D),
            ("verify", VERIFY_FULL_4D),
        ],
        ids=["verify-diagonal-2d", "verify-full-field", "construct-ball", "verify-full-4d"],
    )
    def test_reports_match(self, tmp_path, command, text):
        cfg, dump = write(tmp_path, text), tmp_path / "grid.csv"
        plain, dumped = tmp_path / "plain.json", tmp_path / "dumped.json"
        assert main([command, "--config", cfg, "--json", str(plain)]) == EXIT_OK
        argv = [command, "--config", cfg, "--dump-grid", str(dump), "--json", str(dumped)]
        assert main(argv) == EXIT_OK
        reports = [json.loads(strip_duration(p.read_text())) for p in (plain, dumped)]
        named = reports[1]["result"].pop("dump_path", None)
        assert named == (str(dump) if command == "verify" else None)
        assert reports[0] == reports[1]
        result = reports[0]["result"]
        points = result.get("report", result)["point_count"]
        assert len(dump.read_text().splitlines()) == points + 1
        assert points > 100


class TestDumpNotWritten:
    @pytest.mark.parametrize(
        "command,text,flags,verdict",
        [
            ("construct", CONSTRUCT_HOPELESS, [], "no_admissible_index"),
            ("construct", CONSTRUCT_HOPELESS, ["--force-j", "1"], "lambda_max_exceeded"),
            ("construct", CONSTRUCT_NOT_DEFINITE, [], "failed_coefficient"),
            (
                "verify",
                VERIFY_BAD_GRADIENT.replace('["1", "1"]', '["x1", "1"]'),
                [],
                "failed_coefficient",
            ),
        ],
    )
    def test_no_dump_is_reported(self, tmp_path, capsys, command, text, flags, verdict):
        dump = tmp_path / "grid.csv"
        argv = [command, "--config", write(tmp_path, text), "--dump-grid", str(dump), *flags]
        assert main(argv) == EXIT_NOT_CERTIFIED
        assert not dump.exists()
        assert f"no grid dump written: {verdict}" in capsys.readouterr().err


class TestCurvatureCommand:
    def test_sign_changing_with_window(self, tmp_path):
        out = tmp_path / "k.json"
        code = main(
            ["curvature", "--config", write(tmp_path, CURVATURE_CFG), "--json", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert '"verdict": "sign_changing"' in text
        assert '"ok": true' in text  # parameter window detail

    def test_flat_metric_degenerate(self, tmp_path):
        text = CURVATURE_CFG.replace(
            'A.entries = ["exp(mu1*x1)", "exp(-mu2*x1^2)"]', 'A.entries = ["1", "1"]'
        )
        out = tmp_path / "flat.json"
        main(["curvature", "--config", write(tmp_path, text), "--json", str(out)])
        assert '"verdict": "degenerate"' in out.read_text()


class TestRaysCommand:
    def test_fan_summary(self, tmp_path):
        out = tmp_path / "rays.json"
        code = main(
            ["rays", "--config", write(tmp_path, RAYS_CFG), "--json", str(out)]
        )
        assert code == EXIT_OK
        report = out.read_text()
        assert '"escaped": 8' in report

    def test_flag_overrides_and_polyline_dump(self, tmp_path):
        dump = tmp_path / "paths.csv"
        code = main(
            [
                "rays", "--config", write(tmp_path, RAYS_CFG),
                "--count", "2", "--horizon", "1", "--step", "0.01",
                "--center", "0.1,0.0",
                "--dump-grid", str(dump),
            ]
        )
        assert code == EXIT_OK
        lines = dump.read_text().splitlines()
        assert lines[0] == "ray,t_index,x1,x2"
        assert len(lines) > 2

    def test_polyline_dump_lists_every_stored_path(self, tmp_path):
        dump = tmp_path / "paths.csv"
        flags = ["--count", "3", "--horizon", "1", "--step", "0.01", "--dump-grid", str(dump)]
        assert main(["rays", "--config", write(tmp_path, RAYS_CFG), *flags]) == EXIT_OK
        cfg = RunConfig.from_text(RAYS_CFG)
        outs = fan(cfg.build_field(), cfg.build_region(), (0, 0), 3, 1.0, 0.01, store_paths=True)
        rows = ["ray,t_index,x1,x2"] + [
            f"{r},{t},{x:.17g},{y:.17g}"
            for r, out in enumerate(outs)
            for t, (x, y) in enumerate(out.path)
        ]
        assert dump.read_bytes() == "".join(row + "\r\n" for row in rows).encode()

    def test_empty_fan_dump_is_header_only(self, tmp_path):
        dump = tmp_path / "paths.csv"
        flags = ["--count", "0", "--dump-grid", str(dump)]
        assert main(["rays", "--config", write(tmp_path, RAYS_CFG), *flags]) == EXIT_OK
        assert dump.read_bytes() == b"ray,t_index,x1,x2\r\n"

    @pytest.mark.parametrize(
        "edit,flags",
        [
            (("horizon = 5", "horizon = -1"), []),
            (("step = 0.001", "step = 0"), []),
            (None, ["--count", "-3"]),
            (None, ["--center", "5,5"]),  # outside the region
        ],
    )
    def test_bad_ray_options_are_config_errors(self, tmp_path, edit, flags):
        text = RAYS_CFG if edit is None else RAYS_CFG.replace(*edit)
        assert main(["rays", "--config", write(tmp_path, text), *flags]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "edit,flags", [(("center = [0, 0]", "center = [0.5]"), []), (None, ["--center", "0.5,0,0"])]
    )
    def test_center_of_another_dimension_is_a_config_error(self, tmp_path, capsys, edit, flags):
        text = RAYS_CFG if edit is None else RAYS_CFG.replace(*edit)
        assert main(["rays", "--config", write(tmp_path, text), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: center dimension does not match the region\n"

    def test_step_collapse_is_numeric_error(self, tmp_path, capsys):
        cfg = write(tmp_path, config_text("disk-trap"))
        assert main(["rays", "--config", cfg, "--step", "64", "--count", "4"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric error: drift above 1e-06 even after 8 step halvings\n"

    def test_start_where_a_is_not_positive_is_numeric_error(self, tmp_path, capsys):
        text = RAYS_CFG.replace('A.entries = ["1", "1"]', 'A.entries = ["x1", "x1"]')
        assert main(["rays", "--config", write(tmp_path, text)]) == EXIT_NUMERIC
        assert "nonpositive energy at point (0.0, 0.0)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits,code,message",
        [
            # the fan's flow tape: Hamilton's equations read a constant A leaves unbound
            ([('["1", "1"]', '["1 + x1^2 + x2^2", "d + x1^2"]')],
             EXIT_CONFIG, "config error: unbound constant 'd'"),
            # the flow tape again: a ray from (1, 0) to the left reaches x1 = -1.2
            ([('["1", "1"]', '["1", "2 + log(x1 + 1.2)"]'), ("[0, 0]", "[1, 0]")],
             EXIT_NUMERIC, "numeric error: log of non-positive value"),
            # the region's tape: a ray from (0, 0) downward reaches x2 = -0.5
            ([('"x1^2 + x2^2 - 2"', '"x1^2 + x2^2 - 2", "log(x2 + 0.5) - 10"')],
             EXIT_NUMERIC, "numeric error: log of non-positive value"),
        ],
        ids=["flow-unbound", "flow-log", "region-log"],
    )
    def test_evaluation_error_names_a_position(self, tmp_path, capsys, edits, code, message):
        # the tapes read the rays' states (x, xi); an error names x alone
        text = RAYS_CFG
        for old, new in edits:
            text = text.replace(old, new)
        assert main(["rays", "--config", write(tmp_path, text)]) == code
        err = capsys.readouterr().err
        assert re.fullmatch(re.escape(message) + r" at point \([^,()]+, [^,()]+\)\n", err), err

    def test_four_dimensional_fan_is_config_error(self, tmp_path, capsys):
        text = (
            '[problem]\nA.diagonal = true\nA.entries = ["1", "1", "1", "1"]\n'
            "[region]\ndim = 4\nbox = [[-1, 1], [-1, 1], [-1, 1], [-1, 1]]\n"
            "[options]\ncount = 4\n"
        )
        assert main(["rays", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert "dimension 2 or 3" in capsys.readouterr().err

    def test_power_overflow_is_numeric_error(self, tmp_path):
        text = RAYS_CFG.replace("x1^2 + x2^2 - 2", "(10*x1)^400 - 2").replace(
            "center = [0, 0]", "center = [1, 0]"
        )
        assert main(["rays", "--config", write(tmp_path, text)]) == EXIT_NUMERIC


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "key", ["resolution", "horizon", "step", "lambda_max", "target_margin", "count"]
    )
    def test_non_numeric_option(self, tmp_path, capsys, key):
        lines = [line for line in RAYS_CFG.splitlines() if not line.startswith(f"{key} = ")]
        text = "\n".join(lines) + f'\n{key} = "abc"\n'
        assert main(["rays", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("resolution", "17.9"),
            ("count", "true"),
            # a string in the file is not a number, though a flag's text is
            ("resolution", '"9"'),
            ("horizon", '"5"'),
            ("center", '[0, "0"]'),
        ],
    )
    def test_non_integral_option(self, tmp_path, capsys, key, value):
        lines = [line for line in RAYS_CFG.splitlines() if not line.startswith(f"{key} = ")]
        text = "\n".join(lines) + f"\n{key} = {value}\n"
        assert main(["rays", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert f"{key} must be" in capsys.readouterr().err

    def test_non_numeric_center_flag(self, tmp_path):
        code = main(["rays", "--config", write(tmp_path, RAYS_CFG), "--center", "a,b"])
        assert code == EXIT_CONFIG

    def test_lambda_max_below_one(self, tmp_path):
        code = main(
            ["construct", "--config", write(tmp_path, CONSTRUCT_OK), "--lambda-max", "0.5"]
        )
        assert code == EXIT_CONFIG

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_report_path_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["verify", "--config", write(tmp_path, VERIFY_OK), "--json", str(out)])
        assert code == EXIT_CONFIG
        assert "cannot write the report" in capsys.readouterr().err

    def test_non_finite_multiplier_is_numeric_error(self, tmp_path, capsys):
        cases = [
            (VERIFY_OVERFLOW, "multiplier matrix is not finite at point"),
            (VERIFY_HUGE_POWER, "non-finite result at point"),
        ]
        for text, message in cases:
            dump = tmp_path / "grid.csv"
            argv = ["verify", "--config", write(tmp_path, text), "--dump-grid", str(dump)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(argv) == EXIT_NUMERIC
            assert message in capsys.readouterr().err
            assert not dump.exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ('A.entries = ["1", "1"]', 'A.entries = ["1 + 0*' + "(" * 1500 + "x1" + ")" * 1500 + '", "1"]'),
            ('A.entries = ["1", "1"]', 'A.entries = ["' + "-" * 3000 + '1", "1"]'),
            ('weight = "(x1^2', 'weight = "(x1^' + "-" * 3000 + "2"),
        ],
        ids=["nested-parentheses", "negations", "negated-exponent"],
    )
    def test_deeply_nested_expressions_verify(self, tmp_path, old, new):
        # the parser is one loop over the tokens, so text nested past the
        # recursion limit parses; each config's A and weight are VERIFY_OK's
        reports = []
        for config in (VERIFY_OK, VERIFY_OK.replace(old, new)):
            out = tmp_path / "report.json"
            argv = ["verify", "--config", write(tmp_path, config), "--json", str(out)]
            assert main(argv) == EXIT_OK
            reports.append(json.loads(out.read_text())["result"])
        assert reports[0] == reports[1]

    def test_json_value_nested_too_deeply_is_config_error(self, tmp_path, capsys):
        # json.loads recurses once per level; the message names the key
        text = VERIFY_OK.replace('A.entries = ["1", "1"]', "A.entries = " + "[" * 5000 + "]" * 5000)
        assert main(["verify", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: line 5: bad JSON value for 'A.entries': maximum recursion depth" in err

    @pytest.mark.parametrize(
        "old,new",
        [
            ('A.entries = ["1", "1"]', 'A.entries = ["1 + c", "1"]'),
            ('weight = "(x1^2 + x2^2)/2"', 'weight = "c*(x1^2 + x2^2)/2"'),
            ('constraints = ["(x1 - 2)^2 + x2^2 - 1"]', 'constraints = ["(x1 - 2)^2 + x2^2 - c"]'),
        ],
        ids=["entries", "weight", "constraint"],
    )
    def test_undefined_constant_is_config_error(self, tmp_path, capsys, old, new):
        # a constant that [problem] constants does not define is a config mistake
        text = VERIFY_OK.replace(old, new)
        assert main(["verify", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert "config error: unbound constant 'c'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["exp(x1", "exp(x3)", "foo(x1)"])
    def test_malformed_curvature_entry_is_config_error(self, tmp_path, capsys, entry):
        # curvature parses its entries where every other command does
        text = VERIFY_OK.replace('A.entries = ["1", "1"]', f'A.entries = ["{entry}", "1"]')
        assert main(["curvature", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert "config error: bad coefficient entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                '[problem]\nA.diagonal = true\nA.entries = ["1", "1", "1"]\n'
                "[region]\ndim = 3\nbox = [[1, 3], [-1, 1], [-1, 1]]\n",
                "curvature comparison is two-dimensional",
            ),
            (
                VERIFY_OK.replace(
                    'true\nA.entries = ["1", "1"]', 'false\nA.entries = ["1", "0", "1"]'
                ),
                "curvature needs two diagonal coefficient entries",
            ),
        ],
        ids=["three-dimensional", "full"],
    )
    def test_curvature_takes_a_two_dimensional_diagonal_field(
        self, tmp_path, capsys, text, message
    ):
        assert main(["curvature", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "name,flags,code",
        [("isotropic-exp", [], EXIT_OK), ("cubic-exp", ["--lambda-max", "8"], EXIT_NOT_CERTIFIED)],
        ids=["certified", "not-certified"],
    )
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, unbuffered, name, flags, code):
        # the reader left before the run: a buffered stdout fails at the flush
        # at exit, an unbuffered one at the first print
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(wavecert.__file__))
        report = tmp_path / "report.json"
        argv = ["construct", "--config", write(tmp_path, config_text(name)), "--json", str(report)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "wavecert.cli", *argv, *flags],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, b"")
        assert json.loads(report.read_text())["command"] == "construct"

    def test_long_flat_sum_is_evaluated_left_to_right(self, tmp_path):
        # a flat sum parses to a left-leaning tree as deep as it is long;
        # differentiation, compilation and rendering walk it in a loop
        rng = random.Random(7)
        coefs = [rng.uniform(0.001, 0.002) for _ in range(3000)]
        signs = ["-" if k % 3 == 2 else "+" for k in range(3000)]
        entry = f"{coefs[0]!r}*x1" + "".join(
            f" {s} {c!r}*x1" for s, c in zip(signs[1:], coefs[1:])
        )
        text = VERIFY_OK.replace('A.entries = ["1", "1"]', f'A.entries = ["{entry}", "1"]')
        assert main(["verify", "--config", write(tmp_path, text)]) == EXIT_OK
        e = parse(entry, 2)
        assert render(e) == entry
        x = 1.7
        value, slope = coefs[0] * x, coefs[0]
        for s, c in zip(signs[1:], coefs[1:]):
            value, slope = (value + c * x, slope + c) if s == "+" else (value - c * x, slope - c)
        assert evaluate(e, (x, 0.0)) == value
        assert evaluate(differentiate(e, 1), (x, 0.0)) == slope

    def test_long_flat_products_verify(self, tmp_path):
        # a flat product parses to a left-leaning tree as deep as it is long,
        # as a flat sum does, and is walked in a loop too; the weight's second
        # derivative refers to its partial products, each differentiated once
        ones = "*".join(["x1^0"] * 3000)
        weight = "(x1^2 + x2^2)/2*" + "*".join(["(x1/x1)"] * 3000)
        text = VERIFY_OK.replace('A.entries = ["1", "1"]', f'A.entries = ["{ones}", "1"]')
        text = text.replace('weight = "(x1^2 + x2^2)/2"', f'weight = "{weight}"')
        reports = []
        for config in (VERIFY_OK, text):
            out = tmp_path / "report.json"
            argv = ["verify", "--config", write(tmp_path, config), "--json", str(out)]
            assert main(argv) == EXIT_OK
            reports.append(json.loads(out.read_text())["result"])
        assert reports[0] == reports[1]

    def test_long_products_in_a_sum_are_evaluated_left_to_right(self):
        # three chains of 1000 factors, quotients mixed in, joined by + and -:
        # value and derivative at a point are the products and the product
        # and quotient rules taken factor by factor in Python
        rng = random.Random(11)
        x, chains, total, total_slope = 1.7, [], 0.0, 0.0
        for sign in ("+", "+", "-"):
            c = round(rng.uniform(0.5, 2.0), 4)
            text, value, slope = repr(c), c, 0.0
            for _ in range(999):
                op, factor = rng.choice("*/"), rng.choice(("x1", "(x1 + 0.5)", "lit"))
                if factor == "lit":  # its square is folded as a literal, c**2
                    factor = repr(rng.choice((0.98, 0.995, 1.005, 1.02)))
                    f, df, square = float(factor), 0.0, float(factor) ** 2
                else:
                    f = x if factor == "x1" else x + 0.5
                    df, square = 1.0, f * f
                text += f"{op}{factor}"
                if op == "*":
                    value, slope = value * f, slope * f + value * df
                else:
                    value, slope = value / f, (slope * f - value * df) / square
            chains.append(text)
            if sign == "+":
                total, total_slope = total + value, total_slope + slope
            else:
                total, total_slope = total - value, total_slope - slope
        entry = f"{chains[0]} + {chains[1]} - {chains[2]}"
        e = parse(entry, 2)
        assert render(e) == entry
        assert evaluate(e, (x, 0.0)) == total
        assert evaluate(differentiate(e, 1), (x, 0.0)) == total_slope

    @pytest.mark.parametrize(
        "line,message",
        [
            ('A.diagonal = "false"', "A.diagonal must be true or false, got 'false'"),
            ('A.diagonal = "no"', "A.diagonal must be true or false, got 'no'"),
            ("A.diagonal = 1", "A.diagonal must be true or false, got 1"),
            ('A.entries = "11"', "A.entries must be a nonempty list of expression strings"),
            ("A.entries = 5", "A.entries must be a nonempty list of expression strings"),
            ('constants = {"mu": true}', "constant 'mu' must be a number, got True"),
            ('constants = {"mu": "1"}', "constant 'mu' must be a number, got '1'"),
            ('constants = {"c": NaN}', "constant 'c' must be a finite number, got nan"),
            ('constants = {"c": -Infinity}', "constant 'c' must be a finite number, got -inf"),
            ('dim = "2"', "dim must be an integer, got '2'"),
            ('box = [[1, "3"], [-1, 1]]', "box must be a number, got '3'"),
            ('margin = "0"', "margin must be a number, got '0'"),
            # null means unset, so a required key set to null is missing
            ("A.diagonal = null", "[problem] is missing 'A.diagonal'"),
            ("A.entries = null", "[problem] is missing 'A.entries'"),
            ("dim = null", "[region] is missing 'dim'"),
            ("box = null", "[region] is missing 'box'"),
            # an expression string that does not parse in the region's dimension
            ('weight = "x1 +"', "bad weight expression: unexpected token '' (offset 4)"),
            ('weight = "x3"', "bad weight expression: variable x3 exceeds dimension 2 (offset 0)"),
        ],
    )
    def test_problem_values_of_the_wrong_type(self, tmp_path, capsys, line, message):
        # a string is not read as a truth value, nor as the characters of a
        # list, nor as a number, and a boolean is not a number, as no option
        # takes one
        key = line.split(" = ")[0]
        section = "[region]" if key in ("dim", "box", "margin") else "[problem]"
        lines = [ln for ln in VERIFY_OK.splitlines() if not ln.startswith(f"{key} = ")]
        text = "\n".join(lines).replace(section, f"{section}\n{line}")
        assert main(["verify", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_lone_surrogates_are_escaped_in_the_report(self, tmp_path):
        # a path byte that is not UTF-8 reaches argv as a lone surrogate, and
        # a JSON key can name one; the report writes both as \uXXXX
        text = VERIFY_OK.replace(
            'weight = "(x1^2 + x2^2)/2"', 'weight = "(x1^2 + x2^2)/2"\nconstants = {"\\ud800": 1}'
        )
        dump = os.fsdecode(bytes(tmp_path) + b"/\xff.csv")
        out = tmp_path / "out.json"
        argv = ["verify", "--config", write(tmp_path, text), "--dump-grid", dump]
        assert main(argv + ["--json", str(out)]) == EXIT_OK
        written = out.read_text(encoding="utf-8")
        report = json.loads(written)
        assert report["result"]["dump_path"] == dump and dump.endswith("\udcff.csv")
        assert list(report["config"]["problem"]["constants"]) == ["\ud800"]
        kept = [line for line in written.splitlines(True) if '"duration_seconds"' not in line]
        assert strip_duration(written) == "".join(kept)

    def test_dump_path_in_missing_directory(self, tmp_path):
        dump = tmp_path / "missing" / "grid.csv"
        code = main(
            ["verify", "--config", write(tmp_path, VERIFY_OK), "--dump-grid", str(dump)]
        )
        assert code == EXIT_CONFIG


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["verify", "--config", "{cfg}", "--bogus"],
            ["verify", "--config", "{cfg}", "--bogus", "-0.5,0"],
            ["nonesuch"],
            ["verify", "--config", "{cfg}", "--resolution", "abc"],
        ],
        ids=[
            "missing-config",
            "unknown-flag",
            "unknown-flag-negative-value",
            "unknown-subcommand",
            "unconvertible-flag",
        ],
    )
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv):
        cfg = write(tmp_path, VERIFY_OK)
        assert main([arg.format(cfg=cfg) for arg in argv]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "construct" in capsys.readouterr().out

    def test_config_with_a_byte_order_mark(self, tmp_path):
        # some editors start a UTF-8 file with a byte-order mark
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + config_text("cubic-exp").encode("utf-8"))
        assert main(["construct", "--config", str(path)]) == EXIT_OK

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(VERIFY_OK.replace("classical", "caf\xe9").encode("latin-1"))
        assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
        assert "not UTF-8" in capsys.readouterr().err

    def test_infinite_box_bound(self, tmp_path, capsys):
        text = VERIFY_OK.replace("box = [[1, 3]", "box = [[1, 1e400]")
        assert main(["verify", "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert "unbounded box axis [1.0, inf]" in capsys.readouterr().err

    def test_one_parser_serves_a_process(self, tmp_path, capsys):
        # main builds its parser once per process: a usage error, then
        # construct, verify and rays through that one parser, give what each
        # call gives with a parser of its own, as in a process of its own
        calls = [
            ["verify", "--config", write(tmp_path, VERIFY_OK), "--bogus"],
            ["construct", "--config", write(tmp_path, CONSTRUCT_OK, "construct.cfg")],
            ["verify", "--config", write(tmp_path, VERIFY_OK, "verify.cfg")],
            ["rays", "--config", write(tmp_path, RAYS_CFG, "rays.cfg")],
        ]

        def run_all(fresh):
            outcomes = []
            for k, argv in enumerate(calls):
                if fresh:
                    _build_parser.cache_clear()
                path = tmp_path / f"{fresh}-{k}.json"
                code = main([*argv, "--json", str(path)])
                report = strip_duration(path.read_text()) if path.exists() else None
                outcomes.append((code, report, capsys.readouterr().err))
            return outcomes

        shared = run_all(fresh=False)
        assert _build_parser() is _build_parser()
        assert [code for code, _, _ in shared] == [EXIT_CONFIG, EXIT_OK, EXIT_OK, EXIT_OK]
        assert shared[0][1] is None and "config error:" in shared[0][2]
        assert run_all(fresh=True) == shared


# option -> (a command taking its flag, a config, flag text, the same value in JSON)
FLAG_VALUES = {
    "resolution": ("verify", VERIFY_OK, "9", "9"),
    "threads": ("curvature", CURVATURE_CFG, "3", "3"),
    "force_j": ("construct", CONSTRUCT_OK, "1", "1"),
    "lambda_max": ("construct", CONSTRUCT_OK, "64", "64"),
    "target_margin": ("construct", CONSTRUCT_OK, "0.1", "0.1"),
    "center": ("rays", RAYS_CFG, "0.1,0", "[0.1, 0]"),
    "count": ("rays", RAYS_CFG, "4", "4"),
    "horizon": ("rays", RAYS_CFG, "1", "1"),
    "step": ("rays", RAYS_CFG, "0.02", "0.02"),
}


class TestOneOptionTable:
    @pytest.mark.parametrize("key", sorted(FLAG_VALUES))
    def test_flag_and_file_value_echo_alike(self, tmp_path, key):
        command, text, flag_text, json_text = FLAG_VALUES[key]
        unset = "\n".join(line for line in text.splitlines() if not line.startswith(f"{key} ="))
        by_flag, by_file = tmp_path / "flag.json", tmp_path / "file.json"
        flag = "--" + key.replace("_", "-")
        main([command, "--config", write(tmp_path, unset), flag, flag_text, "--json", str(by_flag)])
        in_file = write(tmp_path, f"{unset}\n{key} = {json_text}\n", "file.cfg")
        main([command, "--config", in_file, "--json", str(by_file)])
        echo = json.loads(by_flag.read_text())["config"]
        assert echo == json.loads(by_file.read_text())["config"]
        assert echo["options"][key] == json.loads(json_text)

    @pytest.mark.parametrize(
        "command,text,flag,value",
        [
            ("rays", RAYS_CFG, "--center", "-0.5,0"),
            ("construct", CONSTRUCT_OK, "--target-margin", "-1e-3"),
        ],
        ids=["rays-center", "construct-target-margin"],
    )
    def test_negative_flag_value_reads_as_attached(self, tmp_path, command, text, flag, value):
        cfg = write(tmp_path, text)
        apart, attached = tmp_path / "apart.json", tmp_path / "attached.json"
        assert main([command, "--config", cfg, flag, value, "--json", str(apart)]) == EXIT_OK
        assert main([command, "--config", cfg, f"{flag}={value}", "--json", str(attached)]) == EXIT_OK
        assert strip_duration(apart.read_text()) == strip_duration(attached.read_text())

    def test_flag_sets_per_subcommand(self):
        common = {"--resolution", "--threads", "--dump-grid", "--json"}
        expected = {
            "verify": common,
            "construct": common | {"--force-j", "--lambda-max", "--target-margin"},
            "curvature": common,
            "rays": common | {"--center", "--count", "--horizon", "--step"},
            "examples": {"--resolution", "--threads", "--json"},
        }
        (commands,) = [
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        flags = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help", "--config"}
            for name, p in commands.choices.items()
        }
        assert flags == expected
        every_flag = set().union(*expected.values())
        assert every_flag == {"--" + k.replace("_", "-") for k in FLAG_VALUES} | common

    @pytest.mark.parametrize(
        "key",
        ["weight", "constants", "constraints", "margin", "resolution", "lambda_max",
         "target_margin", "horizon", "step", "count", "center", "threads", "force_j"],
    )
    def test_null_option_takes_its_default(self, key):
        # every optional key in every section: null means unset
        section = {
            "weight": "problem", "constants": "problem", "constraints": "region", "margin": "region"
        }.get(key, "options")
        unset = "\n".join(line for line in RAYS_CFG.splitlines() if not line.startswith(key))
        text = unset.replace(f"[{section}]", f"[{section}]\n{key} = null")
        null = RunConfig.from_text(text).echo()
        assert null == RunConfig.from_text(unset).echo()


class TestExamplesCommand:
    def test_unknown_name_lists_available(self, tmp_path, capsys):
        code = main(["examples", "nonesuch"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "disk-trap" in err and "isotropic-exp" in err

    def test_single_example(self, tmp_path):
        out = tmp_path / "one.json"
        code = main(
            [
                "examples", "curvature-signchange",
                "--threads", "1", "--json", str(out),
            ]
        )
        assert code == EXIT_OK
        assert '"matched": true' in out.read_text()

    def test_all_matches_the_committed_reference(self, tmp_path):
        out = tmp_path / "all.json"
        assert main(["examples", "all", "--json", str(out)]) == EXIT_OK
        got = json.loads(strip_duration(out.read_text()))
        with open(EXAMPLES_REFERENCE, encoding="utf-8") as handle:
            want = json.load(handle)
        assert_matches_reference(got, want)


EXAMPLES_REFERENCE = os.path.join(os.path.dirname(__file__), "data", "examples_all.json")


def assert_matches_reference(got, want, path="report"):
    """Verdicts, rates, axes, worst points, witnesses and counts exactly;
    every other float to 1e-12 relative, so another LAPACK's last bits pass."""
    assert type(got) is type(want) or {type(got), type(want)} == {int, float}, path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches_reference(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches_reference(g, w, f"{path}[{k}]")
    elif isinstance(want, float) or isinstance(got, float):
        key = path.rsplit(".", 1)[-1].split("[")[0]
        if key == "lambda" or key.startswith(("worst_point", "witness")):
            assert got == want, path
        else:
            assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)), path
    else:
        assert got == want, path


class TestStableSerialization:
    def test_float_formatting(self):
        text = dumps_stable({"value": 0.1, "whole": 2.0, "neg": -1.5e-7})
        assert '"value": 0.1,' in text
        assert '"whole": 2.0' in text
        assert '"neg": -1.5e-07' in text

    def test_key_order_stable(self):
        a = dumps_stable({"b": 1, "a": {"z": 1, "y": 2}})
        b = dumps_stable({"a": {"y": 2, "z": 1}, "b": 1})
        assert a == b

    def test_strip_duration(self):
        doc = dumps_stable({"duration_seconds": 1.23, "x": 1})
        stripped = strip_duration(doc)
        assert "duration_seconds" not in stripped
        assert '"x": 1' in stripped

    def test_strip_duration_keeps_negative_zero(self):
        doc = dumps_stable({"duration_seconds": 1.23, "x": -0.0, "y": [2, 0.5]})
        assert strip_duration(doc) == dumps_stable({"x": -0.0, "y": [2, 0.5]})

    def test_strip_duration_drops_only_the_top_level_key(self, tmp_path, capsys):
        # a constant named duration_seconds is echoed inside the config and
        # stays; dropping every line with the name left invalid JSON
        text = VERIFY_OK.replace(
            'weight = "(x1^2 + x2^2)/2"',
            'weight = "(x1^2 + x2^2)/2"\nconstants = {"a": 1, "duration_seconds": 2}',
        )
        out = tmp_path / "out.json"
        assert main(["verify", "--config", write(tmp_path, text), "--json", str(out)]) == EXIT_OK
        full = json.loads(out.read_text())
        stripped = json.loads(strip_duration(out.read_text()))
        del full["duration_seconds"]
        assert stripped == full
        assert stripped["config"]["problem"]["constants"] == {"a": 1, "duration_seconds": 2}
