import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from levyfn import PowerLaw, builtin_model, conditional_exp_transform, resolve_model
from levyfn.cli import _analytic_oracle, build_parser, main

REPO = Path(__file__).resolve().parent.parent


def run_cli(*argv, env=None):
    """Run the CLI in a subprocess, capturing stdout/stderr and exit code."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "levyfn.cli", *argv],
                          capture_output=True, text=True, env=full_env,
                          cwd=str(REPO))
    return proc.returncode, proc.stdout, proc.stderr


class TestClassify:
    def test_decisive_exit_zero(self):
        code, out, _ = run_cli("classify", "--model", "stable15", "--theta", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["extinction_possible"] is True
        assert payload["explosion_possible"] is False
        assert payload["hit_prob"] == 1.0
        assert payload["manifest"]["model_sha256"]

    def test_explosion_flag(self):
        code, out, _ = run_cli("classify", "--model", "bmdrift", "--theta", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["explosion_possible"] is False
        assert payload["hit_prob"] == pytest.approx(math.exp(-1.0))

    def test_inconclusive_exit_two(self, monkeypatch, capsys):
        # psi's index decides every PowerLaw verdict, so the functional is
        # the same x^-1.9 as a Generic, whose panel ratios at infinity sit
        # between the two ratio rules on cpexp
        from levyfn import Generic, cli

        monkeypatch.setattr(cli, "PowerLaw", lambda theta: Generic(
            fn=PowerLaw(theta).values, decreasing=True, bounded_away_from_origin=True))
        code = main(["classify", "--model", "cpexp", "--theta", "1.9"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["extinction_possible"] is None
        assert payload["extinction_verdict"]["route"] == "doubling_panels"

    def test_model_file(self, tmp_path):
        code, out, _ = run_cli("classify", "--model",
                               str(REPO / "models" / "stable15.json"),
                               "--theta", "1.5")
        assert code == 0
        assert json.loads(out)["extinguishing_possible"] is True

    def test_bad_model_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"drift": 0, "gaussian": -1, "jumps": {"family": "none"}}')
        code, _, err = run_cli("classify", "--model", str(bad), "--theta", "1.0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("cfg, needle", [
        ({"drift": 0.2, "gaussian": 0.25,
          "jumps": {"family": "cpexp", "rate": 2.0, "jump_mean": 0.5, "bogus": 1.0}},
         "jump_mean"),
        ({"drift": 0.2, "gaussian": 0.25, "jumps": {"family": "cpexp", "rate": 2.0}},
         "jump_mean"),
        ({"drift": "nan", "gaussian": 0.25, "jumps": {"family": "none"}}, "drift"),
        ({"drift": 0.2, "gaussian": "inf", "jumps": {"family": "none"}}, "gaussian"),
        ({"drift": 0.2, "gaussian": 0.1,
          "jumps": {"family": "tempered", "alpha": 1.2, "scale": "nan", "tempering": 2.0}},
         "scale"),
    ])
    def test_bad_config_is_config_error(self, tmp_path, capsys, cfg, needle):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["classify", "--model", str(bad), "--theta", "1.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err

    @pytest.mark.parametrize("argv, needle", [
        (("--theta", "1", "--x", "nan"), "x must be finite"),
        (("--theta", "1", "--x", "inf"), "x must be finite"),
        (("--theta", "nan"), "theta must be finite and > 0"),
        (("--theta", "inf"), "theta must be finite and > 0"),
    ])
    def test_non_finite_input_is_config_error(self, capsys, argv, needle):
        code = main(["classify", "--model", "bmup", *argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and needle in err

    def test_deterministic_output(self):
        _, a, _ = run_cli("classify", "--model", "bmup", "--theta", "0.7")
        _, b, _ = run_cli("classify", "--model", "bmup", "--theta", "0.7")
        assert a == b


class TestScaleTable:
    def test_csv_shape_and_accuracy(self):
        code, out, _ = run_cli("scale-table", "--model", "stable15",
                               "--count", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,W,W_closed_form,rel_err"
        assert len(lines) == 11
        row = dict(zip(lines[0].split(","), lines[5].split(",")))
        assert abs(float(row["rel_err"])) <= 1e-4

    def test_known_value_row(self):
        code, out, _ = run_cli("scale-table", "--model", "bmup", "--min", "1.0",
                               "--max", "2.0", "--count", "2", "--linear")
        assert code == 0
        first = out.strip().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(1 - math.exp(-1.0), rel=1e-6)

    def test_no_closed_form_columns_empty(self):
        code, out, _ = run_cli("scale-table", "--model", "cpexp", "--count", "3")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",,")

    @pytest.mark.parametrize("argv", [("--max", "inf"), ("--min", "nan"),
                                      ("--min", "1", "--max", "nan")])
    def test_non_finite_grid_is_config_error(self, capsys, argv):
        code = main(["scale-table", "--model", "bmup", "--count", "3", *argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and "need finite 0 < min < max" in err

    def test_negative_grid_rejected(self):
        code, _, err = run_cli("scale-table", "--model", "bmup", "--min", "-1.0")
        assert code == 1
        assert "error" in err


class TestSimulate:
    ARGS = ("simulate", "--model", "bmdrift", "--estimator", "hitprob",
            "--paths", "150", "--dt", "5e-3", "--horizon", "20",
            "--barrier", "15", "--seed", "5")

    def test_outputs_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        code, stdout1, _ = run_cli(*self.ARGS, "--outdir", str(out1))
        assert code == 0
        code, stdout2, _ = run_cli(*self.ARGS, "--outdir", str(out2))
        assert code == 0
        assert stdout1 == stdout2
        for fname in ("paths.csv", "summary.json", "manifest.json"):
            assert (out1 / fname).read_text() == (out2 / fname).read_text()
        csv = (out1 / "paths.csv").read_text().splitlines()
        assert csv[0] == "path_id,status,zeta,A_final"
        assert len(csv) == 151
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["oracles"]["hit_probability"] == pytest.approx(math.exp(-1))
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["flags"]["seed"] == 5

    def test_no_overwrite_without_force(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*self.ARGS, "--outdir", str(out))[0] == 0
        assert run_cli(*self.ARGS, "--outdir", str(out))[0] == 1
        assert run_cli(*self.ARGS, "--outdir", str(out), "--force")[0] == 0

    def test_env_seed_fallback(self, tmp_path):
        args = self.ARGS[:-2]  # drop --seed 5
        _, with_env, _ = run_cli(*args, env={"LEVYFN_SEED": "5"})
        _, with_flag, _ = run_cli(*self.ARGS)
        assert json.loads(with_env) == json.loads(with_flag)

    def test_meanpassage_oracle_included(self):
        code, out, _ = run_cli("simulate", "--model", "bmup", "--estimator",
                               "meanpassage", "--y", "0.01", "--paths", "200",
                               "--dt", "2e-3", "--horizon", "30",
                               "--barrier", "25", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracles"]["occupation_quadrature"] == pytest.approx(0.99, rel=1e-4)
        assert payload["estimate"] == pytest.approx(0.99, abs=0.15)

    @pytest.mark.parametrize("model,kind", [("stable15", "exact"), ("bmdrift", "exact"),
                                            ("cpexp", "truncated")])
    def test_diagnostics_name_the_increments(self, model, kind):
        code, out, _ = run_cli("simulate", "--model", model, "--estimator", "hitprob",
                               "--paths", "100", "--dt", "5e-3", "--horizon", "2",
                               "--barrier", "15", "--seed", "3")
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["increments"] == kind
        assert (diagnostics["jumps_drawn"] == 0) == (kind == "exact")

    @pytest.mark.parametrize("argv, needle", [
        (("--estimator", "hitprob", "--horizon", "inf"), "horizon must be finite"),
        (("--estimator", "hitprob", "--horizon", "nan"), "horizon must be finite"),
        (("--estimator", "hitprob", "--dt", "nan"), "dt must be finite"),
        (("--estimator", "hitprob", "--dt", "inf"), "dt must be finite"),
        (("--estimator", "condexp", "--lam", "nan"), "lam must be finite and > 0"),
        (("--estimator", "condexp", "--lam", "-1"), "lam must be finite and > 0"),
        (("--estimator", "hitprob", "--barrier", "nan"), "barrier must exceed the stop level"),
        (("--estimator", "meanpassage", "--y", "nan"), "y must be finite and > 0"),
        (("--estimator", "hitprob", "--workers", "0"), "workers must be >= 1"),
    ])
    def test_non_finite_input_is_config_error(self, capsys, argv, needle):
        code = main(["simulate", "--model", "bmdrift", "--paths", "100", *argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and needle in err

    def test_json_outputs_are_strict(self, tmp_path, capsys):
        # an infinite barrier is a valid input; strict parsers reject Infinity
        out = tmp_path / "run"
        argv = ["simulate", "--model", "bmdrift", "--estimator", "hitprob", "--paths", "100",
                "--dt", "5e-3", "--horizon", "2", "--barrier", "inf", "--seed", "3"]
        assert main([*argv, "--outdir", str(out)]) == 0
        stdout, _ = capsys.readouterr()

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
        assert manifest["flags"]["barrier"] == "inf"
        json.loads((out / "summary.json").read_text(), parse_constant=reject)
        json.loads(stdout, parse_constant=reject)
        assert main(argv) == 0
        _, err = capsys.readouterr()
        assert json.loads(err, parse_constant=reject)["manifest"]["flags"]["barrier"] == "inf"


class TestSimulateOracles:
    """Oracles that come from the transform-domain formulas."""

    def test_condexp_power_oracle(self):
        code, out, _ = run_cli("simulate", "--model", "cpexp", "--estimator", "condexp",
                               "--f", "power", "--theta", "0.5", "--paths", "100",
                               "--dt", "5e-3", "--horizon", "5", "--barrier", "10",
                               "--seed", "3")
        assert code == 0
        oracles = json.loads(out)["oracles"]
        want = conditional_exp_transform(builtin_model("cpexp"), PowerLaw(0.5), 1.0, 1.0)
        assert oracles["conditional_exp_transform"] == want

    def test_meanpassage_power_oracle_tempered_fast(self, tmp_path):
        # a tempered model with Phi(0) = 0, where the inversion route fails
        model_path = tmp_path / "tempered.json"
        model_path.write_text(json.dumps(
            {"drift": 0.5, "gaussian": 0.1,
             "jumps": {"family": "tempered", "alpha": 1.15, "scale": 1.0,
                       "tempering": 1.5}}))
        argv = ["simulate", "--model", str(model_path), "--estimator", "meanpassage",
                "--f", "power", "--theta", "1.5", "--paths", "100", "--dt", "5e-3",
                "--horizon", "5", "--barrier", "10", "--seed", "3"]
        code, out, _ = run_cli(*argv)
        assert code == 0
        got = json.loads(out)["oracles"]["occupation_quadrature"]
        assert isinstance(got, float) and got > 0.0

        args = build_parser().parse_args(argv)
        model = resolve_model(str(model_path))
        start = time.perf_counter()
        again = _analytic_oracle(model, args)["occupation_quadrature"]
        assert time.perf_counter() - start < 1.0
        assert again == got


class TestVerify:
    def test_analytic_suite_passes(self):
        from levyfn.acceptance import ANALYTIC_CHECKS

        code, out, _ = run_cli("verify", "--suite", "analytic")
        assert code == 0
        n = len(ANALYTIC_CHECKS)
        assert f"{n}/{n} checks passed" in out
        assert out.count("[PASS]") == n and "[FAIL]" not in out

    def test_failing_check_exits_3(self, monkeypatch, capsys):
        from levyfn import acceptance

        def check_always_fails():
            return acceptance._result("always_fails", 0.0, False, "x", "y", "-")

        monkeypatch.setattr(acceptance, "ANALYTIC_CHECKS", [check_always_fails])
        code = main(["verify", "--suite", "analytic"])
        out = capsys.readouterr().out
        assert code == 3
        assert "[FAIL] always_fails" in out
        assert "0/1 checks passed" in out


class TestMainEntry:
    def test_in_process_invocation(self, capsys):
        code = main(["classify", "--model", "stable15", "--theta", "1.0"])
        assert code == 0
        assert "extinction_possible" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("simulate", "--model", "bmdrift", "--estimator", "bogus", "--paths", "100"),
        ("classify", "--model", "bmup", "--theta", "abc"),
        ("scale-table", "--model", "bmup", "--order", "14"),
        ("simulate", "--model", "cpexp", "--estimator", "hitprob", "--paths", "100",
         "--no-small-jump-gaussian"),
    ])
    def test_usage_error_is_config_error(self, capsys, argv):
        # 2 is the code of an inconclusive verdict, not of a typo
        assert main(list(argv)) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("classify", "--model", "bmup", "--theta", "0.7"),
        ("scale-table", "--model", "bmup", "--count", "3"),
        ("simulate", "--model", "bmdrift", "--estimator", "hitprob", "--paths", "100",
         "--dt", "1e-2", "--horizon", "2"),
    ])
    def test_manifest_records_every_option(self, tmp_path, capsys, argv):
        command = argv[0]
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions
                 if a.option_strings and a.dest not in ("help", "outdir", "force")}
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == command
        assert dests and dests <= set(manifest["flags"]), dests - set(manifest["flags"])

    def test_import_loads_no_scipy(self):
        # scipy is imported inside the functions that use it
        code = ("import sys, levyfn.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ), cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
