"""Experiment runner, config parsing, fits, outputs, CLI."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shc_lab import (
    ExperimentConfig,
    ExperimentResult,
    ValidationError,
    fit_loglog,
    parse_config_file,
    run_experiment,
    stable_interval_eigensystem,
    write_outputs,
)
from shc_lab import experiments
from shc_lab.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestFitLoglog:
    def test_exact_power_law(self):
        ts = np.logspace(-2, 2, 9)
        fit = fit_loglog([(t, 3.0 * t ** 2) for t in ts])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.low_confidence

    def test_noisy_power_law(self):
        rng = np.random.default_rng(99)
        ts = np.logspace(-2, 1, 25)
        ys = ts ** 0.5 * (1.0 + 0.01 * rng.standard_normal(ts.size))
        fit = fit_loglog(list(zip(ts, ys)))
        assert fit.slope == pytest.approx(0.5, abs=0.02)

    def test_two_points_low_confidence(self):
        fit = fit_loglog([(1.0, 2.0), (4.0, 8.0)])
        assert fit.slope == pytest.approx(math.log(4.0) / math.log(4.0), rel=1e-12)
        assert fit.low_confidence

    def test_errors(self):
        with pytest.raises(ValidationError):
            fit_loglog([(1.0, 1.0)])
        with pytest.raises(ValidationError):
            fit_loglog([(1.0, -1.0), (2.0, 1.0), (3.0, 1.0)])


class TestConfig:
    def test_parse_with_overrides(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# demo config\n"
            "experiment = large_time\n"
            "seed = 42\n"
            "t_min = 100   # inline comment\n"
            "t_max = 1e4\n"
            "beta = 0.5\n"
        )
        cfg = parse_config_file(p, overrides=["beta=0.3", "t_points=5"])
        assert cfg.beta == 0.3
        assert cfg.t_points == 5
        assert cfg.seed == 42

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = large_time\nseed = 1\nt_min = 1\nt_max = 2\nbogus = 3\n")
        with pytest.raises(ValidationError):
            parse_config_file(p)

    def test_dt_is_not_a_key(self, tmp_path):
        # small_time_mc always walks adaptively, with n_steps
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = small_time_mc\nseed = 1\nt_min = 1\nt_max = 2\n")
        with pytest.raises(ValidationError, match="unknown config key 'dt'"):
            parse_config_file(p, overrides=["dt=0.01"])

    def test_seed_mandatory(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = large_time\nt_min = 1\nt_max = 2\n")
        with pytest.raises(ValidationError):
            parse_config_file(p)

    def test_non_integral_int_rejected(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = large_time\nseed = 1.5\nt_min = 1\nt_max = 2\n")
        with pytest.raises(ValidationError):
            parse_config_file(p)
        cfg = parse_config_file(p, overrides=["seed=7", "n_paths=1e5"])
        assert (cfg.seed, cfg.n_paths) == (7, 100_000)

    def test_unknown_phi_fails_at_parse(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = large_time\nseed = 1\nt_min = 1\nt_max = 2\nphi = bogus\n")
        with pytest.raises(ValidationError):
            parse_config_file(p)
        with pytest.raises(ValidationError):
            parse_config_file(p, overrides=["phi=stable", "beta=1.5"])

    def test_negative_seed_fails_at_parse(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = large_time\nseed = 1\nt_min = 1\nt_max = 2\n")
        with pytest.raises(ValidationError):
            parse_config_file(p, overrides=["seed=-1"])
        assert parse_config_file(p, overrides=["seed=0"]).seed == 0

    @pytest.mark.parametrize("experiment", ["transform_consistency", "moment_laws", "tail_probe"])
    def test_stable_only_experiment_fails_at_parse(self, tmp_path, experiment):
        p = tmp_path / "exp.cfg"
        p.write_text(f"experiment = {experiment}\nseed = 1\nt_min = 1\nt_max = 2\n")
        with pytest.raises(ValidationError):
            parse_config_file(p, overrides=["phi=tempered"])
        assert parse_config_file(p).phi == "stable"

    @pytest.mark.parametrize("experiment", ["large_time", "subordinate_rate"])
    def test_series_experiment_rejects_ignored_alpha(self, tmp_path, experiment):
        # every alpha in (0, 2] has its eigen series; one outside is rejected
        p = tmp_path / "exp.cfg"
        p.write_text(f"experiment = {experiment}\nseed = 1\nt_min = 1\nt_max = 2\n")
        assert parse_config_file(p, overrides=["alpha=1.5", "truncation=500"]).alpha == 1.5
        assert parse_config_file(p, overrides=["alpha=2"]).alpha == 2.0
        for alpha in ("0", "2.5"):
            with pytest.raises(ValidationError, match="alpha must be in"):
                parse_config_file(p, overrides=[f"alpha={alpha}"])
        # the Galerkin basis below alpha = 2 costs O(truncation^3)
        with pytest.raises(ValidationError, match="truncation must be <= 1000"):
            parse_config_file(p, overrides=["alpha=1.5", "truncation=1001"])

    @pytest.mark.parametrize("domain_b", ["-1", "0"])
    def test_unordered_domain_fails_at_parse(self, tmp_path, domain_b):
        # alpha = 1.5: the small-time law has no regime at the default alpha = 2
        p = tmp_path / "exp.cfg"
        p.write_text("experiment = small_time_mc\nseed = 1\nt_min = 1\nt_max = 2\nalpha = 1.5\n")
        with pytest.raises(ValidationError, match="need a < b"):
            parse_config_file(p, overrides=[f"domain_b={domain_b}"])
        assert parse_config_file(p, overrides=["domain_b=0.5"]).domain_b == 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                experiment="large_time", seed=1, t_min=1.0, t_max=10.0, t_points=0
            )

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="nope", seed=1, t_min=1.0, t_max=2.0)


class TestRunners:
    def test_large_time_ratios_approach_one(self):
        cfg = ExperimentConfig(
            experiment="large_time", seed=3, t_min=1e2, t_max=1e4, t_points=3,
            beta=0.5, truncation=2001, tolerance=1e-9,
        )
        res = run_experiment(cfg)
        ratios = [r.ratio for r in res.rows]
        assert all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.001
        assert res.summary["expected_slope"] == -0.5

    def test_transform_consistency_summary(self):
        cfg = ExperimentConfig(
            experiment="transform_consistency", seed=4, t_min=0.01, t_max=10.0,
            t_points=7, beta=0.5, tolerance=1e-9,
        )
        res = run_experiment(cfg)
        assert res.summary["max_abs_diff"] <= 1e-6

    def test_moment_laws_summary(self):
        cfg = ExperimentConfig(
            experiment="moment_laws", seed=5, t_min=1e-4, t_max=1.0, t_points=2,
            beta=0.3,
        )
        res = run_experiment(cfg)
        assert res.summary["max_rel_err"] <= 1e-6

    def test_subordinate_rate_log_derivative(self):
        cfg = ExperimentConfig(
            experiment="subordinate_rate", seed=6, t_min=10.0, t_max=50.0,
            t_points=5, phi="tempered", beta=0.5, kappa=2.0, tolerance=1e-30,
        )
        res = run_experiment(cfg)
        assert res.summary["log_derivative"] == pytest.approx(
            math.sqrt(3.0) - math.sqrt(2.0), rel=1e-6
        )

    def test_large_time_alpha_below_two(self):
        # the Galerkin eigen series drives the experiment at alpha = 1.5
        cfg = ExperimentConfig(
            experiment="large_time", seed=3, t_min=1e2, t_max=1e4, t_points=3,
            alpha=1.5, beta=0.5, truncation=500, tolerance=1e-8,
        )
        res = run_experiment(cfg)
        ratios = [r.ratio for r in res.rows]
        assert all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.001
        assert all(0.0 < r.error_bound <= 1e-8 for r in res.rows)

    def test_subordinate_rate_alpha_below_two(self):
        cfg = ExperimentConfig(
            experiment="subordinate_rate", seed=6, t_min=10.0, t_max=50.0, t_points=5,
            alpha=1.5, phi="tempered", beta=0.5, kappa=2.0, truncation=300, tolerance=1e-30,
        )
        res = run_experiment(cfg)
        lam1 = stable_interval_eigensystem(cfg.domain, 1.5, 300).lambdas[0]
        assert res.summary["expected_rate"] == pytest.approx(
            math.sqrt(lam1 + 2.0) - math.sqrt(2.0), rel=1e-14
        )
        assert res.summary["log_derivative"] == pytest.approx(
            res.summary["expected_rate"], rel=1e-6
        )

    def test_small_time_mc_runs_and_is_deterministic(self):
        cfg = ExperimentConfig(
            experiment="small_time_mc", seed=7, t_min=1e-3, t_max=1e-2, t_points=3,
            alpha=0.5, beta=0.5, domain_a=0.0, domain_b=1.0, n_paths=4000, n_steps=32,
        )
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.to_csv() == r2.to_csv()
        assert all(0.0 <= row.computed <= 1.0 for row in r1.rows)

    def test_worker_invariance(self):
        cfg = ExperimentConfig(
            experiment="small_time_mc", seed=8, t_min=1e-3, t_max=1e-2, t_points=2,
            alpha=0.5, beta=0.5, domain_a=0.0, domain_b=1.0, n_paths=20_000, n_steps=32,
        )
        r1 = run_experiment(cfg, workers=1)
        r2 = run_experiment(cfg, workers=2)
        assert r1.to_csv() == r2.to_csv()

    def test_small_time_law_fails_before_the_walk(self, monkeypatch):
        # the drift exponent has index 1 at infinity, outside the law; the
        # parser rejects it, so no config reaches the walk
        def walk(*args, **kwargs):
            raise AssertionError("paths walked for a config the law rejects")

        monkeypatch.setattr(experiments, "monte_carlo_heat_content_grid", walk)
        with pytest.raises(ValidationError, match="index at infinity"):
            run_experiment(parse_config_file(CONFIGS / "small_time_mc.cfg", ["phi=drift"]))

    def test_tail_probe_runner(self):
        cfg = ExperimentConfig(
            experiment="tail_probe", seed=9, t_min=4e-3, t_max=4e-2, t_points=5,
            beta=0.5, n_paths=100_000, delta=0.25,
        )
        res = run_experiment(cfg)
        assert res.summary["expected_slope"] == -1.0
        assert abs(res.summary["slope"] + 1.0) < 0.35
        # each row carries the 95% half-width of its own -ln p; the slope
        # CI stays in the summary
        for row in res.rows:
            p = math.exp(-row.computed)
            assert row.error_bound == pytest.approx(1.96 * math.sqrt((1.0 - p) / (100_000 * p)))


class TestOutputs:
    def _cfg(self):
        return ExperimentConfig(
            experiment="large_time", seed=10, t_min=1e2, t_max=1e3, t_points=3,
            beta=0.5, truncation=1001, tolerance=1e-8,
        )

    def test_csv_json_row_agreement(self, tmp_path):
        res = run_experiment(self._cfg())
        csv_path, json_path = write_outputs(res, tmp_path)
        csv_rows = csv_path.read_text().strip().splitlines()[1:]
        payload = json.loads(json_path.read_text())
        assert len(csv_rows) == len(payload["rows"])
        for line, jr in zip(csv_rows, payload["rows"]):
            t, computed, reference, ratio, err, method = line.split(",")
            assert float(t) == jr["t"]
            assert float(computed) == jr["computed"]
            assert float(reference) == jr["reference"]
            assert float(ratio) == jr["ratio"]
            assert method == jr["method"]

    def test_nan_ratio_written_as_null(self):
        from shc_lab.experiments import ExperimentRow

        res = ExperimentResult(
            config={"experiment": "large_time"},
            rows=(ExperimentRow(1.0, 0.5, 0.0, 0.0, "series"),),
            summary={"final_ratio": math.nan},
            wall_clock=0.0,
        )
        text = res.to_json()
        assert "NaN" not in text
        payload = json.loads(text)
        assert payload["rows"][0]["ratio"] is None
        assert payload["summary"]["final_ratio"] is None

    def test_rerun_byte_identical(self, tmp_path):
        a = run_experiment(self._cfg())
        b = run_experiment(self._cfg())
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_run_record_kept_apart(self, tmp_path):
        res = run_experiment(self._cfg())
        csv_path, json_path = write_outputs(res, tmp_path)
        assert "wall_clock" not in json.loads(json_path.read_text())
        record = json.loads((tmp_path / "large_time.run.json").read_text())
        assert record["wall_clock"] == res.wall_clock
        assert record["experiment"] == "large_time"
        assert {"python", "numpy", "scipy"} <= set(record)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "large_time.csv", "large_time.json", "large_time.run.json",
        ]


class TestCli:
    def _write_cfg(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "experiment = large_time\nseed = 11\nt_min = 100\nt_max = 1000\n"
            "t_points = 3\nbeta = 0.5\ntruncation = 1001\ntolerance = 1e-8\n"
        )
        return p

    def test_run_success(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        code = cli_main(["run", str(p), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "large_time.csv").exists()
        assert (tmp_path / "out" / "large_time.json").exists()

    def test_set_override_changes_echo(self, tmp_path):
        p = self._write_cfg(tmp_path)
        out = tmp_path / "out2"
        code = cli_main(["run", str(p), "--set", "beta=0.3", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "large_time.json").read_text())
        assert payload["config"]["beta"] == 0.3

    def test_out_echo_names_directory_used(self, tmp_path):
        p = self._write_cfg(tmp_path)
        out = tmp_path / "out3"
        assert cli_main(["run", str(p), "--out", str(out)]) == 0
        payload = json.loads((out / "large_time.json").read_text())
        assert payload["config"]["out"] == str(out)

    def test_validation_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("experiment = large_time\nt_min = 1\nt_max = 2\n")  # no seed
        assert cli_main(["run", str(p)]) == 2

    def test_unordered_domain_exit_code(self, tmp_path):
        p = self._write_cfg(tmp_path)
        out = tmp_path / "out5"
        assert cli_main(["run", str(p), "--set", "domain_b=-1", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["small_time_mc", "large_time"])
    def test_overflowing_domain_exit_code(self, tmp_path, experiment):
        # finite endpoints whose length b - a overflows fail at parse
        out = tmp_path / "out"
        cfg = CONFIGS / f"{experiment}.cfg"
        args = ["--set", "domain_a=-1e308", "--set", "domain_b=1e308", "--out", str(out)]
        assert cli_main(["run", str(cfg), *args]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,overrides",
        [
            ("small_time_mc", ["alpha=2"]),
            ("small_time_mc", ["phi=drift"]),
            ("small_time_mc", ["phi=sum", "b=1"]),
            ("large_time", ["phi=tempered"]),
            ("large_time", ["phi=drift"]),
        ],
    )
    def test_law_domain_mismatch_exit_code(self, tmp_path, experiment, overrides):
        # an alpha or exponent outside the experiment's law fails at parse
        cfg = CONFIGS / f"{experiment}.cfg"
        with pytest.raises(ValidationError, match="law needs|regimes need"):
            parse_config_file(cfg, overrides)
        out = tmp_path / "out"
        args = [a for o in overrides for a in ("--set", o)]
        assert cli_main(["run", str(cfg), *args, "--out", str(out)]) == 2
        assert not out.exists()

    def test_ignored_alpha_exit_code(self, tmp_path):
        # truncation 1001 is above the cap for a Galerkin basis (alpha < 2)
        p = self._write_cfg(tmp_path)
        out = tmp_path / "out4"
        assert cli_main(["run", str(p), "--set", "alpha=1.5", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,override",
        [
            ("large_time", "t_points=1"),
            ("large_time", "t_max=1e2"),
            ("subordinate_rate", "t_points=1"),
            ("subordinate_rate", "t_max=10"),
            ("small_time_mc", "t_points=1"),
            ("small_time_mc", "t_max=1e-4"),
            ("tail_probe", "t_points=2"),
            ("tail_probe", "t_max=0.023"),
        ],
    )
    def test_unfittable_grid_exit_code(self, tmp_path, experiment, override):
        # the shipped config with a grid its fit cannot use fails at parse
        out = tmp_path / "out"
        cfg = CONFIGS / f"{experiment}.cfg"
        assert cli_main(["run", str(cfg), "--set", override, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,override",
        [
            ("large_time", "tolerance=nan"),
            ("transform_consistency", "tolerance=nan"),
            ("subordinate_rate", "kappa=nan"),
            ("subordinate_rate", "kappa=inf"),
        ],
    )
    def test_nan_parameter_exit_code(self, tmp_path, experiment, override):
        # NaN fails a "<= 0" check, so each check asks for the good case
        out = tmp_path / "out"
        cfg = CONFIGS / f"{experiment}.cfg"
        assert cli_main(["run", str(cfg), "--set", override, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,override",
        [
            ("large_time", "tolerance=inf"),
            ("transform_consistency", "tolerance=inf"),
            ("moment_laws", "alpha=nan"),
            ("moment_laws", "alpha=inf"),
            ("moment_laws", "alpha=0"),
            ("tail_probe", "alpha=2.5"),
            ("large_time", "t_max=inf"),
            ("small_time_mc", "domain_b=inf"),
            ("small_time_mc", "domain_a=-inf"),
            ("large_time", "alpha=1.5"),  # the shipped truncation 4001 is above the cap
        ],
    )
    def test_bad_float_exit_code(self, tmp_path, experiment, override):
        # rejected at parse; most of these used to run before failing or finishing
        out = tmp_path / "out"
        cfg = CONFIGS / f"{experiment}.cfg"
        assert cli_main(["run", str(cfg), "--set", override, "--out", str(out)]) == 2
        assert not out.exists()

    def test_alpha_below_two_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = CONFIGS / "large_time.cfg"
        args = ["--set", "alpha=1.5", "--set", "truncation=500", "--out", str(out)]
        assert cli_main(["run", str(cfg), *args]) == 0
        payload = json.loads((out / "large_time.json").read_text())
        assert len(payload["rows"]) == 9
        assert all(row["error_bound"] <= 1e-8 for row in payload["rows"])
        assert abs(payload["summary"]["final_ratio"] - 1.0) <= 1e-5

    def test_numerical_exit_code(self, tmp_path):
        # truncation budget too small for the requested tolerance
        p = tmp_path / "exp.cfg"
        p.write_text(
            "experiment = large_time\nseed = 12\nt_min = 100\nt_max = 1000\n"
            "t_points = 3\nbeta = 0.5\ntruncation = 9\ntolerance = 1e-12\n"
        )
        assert cli_main(["run", str(p), "--out", str(tmp_path)]) == 3

    def test_bad_set_syntax(self, tmp_path):
        p = self._write_cfg(tmp_path)
        assert cli_main(["run", str(p), "--set", "beta0.3"]) == 2

    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("large_time", "subordinate_rate", "small_time_mc",
                     "transform_consistency", "moment_laws", "tail_probe"):
            assert name in out

    def test_console_script_entry(self, tmp_path):
        # the installed entry point answers over a subprocess too
        proc = subprocess.run(
            [sys.executable, "-m", "shc_lab.cli", "list-experiments"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "tail_probe" in proc.stdout
