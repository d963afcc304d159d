import csv
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from seqdetect import engine, oracle
from seqdetect.cli import SIMULATE_HEADER, _deviation, load_config, main
from seqdetect.errors import ConfigError
from seqdetect.montecarlo import ExperimentConfig, first_order_rates, run_experiment


def base_config():
    return {
        "experiment": "unit",
        "model": {"family": "gaussian", "delta": 0.1},
        "truth": {"k": 2, "signal_set": [1], "theta1": 0.5, "theta0": -0.5},
        "run": {
            "kinds": ["constrained", "unconstrained"],
            "log_thresholds": [2.0],
            "trials": 8,
            "seed": 11,
        },
        "output": {"directory": "."},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# The configs that CI simulates at 1 and 2 workers.
CONFIGS = Path(__file__).parent / "configs"
# validate's line for the config-truth constants past the grid's stream cap.
SKIP_PAST_THE_CAP = "SKIP constants-config: subset enumeration supports at most 16 streams"


def stub_monte_carlo(monkeypatch):
    """Stub validate's two Monte Carlo estimates to their targets, so that a
    test runs only its closed-form and grid checks."""
    monkeypatch.setattr(oracle, "mean_one_martingale_estimate", lambda *args: (1.0, 0.01))
    monkeypatch.setattr(
        oracle, "lln_rate_estimate",
        lambda model, theta, n, trials, kinds, rng: first_order_rates(model, theta, kinds),
    )


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        spec = load_config(write_config(tmp_path, base_config()))
        assert spec.experiment == "unit"
        assert spec.theta.thetas == (0.5, -0.5)
        assert spec.trials == 8
        assert spec.base_seed == 11
        assert spec.n_max == 10**6
        assert [k.value for k in spec.kinds] == ["constrained", "unconstrained"]

    def test_spec_is_the_experiment_config(self, tmp_path):
        spec = load_config(write_config(tmp_path, base_config()))
        assert isinstance(spec, ExperimentConfig)
        summaries = run_experiment(spec, workers=1)
        assert [(s.kind.value, s.trials) for s in summaries] == [
            ("constrained", 8), ("unconstrained", 8),
        ]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update(extra=1),
            lambda c: c["model"].update(extra=1),
            lambda c: c["truth"].update(extra=1),
            lambda c: c["run"].update(extra=1),
            lambda c: c["output"].update(extra=1),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, mutate):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, cfg))

    def test_model_validation(self, tmp_path):
        cfg = base_config()
        cfg["model"] = {"family": "gaussian", "delta": 0.1, "noise_region": [None, -0.1]}
        with pytest.raises(ConfigError, match="not both"):
            load_config(write_config(tmp_path, cfg))
        cfg["model"] = {"family": "bernoulli", "delta": 0.1}
        with pytest.raises(ConfigError, match="Gaussian shorthand"):
            load_config(write_config(tmp_path, cfg))
        cfg["model"] = {
            "family": "bernoulli",
            "noise_region": [None, 0.4],
            "signal_region": [0.6, 0.8],
        }
        with pytest.raises(ConfigError, match="Gaussian-only"):
            load_config(write_config(tmp_path, cfg))
        cfg["model"] = {"family": "poisson", "delta": 0.1}
        with pytest.raises(ConfigError, match="family"):
            load_config(write_config(tmp_path, cfg))

    def test_explicit_regions(self, tmp_path):
        cfg = base_config()
        cfg["model"] = {
            "family": "bernoulli",
            "noise_region": [0.2, 0.4],
            "signal_region": [0.6, 0.8],
        }
        cfg["truth"] = {"k": 2, "signal_set": [1], "theta1": 0.7, "theta0": 0.3}
        spec = load_config(write_config(tmp_path, cfg))
        assert spec.model.space.theta1_lo == 0.6

    def test_truth_validation(self, tmp_path):
        cfg = base_config()
        cfg["truth"]["theta1"] = 0.05
        with pytest.raises(ConfigError, match="signal region"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["truth"]["signal_set"] = [1, 1]
        with pytest.raises(ConfigError, match="twice"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["truth"]["signal_set"] = [0]
        with pytest.raises(ConfigError, match="outside 1..2"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["truth"]["signal_set"] = [3]
        with pytest.raises(ConfigError, match="outside"):
            load_config(write_config(tmp_path, cfg))

    def test_run_validation(self, tmp_path):
        cfg = base_config()
        cfg["run"]["thresholds"] = [[2.0, 2.0]]
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        del cfg["run"]["log_thresholds"]
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["kinds"] = ["constrained", "constrained"]
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["kinds"] = []
        with pytest.raises(ConfigError, match="test kind"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["log_thresholds"] = []
        with pytest.raises(ConfigError, match="threshold pair"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["trials"] = 0
        with pytest.raises(ConfigError, match="trials must be positive"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["n_max"] = 0
        with pytest.raises(ConfigError, match="n_max"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["kinds"] = ["bayes"]
        with pytest.raises(ConfigError, match="kinds"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["run"]["trials"] = True
        with pytest.raises(ConfigError, match="integer"):
            load_config(write_config(tmp_path, cfg))

    def test_levels_are_log_transformed(self, tmp_path):
        cfg = base_config()
        del cfg["run"]["log_thresholds"]
        cfg["run"]["levels"] = [[0.05, 0.05]]
        spec = load_config(write_config(tmp_path, cfg))
        assert spec.thresholds[0].log_a == pytest.approx(math.log(20.0), abs=1e-12)

    def test_threshold_pairs(self, tmp_path):
        cfg = base_config()
        del cfg["run"]["log_thresholds"]
        cfg["run"]["thresholds"] = [[1.5, 4.0]]
        spec = load_config(write_config(tmp_path, cfg))
        assert (spec.thresholds[0].log_a, spec.thresholds[0].log_b) == (1.5, 4.0)

    def test_output_validation(self, tmp_path):
        # simulate always prints its table and writes its CSV, so a config
        # that still names output formats is rejected.
        cfg = base_config()
        cfg["output"]["formats"] = ["csv", "table"]
        with pytest.raises(ConfigError, match="unknown key.*formats"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["output"]["directory"] = 3
        with pytest.raises(ConfigError, match="directory must be a string"):
            load_config(write_config(tmp_path, cfg))

    def test_output_section_optional(self, tmp_path):
        cfg = base_config()
        del cfg["output"]
        spec = load_config(write_config(tmp_path, cfg))
        assert spec.out_dir == "."

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("no_such_config_anywhere")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_ci_configs_load(path):
    # Each file is one that CI simulates; its experiment name names its CSV.
    spec = load_config(str(path))
    assert spec.experiment == path.stem


class TestPresets:
    def test_desk_preset(self):
        spec = load_config("desk_fig1")
        assert spec.experiment == "desk_fig1"
        assert len(spec.thresholds) == 4
        assert spec.trials == 2000
        assert spec.base_seed == 20260819
        assert spec.theta.thetas == (0.5, -0.5)

    def test_a_directory_does_not_shadow_a_preset(self, tmp_path, monkeypatch):
        # `simulate --out desk_fig1` leaves such a directory behind.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "desk_fig1").mkdir()
        assert load_config("desk_fig1").experiment == "desk_fig1"

    def test_full_sweep_preset_with_extension(self):
        spec = load_config("paper_fig1.json")
        assert spec.experiment == "paper_fig1"
        assert len(spec.thresholds) == 6


class TestMainExitCodes:
    def test_missing_config(self, capsys):
        assert main(["info", "--config", "does_not_exist"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_trials_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg, "--trials", "0"]) == 2
        assert "trials must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run, flags, message",
        [
            ({}, ["--trials", "0"], "error: --trials must be positive"),
            ({"trials": 0}, [], "error: run.trials must be positive"),
            ({"kinds": []}, [], "error: run.kinds must name at least one test kind"),
            ({"n_max": 0}, [], "error: run.n_max must be at least 1"),
            ({"log_thresholds": []}, [], "error: run.log_thresholds must hold"),
            (
                {"log_thresholds": [2, 2]}, [],
                "error: run.log_thresholds must not hold duplicate threshold pairs",
            ),
        ],
    )
    def test_config_errors_name_the_key_or_flag(self, tmp_path, capsys, run, flags, message):
        # The checks live in ExperimentConfig; the CLI names where the value came from.
        cfg_dict = base_config()
        cfg_dict["run"].update(run)
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["simulate", "--config", cfg, *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("truth", {"theta1": 0.05}, "truth.theta1=0.05 not in the signal region [0.1, inf]"),
            ("truth", {"theta1": "x"}, "truth.theta1 must be a number"),
            ("truth", {"theta0": -0.05}, "truth.theta0=-0.05 not in the noise region [-inf, -0.1]"),
            ("truth", {"theta0": [1]}, "truth.theta0 must be a number"),
            (
                "model", {"family": "poisson"},
                "model.family must be one of gaussian, bernoulli; got 'poisson'",
            ),
            (
                "run", {"kinds": ["constrained", "bayes"]},
                "run.kinds entry 'bayes' not one of constrained, unconstrained",
            ),
        ],
    )
    def test_config_messages(self, tmp_path, capsys, section, values, message):
        cfg_dict = base_config()
        cfg_dict[section].update(values)
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["info", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, entry, message",
        [
            ("thresholds", [2.0], "run.thresholds entries must be [log_a, log_b] pairs"),
            ("thresholds", 2.0, "run.thresholds entries must be [log_a, log_b] pairs"),
            ("thresholds", ["x", 2.0], "run.thresholds log_a must be a number"),
            ("thresholds", [2.0, None], "run.thresholds log_b must be a number"),
            ("levels", [0.1, 0.1, 0.1], "run.levels entries must be [alpha, beta] pairs"),
            ("levels", [True, 0.1], "run.levels alpha must be a number"),
            ("levels", [0.1, "x"], "run.levels beta must be a number"),
            ("levels", [0.1, 1.0], "alpha and beta must lie in (0, 1)"),
            ("log_thresholds", [2.0, 2.0], "run.log_thresholds entry must be a number"),
        ],
    )
    def test_threshold_entry_messages(self, tmp_path, capsys, key, entry, message):
        # A valid entry first, so the check runs on every entry.
        cfg_dict = base_config()
        del cfg_dict["run"]["log_thresholds"]
        valid = {"thresholds": [2.0, 3.0], "levels": [0.5, 0.5], "log_thresholds": 2.0}[key]
        cfg_dict["run"][key] = [valid, entry]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["info", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["trials", "n_max"])
    def test_validate_rejects_nonpositive_counts(self, tmp_path, capsys, key):
        # Every subcommand loads the same checked experiment config, so
        # validate refuses what simulate refuses, though it reads neither value.
        cfg_dict = base_config()
        cfg_dict["run"][key] = 0
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg, "--quick"]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("info", ["--trials", "5"]),
            ("info", ["--seed", "3"]),
            ("info", ["--trials", "0"]),
            ("validate", ["--quick", "--trials", "5"]),
            ("validate", ["--quick", "--out", "DIR"]),
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_refused(
        self, tmp_path, monkeypatch, capsys, command, flags
    ):
        # info reads no trial count or seed, and validate no trial count or
        # output directory: argparse refuses them, before anything is written.
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)  # the config's output directory is "."
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flags])
        assert exc.value.code == 2
        # The subcommand that received the flag reports it, with its own usage.
        err = capsys.readouterr().err
        assert err.startswith(f"usage: seqdetect {command} ")
        assert f"seqdetect {command}: error: unrecognized arguments: {flags[-2]}" in err
        assert list(out.iterdir()) == []

    def test_figure_is_not_a_subcommand(self, capsys):
        # simulate's ess, ess_se and approx_ess columns carry the figure.
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--config", "desk_fig1"])
        assert exc.value.code == 2
        assert "invalid choice: 'figure'" in capsys.readouterr().err

    def test_validate_beyond_enumeration_cap(self, tmp_path, monkeypatch, capsys):
        # The grid references enumerate 2^K assignments; validate must skip
        # the config-truth check with the capacity message instead of
        # scanning 2^17 of them, and take its exit code from the other checks.
        cfg_dict = base_config()
        cfg_dict["truth"]["k"] = 17
        cfg = write_config(tmp_path, cfg_dict)
        stub_monte_carlo(monkeypatch)
        assert main(["validate", "--config", cfg, "--quick"]) == 0
        captured = capsys.readouterr()
        assert SKIP_PAST_THE_CAP in captured.out
        assert captured.err == ""


class TestInfoCommand:
    def test_prints_constants_and_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["info", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "signal set     {1}" in out
        assert "i0" in out and "0.26" in out
        rows = read_csv(tmp_path / "unit_info.csv")
        assert rows[0] == ["quantity", "log_a", "log_b", "value"]
        by_name = {r[0]: r for r in rows[1:]}
        assert float(by_name["i0"][3]) == pytest.approx(0.26, abs=1e-12)
        assert float(by_name["i1_tilde"][3]) == pytest.approx(0.18, abs=1e-12)
        assert "lower_bound" in by_name and "approx_constrained" in by_name

    def test_csv_quantity_order(self, tmp_path, capsys):
        # The constants, then each threshold pair's bound and approximations.
        cfg_dict = base_config()
        del cfg_dict["run"]["log_thresholds"]
        cfg_dict["run"]["thresholds"] = [[2.0, 3.0], [4.0, 1.5]]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["info", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "unit_info.csv")
        assert [r[:3] for r in rows[1:]] == [
            ["i0", "", ""], ["i1", "", ""], ["i0_tilde", "", ""], ["i1_tilde", "", ""],
            ["lower_bound", "2", "3"],
            ["approx_constrained", "2", "3"],
            ["approx_unconstrained", "2", "3"],
            ["lower_bound", "4", "1.5"],
            ["approx_constrained", "4", "1.5"],
            ["approx_unconstrained", "4", "1.5"],
        ]

    def test_out_of_hypothesis_cell_noted(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["run"]["log_thresholds"] = [0.5]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["info", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "note:" in out and "hypothesis" in out
        rows = read_csv(tmp_path / "unit_info.csv")
        bound = [r for r in rows if r[0] == "lower_bound"][0]
        assert bound[3] == "nan"


class TestSimulateCommand:
    def test_csv_contract_and_reproducibility(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        capsys.readouterr()
        rows = read_csv(out_a / "unit_results.csv")
        assert rows[0] == SIMULATE_HEADER
        assert len(rows) == 1 + 2  # one threshold, two kinds
        assert rows[1][0] == "constrained" and rows[2][0] == "unconstrained"
        assert (out_a / "unit_results.csv").read_bytes() == (
            out_b / "unit_results.csv"
        ).read_bytes()

    def test_seed_changes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert (
            main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "12"]) == 0
        )
        capsys.readouterr()
        assert (out_a / "unit_results.csv").read_bytes() != (
            out_b / "unit_results.csv"
        ).read_bytes()

    def test_table_format_prints_rows(self, tmp_path, capsys):
        # No output section: the table is printed all the same.
        cfg_dict = base_config()
        del cfg_dict["output"]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "ess" in out
        assert "constrained" in out

    def test_default_out_dir_from_config(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["output"]["directory"] = str(tmp_path / "nested" / "dir")
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert (tmp_path / "nested" / "dir" / "unit_results.csv").exists()


class TestValidateCommand:
    def test_quick_run_passes(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["run"]["kinds"] = ["constrained"]
        cfg_dict["run"]["seed"] = 20260819
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg, "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS constants-config" in out
        assert "PASS engine-grid" in out
        assert "PASS martingale-n10" in out
        assert "PASS lln-constrained" in out
        assert "lln-unconstrained" not in out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_infinite_drift_targets_skip_the_simulation(self, tmp_path, monkeypatch, capsys):
        # With no signal stream both kinds' first-order rates are infinite,
        # so check 5 prints its SKIP lines and simulates nothing.
        cfg_dict = json.loads(
            resources.files("seqdetect").joinpath("presets/desk_fig1.json").read_text()
        )
        cfg_dict["truth"]["signal_set"] = []
        cfg = write_config(tmp_path, cfg_dict)

        def unexpected(*args):
            raise AssertionError("lln_rate_estimate called")

        monkeypatch.setattr(oracle, "lln_rate_estimate", unexpected)
        assert main(["validate", "--config", cfg, "--quick"]) == 0
        out = capsys.readouterr().out
        for kind in engine.TestKind:
            assert f"SKIP lln-{kind.value}: infinite target for this truth" in out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_bernoulli_engine_grid(self, monkeypatch, capsys):
        # CI's three-stream Bernoulli config, whose engine-grid check runs the
        # kernel's Bernoulli suprema (numpy logs choose, libm scores).  Both
        # Monte Carlo estimates are stubbed to their targets to keep it fast.
        stub_monte_carlo(monkeypatch)
        assert main(["validate", "--config", str(CONFIGS / "bern3.json"), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS engine-grid" in out
        assert "FAIL" not in out

    def test_thirty_two_streams_skip_the_grid_constants(self, monkeypatch, capsys):
        # CI's K = 32 Gaussian config, which simulate runs: the config-truth
        # constants check is past the grid reference's cap, so it is skipped
        # with the reason and every other check runs.  Both Monte Carlo
        # estimates are stubbed to their targets, as above.
        stub_monte_carlo(monkeypatch)
        assert main(["validate", "--config", str(CONFIGS / "gauss32.json"), "--quick"]) == 0
        captured = capsys.readouterr()
        assert SKIP_PAST_THE_CAP in captured.out
        assert "error:" not in captured.out + captured.err
        assert "PASS engine-grid" in captured.out and "all checks passed" in captured.out

    @pytest.mark.parametrize("shifted", ["gap", "truth"])
    def test_gaussian_grid_box_covers_the_config(self, shifted, tmp_path, monkeypatch, capsys):
        # The grid box of checks 1 to 3 widens past [-5, 5] to hold the
        # truths and the gap: CI's config with regions (-inf, 5.5] and
        # [6, inf), truth 6.5 / 5.0, and the desk regions with truth
        # 6.0 / -0.5.  Both Monte Carlo estimates are stubbed to their targets.
        stub_monte_carlo(monkeypatch)
        cfg = str(CONFIGS / "gauss2shifted.json")
        if shifted == "truth":
            cfg_dict = base_config()
            cfg_dict["truth"]["theta1"] = 6.0
            cfg = write_config(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg, "--quick"]) == 0
        captured = capsys.readouterr()
        assert "error:" not in captured.out + captured.err
        assert "FAIL" not in captured.out and "all checks passed" in captured.out

    def test_seed_flag_overrides_run_seed(self, tmp_path, monkeypatch, capsys):
        # Checks 2 and 3 draw their truths and states from the seed.
        stub_monte_carlo(monkeypatch)
        cfg_dict = base_config()
        cfg = write_config(tmp_path, cfg_dict)
        cfg_dict["run"]["seed"] = 7
        seeded = write_config(tmp_path, cfg_dict, "seeded.json")
        assert main(["validate", "--config", seeded, "--quick"]) == 0
        expected = capsys.readouterr().out
        assert main(["validate", "--config", cfg, "--quick"]) == 0
        assert capsys.readouterr().out != expected
        assert main(["validate", "--config", cfg, "--quick", "--seed", "7"]) == 0
        assert capsys.readouterr().out == expected

    def test_deviation_is_infinite_on_nan_or_unequal_infinities(self):
        inf, nan = math.inf, math.nan
        assert _deviation([1.0, -inf], [1.5, -inf]) == 0.5
        for g, r in ((nan, 0.0), (0.0, nan), (nan, nan), (inf, -inf)):
            assert _deviation([0.0, g], [0.0, r]) == inf

    def test_engine_grid_checks_the_kernel(self, monkeypatch, capsys):
        coupled = engine._coupled_sups

        def shifted(*args):
            l0, l1 = coupled(*args)
            return l0 + 1e-3, l1 + 1e-3

        monkeypatch.setattr(engine, "_coupled_sups", shifted)
        assert main(["validate", "--config", "desk_fig1", "--quick"]) == 1
        assert "FAIL engine-grid" in capsys.readouterr().out
