import os

import numpy as np
import pytest

from xproplab.cli import main
from xproplab.data import estimate_priors, parse_xmlc_file
from xproplab.datagen import HyperBallConfig, generate_hyperball
from xproplab.experiments import (ConfigError, ExperimentConfig,
                                  ExperimentReport, emit_plot_data,
                                  hyperball_config, parse_propensity_spec,
                                  run_feasibility_demo,
                                  run_mismatch_experiment,
                                  run_propensity_recovery)


class TestExperimentConfig:
    TEXT = "[data]\nm = 10\nr_min = 0.1\n\n[experiment]\nseeds = 1,2,3\n"

    def test_parse_and_typed_getters(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        assert cfg.get_int("data", "m") == 10
        assert cfg.get_float("data", "r_min") == pytest.approx(0.1)
        assert cfg.get_ints("experiment", "seeds") == [1, 2, 3]
        assert cfg.get("data", "missing", "fallback") == "fallback"

    def test_required_missing_raises(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        with pytest.raises(ConfigError):
            cfg.get("data", "nope", required=True)
        with pytest.raises(ConfigError):
            cfg.get_float("experiment", "seeds")  # "1,2,3" is not a number

    def test_override_is_pure(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        other = cfg.override("data", "m", "99")
        assert cfg.get_int("data", "m") == 10
        assert other.get_int("data", "m") == 99

    def test_hash_stability_and_sensitivity(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        assert cfg.hash() == ExperimentConfig.from_text(self.TEXT).hash()
        assert cfg.hash() != cfg.override("data", "m", "11").hash()
        assert len(cfg.hash()) == 16

    def test_malformed_text(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("not a config\n=")

    @pytest.mark.parametrize("text, value", [("2000", 2000), ("2e3", 2000), ("5.0", 5)])
    def test_get_int_accepts_integral_numbers(self, text, value):
        cfg = ExperimentConfig.from_text(f"[train]\nepochs = {text}\n")
        got = cfg.get_int("train", "epochs")
        assert got == value and type(got) is int

    @pytest.mark.parametrize("text", ["1.7", "inf", "-inf", "nan"])
    def test_get_int_rejects_non_integral_or_non_finite(self, text):
        cfg = ExperimentConfig.from_text(f"[train]\nepochs = {text}\n")
        with pytest.raises(ConfigError, match=r"\[train\] epochs must be an integer"):
            cfg.get_int("train", "epochs")


class TestReport:
    def test_tsv_byte_determinism(self):
        def build():
            r = ExperimentReport(config_hash="deadbeef", seeds=[1, 2],
                                 columns=["a", "b"])
            r.add_row(a=1, b=0.123456789012345)
            r.add_row(a="x", b=2.0)
            r.footnotes.append("note text")
            return r.to_tsv()

        assert build() == build()
        text = build()
        assert text.startswith("# config_hash\tdeadbeef\n")
        assert "a\tb\n" in text
        assert text.endswith("x\t2\n")

    def test_missing_column_rejected(self):
        r = ExperimentReport(config_hash="h", seeds=[0], columns=["a", "b"])
        with pytest.raises(ValueError):
            r.add_row(a=1)


class TestParsePropensitySpec:
    def test_beta_auto_resolves_to_inverse_max_prior(self):
        cfg = ExperimentConfig.from_text(
            "[propensity.noise]\nfamily = power_law\nbeta = auto\ngamma = 0.5\n")
        ball = HyperBallConfig(m=5, dim=2, seed=0, n_train=200, n_val=10, n_test=10)
        train, _, _, _ = generate_hyperball(ball)
        priors = estimate_priors(train, alpha=1.0)
        spec = parse_propensity_spec(cfg, "propensity.noise", priors, 200)
        assert spec.params["beta"] == pytest.approx(1.0 / priors.priors.max())

    def test_freq_sigmoid_n_falls_back_to_dataset_size(self):
        cfg = ExperimentConfig.from_text(
            "[propensity.a]\nfamily = freq_sigmoid\na = 0.55\nb = 1.5\n")
        spec = parse_propensity_spec(cfg, "propensity.a", None, 1234)
        assert spec.params["n"] == 1234.0

    def test_missing_family(self):
        with pytest.raises(ConfigError):
            parse_propensity_spec(ExperimentConfig(sections={}), "propensity.x")


MISMATCH_CONFIG = """
[experiment]
seeds = 1,2

[data]
m = 6
dim = 2
r_min = 0.2
r_max = 0.45
n_train = 400
n_val = 50
n_test = 200

[metrics]
ks = 1

[train]
lrs = 0.1
wds = 0
epochs = 8
patience = 3

[propensity.a]
family = power_law
beta = auto
gamma = 0.5

[propensity.b]
family = constant
p = 0.5
"""


class TestMismatchExperiment:
    def test_structure_and_determinism(self):
        cfg = ExperimentConfig.from_text(MISMATCH_CONFIG)
        report = run_mismatch_experiment(cfg)
        # 2 seeds x 2 noises x 2 trained models + 4 aggregate rows
        assert len(report.rows) == 12
        per_seed = [r for r in report.rows if r["seed"] != "mean±se"]
        assert {(r["noise"], r["trained"]) for r in per_seed} == \
            {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
        for r in per_seed:
            assert 0.0 <= r["p@1"] <= 1.0
            assert r["psp@1_a"] >= 0.0 and r["psp@1_b"] >= 0.0
            assert r["psp@1_a_compat"] == ("compatible" if r["noise"] == "a"
                                           else "incompatible")
        again = run_mismatch_experiment(cfg)
        assert report.to_tsv() == again.to_tsv()


RECOVERY_CONFIG = """
[experiment]
seeds = 3
p_controlled = 0.5

[data]
m = 8
dim = 2
r_min = 0.15
r_max = 0.45
n_train = 4000
n_val = 4000
n_test = 10

[propensity.noise]
family = power_law
beta = auto
gamma = 0.5
"""


class TestRecoveryExperiment:
    def test_rows_and_fitted_beats_unfitted(self):
        cfg = ExperimentConfig.from_text(RECOVERY_CONFIG)
        report = run_propensity_recovery(cfg)
        fitted = {r["family"]: r["mse"] for r in report.rows if r["fitted"] == "yes"}
        unfitted = {r["family"]: r["mse"] for r in report.rows if r["fitted"] == "no"}
        assert set(fitted) == {"constant", "freq_sigmoid", "power_law", "richards"}
        # the generating family, fitted, must beat the fixed-parameter defaults
        assert fitted["power_law"] <= min(unfitted.values()) + 1e-9
        scatter = report.series["propensity_scatter"]
        assert len(scatter) == 8
        assert {"prior", "target", "true", "power_law"} <= set(scatter[0])

    def test_determinism(self):
        cfg = ExperimentConfig.from_text(RECOVERY_CONFIG)
        assert run_propensity_recovery(cfg).to_tsv() == \
            run_propensity_recovery(cfg).to_tsv()


class TestFeasibilityDemo:
    def test_cases(self):
        report = run_feasibility_demo()
        by_case = {r["case"]: r for r in report.rows}
        assert by_case["correlated"]["feasible"] == "no"
        assert by_case["correlated"]["residual"] > 1e-6
        assert by_case["independent"]["feasible"] == "yes"
        assert by_case["no_noise"]["feasible"] == "yes"


class TestPlotData:
    def test_label_frequency_from_dataset(self):
        ball = HyperBallConfig(m=5, dim=2, seed=4, n_train=100, n_val=10, n_test=10)
        train, _, _, _ = generate_hyperball(ball)
        text = emit_plot_data(train, "label_frequency")
        lines = text.strip().split("\n")
        assert lines[0] == "rank\tcount"
        counts = [int(l.split("\t")[1]) for l in lines[1:]]
        assert counts == sorted(counts, reverse=True)
        assert len(counts) == 5

    def test_unknown_series(self):
        with pytest.raises(ValueError):
            emit_plot_data(ExperimentReport("h", [0], ["a"]), "mystery")


GEN_CONFIG = """
[experiment]
seeds = 5

[data]
m = 6
dim = 2
r_min = 0.2
r_max = 0.45
n_train = 300
n_val = 60
n_test = 80

[metrics]
ks = 1,3
names = p,r,ndcg,psp,normpsp,abandonment,coverage

[train]
loss = vanilla
lrs = 0.1
wds = 0
epochs = 6
patience = 2

[propensity.noise]
family = constant
p = 0.6

[propensity.eval]
family = constant
p = 0.6
"""


class TestCli:
    def write_config(self, tmp_path, text=GEN_CONFIG):
        path = tmp_path / "config.ini"
        path.write_text(text)
        return str(path)

    def test_full_pipeline(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "data"

        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        for name in ("train.txt", "val.txt", "test.txt", "true_priors.tsv"):
            assert (out / name).exists()

        biased = tmp_path / "biased.txt"
        assert main(["inject", "--config", cfg, "--out", str(biased),
                     "--set", f"data.path={out / 'train.txt'}"]) == 0
        with open(out / "train.txt") as fh:
            clean_ds = parse_xmlc_file(fh)
        with open(biased) as fh:
            biased_ds = parse_xmlc_file(fh)
        assert sum(len(l) for l in biased_ds.labels) <= \
            sum(len(l) for l in clean_ds.labels)

        model = tmp_path / "model.npz"
        assert main(["train", "--config", cfg, "--out", str(model),
                     "--set", f"data.path={biased}"]) == 0
        assert model.exists() and (tmp_path / "model.npz.tuning.tsv").exists()

        metrics = tmp_path / "metrics.tsv"
        assert main(["eval", "--config", cfg, "--out", str(metrics),
                     "--set", f"data.path={out / 'test.txt'}",
                     "--set", f"eval.model={model}"]) == 0
        lines = metrics.read_text().strip().split("\n")
        assert lines[0] == "metric\tk\tvalue\tn_evaluated\tskipped"
        assert len(lines) == 1 + 7 * 2  # 7 metrics x 2 ks

        stats = tmp_path / "stats.tsv"
        assert main(["stats", "--config", cfg, "--out", str(stats),
                     "--set", f"data.path={out / 'train.txt'}"]) == 0
        assert stats.read_text().startswith("min_ir\tilir\tpos80")

        plot = tmp_path / "freq.tsv"
        assert main(["plot-data", "--config", cfg, "--out", str(plot),
                     "--set", f"data.path={out / 'train.txt'}"]) == 0
        assert plot.read_text().startswith("rank\tcount")

    def test_fit_command(self, tmp_path):
        targets = tmp_path / "targets.tsv"
        rng = np.random.default_rng(6)
        priors = rng.uniform(0.01, 0.3, 40)
        vals = np.clip((2 * priors) ** 0.5, None, 1.0)
        targets.write_text("prior\ttarget\n" + "".join(
            f"{p:.10g}\t{t:.10g}\n" for p, t in zip(priors, vals)))
        out = tmp_path / "fit.tsv"
        assert main(["fit", "--out", str(out),
                     "--set", f"fit.targets={targets}",
                     "--set", "fit.family=power_law"]) == 0
        body = out.read_text()
        assert body.startswith("family\tparams\tmse")
        assert "power_law" in body

    @pytest.mark.parametrize("line", ["0.1 0.5", "0.1\tabc", "0.1\tnan", "0.1\t1.5",
                                      "nan\t0.5", "0\t0.5"])
    def test_fit_targets_bad_line_is_config_error(self, tmp_path, capsys, line):
        targets = tmp_path / "targets.tsv"
        targets.write_text(f"prior\ttarget\n0.2\t0.6\n{line}\n")
        assert main(["fit", "--out", str(tmp_path / "fit.tsv"),
                     "--set", f"fit.targets={targets}",
                     "--set", "fit.family=power_law"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{targets} line 3" in err

    @pytest.mark.parametrize("family", ["direct", "bogus"])
    def test_fit_unfittable_family_is_config_error(self, tmp_path, capsys, family):
        targets = tmp_path / "targets.tsv"
        targets.write_text("prior\ttarget\n0.2\t0.6\n")
        assert main(["fit", "--out", str(tmp_path / "fit.tsv"),
                     "--set", f"fit.targets={targets}",
                     "--set", f"fit.family={family}"]) == 1
        assert ("[fit] family must be one of constant, freq_sigmoid, power_law, richards, "
                f"got '{family}'") in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ({"family": "bogus"}, "[propensity.noise] family must be one of"),
        ({"family": "direct"}, "[propensity.noise] table is missing"),
        ({"family": "direct", "table": "0.5,abc,1"},
         "[propensity.noise] table must be comma-separated finite numbers, got '0.5,abc,1'"),
        ({"family": "constant", "p": "nan"},
         "[propensity.noise] p must be a finite number, got 'nan'"),
        ({"family": "power_law", "beta": "1"}, "[propensity.noise] gamma is missing"),
        ({"family": "power_law", "beta": "1", "gamma": "0.5", "gama": "2"},
         "[propensity.noise] gama is not a parameter of power_law"),
    ], ids=["unknown_family", "direct_without_table", "bad_table", "non_finite",
            "missing_param", "unknown_key"])
    def test_spec_error_is_config_error(self, tmp_path, capsys, section, message):
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        argv = ["inject", "--out", str(tmp_path / "biased.txt"), "--set", f"data.path={data}"]
        for key, value in section.items():
            argv += ["--set", f"propensity.noise.{key}={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("key, value, message", [
        ("loss", "bogus", "[train] loss must be one of vanilla, unbiased, pejl_plug, "
                          "pejl_mask, got 'bogus'"),
        ("batch_size", "0", "[train] batch_size must be at least 1, got 0"),
        ("epochs", "0", "[train] epochs must be at least 1, got 0"),
        ("lrs", "nan", "[train] lrs must be one or more finite numbers > 0, got [nan]"),
        ("lrs", "0", "[train] lrs must be one or more finite numbers > 0, got [0.0]"),
        ("lrs", "-1", "[train] lrs must be one or more finite numbers > 0, got [-1.0]"),
        ("wds", "-1", "[train] wds must be one or more finite numbers >= 0, got [-1.0]"),
        ("patience", "-3", "[train] patience must be at least 0, got -3"),
        ("val_fraction", "0.7", "[train] val_fraction must lie in (0, 0.5), got 0.7"),
    ], ids=["loss", "batch_size", "epochs", "lrs_nan", "lrs_zero", "lrs_negative",
            "wds_negative", "patience_negative", "val_fraction"])
    def test_bad_train_value_is_config_error(self, tmp_path, capsys, key, value, message):
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        assert main(["train", "--out", str(tmp_path / "model.npz"),
                     "--set", f"data.path={data}", "--set", f"train.{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("value", ["1.7", "inf", "nan"])
    def test_non_integral_int_key_exits_1(self, tmp_path, capsys, value):
        assert main(["gen", "--out", str(tmp_path / "data"),
                     "--set", f"data.n_train={value}"]) == 1
        assert "[data] n_train must be an integer" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["feasibility", "--out", str(tmp_path / "f.tsv"), "--threads", "2"])

    def test_feasibility_command(self, tmp_path):
        out = tmp_path / "feas.tsv"
        assert main(["feasibility", "--out", str(out)]) == 0
        assert "correlated\tno" in out.read_text()

    def test_mismatch_and_recovery_commands(self, tmp_path):
        cfg = self.write_config(tmp_path, MISMATCH_CONFIG)
        out = tmp_path / "mm.tsv"
        assert main(["mismatch", "--config", cfg, "--out", str(out),
                     "--seed", "1"]) == 0
        assert "# config_hash" in out.read_text()

        cfg2 = self.write_config(tmp_path, RECOVERY_CONFIG)
        out2 = tmp_path / "rec.tsv"
        assert main(["recovery", "--config", cfg2, "--out", str(out2)]) == 0
        assert "power_law" in out2.read_text()

    def test_exit_code_config_error(self, tmp_path, capsys):
        # inject without a data path is a configuration error
        assert main(["inject", "--out", str(tmp_path / "x.txt")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_exit_code_runtime_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        # pointing eval at a missing model file fails at runtime
        assert main(["eval", "--config", cfg,
                     "--set", "data.path=/nonexistent/file.txt",
                     "--set", "eval.model=/nonexistent/model.npz"]) == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["gen", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["gen", "--config", cfg, "--out", str(out_b), "--seed", "8"]) == 0
        assert (out_a / "train.txt").read_text() != (out_b / "train.txt").read_text()
