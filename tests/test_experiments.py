import os

import numpy as np
import pytest

from xproplab import cli
from xproplab.cli import main
from xproplab.data import estimate_priors, parse_xmlc_file
from xproplab.datagen import HyperBallConfig, generate_hyperball
from xproplab import experiments
from xproplab.experiments import (METRICS, PROPENSITY_SECTIONS, PS_METRICS, SCHEMA,
                                  ConfigError, ExperimentConfig, ExperimentReport,
                                  emit_plot_data,
                                  hyperball_config, propensities_for,
                                  run_feasibility_demo, run_mismatch_experiment,
                                  run_propensity_recovery, train_config_from)
from xproplab.propensity import eval_freq_sigmoid, eval_power
from xproplab.train import LinearOvaModel, TrainConfig, save_model


class TestExperimentConfig:
    TEXT = "[data]\nm = 10\nr_min = 0.1\n\n[experiment]\nseeds = 1,2,3\n"

    def test_parse_and_typed_getters(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        assert cfg.get("data", "m") == 10
        assert cfg.get("data", "r_min") == pytest.approx(0.1)
        assert cfg.get("experiment", "seeds") == (1, 2, 3)
        assert cfg.get("data", "n_train") == SCHEMA["data", "n_train"].default
        assert cfg.get("train", "lrs") == TrainConfig.lr_grid

    def test_required_missing_raises(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        with pytest.raises(ConfigError, match=r"missing config key \[data\] path"):
            cfg.get("data", "path")
        with pytest.raises(ConfigError, match=r"missing config key \[experiment\] seeds"):
            ExperimentConfig(sections={}).get("experiment", "seeds", required=True)
        with pytest.raises(ConfigError, match=r"\[data\] r_min must be a number"):
            cfg.override("data", "r_min", "1,2,3").get("data", "r_min")

    def test_override_is_pure(self):
        cfg = ExperimentConfig.from_text(self.TEXT)
        other = cfg.override("data", "m", "99")
        assert cfg.get("data", "m") == 10
        assert other.get("data", "m") == 99

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
        got = cfg.get("train", "epochs")
        assert got == value and type(got) is int

    @pytest.mark.parametrize("text", ["1.7", "inf", "-inf", "nan", "1_0", "١٠", "１０", "2_0e2"])
    def test_get_int_rejects_non_integral_or_non_finite(self, text):
        cfg = ExperimentConfig.from_text(f"[train]\nepochs = {text}\n")
        with pytest.raises(ConfigError, match=r"\[train\] epochs must be an integer"):
            cfg.get("train", "epochs")

    @pytest.mark.parametrize("text, value", [("0.2_5", 0.25), ("٠.٢٥", 0.25), ("2.5e-1", 0.25)])
    def test_get_float_reads_what_float_reads(self, text, value):
        assert ExperimentConfig.from_text(f"[data]\nr_min = {text}\n").get("data", "r_min") == value

    @pytest.mark.parametrize("section, key, text", [
        ("metrics", "ks", ""), ("metrics", "ks", "1,,3"), ("metrics", "ks", "1,3,"),
        ("experiment", "seeds", ""), ("train", "lrs", "0.1, ,0.2"), ("metrics", "names", "p,"),
    ])
    def test_list_rejects_empty_items(self, section, key, text):
        cfg = ExperimentConfig(sections={section: {key: text}})
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be comma-separated "
                                              "values, none empty"):
            cfg.get(section, key)


class TestReadmeConfig:
    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

    def section(self, title):
        with open(self.README, encoding="utf-8") as fh:
            text = fh.read()
        return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]

    def test_tables_name_exactly_the_schema_keys(self):
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in self.section("Config").splitlines() if line.startswith("| `[")]
        keys = [(row[0][1:-1], row[1]) for row in rows if len(row) == 5]
        sections = [row[0][1:-1] for row in rows if len(row) == 2]
        assert sorted(keys) == sorted(SCHEMA)
        assert sorted(sections) == sorted(PROPENSITY_SECTIONS)

    def test_metric_names_are_the_metrics_table(self):
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in self.section("Config").splitlines() if line.startswith("| `[")]
        names_range = [row[4] for row in rows if row[:2] == ["`[metrics]`", "`names`"]]
        assert [name.strip().strip("`") for name in names_range[0].split(",")] == list(METRICS)
        read_by = [row[1] for row in rows if row[0] == "`[propensity.eval]`"][0]
        assert read_by.endswith(", ".join(f"`{n}`" for n in PS_METRICS[:-1])
                                + f" or `{PS_METRICS[-1]}`")

    def test_cli_comment_lists_the_metrics_table(self):
        comment = [line for line in self.section("CLI").splitlines()
                   if line.startswith("# evaluate ([metrics] names = ")]
        assert len(comment) == 1
        names = comment[0].split(" names = ", 1)[1].rstrip(")")
        assert names.split(",") == list(METRICS)

    def test_minimal_config_loads(self):
        text = self.section("CLI").split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_text(text)
        cfg.check_keys()
        assert hyperball_config(cfg, 0).n_train == 2000
        assert train_config_from(cfg, 0, None).loss == "unbiased"

    def test_data_defaults_are_the_generator_defaults(self):
        assert HyperBallConfig() == hyperball_config(ExperimentConfig({}), 0)


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

    def test_tsv_formats_every_cell(self):
        assert experiments.tsv(("a", "b"), [(1, 0.1 + 0.2), ("x", np.float64(2.0))]) == \
            "a\tb\n1\t0.3\nx\t2\n"
        assert experiments.tsv(["a"], iter([])) == "a\n"

    def test_missing_column_rejected(self):
        r = ExperimentReport(config_hash="h", seeds=[0], columns=["a", "b"])
        with pytest.raises(ValueError):
            r.add_row(a=1)


class TestParsePropensitySpec:
    TRAIN, _, _, _ = generate_hyperball(
        HyperBallConfig(m=5, dim=2, seed=0, n_train=200, n_val=10, n_test=10))
    PRIORS = estimate_priors(TRAIN, alpha=1.0).priors

    def test_beta_auto_resolves_to_inverse_max_prior(self):
        cfg = ExperimentConfig.from_text(
            "[propensity.noise]\nfamily = power_law\nbeta = auto\ngamma = 0.5\n")
        p = propensities_for(cfg, "propensity.noise", self.TRAIN).p
        assert np.array_equal(p, eval_power(self.PRIORS, 1.0 / self.PRIORS.max(), 0.5))

    def test_freq_sigmoid_n_falls_back_to_dataset_size(self):
        cfg = ExperimentConfig.from_text(
            "[propensity.a]\nfamily = freq_sigmoid\na = 0.55\nb = 1.5\n")
        p = propensities_for(cfg, "propensity.a", self.TRAIN).p
        assert np.array_equal(p, eval_freq_sigmoid(self.PRIORS, 200, 0.55, 1.5))

    def test_missing_family(self):
        config = ExperimentConfig(sections={"propensity.x": {}})
        with pytest.raises(ConfigError, match=r"\[propensity.x\] family must be one of"):
            propensities_for(config, "propensity.x", self.TRAIN)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"^missing config section \[propensity.x\]$"):
            propensities_for(ExperimentConfig(sections={}), "propensity.x", self.TRAIN)


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
        # each mean±se row aggregates its (noise, trained) rows over the two seeds
        for row in report.rows[len(per_seed):]:
            assert row["seed"] == "mean±se"
            group = [r for r in per_seed
                     if (r["noise"], r["trained"]) == (row["noise"], row["trained"])]
            assert len(group) == 2
            for column in ("p@1", "psp@1_a", "psp@1_b"):
                values = np.array([r[column] for r in group])
                se = values.std(ddof=1) / np.sqrt(2)
                assert row[column] == f"{values.mean():.6f}±{se:.6f}"
            for name in ("a", "b"):
                assert row[f"psp@1_{name}_compat"] == ("compatible" if row["noise"] == name
                                                       else "incompatible")


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

    def test_report_without_a_scatter(self):
        with pytest.raises(ValueError, match="^no propensity_scatter series available$"):
            emit_plot_data(ExperimentReport("h", [0], ["a"]), "propensity_scatter")


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
        assert biased_ds.labels.nnz <= clean_ds.labels.nnz

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

    @pytest.mark.parametrize("family", ["constant", "freq_sigmoid", "power_law", "richards"])
    def test_fit_targets_without_rows_exits_1(self, tmp_path, capsys, family):
        targets = tmp_path / "targets.tsv"
        targets.write_text("prior\ttarget\n\n")
        out = tmp_path / "fit.tsv"
        assert main(["fit", "--out", str(out), "--set", f"fit.targets={targets}",
                     "--set", f"fit.family={family}", "--set", "fit.n=100"]) == 1
        assert (f"config error: {targets} has no 'prior<TAB>target' rows after its header"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("header", ["foo\tbar", "priorX\ttarget", "prior target", ""],
                             ids=["foo_bar", "priorX", "space", "empty_file"])
    def test_fit_rejects_a_bad_header(self, tmp_path, capsys, header):
        targets = tmp_path / "targets.tsv"
        targets.write_text(f"{header}\n0.1\t0.5\n" if header else "")
        out = tmp_path / "fit.tsv"
        assert main(["fit", "--out", str(out), "--set", f"fit.targets={targets}",
                     "--set", "fit.family=constant"]) == 1
        assert (f"config error: {targets} line 1: expected a 'prior<TAB>target' header, "
                f"got '{header}'" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0.1\t0.5\tjunk", "0.1\t0.5\t", "0.1", "0.1 0.5",
                                     "0.1\tx"],
                             ids=["extra_field", "trailing_tab", "one_field", "space", "word"])
    def test_fit_rejects_a_row_without_exactly_two_numbers(self, tmp_path, capsys, row):
        targets = tmp_path / "targets.tsv"
        targets.write_text(f"prior\ttarget\n0.2\t0.6\n{row}\n")
        out = tmp_path / "fit.tsv"
        assert main(["fit", "--out", str(out), "--set", f"fit.targets={targets}",
                     "--set", "fit.family=constant"]) == 1
        assert (f"config error: {targets} line 3: expected 'prior<TAB>target' numbers, "
                f"got '{row.rstrip()}'" in capsys.readouterr().err)
        assert not out.exists()

    def test_fit_accepts_a_crlf_header(self, tmp_path):
        targets = tmp_path / "targets.tsv"
        targets.write_bytes(b"prior\ttarget\r\n0.1\t0.5\r\n0.2\t0.6\r\n")
        out = tmp_path / "fit.tsv"
        assert main(["fit", "--out", str(out), "--set", f"fit.targets={targets}",
                     "--set", "fit.family=constant"]) == 0
        assert out.read_text().startswith("family\tparams")

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

    @pytest.mark.parametrize("n, message", [
        ("1000.5", "[fit] n must be an integer, got '1000.5'"),
        ("0", "[fit] n must be at least 1, got 0")])
    def test_fit_n_must_be_a_positive_integer(self, tmp_path, capsys, n, message):
        targets = tmp_path / "targets.tsv"
        targets.write_text("prior\ttarget\n0.2\t0.6\n0.05\t0.3\n")
        assert main(["fit", "--out", str(tmp_path / "fit.tsv"),
                     "--set", f"fit.targets={targets}", "--set", "fit.family=freq_sigmoid",
                     "--set", f"fit.n={n}"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

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
        ({"family": "power_law", "beta": "-1", "gamma": "0.5"},
         "[propensity.noise] beta * prior must be positive"),
        ({"family": "direct", "table": "0.5,0.5"},
         "[propensity.noise] direct table length must equal m"),
        ({"family": "richards", "c": "0", "d": "1", "e": "1", "f": "1", "g": "1", "h": "0"},
         "[propensity.noise] h must be nonzero"),
        ({"family": "freq_sigmoid", "a": "0.55", "b": "1.5", "n": "2.9"},
         "[propensity.noise] n must be an integer, got 2.9"),
        ({"family": "freq_sigmoid", "a": "0.5", "b": "-1.5", "n": "1000"},
         "[propensity.noise] b must be >= -1 unless a is an integer, got b=-1.5"),
    ], ids=["unknown_family", "direct_without_table", "bad_table", "non_finite",
            "missing_param", "unknown_key", "outside_domain", "direct_table_not_m",
            "richards_h_zero", "freq_sigmoid_n_fraction", "freq_sigmoid_b_below_minus_one"])
    def test_spec_error_is_config_error(self, tmp_path, capsys, section, message):
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        argv = ["inject", "--out", str(tmp_path / "biased.txt"), "--set", f"data.path={data}"]
        for key, value in section.items():
            argv += ["--set", f"propensity.noise.{key}={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("name", PROPENSITY_SECTIONS)
    @pytest.mark.parametrize("section, message", [
        ({"family": "bogus"}, "family must be one of"),
        ({"gama": "0.5"}, "family must be one of constant, freq_sigmoid, power_law, richards, "
                          "direct, got ''"),
        ({"family": "direct", "table": "0.5,abc,1"},
         "table must be comma-separated finite numbers, got '0.5,abc,1'"),
        ({"family": "constant", "p": "nan"}, "p must be a finite number, got 'nan'"),
        ({"family": "power_law", "beta": "auto"}, "gamma is missing"),
        ({"family": "power_law", "beta": "1", "gamma": "0.5", "gama": "2"},
         "gama is not a parameter of power_law"),
    ], ids=["unknown_family", "no_family", "bad_table", "non_finite", "missing_param",
            "unknown_key"])
    def test_every_command_parses_the_propensity_sections(self, tmp_path, capsys, name,
                                                          section, message):
        # stats reads no propensity section, yet checks each one it is given
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        argv = ["stats", "--out", str(tmp_path / "stats.tsv"), "--set", f"data.path={data}"]
        for key, value in section.items():
            argv += ["--set", f"{name}.{key}={value}"]
        assert main(argv) == 1
        assert f"config error: [{name}] {message}" in capsys.readouterr().err
        assert not (tmp_path / "stats.tsv").exists()

    @pytest.mark.parametrize("section, inject_error", [
        ({"family": "power_law", "beta": "auto", "gamma": "0.5"}, None),
        ({"family": "freq_sigmoid", "a": "0.55", "b": "1.5"}, None),
        ({"family": "power_law", "beta": "-1", "gamma": "0.5"}, "beta * prior must be positive"),
        ({"family": "direct", "table": "0.5,0.5"}, "direct table length must equal m"),
    ], ids=["beta_auto", "freq_sigmoid_without_n", "outside_domain", "direct_table_not_m"])
    def test_propensity_checks_that_need_the_dataset_stay_with_their_readers(
            self, tmp_path, capsys, section, inject_error):
        data = tmp_path / "train.txt"
        data.write_text("3 2 3\n0,1 0:1.0\n2 1:1.0\n1 0:1.0\n")
        argv = ["--set", f"data.path={data}"]
        for key, value in section.items():
            argv += ["--set", f"propensity.noise.{key}={value}"]
        assert main(["stats", "--out", str(tmp_path / "stats.tsv"), *argv]) == 0
        assert main(["inject", "--out", str(tmp_path / "biased.txt"), *argv]) == \
            (0 if inject_error is None else 1)
        if inject_error:
            assert f"config error: [propensity.noise] {inject_error}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, sets, message", [
        ("gen", ["data.n_trian=5"], "[data] n_trian is not a config key"),
        ("gen", ["data.bogus=1"], "[data] bogus is not a config key"),
        ("train", ["train.lr=0.1"], "[train] lr is not a config key"),
        ("train", ["train.epoch=3"], "[train] epoch is not a config key"),
        ("eval", ["metrics.k=1"], "[metrics] k is not a config key"),
        ("gen", ["experiment.seed=3"], "[experiment] seed is not a config key"),
        ("eval", ["propensity.evl.family=constant"],
         "[propensity.evl] is not a config section; the sections are experiment, data"),
        ("fit", ["fit.bogus=1"], "[fit] bogus is not a config key"),
        ("gen", ["data.m=0"], "[data] m must be at least 1, got 0"),
        ("gen", ["data.r_min=0.9", "data.r_max=0.1"],
         "[data] r_min, r_max must satisfy 0 < r_min <= r_max < 1, got r_min = 0.9, r_max = 0.1"),
        ("gen", ["data.n_train=0"], "[data] n_train must be at least 1, got 0"),
        ("stats", ["data.alpha=-1"], "[data] alpha must be finite and >= 0, got -1.0"),
        ("eval", ["metrics.ks=0"], "[metrics] ks must be at least 1, got 0"),
        ("gen", ["experiment.seeds=-1"], "[experiment] seeds must be at least 0, got -1"),
        ("recovery", ["experiment.seeds=1", "experiment.p_controlled=1.5"],
         "[experiment] p_controlled must be in (0, 1], got 1.5"),
        ("eval", ["metrics.ks="], "[metrics] ks must be comma-separated values, none empty"),
        ("eval", ["metrics.ks=1,,3"], "[metrics] ks must be comma-separated values, none empty"),
        ("gen", ["experiment.seeds="],
         "[experiment] seeds must be comma-separated values, none empty"),
    ], ids=["n_trian", "data_bogus", "lr", "epoch", "k", "seed", "propensity_evl", "fit_bogus",
            "m_zero", "radius_range", "n_train_zero", "alpha_negative", "ks_zero",
            "seeds_negative", "p_controlled", "ks_empty", "ks_empty_item", "seeds_empty"])
    def test_bad_key_or_value_exits_1(self, tmp_path, capsys, command, sets, message):
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        argv = [command, "--out", str(tmp_path / "out"), "--set", f"data.path={data}",
                "--set", f"eval.model={tmp_path / 'model.npz'}"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("command, work", [("train", "train_ova"),
                                               ("inject", "inject_missing")])
    def test_out_is_checked_before_the_work(self, tmp_path, capsys, monkeypatch, command,
                                            work):
        def work_ran(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(cli, work, work_ran)
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        assert main([command, "--set", f"data.path={data}",
                     "--set", "propensity.noise.family=constant",
                     "--set", "propensity.noise.p=0.5"]) == 1
        assert f"{command} requires --out" in capsys.readouterr().err

    def test_seeds_default_depends_on_command(self, tmp_path, capsys):
        # the reports need [experiment] seeds given; gen, inject and train default to 0
        for command in ("mismatch", "recovery"):
            assert main([command, "--out", str(tmp_path / "report.tsv")]) == 1
            assert "missing config key [experiment] seeds" in capsys.readouterr().err
        small = ["--set", "data.m=3", "--set", "data.n_train=20", "--set", "data.n_val=1",
                 "--set", "data.n_test=1"]
        assert main(["gen", *small, "--out", str(tmp_path / "default")]) == 0
        assert main(["gen", *small, "--seed", "0", "--out", str(tmp_path / "zero")]) == 0
        assert (tmp_path / "default" / "train.txt").read_text() == \
            (tmp_path / "zero" / "train.txt").read_text()

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

    def test_unknown_metric_name_exits_1_from_every_command(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        assert main(["stats", "--out", str(tmp_path / "stats.tsv"), "--set", f"data.path={data}",
                     "--set", "metrics.names=p,bogus"]) == 1
        assert ("config error: [metrics] names must be one of p, r, ndcg, psp, psr, psndcg, "
                "normpsp, macrof, abandonment, coverage, got 'bogus'"
                in capsys.readouterr().err)

    def test_eval_unknown_metric_exits_1_before_the_model_loads(self, tmp_path, capsys,
                                                                 monkeypatch):
        def load_ran(*args, **kwargs):
            raise AssertionError("load_model ran before [metrics] names was checked")

        monkeypatch.setattr(cli, "load_model", load_ran)
        data = tmp_path / "test.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        assert main(["eval", "--out", str(tmp_path / "metrics.tsv"),
                     "--set", f"data.path={data}", "--set", f"eval.model={tmp_path / 'm.npz'}",
                     "--set", "metrics.names=bogus"]) == 1
        assert "[metrics] names must be one of" in capsys.readouterr().err
        assert not (tmp_path / "metrics.tsv").exists()

    def test_metrics_look_their_function_up_when_called(self, monkeypatch):
        # a wrapper put on the module attribute (as the benchmark's tracer does) is called
        calls = []
        monkeypatch.setattr(experiments, "ps_precision_at_k",
                            lambda labels, scores, k, p: calls.append(k))
        METRICS["psp"]([[0]], [[1.0, 0.0]], 1, None)
        assert calls == [1]

    def test_eval_ks_above_label_count_exits_1(self, tmp_path, capsys):
        data = tmp_path / "test.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        model = tmp_path / "model.npz"
        save_model(LinearOvaModel(W=np.ones((3, 2)), bias=np.zeros(3)), str(model))
        assert main(["eval", "--out", str(tmp_path / "metrics.tsv"),
                     "--set", f"data.path={data}", "--set", f"eval.model={model}",
                     "--set", "metrics.ks=5"]) == 1
        assert ("config error: [metrics] ks must be at most the label count m = 3, got 5"
                in capsys.readouterr().err)

    def test_eval_model_shape_mismatch_exits_1(self, tmp_path, capsys):
        data = tmp_path / "test.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        model = tmp_path / "model.npz"
        save_model(LinearOvaModel(W=np.ones((2, 2)), bias=np.zeros(2)), str(model))
        assert main(["eval", "--out", str(tmp_path / "metrics.tsv"),
                     "--set", f"data.path={data}", "--set", f"eval.model={model}",
                     "--set", "metrics.ks=1"]) == 1
        assert ("config error: [eval] model has m=2, d=2, but the dataset has m=3, d=2"
                in capsys.readouterr().err)
        assert not (tmp_path / "metrics.tsv").exists()

    def test_mismatch_ks_above_label_count_exits_1(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, MISMATCH_CONFIG)
        assert main(["mismatch", "--config", cfg, "--out", str(tmp_path / "mm.tsv"),
                     "--set", "metrics.ks=1,7"]) == 1
        assert ("config error: [metrics] ks must be at most the label count m = 6, got 7"
                in capsys.readouterr().err)

    def test_missing_propensity_section_exits_1(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path,
                                MISMATCH_CONFIG[:MISMATCH_CONFIG.index("[propensity.a]")])
        assert main(["mismatch", "--config", cfg, "--out", str(tmp_path / "mm.tsv")]) == 1
        assert "config error: missing config section [propensity.a]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args", [
        ("stats", []),
        ("inject", ["--set", "propensity.noise.family=constant", "--set",
                    "propensity.noise.p=0.5"]),
        ("eval", ["--set", "eval.model=model.npz", "--set", "metrics.ks=1"]),
        ("plot-data", ["--set", "plot.which=label_frequency"]),
    ])
    def test_malformed_data_file_exits_1_naming_file_and_line(self, tmp_path, capsys,
                                                              command, args):
        data = tmp_path / "data.txt"
        data.write_text("1 2 3\n9 0:1.0\n")
        out = tmp_path / "out.txt"
        assert main([command, "--out", str(out), "--set", f"data.path={data}", *args]) == 1
        assert (f"config error: {data} line 2: label index 9 >= m=3\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("arrays, message", [
        ({"W": np.ones(2), "bias": np.zeros(3)}, "W must be a 2-D m x d array, got shape (2,)"),
        ({"W": np.ones((3, 2)), "bias": np.zeros(5)},
         "bias must have shape (m,) = (3,), got (5,)"),
        ({"W": np.full((3, 2), np.nan), "bias": np.zeros(3)}, "W must hold finite real numbers"),
        ({"version": np.array([1, 1]), "W": np.ones((3, 2)), "bias": np.zeros(3)},
         "version must be the integer 1, got [1, 1]"),
    ], ids=["W_1d", "bias_length", "W_nan", "version_list"])
    def test_eval_misshapen_checkpoint_exits_1(self, tmp_path, capsys, arrays, message):
        data = tmp_path / "test.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        model = tmp_path / "model.npz"
        np.savez(model, **{"version": np.array(1), "config_hash": np.array(""), **arrays})
        assert main(["eval", "--out", str(tmp_path / "metrics.tsv"), "--set", "metrics.ks=1",
                     "--set", f"data.path={data}", "--set", f"eval.model={model}"]) == 1
        assert f"config error: [eval] model {model}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "metrics.tsv").exists()

    @pytest.mark.parametrize("command, key", [
        ("stats", "data.path"), ("fit", "fit.targets"), ("stats", None)],
        ids=["data_file", "targets_file", "config_file"])
    def test_file_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys, command, key):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff")
        args = ["--set", f"{key}={bad}"] if key else ["--config", str(bad)]
        if command == "fit":
            args += ["--set", "fit.family=constant"]
        assert main([command, "--out", str(tmp_path / "out.tsv"), *args]) == 1
        assert f"{bad} is not UTF-8 text (invalid start byte)\n" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--set", "data.path"], "--set expects section.key=value, got 'data.path'"),
        (["--set", "path=train.txt"], "--set expects section.key=value, got 'path=train.txt'"),
        (["--config", "missing.ini"], "cannot read config: [Errno 2] No such file or directory"),
        (["--set", "data.m=١٠"], "[data] m must be an integer, got '١٠'"),
        (["--set", "data.m=1_0"], "[data] m must be an integer, got '1_0'"),
        (["--set", "experiment.seeds=١"], "[experiment] seeds must be an integer, got '١'"),
    ], ids=["set_without_equals", "set_without_section", "missing_config", "m_arabic_digits",
            "m_underscore", "seeds_arabic_digit"])
    def test_unusable_command_line_exits_1(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--out", "out", *args]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_percent_in_config_reads_as_through_set(self, tmp_path, capsys):
        data = tmp_path / "te%st.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        cfg = self.write_config(tmp_path, f"[data]\npath = {data}\n")
        outputs = []
        for args in (["--config", cfg], ["--set", f"data.path={data}"]):
            assert main(["stats", *args]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("min_ir\t")

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
