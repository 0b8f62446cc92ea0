import os
import re
import subprocess
import sys

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

from _data import MISSHAPEN_CHECKPOINTS, MISSHAPEN_IDS


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

    @pytest.mark.parametrize("text, value", [
        ("2000", 2000), ("2e3", 2000), ("5.0", 5),
        # float() would round these two to 9007199254740992 and 99999999999999991611392
        ("9007199254740993", 2**53 + 1), ("1e23", 10**23), ("1" * 4300, int("1" * 4300)),
    ], ids=["plain", "exponent", "point_zero", "2**53+1", "1e23", "4300_digits"])
    def test_get_int_accepts_integral_numbers(self, text, value):
        cfg = ExperimentConfig.from_text(f"[train]\nepochs = {text}\n")
        got = cfg.get("train", "epochs")
        assert got == value and type(got) is int

    @pytest.mark.parametrize("text", ["1.7", "inf", "-inf", "nan", "1_0", "١٠", "１０", "2_0e2",
                                      "9007199254740993.5", "1e-23"])
    def test_get_int_rejects_non_integral_or_non_finite(self, text):
        cfg = ExperimentConfig.from_text(f"[train]\nepochs = {text}\n")
        with pytest.raises(ConfigError, match=rf"^\[train\] epochs must be an integer, "
                                              rf"got '{text}'$"):
            cfg.get("train", "epochs")

    @pytest.mark.parametrize("text", ["1e4300", "1" * 4301, "1e999999999"])
    def test_get_int_rejects_more_digits_than_python_prints(self, text):
        cfg = ExperimentConfig.from_text(f"[train]\nepochs = {text}\n")
        with pytest.raises(ConfigError, match=r"^\[train\] epochs must be an integer of at "
                                              r"most 4300 digits, got '1"):
            cfg.get("train", "epochs")

    def test_seeds_are_read_exactly(self):
        cfg = ExperimentConfig.from_text("[experiment]\nseeds = 9007199254740993, 1e23\n")
        assert cfg.get("experiment", "seeds") == (2**53 + 1, 10**23)

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


DIRECTORY = object()  # a fault table cell that makes its path a directory
# what each command needs besides data.path, fit.targets and eval.model to run to its output
PATH_FAULT_SETS = {
    "gen": ["data.m=3", "data.n_train=20", "data.n_val=1", "data.n_test=1"],
    "inject": ["propensity.noise.family=constant", "propensity.noise.p=0.5"],
    "fit": ["fit.family=constant"],
    "train": ["train.lrs=0.1", "train.wds=0", "train.epochs=1"],
    "eval": ["metrics.ks=1"],
    "mismatch": ["experiment.seeds=1", "data.m=3", "data.n_train=40", "data.n_val=10",
                 "data.n_test=20", "train.lrs=0.1", "train.wds=0", "train.epochs=1",
                 "metrics.ks=1", "propensity.a.family=constant", "propensity.a.p=0.5",
                 "propensity.b.family=constant", "propensity.b.p=0.6"],
    "recovery": ["experiment.seeds=1", "data.m=4", "data.n_train=200", "data.n_val=200",
                 "data.n_test=5", "propensity.noise.family=constant", "propensity.noise.p=0.5"],
    "feasibility": [],
    "stats": [],
    "plot-data": ["plot.which=label_frequency"],
}
# the --out each command writes: gen's is a directory, train's its checkpoint
PATH_FAULT_OUTS = {command: "out.tsv" for command in cli.COMMANDS} | {
    "gen": "gen", "inject": "out.txt", "train": "model.out"}
NOT_UTF8 = (b"\xff", "{path} is not UTF-8 text (invalid start byte)")
OPEN_FAULTS = {"missing": (None, "{key} {path}: No such file or directory"),
               "directory": (DIRECTORY, "{key} {path}: Is a directory")}
# key -> (the commands that read the file it names, its faults: what is put at the
# path and the message after 'config error: ')
READ_FAULTS = {
    "--config": (list(cli.COMMANDS), {
        "not_utf8": NOT_UTF8,
        "malformed": (b"junk\n", "cannot parse config: File contains no section headers.\n"
                                  "file: '{path}', line: 1\n'junk\\n'")}),
    "data.path": (["stats", "inject", "train", "eval", "plot-data"], {
        "not_utf8": NOT_UTF8,
        "empty": (b"", "{path} line 1: empty input: missing header"),
        "malformed": (b"1 2 3\n9 0:1.0\n", "{path} line 2: label index 9 >= m=3")}),
    "fit.targets": (["fit"], {
        "not_utf8": NOT_UTF8,
        "empty": (b"", "{path} line 1: expected a 'prior<TAB>target' header, got ''"),
        "malformed": (b"prior\ttarget\n0.1 0.5\n",
                      "{path} line 2: expected 'prior<TAB>target' numbers, got '0.1 0.5'")}),
    "eval.model": (["eval"], {
        "empty": (b"", "{key} {path}: not a readable .npz file: File is not a zip file"),
        "malformed": (b"2 2 3\n", "{key} {path}: not a readable .npz file: "
                                   "File is not a zip file")}),
}
# (command, key, fault) -> what is put at the path, the message, the --out given and
# the path that is broken; the message names the key and the path as '{key} {path}'
PATH_FAULTS = [
    pytest.param(command, key, make, message, PATH_FAULT_OUTS[command], "bad",
                 id=f"{command}-{key.lstrip('-')}-{fault}")
    for key, (commands, faults) in READ_FAULTS.items() for command in commands
    for fault, (make, message) in {**OPEN_FAULTS, **faults}.items()
] + [
    pytest.param(command, "--out", make, message, out, bad, id=f"{command}-out-{fault}")
    for command in cli.COMMANDS if command != "gen"
    for fault, make, message, out, bad in [
        ("in_missing_dir", None, "{key} {path}: No such file or directory",
         "nodir/" + PATH_FAULT_OUTS[command], "nodir/" + PATH_FAULT_OUTS[command]),
        ("on_directory", DIRECTORY, "{key} {path}: Is a directory",
         PATH_FAULT_OUTS[command], PATH_FAULT_OUTS[command])]
] + [
    pytest.param("train", "--out", DIRECTORY, "{key} {path}: Is a directory", "model.out",
                 "model.out.tuning.tsv", id="train-out-tuning_on_directory"),
    pytest.param("gen", "--out", b"", "{key} {path}: File exists", "gen", "gen",
                 id="gen-out-on_file"),
    pytest.param("gen", "--out", DIRECTORY, "{key} {path}: Is a directory", "gen",
                 "gen/train.txt", id="gen-out-member_on_directory"),
    pytest.param("gen", "--out", DIRECTORY, "{key} {path}: Is a directory", "gen",
                 "gen/true_priors.tsv", id="gen-out-last_member_on_directory"),
]


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

    @pytest.mark.parametrize("header", ["foo\tbar", "priorX\ttarget", "prior target"],
                             ids=["foo_bar", "priorX", "space"])
    def test_fit_rejects_a_bad_header(self, tmp_path, capsys, header):
        targets = tmp_path / "targets.tsv"
        targets.write_text(f"{header}\n0.1\t0.5\n")
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

    @pytest.mark.parametrize("text, alpha, reason", [
        ("2 2 3\n 0:1.0\n 1:1.0\n", "1", "Pos-80% undefined: no positive assignments"),
        ("2 2 3\n0 0:1.0\n1 1:1.0\n", "0",
         "ILIR undefined: zero minimum prior (use smoothing > 0)"),
    ], ids=["no_positive", "unused_label_unsmoothed"])
    def test_stats_undefined_for_the_data_exits_1_naming_the_file(self, tmp_path, capsys,
                                                                   text, alpha, reason):
        data = tmp_path / "train.txt"
        data.write_text(text)
        out = tmp_path / "stats.tsv"
        assert main(["stats", "--out", str(out), "--set", f"data.path={data}",
                     "--set", f"data.alpha={alpha}"]) == 1
        assert capsys.readouterr().err == f"config error: {data}: {reason}\n"
        assert not out.exists()

    def test_only_scoring_loads_scipy_sparse(self, tmp_path):
        # each snippet in a fresh interpreter, as each CLI command runs in one
        data = tmp_path / "train.txt"
        data.write_text("3 2 3\n0,1 0:1.0\n2 1:1.0\n1 0:1.0\n")
        model = tmp_path / "model.npz"
        save_model(LinearOvaModel(W=np.ones((4, 4)), bias=np.zeros(4)), str(model))
        prelude = f"""
import sys
import numpy as np
import xproplab, xproplab.cli
from xproplab.cli import main
from xproplab.data import parse_xmlc_file
from xproplab.datagen import HyperBallConfig, generate_hyperball
from xproplab.train import LinearOvaModel, predict
test = generate_hyperball(HyperBallConfig(m=4, n_train=1, n_val=1, n_test=5))[2]
"""
        data_set = ["--set", f"data.path={data}"]
        noise = ["--set", "propensity.noise.family=constant", "--set", "propensity.noise.p=0.5"]
        small = ["--set", "data.m=4", "--set", "data.n_train=200", "--set", "data.n_val=200",
                 "--set", "data.n_test=5"]
        gen = tmp_path / "gen"
        commands = [
            ["stats", "--out", str(tmp_path / "stats.tsv"), *data_set],
            ["inject", "--out", str(tmp_path / "biased.txt"), *data_set, *noise],
            ["recovery", "--out", str(tmp_path / "recovery.tsv"), "--seed", "1", *small,
             *noise],
            ["gen", "--out", str(gen), *small],
            # rows that store every feature, n * d * m far under the bound
            ["eval", "--out", str(tmp_path / "metrics.tsv"), "--set", f"data.path={gen}/test.txt",
             "--set", f"eval.model={model}", "--set", "metrics.names=p", "--set",
             "metrics.ks=1"],
        ]
        loaded = "print('scipy.sparse' in sys.modules)"
        snippets = {  # each snippet's last line of output
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "predict(LinearOvaModel(W=np.ones((4, 4)), bias=np.zeros(4)), test)\n"
            f"print(codes, end=' '); {loaded}": "[0, 0, 0, 0, 0] False",
            # 5 rows x 4 features x 2**18 labels is over DENSE_PRODUCT_MAX = 2**22
            "predict(LinearOvaModel(W=np.ones((2**18, 4)), bias=np.zeros(2**18)), test)\n"
            f"{loaded}": "True",
            # rows with unstored ids
            f"predict(LinearOvaModel(W=np.ones((3, 2)), bias=np.zeros(3)), "
            f"parse_xmlc_file(open({str(data)!r})))\n{loaded}": "True",
        }
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for snippet, last in snippets.items():
            done = subprocess.run([sys.executable, "-c", prelude + snippet], capture_output=True,
                                  text=True, env=env, cwd=tmp_path, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == last, snippet

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
            raise AssertionError("the model was opened before [metrics] names was checked")

        monkeypatch.setattr(cli, "open_checkpoint", load_ran)
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

    def test_train_writes_the_checkpoint_at_out_exactly(self, tmp_path):
        data = tmp_path / "train.txt"
        data.write_text("3 2 3\n0,1 0:1.0\n2 1:1.0\n1 0:1.0\n")
        model = tmp_path / "model.bin"
        assert main(["train", "--out", str(model), "--set", f"data.path={data}",
                     "--set", "train.lrs=0.1", "--set", "train.wds=0",
                     "--set", "train.epochs=2"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "model.bin", "model.bin.tuning.tsv", "train.txt"]
        assert main(["eval", "--out", str(tmp_path / "metrics.tsv"),
                     "--set", f"data.path={data}", "--set", f"eval.model={model}",
                     "--set", "metrics.ks=1"]) == 0

    @pytest.mark.parametrize("names, metric", [("p,r,ndcg", "r@1"), ("psr", "psr@1"),
                                               ("normpsp", "normpsp@1")])
    def test_eval_with_no_positive_label_exits_1_naming_the_file(self, tmp_path, capsys,
                                                                 names, metric):
        data = tmp_path / "test.txt"
        data.write_text("2 2 4\n 0:1.0\n 1:1.0\n")
        model = tmp_path / "model.npz"
        save_model(LinearOvaModel(W=np.ones((4, 2)), bias=np.zeros(4)), str(model))
        config = tmp_path / "exp.ini"
        config.write_text("[propensity.eval]\nfamily = power_law\nbeta = auto\ngamma = 0.5\n")
        out = tmp_path / "metrics.tsv"
        assert main(["eval", "--config", str(config), "--out", str(out),
                     "--set", f"data.path={data}", "--set", f"eval.model={model}",
                     "--set", "metrics.ks=1,2", "--set", f"metrics.names={names}"]) == 1
        reason = ("normalizer is zero: no instance has an observed positive"
                  if names == "normpsp" else "no instance has a positive label")
        assert capsys.readouterr().err == f"config error: {data}: {metric}: {reason}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("arrays, message", MISSHAPEN_CHECKPOINTS, ids=MISSHAPEN_IDS)
    def test_eval_misshapen_checkpoint_exits_1(self, tmp_path, capsys, arrays, message):
        data = tmp_path / "test.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        model = tmp_path / "model.npz"
        np.savez(model, **{"version": np.array(1), "config_hash": np.array(""), **arrays})
        assert main(["eval", "--out", str(tmp_path / "metrics.tsv"), "--set", "metrics.ks=1",
                     "--set", f"data.path={data}", "--set", f"eval.model={model}"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"config error: \\[eval\\] model {re.escape(str(model))}: {message}\n",
                            err), err
        assert not (tmp_path / "metrics.tsv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--set", "data.path"], "--set expects section.key=value, got 'data.path'"),
        (["--set", "path=train.txt"], "--set expects section.key=value, got 'path=train.txt'"),
        (["--set", "data.m=١٠"], "[data] m must be an integer, got '١٠'"),
        (["--set", "data.m=1_0"], "[data] m must be an integer, got '1_0'"),
        (["--set", "experiment.seeds=١"], "[experiment] seeds must be an integer, got '١'"),
        (["--seed", "١"], "--seed must be an integer, got '١'"),
        (["--seed", "1_0"], "--seed must be an integer, got '1_0'"),
        (["--seed", "3", "--seed", "x"], "--seed must be a number, got 'x'"),
        (["--seed", "9007199254740993.5"], "--seed must be an integer, got '9007199254740993.5'"),
        (["--seed", "1e4300"], "--seed must be an integer of at most 4300 digits, got '1e4300'"),
    ], ids=["set_without_equals", "set_without_section", "m_arabic_digits",
            "m_underscore", "seeds_arabic_digit", "seed_arabic_digit", "seed_underscore",
            "seed_text", "seed_half_past_2**53", "seed_4301_digits"])
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

    def test_exit_code_runtime_error(self, tmp_path, capsys, monkeypatch):
        # exit 2 is left for a failure of the program itself, not of what the user gave
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "estimate_priors", broken)
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        assert main(["stats", "--set", f"data.path={data}"]) == 2
        assert capsys.readouterr().err == "error: broken\n"

    @pytest.mark.parametrize("command, key, make, message, out, bad", PATH_FAULTS)
    def test_bad_path_exits_1_naming_it(self, tmp_path, capsys, command, key, make, message,
                                        out, bad):
        paths = {"data.path": tmp_path / "data.txt", "fit.targets": tmp_path / "targets.tsv",
                 "eval.model": tmp_path / "model.npz"}
        paths["data.path"].write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        paths["fit.targets"].write_text("prior\ttarget\n0.1\t0.5\n0.2\t0.6\n")
        save_model(LinearOvaModel(W=np.ones((3, 2)), bias=np.zeros(3)), str(paths["eval.model"]))
        bad = tmp_path / bad
        if make is DIRECTORY:
            bad.mkdir(parents=True)
        elif make is not None:
            bad.write_bytes(make)
        argv = [command, "--out", str(tmp_path / out)]
        if key == "--config":
            argv += ["--config", str(bad)]
        elif key != "--out":
            paths[key] = bad
        for item in [f"{k}={v}" for k, v in paths.items()] + PATH_FAULT_SETS[command]:
            argv += ["--set", item]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        name = key if key.startswith("--") else "[{}] {}".format(*key.split("."))
        # the whole of stderr: no raw '[Errno ...]' and no exit-2 'error:' line
        assert capsys.readouterr().err == \
            f"config error: {message.format(key=name, path=bad)}\n"
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, not even in part

    @pytest.mark.parametrize("command, sets, out, bad, reason", [
        ("train", PATH_FAULT_SETS["train"], "nodir/m.npz", "nodir/m.npz",
         "No such file or directory"),
        ("train", PATH_FAULT_SETS["train"], "m.npz", "m.npz.tuning.tsv", "Is a directory"),
        ("recovery", PATH_FAULT_SETS["recovery"], "nodir/r.tsv", "nodir/r.tsv",
         "No such file or directory"),
        ("plot-data", PATH_FAULT_SETS["recovery"] + ["plot.which=propensity_scatter"],
         "nodir/p.tsv", "nodir/p.tsv", "No such file or directory"),
    ], ids=["train_missing_dir", "train_tuning_on_directory", "recovery", "plot_data"])
    def test_an_unwritable_out_fails_before_the_work(self, tmp_path, monkeypatch, capsys,
                                                     command, sets, out, bad, reason):
        ran = []

        def spy(*args, **kwargs):
            ran.append(command)
            raise RuntimeError("ran")

        monkeypatch.setattr(cli, "train_ova", spy)
        monkeypatch.setattr(cli, "run_propensity_recovery", spy)
        monkeypatch.setitem(cli.COMMANDS, "recovery", cli.cmd_report(spy))
        data = tmp_path / "data.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        (tmp_path / "m.npz.tuning.tsv").mkdir()
        argv = [command, "--set", f"data.path={data}"] + [a for s in sets for a in ("--set", s)]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv + ["--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == f"config error: --out {tmp_path / bad}: {reason}\n"
        assert ran == [] and sorted(tmp_path.rglob("*")) == before
        # the same command with a writable --out reaches the patched work
        assert main(argv + ["--out", str(tmp_path / "ok.out")]) == 2
        assert ran == [command]

    @pytest.mark.parametrize("text", [
        "2 9223372036854775807 5\n1 0:1.0\n2 9223372036854775806:1\n",
        "1 10000000000000000000 5\n1,2 3:1.0 7:2.0\n",
    ], ids=["int64_max_d", "d_past_2**63"])
    def test_stats_reads_a_header_of_any_width(self, tmp_path, capsys, text):
        data = tmp_path / "wide.txt"
        data.write_text(text)
        assert main(["stats", "--set", f"data.path={data}"]) == 0
        assert capsys.readouterr().out.startswith("min_ir\tilir\tpos80\n")

    @pytest.mark.parametrize("args, seed", [
        (["--seed", "9007199254740993"], 2**53 + 1),
        (["--seed", "1e23"], 10**23),
        (["--seed", "2e3"], 2000),
        (["--set", "experiment.seeds=9007199254740993"], 2**53 + 1),
    ], ids=["flag_2**53+1", "flag_1e23", "flag_2e3", "config_2**53+1"])
    def test_inject_reads_its_seed_exactly(self, tmp_path, capsys, args, seed):
        data = tmp_path / "train.txt"
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        assert main(["inject", *args, "--set", f"data.path={data}",
                     "--set", "propensity.noise.family=constant",
                     "--set", "propensity.noise.p=0.5", "--out", str(tmp_path / "b.txt")]) == 0
        assert capsys.readouterr().out.startswith(f"seed={seed}\tkept=")

    @pytest.mark.parametrize("text, message", [
        ("1 3 20000000000000000000\n9223372036854775808 0:1.0\n",
         "line 2: label index 9223372036854775808 >= 2**63"),
        ("1 20000000000000000000 5\n1 10000000000000000000:1.0\n",
         "line 2: feature index 10000000000000000000 >= 2**63"),
        # ids that parse under a header m no array of one count per label can hold
        ("1 3 9223372036854775807\n9223372036854775806 0:1.0\n",
         "line 1: header m=9223372036854775807 is too large for an array of one value "
         "per label (at most 1152921504606846975)"),
        ("1 3 20000000000000000000\n9223372036854775807 0:1.0\n",
         "line 1: header m=20000000000000000000 is too large for an array of one value "
         "per label (at most 1152921504606846975)"),
        # an m under that limit whose array of one value per label memory cannot hold
        ("1 3 576460752303423488\n5 0:1.0\n",
         "line 1: header m=576460752303423488 is too large for an array of one value "
         "per label (its 4611686018427387904 bytes cannot be allocated)"),
        ("1 3 4000000000000\n5 0:1.0\n",
         "line 1: header m=4000000000000 is too large for an array of one value "
         "per label (its 32000000000000 bytes cannot be allocated)"),
    ], ids=["label", "feature", "m_int64_max", "m_past_2**64", "m_4_EiB", "m_29_TiB"])
    def test_stats_rejects_an_id_past_int64_naming_its_line(self, tmp_path, capsys, text,
                                                             message):
        data = tmp_path / "wide.txt"
        data.write_text(text)
        assert main(["stats", "--set", f"data.path={data}"]) == 1
        assert capsys.readouterr().err == f"config error: {data} {message}\n"

    @pytest.mark.parametrize("command, sets, output", [
        ("fit", ["fit.family=freq_sigmoid", "fit.n=2"], "family\tparams\tmse"),
        ("inject", ["propensity.noise.family=freq_sigmoid", "propensity.noise.a=0.55",
                    "propensity.noise.b=1.5", "propensity.noise.n=2"], "2 2 3\n"),
    ])
    def test_degenerate_family_warns_in_one_line(self, tmp_path, capsys, command, sets,
                                                 output):
        targets, data = tmp_path / "targets.tsv", tmp_path / "train.txt"
        targets.write_text("prior\ttarget\n0.1\t0.5\n0.2\t0.6\n0.3\t0.7\n")
        data.write_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        out = tmp_path / "out.txt"
        argv = [command, "--set", f"fit.targets={targets}", "--set", f"data.path={data}",
                *(a for s in sets for a in ("--set", s)), "--out", str(out)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err and set(err.splitlines()) == {
            "warning: ln(n) - 1 <= 0 for n < 3: values leave (0, 1] and are clamped"}
        assert out.read_text().startswith(output)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["gen", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["gen", "--config", cfg, "--out", str(out_b), "--seed", "8"]) == 0
        assert (out_a / "train.txt").read_text() != (out_b / "train.txt").read_text()
