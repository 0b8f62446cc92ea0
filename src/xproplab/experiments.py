"""Config-driven experiment harness producing deterministic TSV reports."""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .data import LabelPriors, SparseDataset, estimate_priors
from .datagen import HyperBallConfig, generate_hyperball, inject_missing
from .metrics import (check_unbiased_estimator_exists, exact_observation_distribution,
                      independent_mask_distribution, precision_at_k, ps_precision_at_k)
from .propensity import (FAMILY_TABLE, FITTABLE, FREQ_SIGMOID_DEFAULT,
                         PropensityAssignment, PropensityModelSpec, assign,
                         direct_estimate)
from .propfit import FitProblem, fit_family, fit_mse
from .train import TrainConfig, TrainConfigError, predict, train_ova


class ConfigError(ValueError):
    """Raised for malformed or incomplete experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Nested key-value sections, as parsed from the flat config text format."""

    sections: dict  # section name -> {key: str value}

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        return cls(sections=sections)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def override(self, section: str, key: str, value: str) -> "ExperimentConfig":
        sections = {name: dict(kv) for name, kv in self.sections.items()}
        sections.setdefault(section, {})[key] = value
        return ExperimentConfig(sections=sections)

    def get(self, section: str, key: str, default=None, required: bool = False):
        value = self.sections.get(section, {}).get(key, default)
        if value is None and required:
            raise ConfigError(f"missing config key [{section}] {key}")
        return value

    def get_float(self, section, key, default=None, required=False) -> Optional[float]:
        value = self.get(section, key, default, required)
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be a number, got '{value}'") from None

    def get_int(self, section, key, default=None, required=False) -> Optional[int]:
        value = self.get_float(section, key, default, required)
        if value is None:
            return None
        if not value.is_integer():  # also rejects inf and nan
            raise ConfigError(f"[{section}] {key} must be an integer, got {value!r}")
        return int(value)

    def get_ints(self, section, key, default=None, required=False) -> Optional[list]:
        value = self.get(section, key, default, required)
        if value is None:
            return None
        if isinstance(value, (list, tuple)):
            return [int(v) for v in value]
        try:
            return [int(v) for v in str(value).split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be comma-separated integers") from None

    def get_floats(self, section, key, default=None, required=False) -> Optional[list]:
        value = self.get(section, key, default, required)
        if value is None:
            return None
        if isinstance(value, (list, tuple)):
            return [float(v) for v in value]
        try:
            return [float(v) for v in str(value).split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be comma-separated numbers") from None

    def hash(self) -> str:
        canonical = "\n".join(f"{s}.{k}={v}"
                              for s in sorted(self.sections)
                              for k, v in sorted(self.sections[s].items()))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


@dataclass
class ExperimentReport:
    """Metric/fit/training rows with provenance; serializes byte-stably to TSV."""

    config_hash: str
    seeds: Sequence[int]
    columns: Sequence[str]
    rows: list = field(default_factory=list)
    footnotes: list = field(default_factory=list)
    series: dict = field(default_factory=dict)  # named plot-ready data

    def add_row(self, **values) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns: {sorted(missing)}")
        self.rows.append({c: values[c] for c in self.columns})

    def to_tsv(self) -> str:
        out = io.StringIO()
        out.write(f"# config_hash\t{self.config_hash}\n")
        out.write(f"# version\t{__version__}\n")
        out.write(f"# seeds\t{','.join(str(s) for s in self.seeds)}\n")
        for note in self.footnotes:
            out.write(f"# note\t{note}\n")
        out.write("\t".join(self.columns) + "\n")
        for row in self.rows:
            out.write("\t".join(_fmt(row[c]) for c in self.columns) + "\n")
        return out.getvalue()


def parse_propensity_spec(config: ExperimentConfig, section: str,
                          priors: Optional[LabelPriors] = None,
                          n: Optional[int] = None) -> PropensityModelSpec:
    """Build a model spec from a config section; ``beta = auto`` resolves to
    1/max prior and a missing ``n`` falls back to the training-set size."""
    kv = dict(config.sections.get(section) or {})
    if kv.get("beta") == "auto":
        if priors is None:
            raise ConfigError(f"[{section}] beta=auto needs dataset priors")
        kv["beta"] = repr(1.0 / float(np.max(priors.priors)))
    if kv.get("family") == "freq_sigmoid" and "n" not in kv and n is not None:
        kv["n"] = str(n)
    try:
        return PropensityModelSpec.from_mapping(kv)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def hyperball_config(config: ExperimentConfig, seed: int) -> HyperBallConfig:
    return HyperBallConfig(
        m=config.get_int("data", "m", 100),
        dim=config.get_int("data", "dim", 4),
        radius_range=(config.get_float("data", "r_min", 0.05),
                      config.get_float("data", "r_max", 0.5)),
        seed=seed,
        n_train=config.get_int("data", "n_train", 2000),
        n_val=config.get_int("data", "n_val", 500),
        n_test=config.get_int("data", "n_test", 1000),
    )


# the [train] key each TrainConfig field is read from
_TRAIN_KEYS = {"loss": "loss", "lr_grid": "lrs", "wd_grid": "wds", "epochs": "epochs",
               "batch_size": "batch_size", "patience": "patience",
               "val_fraction": "val_fraction"}


def train_config_from(config: ExperimentConfig, seed: int,
                      propensities: Optional[PropensityAssignment],
                      loss: Optional[str] = None) -> TrainConfig:
    try:
        return TrainConfig(
            loss=loss or config.get("train", "loss", "unbiased"),
            propensities=propensities,
            lr_grid=tuple(config.get_floats("train", "lrs", [0.005, 0.01, 0.05, 0.1])),
            wd_grid=tuple(config.get_floats("train", "wds", [0.0, 1e-8, 1e-7, 1e-6])),
            epochs=config.get_int("train", "epochs", 100),
            batch_size=config.get_int("train", "batch_size", 128),
            patience=config.get_int("train", "patience", 5),
            val_fraction=config.get_float("train", "val_fraction", 0.10),
            seed=seed,
        )
    except TrainConfigError as exc:
        raise ConfigError(f"[train] {_TRAIN_KEYS[exc.field]} {exc.reason}") from None


def _derived_seeds(seed: int, count: int) -> list:
    """Deterministic per-purpose sub-seeds for one experiment run."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def run_mismatch_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Cross propensity-model noise with unbiased-loss training and report both
    actual precision on clean data and PSP under both model assignments."""
    seeds = config.get_ints("experiment", "seeds", required=True)
    ks = config.get_ints("metrics", "ks", [1, 3, 5])
    columns = (["seed", "noise", "trained"]
               + [f"p@{k}" for k in ks]
               + ["psp@1_a", "psp@1_b", "psp@1_a_compat", "psp@1_b_compat"])
    report = ExperimentReport(config_hash=config.hash(), seeds=seeds, columns=columns)

    aggregates = {}
    for seed in seeds:
        gen_seed, noise_seed_a, noise_seed_b, test_seed_a, test_seed_b, train_seed = \
            _derived_seeds(seed, 6)
        ball = hyperball_config(config, gen_seed)
        train_ds, _, test_ds, _ = generate_hyperball(ball)
        priors = estimate_priors(train_ds, alpha=1.0)
        spec_a = parse_propensity_spec(config, "propensity.a", priors, ball.n_train)
        spec_b = parse_propensity_spec(config, "propensity.b", priors, ball.n_train)
        assignments = {"a": assign(spec_a, priors), "b": assign(spec_b, priors)}
        noise_seeds = {"a": noise_seed_a, "b": noise_seed_b}
        test_seeds = {"a": test_seed_a, "b": test_seed_b}

        for noise in ("a", "b"):
            biased_train, _ = inject_missing(train_ds, assignments[noise],
                                             noise_seeds[noise])
            biased_test, _ = inject_missing(test_ds, assignments[noise],
                                            test_seeds[noise])
            for trained in ("a", "b"):
                tc = train_config_from(config, train_seed, assignments[trained],
                                       loss="unbiased")
                model, _ = train_ova(biased_train, tc)
                clean_scores = predict(model, test_ds)
                biased_scores = predict(model, biased_test)
                row = {"seed": seed, "noise": noise, "trained": trained}
                for k in ks:
                    row[f"p@{k}"] = precision_at_k(test_ds, clean_scores, k).value
                row["psp@1_a"] = ps_precision_at_k(biased_test, biased_scores, 1,
                                                   assignments["a"]).value
                row["psp@1_b"] = ps_precision_at_k(biased_test, biased_scores, 1,
                                                   assignments["b"]).value
                row["psp@1_a_compat"] = "compatible" if noise == "a" else "incompatible"
                row["psp@1_b_compat"] = "compatible" if noise == "b" else "incompatible"
                report.add_row(**row)
                key = (noise, trained)
                aggregates.setdefault(key, []).append(
                    [row[f"p@{k}"] for k in ks] + [row["psp@1_a"], row["psp@1_b"]])

    for (noise, trained), values in sorted(aggregates.items()):
        arr = np.array(values)
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / np.sqrt(len(values)) if len(values) > 1 \
            else np.zeros(arr.shape[1])
        row = {"seed": "mean±se", "noise": noise, "trained": trained}
        for i, k in enumerate(ks):
            row[f"p@{k}"] = f"{mean[i]:.6f}±{se[i]:.6f}"
        row["psp@1_a"] = f"{mean[len(ks)]:.6f}±{se[len(ks)]:.6f}"
        row["psp@1_b"] = f"{mean[len(ks) + 1]:.6f}±{se[len(ks) + 1]:.6f}"
        row["psp@1_a_compat"] = "compatible" if noise == "a" else "incompatible"
        row["psp@1_b_compat"] = "compatible" if noise == "b" else "incompatible"
        report.add_row(**row)
    return report


def run_propensity_recovery(config: ExperimentConfig) -> ExperimentReport:
    """Inject known bias, estimate propensities from a bias-controlled split,
    fit every family and tabulate inverse-propensity MSE."""
    seeds = config.get_ints("experiment", "seeds", required=True)
    p_controlled = config.get_float("experiment", "p_controlled", 1.0)
    columns = ["seed", "family", "fitted", "params", "mse", "converged"]
    report = ExperimentReport(config_hash=config.hash(), seeds=seeds, columns=columns)

    scatter = []
    for seed in seeds:
        gen_seed, noise_seed, val_seed = _derived_seeds(seed, 3)
        ball = hyperball_config(config, gen_seed)
        train_ds, val_ds, _, _ = generate_hyperball(ball)
        clean_priors = estimate_priors(train_ds, alpha=1.0)
        noise_spec = parse_propensity_spec(config, "propensity.noise",
                                           clean_priors, ball.n_train)
        p_star = assign(noise_spec, clean_priors)

        biased_train, _ = inject_missing(train_ds, p_star, noise_seed)
        controlled_val, _ = inject_missing(
            val_ds, PropensityAssignment(m=val_ds.m,
                                         p=np.full(val_ds.m, p_controlled),
                                         source="controlled"), val_seed)
        priors_train = estimate_priors(biased_train, alpha=1.0)
        priors_val = estimate_priors(controlled_val, alpha=1.0)
        targets = direct_estimate(priors_train, priors_val, p_controlled)

        fitted = {}  # family -> fitted assignment on the training priors
        rows = []    # (family, fitted, params, assignment, converged)
        for family in FITTABLE:
            # n is the dataset size: fixed, not fitted
            fixed = {"n": float(ball.n_train)} if "n" in FAMILY_TABLE[family].params else {}
            result = fit_family(FitProblem(priors=priors_train.priors, targets=targets.p,
                                           family=family, fixed=fixed))
            fitted[family] = assign(result.spec(family), priors_train)
            rows.append((family, "yes", result.params, fitted[family],
                         "yes" if result.converged else "no"))
        for spec in (PropensityModelSpec("constant", {"p": 1.0}),
                     PropensityModelSpec("freq_sigmoid", {**FREQ_SIGMOID_DEFAULT,
                                                          "n": float(ball.n_train)})):
            rows.append((spec.family, "no", spec.params, assign(spec, priors_train), "-"))
        for family, was_fitted, params, assignment, converged in rows:
            report.add_row(seed=seed, family=family, fitted=was_fitted,
                           params=";".join(f"{k}={_fmt(float(v))}"
                                           for k, v in sorted(params.items())),
                           mse=fit_mse(assignment, targets.p), converged=converged)

        for j in range(train_ds.m):
            point = {"seed": seed, "prior": float(priors_train.priors[j]),
                     "target": float(targets.p[j]),
                     "true": float(p_star.p[j])}
            for family, assignment in fitted.items():
                point[family] = float(assignment.p[j])
            scatter.append(point)
    report.series["propensity_scatter"] = scatter
    report.footnotes.append("targets are direct estimates from a bias-controlled split")
    return report


def correlated_mask_distributions() -> tuple:
    """The two correlated 2-label missingness distributions sharing marginal
    propensities 0.5: labels vanish together, or complementarily."""
    together = {
        (1, 1): {(1, 1): 0.5, (0, 0): 0.5},
        (1, 0): {(1, 0): 0.5, (0, 0): 0.5},
        (0, 1): {(0, 1): 0.5, (0, 0): 0.5},
        (0, 0): {(0, 0): 1.0},
    }
    complementary = {
        (1, 1): {(1, 0): 0.5, (0, 1): 0.5},
        (1, 0): {(1, 0): 0.5, (0, 0): 0.5},
        (0, 1): {(0, 1): 0.5, (0, 0): 0.5},
        (0, 0): {(0, 0): 1.0},
    }
    return together, complementary


def abandonment_loss_table() -> dict:
    """Loss of the fixed prediction {both labels} under abandonment@2:
    1 iff no true label exists.  Non-decomposable over labels."""
    return {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}


def run_feasibility_demo(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Exercise the unbiased-estimator feasibility oracle on the correlated,
    independent and no-noise missingness scenarios."""
    if config is None:
        config = ExperimentConfig(sections={"experiment": {"kind": "feasibility"}})
    loss = abandonment_loss_table()
    together, complementary = correlated_mask_distributions()
    cases = [
        ("correlated", [together, complementary]),
        ("independent", [independent_mask_distribution([0.5, 0.5])]),
        ("no_noise", [exact_observation_distribution(2)]),
    ]
    report = ExperimentReport(config_hash=config.hash(), seeds=[0],
                              columns=["case", "feasible", "residual"])
    for name, dists in cases:
        result = check_unbiased_estimator_exists(2, dists, loss)
        report.add_row(case=name, feasible="yes" if result.feasible else "no",
                       residual=result.residual)
    return report


def label_frequency_series(dataset: SparseDataset) -> list:
    counts = np.sort(dataset.label_counts())[::-1]
    return [{"rank": r + 1, "count": int(c)} for r, c in enumerate(counts)]


def emit_plot_data(source, which: str) -> str:
    """Two-column TSV (rank, count) for frequency plots; multi-column for the
    propensity scatter."""
    if which == "label_frequency":
        if isinstance(source, SparseDataset):
            series = label_frequency_series(source)
        else:
            series = source.series.get("label_frequency")
        if not series:
            raise ValueError("no label_frequency series available")
        lines = ["rank\tcount"] + [f"{r['rank']}\t{r['count']}" for r in series]
        return "\n".join(lines) + "\n"
    if which == "propensity_scatter":
        series = source.series.get("propensity_scatter") \
            if isinstance(source, ExperimentReport) else None
        if not series:
            raise ValueError("no propensity_scatter series available")
        cols = list(series[0].keys())
        lines = ["\t".join(cols)]
        for row in series:
            lines.append("\t".join(_fmt(row[c]) for c in cols))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown plot series '{which}'")
