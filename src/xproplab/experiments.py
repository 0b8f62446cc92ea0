"""Config-driven experiment harness producing deterministic TSV reports."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .data import FieldError, SparseDataset, estimate_priors
from .datagen import HyperBallConfig, generate_hyperball, inject_missing
from .metrics import (abandonment_at_k, check_unbiased_estimator_exists, coverage_at_k,
                      exact_observation_distribution, independent_mask_distribution,
                      macro_f_beta, ndcg_at_k, normalized_psp_at_k, precision_at_k,
                      ps_ndcg_at_k, ps_precision_at_k, ps_recall_at_k, recall_at_k)
from .propensity import (FAMILY_TABLE, FITTABLE, FREQ_SIGMOID_DEFAULT,
                         PropensityAssignment, PropensityModelSpec, assign,
                         direct_estimate)
from .propfit import FitProblem, fit_family, fit_mse
from .train import MIN_TRAIN_N, TrainConfig, predict, train_ova


class ConfigError(ValueError):
    """Raised for malformed or incomplete experiment configurations."""


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"must be a number, got '{text}'") from None


def _integer(text: str) -> int:
    # ASCII, without '_', as a data header's fields: float() also reads '1_0' and
    # non-ASCII digits.  The value is read exactly, as a Decimal: float() rounds
    # above 2**53.  Python converts ints of at most 4300 digits to text.
    _number(text)
    value = Decimal(text)
    if not (text.isascii() and "_" not in text and value.is_finite()  # rejects inf, nan
            and value == value.to_integral_value()):
        raise ValueError(f"must be an integer, got '{text}'")
    if value.adjusted() >= 4300:
        raise ValueError(f"must be an integer of at most 4300 digits, got '{text}'")
    return int(value)


def _one_of(*names) -> tuple:
    return (lambda v: v in names), f"one of {', '.join(names)}"


# every metric `eval` reports, called as (labels, scores, k, the [propensity.eval]
# assignment); each lambda looks its function up by name when it is called
METRICS = {
    "p": lambda labels, scores, k, p: precision_at_k(labels, scores, k),
    "r": lambda labels, scores, k, p: recall_at_k(labels, scores, k),
    "ndcg": lambda labels, scores, k, p: ndcg_at_k(labels, scores, k),
    "psp": lambda labels, scores, k, p: ps_precision_at_k(labels, scores, k, p),
    "psr": lambda labels, scores, k, p: ps_recall_at_k(labels, scores, k, p),
    "psndcg": lambda labels, scores, k, p: ps_ndcg_at_k(labels, scores, k, p),
    "normpsp": lambda labels, scores, k, p: normalized_psp_at_k(labels, scores, k, p),
    "macrof": lambda labels, scores, k, p: macro_f_beta(labels, scores, 1.0, k=k),
    "abandonment": lambda labels, scores, k, p: abandonment_at_k(labels, scores, k),
    "coverage": lambda labels, scores, k, p: coverage_at_k(labels, scores, k),
}
# the metrics that read [propensity.eval]
PS_METRICS = ("psp", "psr", "psndcg", "normpsp")


class Key(NamedTuple):
    """How one config key is read: ``parse`` turns a value (with ``many``, each item
    of a comma-separated list) into its value or raises ValueError; ``default`` is
    None for a required key; each value must pass ``check = (ok, range)``; ``field``
    names the config dataclass field the key feeds, which checks its range itself."""

    parse: Callable = str
    default: object = None
    many: bool = False
    check: Optional[tuple] = None
    field: Optional[str] = None


# every config key outside the propensity sections; the [data] defaults of the
# generator's fields are HyperBallConfig's, the [train] defaults TrainConfig's
SCHEMA = {
    ("experiment", "seeds"): Key(_integer, (0,), many=True,
                                 check=(lambda v: v >= 0, "at least 0")),
    ("experiment", "p_controlled"): Key(_number, 1.0, check=(lambda v: 0 < v <= 1, "in (0, 1]")),
    ("data", "path"): Key(),
    ("data", "m"): Key(_integer, HyperBallConfig.m, field="m"),
    ("data", "dim"): Key(_integer, HyperBallConfig.dim, field="dim"),
    ("data", "r_min"): Key(_number, HyperBallConfig.radius_range[0], field="radius_range"),
    ("data", "r_max"): Key(_number, HyperBallConfig.radius_range[1], field="radius_range"),
    ("data", "n_train"): Key(_integer, HyperBallConfig.n_train, field="n_train"),
    ("data", "n_val"): Key(_integer, HyperBallConfig.n_val, field="n_val"),
    ("data", "n_test"): Key(_integer, HyperBallConfig.n_test, field="n_test"),
    ("data", "alpha"): Key(_number, 1.0, check=(lambda v: 0 <= v < math.inf, "finite and >= 0")),
    ("train", "loss"): Key(str, TrainConfig.loss, field="loss"),
    ("train", "lrs"): Key(_number, TrainConfig.lr_grid, many=True, field="lr_grid"),
    ("train", "wds"): Key(_number, TrainConfig.wd_grid, many=True, field="wd_grid"),
    ("train", "epochs"): Key(_integer, TrainConfig.epochs, field="epochs"),
    ("train", "batch_size"): Key(_integer, TrainConfig.batch_size, field="batch_size"),
    ("train", "patience"): Key(_integer, TrainConfig.patience, field="patience"),
    ("train", "val_fraction"): Key(_number, TrainConfig.val_fraction, field="val_fraction"),
    ("metrics", "ks"): Key(_integer, (1, 3, 5), many=True,
                           check=(lambda v: v >= 1, "at least 1")),
    ("metrics", "names"): Key(str, ("p", "r", "ndcg"), many=True, check=_one_of(*METRICS)),
    ("eval", "model"): Key(),
    ("fit", "targets"): Key(),
    ("fit", "family"): Key(check=_one_of(*FITTABLE)),
    ("fit", "n"): Key(_integer, check=(lambda v: v >= 1, "at least 1")),
    ("plot", "which"): Key(str, "label_frequency",
                           check=_one_of("label_frequency", "propensity_scatter")),
}

# sections holding a propensity spec, whose keys FAMILY_TABLE checks when it is parsed
PROPENSITY_SECTIONS = ("propensity.noise", "propensity.train", "propensity.eval",
                       "propensity.a", "propensity.b")
SECTIONS = tuple(dict.fromkeys(section for section, _ in SCHEMA)) + PROPENSITY_SECTIONS


@dataclass(frozen=True)
class ExperimentConfig:
    """Nested key-value sections, as parsed from the flat config text format."""

    sections: dict  # section name -> {key: str value}

    @classmethod
    def from_text(cls, text: str, source: str = "<string>") -> "ExperimentConfig":
        # no interpolation: a value reads the same here as through --set; an error names source
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=source)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        return cls(sections=sections)

    def override(self, section: str, key: str, value: str) -> "ExperimentConfig":
        sections = {name: dict(kv) for name, kv in self.sections.items()}
        sections.setdefault(section, {})[key] = value
        return ExperimentConfig(sections=sections)

    def get(self, section: str, key: str, required: bool = False):
        """``[section] key`` read as SCHEMA declares it, or its default when absent
        and not ``required`` (the reports require ``[experiment] seeds``)."""
        spec = SCHEMA[section, key]
        text = self.sections.get(section, {}).get(key)
        if text is None:
            if spec.default is None or required:
                raise ConfigError(f"missing config key [{section}] {key}")
            return spec.default
        items = [item.strip() for item in text.split(",")] if spec.many else [text]
        try:
            if not all(items):
                raise ValueError(f"must be comma-separated values, none empty, got '{text}'")
            values = tuple(map(spec.parse, items))
            ok, what = spec.check or (lambda v: True, "")
            bad = [v for v in values if not ok(v)]  # comparisons are False for nan
            if bad:
                raise ValueError(f"must be {what}, got {bad[0]!r}")
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} {exc}") from None
        return values if spec.many else values[0]

    def propensity_spec(self, section: str, auto_beta: float, n: int) -> PropensityModelSpec:
        """The ``[section]`` spec, ``beta = auto`` read as ``auto_beta`` and a missing
        freq_sigmoid ``n`` as ``n``; a spec that does not parse is a ConfigError."""
        kv = dict(self.sections[section])
        if kv.get("beta") == "auto":
            kv["beta"] = repr(auto_beta)
        if kv.get("family") == "freq_sigmoid" and "n" not in kv:
            kv["n"] = str(n)
        try:
            return PropensityModelSpec.from_mapping(kv)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None

    def check_keys(self) -> None:
        """ConfigError naming the first section or key that SCHEMA does not declare,
        or whose value it rejects, or the first propensity spec that does not parse
        (its domain needs the dataset: ``propensities_for`` checks that)."""
        for section, kv in self.sections.items():
            if section not in SECTIONS:
                raise ConfigError(f"[{section}] is not a config section; the sections are "
                                  f"{', '.join(SECTIONS)}")
            if section in PROPENSITY_SECTIONS:
                self.propensity_spec(section, auto_beta=1.0, n=1)
                continue
            keys = [k for s, k in SCHEMA if s == section]
            for key in kv:
                if key not in keys:
                    raise ConfigError(f"[{section}] {key} is not a config key; [{section}] "
                                      f"takes {', '.join(keys)}")
                self.get(section, key)

    def hash(self) -> str:
        canonical = "\n".join(f"{s}.{k}={v}"
                              for s in sorted(self.sections)
                              for k, v in sorted(self.sections[s].items()))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def tsv(columns, rows) -> str:
    """A header line, then one tab-joined line per row of cells, each through ``_fmt``."""
    return "".join("\t".join(map(_fmt, line)) + "\n" for line in [columns, *rows])


def params_text(params: dict) -> str:
    """A family's parameters as ``name=value;...`` in name order."""
    return ";".join(f"{k}={_fmt(float(v))}" for k, v in sorted(params.items()))


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
        provenance = [("config_hash", self.config_hash), ("version", __version__),
                      ("seeds", ",".join(str(s) for s in self.seeds)),
                      *(("note", note) for note in self.footnotes)]
        return ("".join(f"# {key}\t{value}\n" for key, value in provenance)
                + tsv(self.columns, ([row[c] for c in self.columns] for row in self.rows)))


def propensities_for(config: ExperimentConfig, section: str,
                     dataset: SparseDataset) -> PropensityAssignment:
    """The ``[section]`` spec on the dataset's label priors (``beta = auto`` is 1/max
    prior, a missing ``n`` the dataset size); a spec that does not parse or leaves its
    family's domain (``beta = -1``, a ``direct`` table not of length m) is a ConfigError."""
    if section not in config.sections:
        raise ConfigError(f"missing config section [{section}]")
    priors = estimate_priors(dataset, alpha=1.0)
    spec = config.propensity_spec(section, 1.0 / float(np.max(priors.priors)), dataset.n)
    try:
        return assign(spec, priors)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def metric_ks(config: ExperimentConfig, m: int) -> tuple:
    """``[metrics] ks``; a k above the dataset's label count m is a ConfigError."""
    ks = config.get("metrics", "ks")
    if max(ks) > m:
        raise ConfigError(f"[metrics] ks must be at most the label count m = {m}, "
                          f"got {max(ks)}")
    return ks


def _build(cls, config: ExperimentConfig, section: str, **given):
    """``cls`` from ``given`` and the ``[section]`` keys that feed its fields (a field
    fed by two keys takes their tuple); a FieldError becomes a ConfigError naming them."""
    feeds = {}  # field -> the keys that feed it, in SCHEMA order
    for (s, key), spec in SCHEMA.items():
        if s == section and spec.field:
            feeds.setdefault(spec.field, []).append(key)
    values = {name: tuple(config.get(section, k) for k in keys) if len(keys) > 1
              else config.get(section, keys[0]) for name, keys in feeds.items()}
    try:
        return cls(**{**values, **given})
    except FieldError as exc:
        raise ConfigError(f"[{section}] {', '.join(feeds[exc.field])} {exc.reason}") from None


def hyperball_config(config: ExperimentConfig, seed: int) -> HyperBallConfig:
    return _build(HyperBallConfig, config, "data", seed=seed)


def train_config_from(config: ExperimentConfig, seed: int,
                      propensities: Optional[PropensityAssignment], **fields) -> TrainConfig:
    """The ``[train]`` config; ``fields`` override the config's values."""
    return _build(TrainConfig, config, "train", seed=seed, propensities=propensities, **fields)


def _derived_seeds(seed: int, count: int) -> list:
    """Deterministic per-purpose sub-seeds for one experiment run."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def run_mismatch_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Cross propensity-model noise with unbiased-loss training and report both
    actual precision on clean data and PSP under both model assignments."""
    seeds = config.get("experiment", "seeds", required=True)
    ks = metric_ks(config, config.get("data", "m"))
    n_train = config.get("data", "n_train")
    if n_train < MIN_TRAIN_N:
        raise ConfigError(f"[data] n_train must be at least {MIN_TRAIN_N} for mismatch, "
                          f"which trains on it, got {n_train}")
    metric_columns = [f"p@{k}" for k in ks] + ["psp@1_a", "psp@1_b"]
    columns = ["seed", "noise", "trained", *metric_columns, "psp@1_a_compat", "psp@1_b_compat"]
    report = ExperimentReport(config_hash=config.hash(), seeds=seeds, columns=columns)

    def compat(noise):
        return {f"psp@1_{name}_compat": "compatible" if name == noise else "incompatible"
                for name in ("a", "b")}

    aggregates = {}
    for seed in seeds:
        gen_seed, noise_seed_a, noise_seed_b, test_seed_a, test_seed_b, train_seed = \
            _derived_seeds(seed, 6)
        ball = hyperball_config(config, gen_seed)
        train_ds, _, test_ds, _ = generate_hyperball(ball)
        assignments = {name: propensities_for(config, f"propensity.{name}", train_ds)
                       for name in ("a", "b")}
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
                # biased_test shares test_ds's features, so one scoring serves both
                scores = predict(model, test_ds)
                values = ([precision_at_k(test_ds, scores, k).value for k in ks]
                          + [ps_precision_at_k(biased_test, scores, 1, assignments[name]).value
                             for name in ("a", "b")])
                report.add_row(seed=seed, noise=noise, trained=trained,
                               **dict(zip(metric_columns, values)), **compat(noise))
                aggregates.setdefault((noise, trained), []).append(values)

    for (noise, trained), values in sorted(aggregates.items()):
        arr = np.array(values)
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / np.sqrt(len(values)) if len(values) > 1 \
            else np.zeros(arr.shape[1])
        report.add_row(seed="mean±se", noise=noise, trained=trained,
                       **{c: f"{mu:.6f}±{s:.6f}" for c, mu, s in zip(metric_columns, mean, se)},
                       **compat(noise))
    return report


def run_propensity_recovery(config: ExperimentConfig) -> ExperimentReport:
    """Inject known bias, estimate propensities from a bias-controlled split,
    fit every family and tabulate inverse-propensity MSE."""
    seeds = config.get("experiment", "seeds", required=True)
    p_controlled = config.get("experiment", "p_controlled")
    columns = ["seed", "family", "fitted", "params", "mse", "converged"]
    report = ExperimentReport(config_hash=config.hash(), seeds=seeds, columns=columns)

    scatter = []
    for seed in seeds:
        gen_seed, noise_seed, val_seed = _derived_seeds(seed, 3)
        ball = hyperball_config(config, gen_seed)
        train_ds, val_ds, _, _ = generate_hyperball(ball)
        p_star = propensities_for(config, "propensity.noise", train_ds)

        biased_train, _ = inject_missing(train_ds, p_star, noise_seed)
        controlled_val, _ = inject_missing(
            val_ds, PropensityAssignment(np.full(val_ds.m, p_controlled)), val_seed)
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
            fitted[family] = assign(PropensityModelSpec(family, result.params), priors_train)
            rows.append((family, "yes", result.params, fitted[family],
                         "yes" if result.converged else "no"))
        for spec in (PropensityModelSpec("constant", {"p": 1.0}),
                     PropensityModelSpec("freq_sigmoid", {**FREQ_SIGMOID_DEFAULT,
                                                          "n": float(ball.n_train)})):
            rows.append((spec.family, "no", spec.params, assign(spec, priors_train), "-"))
        for family, was_fitted, params, assignment, converged in rows:
            report.add_row(seed=seed, family=family, fitted=was_fitted,
                           params=params_text(params), mse=fit_mse(assignment, targets.p),
                           converged=converged)

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
    """The two correlated 2-label missingness processes sharing marginal
    propensities 0.5: labels vanish together, or complementarily.  Rows and
    columns are the vectors 00, 01, 10, 11."""
    rows = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]]
    together = np.array(rows + [[0.5, 0.0, 0.0, 0.5]])       # 11 -> 11 or 00
    complementary = np.array(rows + [[0.0, 0.5, 0.5, 0.0]])  # 11 -> 10 or 01
    return together, complementary


def run_feasibility_demo(config: ExperimentConfig) -> ExperimentReport:
    """Exercise the unbiased-estimator feasibility oracle on the correlated,
    independent and no-noise missingness scenarios."""
    # abandonment@2 of the fixed prediction {both labels}: 1 iff no true label
    # exists (vectors 00, 01, 10, 11); non-decomposable over labels
    loss = [1.0, 0.0, 0.0, 0.0]
    together, complementary = correlated_mask_distributions()
    cases = [
        ("correlated", [together, complementary]),
        ("independent", [independent_mask_distribution([0.5, 0.5])]),
        ("no_noise", [exact_observation_distribution(2)]),
    ]
    report = ExperimentReport(config_hash=config.hash(), seeds=[0],
                              columns=["case", "feasible", "residual"])
    for name, processes in cases:
        result = check_unbiased_estimator_exists(processes, loss)
        report.add_row(case=name, feasible="yes" if result.feasible else "no",
                       residual=result.residual)
    return report


def emit_plot_data(source) -> str:
    """The plot table of ``source``: a ``SparseDataset`` gives its label counts,
    largest first, as a two-column TSV (rank, count); an ``ExperimentReport`` its
    ``propensity_scatter`` series, one column per field.  Any other type raises
    TypeError, and a report without that series ValueError."""
    if isinstance(source, SparseDataset):
        counts = np.sort(source.label_counts())[::-1]
        return tsv(("rank", "count"), ((r + 1, int(c)) for r, c in enumerate(counts)))
    if not isinstance(source, ExperimentReport):
        raise TypeError(f"no plot table for a {type(source).__name__}: expected a "
                        "SparseDataset or an ExperimentReport")
    series = source.series.get("propensity_scatter")
    if not series:
        raise ValueError("no propensity_scatter series available")
    cols = list(series[0])
    return tsv(cols, ([point[c] for c in cols] for point in series))
