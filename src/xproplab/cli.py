"""Command-line harness: gen, inject, fit, train, eval, mismatch, recovery,
feasibility, stats, plot-data.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import estimate_priors, imbalance_stats, parse_xmlc_file, write_xmlc_file
from .datagen import generate_hyperball, inject_missing
from .experiments import (ConfigError, ExperimentConfig, emit_plot_data,
                          hyperball_config, metric_ks, propensities_for,
                          run_feasibility_demo, run_mismatch_experiment,
                          run_propensity_recovery, train_config_from)
from .metrics import (abandonment_at_k, coverage_at_k, macro_f_beta, ndcg_at_k,
                      normalized_psp_at_k, precision_at_k, ps_ndcg_at_k,
                      ps_precision_at_k, ps_recall_at_k, recall_at_k)
from .propensity import FAMILY_TABLE
from .propfit import FitProblem, fit_family
from .train import load_model, predict, save_model, train_ova


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig({})
    for item in args.set or []:
        target, sep, value = item.partition("=")
        if not sep or "." not in target:
            raise ConfigError(f"--set expects section.key=value, got '{item}'")
        section, key = target.rsplit(".", 1)
        config = config.override(section, key, value)
    if args.seed:
        config = config.override("experiment", "seeds",
                                 ",".join(str(s) for s in args.seed))
    config.check_keys()
    return config


def _read_dataset(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_xmlc_file(fh)


def _write_text(path, text) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_gen(args, config: ExperimentConfig) -> None:
    ball = hyperball_config(config, config.get("experiment", "seeds")[0])
    train, val, test, priors = generate_hyperball(ball)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    for name, ds in (("train", train), ("val", val), ("test", test)):
        with open(os.path.join(out, f"{name}.txt"), "w", encoding="utf-8",
                  newline="") as fh:
            write_xmlc_file(ds, fh)
    lines = ["label\tcount\ttrue_prior"]
    for j in range(priors.m):
        lines.append(f"{j}\t{int(priors.counts[j])}\t{priors.priors[j]:.10g}")
    _write_text(os.path.join(out, "true_priors.tsv"), "\n".join(lines) + "\n")
    print(f"wrote train/val/test + true_priors.tsv to {out}")


def cmd_inject(args, config: ExperimentConfig) -> None:
    if args.out is None:
        raise ConfigError("inject requires --out")
    dataset = _read_dataset(config.get("data", "path"))
    assignment = propensities_for(config, "propensity.noise", dataset)
    biased, trace = inject_missing(dataset, assignment, config.get("experiment", "seeds")[0])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_xmlc_file(biased, fh)
    print(f"seed={trace.seed}\tkept={trace.kept}\tremoved={trace.removed}")


def cmd_fit(args, config: ExperimentConfig) -> None:
    path = config.get("fit", "targets")
    family = config.get("fit", "family")
    priors, targets = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("prior"):
            raise ConfigError("targets file must start with a 'prior\\ttarget' header")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\r\n").split("\t")
            try:
                prior, target = float(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                raise ConfigError(f"{path} line {lineno}: expected 'prior<TAB>target' "
                                  f"numbers, got '{line.rstrip()}'") from None
            if not (0 < prior < 1 and 0 < target <= 1):  # also rejects nan
                raise ConfigError(f"{path} line {lineno}: prior must lie in (0, 1) and "
                                  f"target in (0, 1], got '{line.rstrip()}'")
            priors.append(prior)
            targets.append(target)
    fixed = {"n": config.get("fit", "n")} if "n" in FAMILY_TABLE[family].params else {}
    problem = FitProblem(priors=np.array(priors), targets=np.array(targets),
                         family=family, fixed=fixed)
    result = fit_family(problem)
    params = ";".join(f"{k}={float(v):.10g}" for k, v in sorted(result.params.items()))
    text = ("family\tparams\tmse\titerations\tconverged\n"
            f"{family}\t{params}\t{result.mse:.10g}\t{result.iterations}\t"
            f"{'yes' if result.converged else 'no'}\n")
    _write_text(args.out, text)


def cmd_train(args, config: ExperimentConfig) -> None:
    if args.out is None:
        raise ConfigError("train requires --out (model checkpoint path)")
    dataset = _read_dataset(config.get("data", "path"))
    propensities = (propensities_for(config, "propensity.train", dataset)
                    if config.get("train", "loss") == "unbiased" else None)
    tc = train_config_from(config, config.get("experiment", "seeds")[0], propensities)
    model, tuning_log = train_ova(dataset, tc)
    save_model(model, args.out, config_hash=config.hash())
    lines = ["lr\twd\tval_objective\tepochs_ran\tstatus"]
    for cell in tuning_log:
        lines.append(f"{cell['lr']:.10g}\t{cell['wd']:.10g}\t"
                     f"{cell['val_objective']:.10g}\t{cell['epochs_ran']}\t{cell['status']}")
    _write_text(args.out + ".tuning.tsv", "\n".join(lines) + "\n")
    print(f"model written to {args.out}")


def cmd_eval(args, config: ExperimentConfig) -> None:
    dataset = _read_dataset(config.get("data", "path"))
    ks = metric_ks(config, dataset.m)
    model = load_model(config.get("eval", "model"))
    scores = predict(model, dataset)
    names = config.get("metrics", "names")
    assignment = (propensities_for(config, "propensity.eval", dataset)
                  if {"psp", "psr", "psndcg", "normpsp"} & set(names) else None)
    dispatch = {
        "p": lambda k: precision_at_k(dataset, scores, k),
        "r": lambda k: recall_at_k(dataset, scores, k),
        "ndcg": lambda k: ndcg_at_k(dataset, scores, k),
        "psp": lambda k: ps_precision_at_k(dataset, scores, k, assignment),
        "psr": lambda k: ps_recall_at_k(dataset, scores, k, assignment),
        "psndcg": lambda k: ps_ndcg_at_k(dataset, scores, k, assignment),
        "normpsp": lambda k: normalized_psp_at_k(dataset, scores, k, assignment),
        "macrof": lambda k: macro_f_beta(dataset, scores, 1.0, k=k),
        "abandonment": lambda k: abandonment_at_k(dataset, scores, k),
        "coverage": lambda k: coverage_at_k(dataset, scores, k),
    }
    lines = ["metric\tk\tvalue\tn_evaluated\tskipped"]
    for name in names:
        if name not in dispatch:
            raise ConfigError(f"[metrics] names has an unknown metric '{name}'")
        for k in ks:
            mv = dispatch[name](k)
            lines.append(f"{mv.name}\t{k}\t{mv.value:.10g}\t{mv.n_evaluated}\t{mv.skipped}")
    _write_text(args.out, "\n".join(lines) + "\n")


def cmd_stats(args, config: ExperimentConfig) -> None:
    dataset = _read_dataset(config.get("data", "path"))
    priors = estimate_priors(dataset, alpha=config.get("data", "alpha"))
    stats = imbalance_stats(priors)
    _write_text(args.out, "min_ir\tilir\tpos80\n"
                f"{stats.min_ir:.10g}\t{stats.ilir:.10g}\t{stats.pos80:.10g}\n")


def cmd_plot_data(args, config: ExperimentConfig) -> None:
    which = config.get("plot", "which")
    source = (_read_dataset(config.get("data", "path")) if which == "label_frequency"
              else run_propensity_recovery(config))
    _write_text(args.out, emit_plot_data(source, which))


def cmd_report(runner):
    def run(args, config: ExperimentConfig) -> None:
        report = runner(config)
        _write_text(args.out, report.to_tsv())
    return run


COMMANDS = {
    "gen": cmd_gen,
    "inject": cmd_inject,
    "fit": cmd_fit,
    "train": cmd_train,
    "eval": cmd_eval,
    "mismatch": cmd_report(run_mismatch_experiment),
    "recovery": cmd_report(run_propensity_recovery),
    "feasibility": cmd_report(run_feasibility_demo),
    "stats": cmd_stats,
    "plot-data": cmd_plot_data,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xprop-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="experiment config file")
        p.add_argument("--seed", type=int, action="append", default=None,
                       help="seed (repeatable; overrides the config's seed list)")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--set", action="append", default=None, metavar="SEC.KEY=VAL",
                       help="override any config knob")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args, _load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
