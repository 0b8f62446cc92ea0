"""Command-line harness: gen, inject, fit, train, eval, mismatch, recovery,
feasibility, stats, plot-data.  Exit codes: 0 success; 1 a fault in what the
user supplied (a key, a flag, or a file one of them names); 2 a failure of the
program itself."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np

from .data import (ParseError, estimate_priors, imbalance_stats, parse_xmlc_file,
                   write_xmlc_file)
from .datagen import generate_hyperball, inject_missing
from .experiments import (METRICS, PS_METRICS, ConfigError, ExperimentConfig, _integer,
                          emit_plot_data, hyperball_config, metric_ks, params_text,
                          propensities_for, run_feasibility_demo, run_mismatch_experiment,
                          run_propensity_recovery, train_config_from, tsv)
from .propensity import FAMILY_TABLE
from .propfit import FitProblem, fit_family
from .train import MIN_TRAIN_N, open_checkpoint, predict, save_model, train_ova


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig({})
    if args.config:
        with _open_text("--config", args.config) as fh:
            config = ExperimentConfig.from_text(fh.read(), source=args.config)
    for item in args.set or []:
        target, sep, value = item.partition("=")
        if not sep or "." not in target:
            raise ConfigError(f"--set expects section.key=value, got '{item}'")
        section, key = target.rsplit(".", 1)
        config = config.override(section, key, value)
    if args.seed:
        try:
            seeds = [_integer(text) for text in args.seed]
        except ValueError as exc:
            raise ConfigError(f"--seed {exc}") from None
        config = config.override("experiment", "seeds", ",".join(map(str, seeds)))
    config.check_keys()
    return config


@contextmanager
def _user_path(key, path, errors=OSError):
    """The body's work on ``path``, the file the user named by ``key``: one of
    ``errors`` raised there is a ``ConfigError`` '<key> <path>: <reason>'."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{key} {path}: {getattr(exc, 'strerror', None) or exc}") from None


@contextmanager
def _open_text(key, path, mode="r"):
    """``path`` open as UTF-8 text under ``_user_path``, written without newline
    translation; a byte read that does not decode is a ``ConfigError`` naming it."""
    with _user_path(key, path):
        try:
            with open(path, mode, encoding="utf-8", newline="" if mode == "w" else None) as fh:
                yield fh
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _read_dataset(path):
    """The dataset at ``path``; every command that reads one keeps arrays of one
    value per label, so a header m that no such array can hold is a fault of line 1."""
    with _open_text("[data] path", path) as fh:
        try:
            dataset = parse_xmlc_file(fh)
        except ParseError as exc:
            raise ConfigError(f"{path} line {exc.line}: {exc.reason}") from None
    m = dataset.m
    try:
        np.empty(m)  # not written to, so it takes no resident memory
    except (MemoryError, ValueError):  # ValueError: m * 8 bytes past numpy's size limit
        raise ConfigError(f"{path} line 1: header m={m} is too large for an array of one "
                          f"value per label (its {8 * m} bytes cannot be allocated)") from None
    return dataset


def _check_out(*paths) -> None:
    """Raise before the work the ``--out`` fault writing each of ``paths`` would: each
    is opened to append, changing no byte, and removed if it was created; None is stdout."""
    for path in filter(None, paths):
        created = not os.path.lexists(path)
        with _user_path("--out", path):
            open(path, "a").close()
        if created:
            os.remove(path)


def _write_text(path, text) -> None:
    with _open_text("--out", path, "w") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(text)


def cmd_gen(args, config: ExperimentConfig) -> None:
    ball = hyperball_config(config, config.get("experiment", "seeds")[0])
    out = args.out or "."
    with _user_path("--out", out):
        os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, f) for f in ("train.txt", "val.txt", "test.txt", "true_priors.tsv")]
    _check_out(*paths)
    *splits, priors = generate_hyperball(ball)
    for path, ds in zip(paths, splits):
        with _open_text("--out", path, "w") as fh:
            write_xmlc_file(ds, fh)
    rows = zip(range(priors.m), priors.counts.astype(int), priors.priors)
    _write_text(paths[-1], tsv(("label", "count", "true_prior"), rows))
    print(f"wrote train/val/test + true_priors.tsv to {out}")


def cmd_inject(args, config: ExperimentConfig) -> None:
    if args.out is None:
        raise ConfigError("inject requires --out")
    dataset = _read_dataset(config.get("data", "path"))
    assignment = propensities_for(config, "propensity.noise", dataset)
    biased, trace = inject_missing(dataset, assignment, config.get("experiment", "seeds")[0])
    with _open_text("--out", args.out, "w") as fh:
        write_xmlc_file(biased, fh)
    print(f"seed={trace.seed}\tkept={trace.kept}\tremoved={trace.removed}")


def cmd_fit(args, config: ExperimentConfig) -> None:
    path = config.get("fit", "targets")
    family = config.get("fit", "family")
    priors, targets = [], []
    with _open_text("[fit] targets", path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header.split("\t") != ["prior", "target"]:
            raise ConfigError(f"{path} line 1: expected a 'prior<TAB>target' header, "
                              f"got '{header}'")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:  # exactly two numbers: unpacking more or fewer raises ValueError too
                prior, target = map(float, line.rstrip("\r\n").split("\t"))
            except ValueError:
                raise ConfigError(f"{path} line {lineno}: expected 'prior<TAB>target' "
                                  f"numbers, got '{line.rstrip()}'") from None
            if not (0 < prior < 1 and 0 < target <= 1):  # also rejects nan
                raise ConfigError(f"{path} line {lineno}: prior must lie in (0, 1) and "
                                  f"target in (0, 1], got '{line.rstrip()}'")
            priors.append(prior)
            targets.append(target)
    if not priors:
        raise ConfigError(f"{path} has no 'prior<TAB>target' rows after its header")
    fixed = {"n": config.get("fit", "n")} if "n" in FAMILY_TABLE[family].params else {}
    problem = FitProblem(priors=np.array(priors), targets=np.array(targets),
                         family=family, fixed=fixed)
    result = fit_family(problem)
    _write_text(args.out, tsv(("family", "params", "mse", "iterations", "converged"),
                              [(family, params_text(result.params), result.mse,
                                result.iterations, "yes" if result.converged else "no")]))


def cmd_train(args, config: ExperimentConfig) -> None:
    if args.out is None:
        raise ConfigError("train requires --out (model checkpoint path)")
    _check_out(args.out + ".tuning.tsv")
    path = config.get("data", "path")
    dataset = _read_dataset(path)
    if dataset.n < MIN_TRAIN_N:
        raise ConfigError(f"{path}: n={dataset.n}, but train needs at least {MIN_TRAIN_N} "
                          "instances")
    propensities = (propensities_for(config, "propensity.train", dataset)
                    if config.get("train", "loss") == "unbiased" else None)
    tc = train_config_from(config, config.get("experiment", "seeds")[0], propensities)
    model, tuning_log = train_ova(dataset, tc)
    with _user_path("--out", args.out):
        save_model(model, args.out, config_hash=config.hash())
    columns = ("lr", "wd", "val_objective", "epochs_ran", "status")
    _write_text(args.out + ".tuning.tsv",
                tsv(columns, ([cell[c] for c in columns] for cell in tuning_log)))
    print(f"model written to {args.out}")


def cmd_eval(args, config: ExperimentConfig) -> None:
    data_path = config.get("data", "path")
    dataset = _read_dataset(data_path)
    ks = metric_ks(config, dataset.m)
    model_path = config.get("eval", "model")
    # W streams from the file through predict, which checks it block by block
    with (_user_path("[eval] model", model_path, (OSError, ValueError)),
          open_checkpoint(model_path) as model):
        if (model.m, model.d) != (dataset.m, dataset.d):
            raise ConfigError(f"[eval] model has m={model.m}, d={model.d}, but the "
                              f"dataset has m={dataset.m}, d={dataset.d}")
        scores = predict(model, dataset)
    names = config.get("metrics", "names")
    assignment = (propensities_for(config, "propensity.eval", dataset)
                  if set(PS_METRICS) & set(names) else None)
    values = []
    for name in names:
        for k in ks:
            try:
                values.append(METRICS[name](dataset, scores, k, assignment))
            except ValueError as exc:  # no positive label to recall or normalize by
                raise ConfigError(f"{data_path}: {name}@{k}: {exc}") from None
    _write_text(args.out, tsv(("metric", "k", "value", "n_evaluated", "skipped"),
                              [(v.name, v.k, v.value, v.n_evaluated, v.skipped) for v in values]))


def cmd_stats(args, config: ExperimentConfig) -> None:
    path = config.get("data", "path")
    dataset = _read_dataset(path)
    priors = estimate_priors(dataset, alpha=config.get("data", "alpha"))
    try:
        stats = imbalance_stats(priors)
    except ValueError as exc:  # no positive at all, or an unused label with alpha = 0
        raise ConfigError(f"{path}: {exc}") from None
    _write_text(args.out, tsv(("min_ir", "ilir", "pos80"),
                              [(stats.min_ir, stats.ilir, stats.pos80)]))


def cmd_plot_data(args, config: ExperimentConfig) -> None:
    source = (_read_dataset(config.get("data", "path"))
              if config.get("plot", "which") == "label_frequency"
              else run_propensity_recovery(config))
    _write_text(args.out, emit_plot_data(source))


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


@functools.cache  # built on first use, then reused: each parse starts from fresh defaults
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xprop-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="experiment config file")
        p.add_argument("--seed", action="append", default=None,
                       help="seed (repeatable; overrides the config's seed list)")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--set", action="append", default=None, metavar="SEC.KEY=VAL",
                       help="override any config knob")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # each warning is one line on stderr
            warnings.showwarning = _print_warning
            config = _load_config(args)
            _check_out(args.out if args.command != "gen" else None)  # gen checks its files
            COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
