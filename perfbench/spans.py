"""Span recording from outside the program, self times and per-layer metrics.

The traced run replaces the public functions of each xproplab module with
wrappers that record a span (name, start, end, parent, unit) and the counts
that can be read from the arguments and return value.  Nothing inside the
library is changed: the wrappers go on every module attribute that refers to
a wrapped function, which is the name each caller looks up at call time.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

MODULES = ("data", "datagen", "propensity", "propfit", "metrics", "train",
           "experiments", "cli")

METRIC_FUNCTIONS = ("precision_at_k", "recall_at_k", "ndcg_at_k",
                    "ps_precision_at_k", "ps_recall_at_k", "ps_ndcg_at_k",
                    "normalized_psp_at_k", "weighted_precision_at_k",
                    "macro_f_beta", "abandonment_at_k", "coverage_at_k")
FAMILIES = ("constant", "freq_sigmoid", "power_law", "richards")
LOSSES = ("vanilla", "unbiased", "pejl_plug", "pejl_mask")
UNIT_SPAN = "bench.unit"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    unit: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; only calls made while a unit is open are recorded."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.unit: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.unit))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.end = self.clock()
        return span

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "unit": s.unit, "counts": s.counts}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    are counted once.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# --- counts read from arguments and return values ---------------------------

def _family(args, kwargs) -> str:
    """Family of a ``fit_family``/``lm_fit`` call: from its FitProblem, else the keyword."""
    if hasattr(args[0], "family"):
        return args[0].family
    return kwargs.get("family", args[2] if len(args) > 2 else "unknown")


def _wrapper_table(xp):
    """(module, attribute, span name, variant(args, kwargs), counts(args, kwargs, result, span))."""
    cli, data, datagen, metrics, propfit, train = (xp.cli, xp.data, xp.datagen, xp.metrics,
                                                    xp.propfit, xp.train)

    def parse_counts(args, kwargs, result, span):
        span.counts["bytes"] = os.fstat(args[0].fileno()).st_size

    def write_counts(args, kwargs, result, span):
        span.counts["bytes"] = args[1].tell()  # the CLI writes each file from its start

    def inject_counts(args, kwargs, result, span):
        span.counts["kept"] = result[1].kept
        span.counts["removed"] = result[1].removed

    def lm_counts(args, kwargs, result, span):
        span.counts["iterations"] = result.iterations
        span.counts["converged"] = int(result.converged)

    def metric_counts(args, kwargs, result, span):
        span.counts["instances"] = result.n_evaluated + result.skipped

    def train_counts(args, kwargs, result, span):
        budget = args[1].epochs
        log = result[1]
        span.counts["epochs_ran"] = sum(c["epochs_ran"] for c in log)
        span.counts["cells"] = len(log)
        span.counts["cells_failed"] = sum(c["status"] != "ok" for c in log)
        span.counts["early_stopped"] = sum(c["epochs_ran"] < budget for c in log)

    table = [
        (data, "parse_xmlc_file", "data.parse_xmlc_file", None, parse_counts),
        (data, "write_xmlc_file", "data.write_xmlc_file", None, write_counts),
        (data, "estimate_priors", "data.estimate_priors", None, None),
        (data.SparseDataset, "feature_matrix", "data.feature_matrix", None, None),
        (data.SparseDataset, "label_matrix", "data.label_matrix", None, None),
        (datagen, "inject_missing", "datagen.inject_missing", None, inject_counts),
        (datagen, "generate_hyperball", "datagen.generate_hyperball", None, None),
        (xp.propensity, "assign", "propensity.assign", None, None),
        (xp.propensity, "direct_estimate", "propensity.direct_estimate", None, None),
        (propfit, "fit_family", "propfit.fit_family", _family, None),
        (propfit, "lm_fit", "propfit.lm_fit", _family, lm_counts),
        (train, "train_ova", "train.train_ova", lambda a, k: a[1].loss, train_counts),
        (train, "predict", "train.predict", None, None),
        (train, "save_model", "train.save_model", None, None),
        (train, "load_model", "train.load_model", None, None),
        (xp.experiments, "run_propensity_recovery", "experiments.run_propensity_recovery",
         None, None),
        (cli, "main", "cli", lambda a, k: (a[0] if a else k["argv"])[0], None),
    ]
    table += [(metrics, name, f"metrics.{name}", None, metric_counts)
              for name in METRIC_FUNCTIONS]
    return table


def _wrapper(fn, name, variant, counts, recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.unit is None:
            return fn(*args, **kwargs)
        label = name if variant is None else f"{name}.{variant(args, kwargs)}"
        index = recorder.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = recorder.close(index)
        if counts is not None:
            counts(args, kwargs, result, span)
        return result
    return wrapper


def install(xp, recorder):
    """Wrap every public function in the table wherever a module refers to it.

    Returns a function that restores the originals.
    """
    replacements = {}  # id of the original function -> its wrapper
    for owner, attr, name, variant, counts in _wrapper_table(xp):
        fn = vars(owner)[attr]
        replacements[id(fn)] = _wrapper(fn, name, variant, counts, recorder)
    namespaces = [xp] + [getattr(xp, m) for m in MODULES] + [xp.data.SparseDataset]
    saved = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in replacements:
                saved.append((ns, attr, value))
                setattr(ns, attr, replacements[id(value)])

    def uninstall():
        for ns, attr, value in saved:
            setattr(ns, attr, value)
    return uninstall


# --- per-layer metrics --------------------------------------------------------

def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    names = [
        ("data.parse_xmlc_file.s", "s/unit", "lower"),
        ("data.parse_xmlc_file.mb_per_s", "MB/s", "higher"),
        ("data.write_xmlc_file.s", "s/unit", "lower"),
        ("data.write_xmlc_file.mb_per_s", "MB/s", "higher"),
        ("data.estimate_priors.s", "s/unit", "lower"),
        ("data.feature_matrix.calls", "count/unit", "lower"),
        ("data.feature_matrix.s", "s/unit", "lower"),
        ("data.label_matrix.calls", "count/unit", "lower"),
        ("data.label_matrix.s", "s/unit", "lower"),
        ("datagen.inject_missing.s", "s/unit", "lower"),
        ("datagen.inject_missing.positives_per_s", "1/s", "higher"),
        ("datagen.inject_missing.kept_ratio", "ratio", "higher"),
        ("datagen.generate_hyperball.s", "s/unit", "lower"),
        ("propensity.assign.s", "s/unit", "lower"),
        ("propensity.direct_estimate.s", "s/unit", "lower"),
    ]
    names += [(f"propfit.fit_family.{f}.s", "s/unit", "lower") for f in FAMILIES]
    names += [(f"propfit.lm_fit.{f}.iterations", "count/unit", "lower") for f in FAMILIES]
    names += [(f"propfit.lm_fit.{f}.converged_ratio", "ratio", "higher") for f in FAMILIES]
    names += [("propfit.lm_fit.ms_per_iter", "ms/iter", "lower")]
    names += [(f"metrics.{fn}.s", "s/unit", "lower") for fn in METRIC_FUNCTIONS]
    names += [("metrics.instances_per_s", "1/s", "higher")]
    for loss in LOSSES:
        names += [(f"train.train_ova.{loss}.s", "s/unit", "lower"),
                  (f"train.train_ova.{loss}.epoch_ms", "ms/epoch", "lower"),
                  (f"train.train_ova.{loss}.epochs_ran", "count/unit", "lower")]
    names += [("train.cells_failed", "count", "lower"),
              ("train.early_stop_ratio", "ratio", "higher"),
              ("train.predict.s", "s/unit", "lower"),
              ("train.save_model.s", "s/unit", "lower"),
              ("train.load_model.s", "s/unit", "lower"),
              ("experiments.run_propensity_recovery.self_s", "s/unit", "lower"),
              ("cli.stats.self_s", "s/unit", "lower"),
              ("cli.inject.self_s", "s/unit", "lower"),
              ("cli.eval.self_s", "s/unit", "lower"),
              ("bench.self_s", "s/unit", "lower"),
              ("bench.accounted_ratio", "ratio", "higher"),
              ("bench.trace_overhead_ratio", "ratio", "lower")]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, units: int) -> dict[str, float]:
    """Per-layer values from the spans of ``units`` traced units.

    A layer the workload never calls reads 0.  ``bench.trace_overhead_ratio``
    needs the untraced run and is filled in by the caller.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        agg = by_name.setdefault(s.name, {"calls": 0, "time": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["time"] += s.end - s.start
        agg["self"] += self_s
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value

    def get(name, key="time"):
        return by_name.get(name, {}).get(key, 0)

    def per_unit(value):
        return value / units

    out = {}
    for layer in ("data.parse_xmlc_file", "data.write_xmlc_file"):
        out[f"{layer}.s"] = per_unit(get(layer))
        out[f"{layer}.mb_per_s"] = _ratio(get(layer, "bytes") / 1e6, get(layer))
    out["data.estimate_priors.s"] = per_unit(get("data.estimate_priors"))
    for layer in ("data.feature_matrix", "data.label_matrix"):
        out[f"{layer}.calls"] = per_unit(get(layer, "calls"))
        out[f"{layer}.s"] = per_unit(get(layer))
    inj = "datagen.inject_missing"
    positives = get(inj, "kept") + get(inj, "removed")
    out[f"{inj}.s"] = per_unit(get(inj))
    out[f"{inj}.positives_per_s"] = _ratio(positives, get(inj))
    out[f"{inj}.kept_ratio"] = _ratio(get(inj, "kept"), positives)
    out["datagen.generate_hyperball.s"] = per_unit(get("datagen.generate_hyperball"))
    out["propensity.assign.s"] = per_unit(get("propensity.assign"))
    out["propensity.direct_estimate.s"] = per_unit(get("propensity.direct_estimate"))
    for f in FAMILIES:
        out[f"propfit.fit_family.{f}.s"] = per_unit(get(f"propfit.fit_family.{f}"))
    for f in FAMILIES:
        out[f"propfit.lm_fit.{f}.iterations"] = per_unit(get(f"propfit.lm_fit.{f}", "iterations"))
    for f in FAMILIES:
        out[f"propfit.lm_fit.{f}.converged_ratio"] = _ratio(
            get(f"propfit.lm_fit.{f}", "converged"), get(f"propfit.lm_fit.{f}", "calls"))
    lm_time = sum(get(f"propfit.lm_fit.{f}") for f in FAMILIES)
    lm_iters = sum(get(f"propfit.lm_fit.{f}", "iterations") for f in FAMILIES)
    out["propfit.lm_fit.ms_per_iter"] = 1e3 * _ratio(lm_time, lm_iters)
    metric_time = metric_instances = 0.0
    for fn in METRIC_FUNCTIONS:
        out[f"metrics.{fn}.s"] = per_unit(get(f"metrics.{fn}"))
        metric_time += get(f"metrics.{fn}")
        metric_instances += get(f"metrics.{fn}", "instances")
    out["metrics.instances_per_s"] = _ratio(metric_instances, metric_time)
    cells = failed = early = 0
    for loss in LOSSES:
        layer = f"train.train_ova.{loss}"
        out[f"{layer}.s"] = per_unit(get(layer))
        out[f"{layer}.epoch_ms"] = 1e3 * _ratio(get(layer), get(layer, "epochs_ran"))
        out[f"{layer}.epochs_ran"] = per_unit(get(layer, "epochs_ran"))
        cells += get(layer, "cells")
        failed += get(layer, "cells_failed")
        early += get(layer, "early_stopped")
    out["train.cells_failed"] = failed
    out["train.early_stop_ratio"] = _ratio(early, cells)
    for fn in ("predict", "save_model", "load_model"):
        out[f"train.{fn}.s"] = per_unit(get(f"train.{fn}"))
    out["experiments.run_propensity_recovery.self_s"] = per_unit(
        get("experiments.run_propensity_recovery", "self"))
    for cmd in ("stats", "inject", "eval"):
        out[f"cli.{cmd}.self_s"] = per_unit(get(f"cli.{cmd}", "self"))
    out["bench.self_s"] = per_unit(get(UNIT_SPAN, "self"))
    out["bench.accounted_ratio"] = _ratio(sum(selfs), get(UNIT_SPAN))
    return out
