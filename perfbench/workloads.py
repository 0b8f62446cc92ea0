"""The four benchmark workloads: inputs, set-up, one unit of work, and its checks.

Every input derives from the benchmark seed.  A workload is driven only
through xproplab's public API and CLI; set-up prepares what a user would
have before the measured work starts, and a *unit* is the repeated piece of
work the end-to-end metrics count.

Each unit's output is reduced (outside the timed region) to a *record*:
``{"values": {name: float}, "files": {name: sha256}}``.  Records are checked
three ways: invariants that hold for any seed, equality with the record of
an earlier unit on the same input, and, for the reference seed, equality
with the references stored in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

REFERENCE_SEED = 0
VALUE_TOLERANCE = 1e-12
KS = (1, 3, 5)

# metrics bounded by 1; the propensity-scored ones are bounded by the largest weight
UNIT_RANGE = ("P", "R", "nDCG", "NormPSP", "macroF", "abandonment", "coverage")
WEIGHTED_RANGE = ("PSP", "PSR", "PSnDCG", "WP")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite_in(value: float, low: float, high: float) -> bool:
    return math.isfinite(value) and low - 1e-12 <= value <= high + 1e-12


def _metric_problems(values: dict, max_weight: float) -> list[str]:
    problems = []
    for key, value in values.items():
        label = key.split("@")[0].rsplit(".", 1)[-1]  # "pejl_mask.P@3" -> "P"
        if label not in UNIT_RANGE + WEIGHTED_RANGE:
            continue
        high = 1.0 if label in UNIT_RANGE else max_weight
        if not _finite_in(value, 0.0, high):
            problems.append(f"{key}={value!r} outside [0, {high}]")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str                    # what one unit of work is, in words
    shape: dict
    nominal_unit_s: float        # sizes the fixed-length traced run
    setup: Callable              # (xp, workdir, seed, shape) -> state
    run_unit: Callable           # (state, i) -> raw output
    record: Callable             # (state, raw) -> record
    invariants: Callable         # (state, i, raw, record) -> [problem]
    prepare: Optional[Callable] = None   # (inputs_dir, seed, shape): benchmark-made input files
    same_input: bool = False     # every unit runs on the same input (else unit i has its own)

    def input_key(self, i: int) -> int:
        return 0 if self.same_input else i


class State(dict):
    """Workload state built during set-up; attribute access for readability."""
    __getattr__ = dict.__getitem__


# --- mc_eval ----------------------------------------------------------------

def _random_model(xp, seed: int, m: int, d: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return xp.train.LinearOvaModel(W=rng.standard_normal((m, d)),
                                   bias=rng.standard_normal(m))


def _power_law(xp, priors):
    spec = xp.propensity.PropensityModelSpec(
        "power_law", {"beta": 1.0 / float(priors.priors.max()), "gamma": 0.5})
    return xp.propensity.assign(spec, priors)


def mc_setup(xp, workdir, seed, shape):
    cfg = xp.datagen.HyperBallConfig(m=shape["m"], dim=shape["dim"], seed=seed,
                                     n_train=1, n_val=1, n_test=shape["n_test"])
    _, _, test, _ = xp.datagen.generate_hyperball(cfg)
    scores = xp.train.predict(_random_model(xp, seed, shape["m"], shape["dim"]), test)
    p = _power_law(xp, xp.data.estimate_priors(test))
    return State(xp=xp, seed=seed, test=test, scores=scores, p=p, weights=1.0 / p.p,
                 positives=test.total_positives())


def mc_unit(state, i):
    xp = state.xp
    mt = xp.metrics
    biased, trace = xp.datagen.inject_missing(state.test, state.p, state.seed + i)
    scores, p, w = state.scores, state.p, state.weights
    results = []
    for k in KS:
        results += [mt.precision_at_k(biased, scores, k), mt.recall_at_k(biased, scores, k),
                    mt.ndcg_at_k(biased, scores, k), mt.ps_precision_at_k(biased, scores, k, p),
                    mt.ps_recall_at_k(biased, scores, k, p), mt.ps_ndcg_at_k(biased, scores, k, p),
                    mt.normalized_psp_at_k(biased, scores, k, p),
                    mt.weighted_precision_at_k(biased, scores, k, w),
                    mt.macro_f_beta(biased, scores, 1.0, k=k),
                    mt.abandonment_at_k(biased, scores, k), mt.coverage_at_k(biased, scores, k)]
    return trace, results


def mc_record(state, raw):
    trace, results = raw
    values = {f"{r.name}@{r.k}": float(r.value) for r in results}
    values["kept"] = float(trace.kept)
    values["removed"] = float(trace.removed)
    return {"values": values, "files": {}}


def mc_invariants(state, i, raw, record):
    trace, results = raw
    problems = _metric_problems(record["values"], float(state.weights.max()))
    if trace.kept + trace.removed != state.positives:
        problems.append(f"kept {trace.kept} + removed {trace.removed} != "
                        f"{state.positives} positives")
    for r in results:
        if r.n_evaluated + r.skipped != state.test.n:
            problems.append(f"{r.name}@{r.k} evaluated {r.n_evaluated} + skipped "
                            f"{r.skipped} != n {state.test.n}")
    return problems


# --- train_grid -------------------------------------------------------------

LOSSES = ("vanilla", "unbiased", "pejl_plug", "pejl_mask")


def train_setup(xp, workdir, seed, shape):
    cfg = xp.datagen.HyperBallConfig(m=shape["m"], dim=shape["dim"], seed=seed,
                                     n_train=shape["n_train"], n_val=1,
                                     n_test=shape["n_test"])
    train, _, test, _ = xp.datagen.generate_hyperball(cfg)
    p = _power_law(xp, xp.data.estimate_priors(train))
    biased, _ = xp.datagen.inject_missing(train, p, seed)
    return State(xp=xp, seed=seed, shape=shape, biased=biased, test=test, p=p)


def train_unit(state, i):
    """Every loss once: a unit of one loss each would mix four unit-time clusters."""
    xp, shape = state.xp, state.shape
    out = []
    for loss in LOSSES:
        config = xp.train.TrainConfig(
            loss=loss, propensities=state.p, lr_grid=tuple(shape["lrs"]),
            wd_grid=tuple(shape["wds"]), epochs=shape["epochs"], patience=shape["patience"],
            seed=state.seed + i)
        model, log = xp.train.train_ova(state.biased, config)
        out.append((loss, xp.train.predict(model, state.test), log))
    return out


def train_record(state, raw):
    values = {}
    for loss, scores, log in raw:
        for k in KS:
            p_at_k = state.xp.metrics.precision_at_k(state.test, scores, k)
            values[f"{loss}.P@{k}"] = float(p_at_k.value)
        for c, cell in enumerate(log):
            values[f"{loss}.cell{c}.epochs_ran"] = float(cell["epochs_ran"])
            values[f"{loss}.cell{c}.val_objective"] = float(cell["val_objective"])
    return {"values": values, "files": {}}


def train_invariants(state, i, raw, record):
    shape = state.shape
    problems = _metric_problems(record["values"], 1.0)
    for loss, scores, log in raw:
        s = scores.scores
        if s.shape != (state.test.n, state.test.m) or not np.all((s >= 0) & (s <= 1)):
            problems.append(f"{loss}: scores are not an n x m matrix of probabilities")
        if len(log) != len(shape["lrs"]) * len(shape["wds"]):
            problems.append(f"{loss}: tuning log has {len(log)} cells")
        for cell in log:
            if cell["status"] not in ("ok", "failed") or \
                    not 1 <= cell["epochs_ran"] <= shape["epochs"]:
                problems.append(f"{loss}: bad tuning cell {cell}")
            elif cell["status"] == "ok" and not (math.isfinite(cell["val_objective"])
                                                  and cell["val_objective"] >= 0):
                problems.append(f"{loss}: bad validation objective {cell}")
    return problems


# --- xmlc_io ----------------------------------------------------------------

def _xmlc_rows(rng, n, shape, cdf):
    """Rows of (labels, feature indices, values): Zipf label frequencies, sparse features."""
    d = shape["d"]
    n_labels = 1 + rng.poisson(shape["labels_per_row"] - 1, n)
    label_draws = np.searchsorted(cdf, rng.random(int(n_labels.sum())), side="right")
    n_feats = np.maximum(1, rng.poisson(shape["features_per_row"], n))
    feat_draws = rng.integers(0, d, int(n_feats.sum()))
    values = np.round(rng.random(int(n_feats.sum())), 6)
    lab_at = np.concatenate([[0], np.cumsum(n_labels)])
    feat_at = np.concatenate([[0], np.cumsum(n_feats)])
    for r in range(n):
        labels = np.unique(label_draws[lab_at[r]:lab_at[r + 1]])
        idx, first = np.unique(feat_draws[feat_at[r]:feat_at[r + 1]], return_index=True)
        yield labels, idx, values[feat_at[r]:feat_at[r + 1]][first]


def xmlc_prepare(inputs_dir, seed, shape):
    """Write train.txt, test.txt and config.ini in the XMLC text format.

    Written by the benchmark itself, so the program under test only reads them.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    m = shape["m"]
    weights = np.arange(1, m + 1, dtype=np.float64) ** -shape["zipf"]
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    os.makedirs(inputs_dir, exist_ok=True)
    for split in ("train", "test"):
        n = shape[f"n_{split}"]
        with open(os.path.join(inputs_dir, f"{split}.txt"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(f"{n} {shape['d']} {m}\n")
            for labels, idx, vals in _xmlc_rows(rng, n, shape, cdf):
                feats = " ".join(f"{i}:{float(v)!r}" for i, v in zip(idx, vals))
                fh.write(",".join(str(j) for j in labels) + " " + feats + "\n")
    with open(os.path.join(inputs_dir, "config.ini"), "w", encoding="utf-8") as fh:
        fh.write("[metrics]\nks = 1,5\nnames = p,psp\n\n"
                 "[propensity.noise]\nfamily = freq_sigmoid\na = 0.55\nb = 1.5\n\n"
                 "[propensity.eval]\nfamily = freq_sigmoid\na = 0.55\nb = 1.5\n")


def xmlc_setup(xp, workdir, seed, shape):
    inputs = os.path.join(os.path.dirname(workdir), "inputs")
    os.makedirs(workdir, exist_ok=True)
    model_path = os.path.join(workdir, "model.npz")
    xp.train.save_model(_random_model(xp, seed, shape["m"], shape["d"]), model_path)
    paths = {name: os.path.join(workdir, name)
             for name in ("stats.tsv", "biased.txt", "metrics.tsv")}
    return State(xp=xp, seed=seed, shape=shape, model=model_path, paths=paths,
                 config=os.path.join(inputs, "config.ini"),
                 train=os.path.join(inputs, "train.txt"),
                 test=os.path.join(inputs, "test.txt"))


def xmlc_unit(state, i):
    main = state.xp.cli.main
    common = ["--config", state.config]
    codes = [main(["stats", *common, "--set", f"data.path={state.train}",
                   "--out", state.paths["stats.tsv"]])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(["inject", *common, "--set", f"data.path={state.train}",
                           "--seed", str(state.seed), "--out", state.paths["biased.txt"]]))
    codes.append(main(["eval", *common, "--set", f"data.path={state.test}",
                       "--set", f"eval.model={state.model}",
                       "--out", state.paths["metrics.tsv"]]))
    return codes, out.getvalue()


def xmlc_record(state, raw):
    codes, stdout = raw
    values = {f"exit.{c}": float(code) for c, code in zip(("stats", "inject", "eval"), codes)}
    for field in stdout.split():
        key, _, value = field.partition("=")
        if key in ("kept", "removed"):
            values[key] = float(value)
    files = {name: sha256_file(path) if os.path.exists(path) else "missing"
             for name, path in state.paths.items()}
    return {"values": values, "files": files}


def _split_line(line: str):
    head, _, feats = line.rstrip("\n").partition(" ")
    return set(head.split(",")) - {""}, feats


def xmlc_invariants(state, i, raw, record):
    xp = state.xp
    values = record["values"]
    problems = [f"cli {k} returned {int(v)}" for k, v in values.items()
                if k.startswith("exit.") and v != 0]
    if problems:
        return problems
    with open(state.train, encoding="utf-8") as fh:
        train_lines = fh.readlines()
    with open(state.paths["biased.txt"], encoding="utf-8") as fh:
        biased_text = fh.read()
    biased_lines = biased_text.splitlines(keepends=True)
    positives = sum(len(_split_line(l)[0]) for l in train_lines[1:])
    kept = sum(len(_split_line(l)[0]) for l in biased_lines[1:])
    if values.get("kept", -1) + values.get("removed", -1) != positives or kept != values["kept"]:
        problems.append(f"kept {values.get('kept')} + removed {values.get('removed')} vs "
                        f"{positives} positives, {kept} labels in biased.txt")
    if len(biased_lines) != len(train_lines) or biased_lines[0] != train_lines[0]:
        problems.append("biased.txt header or length differs from train.txt")
    else:
        for lineno, (a, b) in enumerate(zip(train_lines[1:], biased_lines[1:]), start=2):
            (la, fa), (lb, fb) = _split_line(a), _split_line(b)
            if fa.strip() != fb.strip() or not lb <= la:
                problems.append(f"biased.txt line {lineno} is not train.txt minus labels")
                break
    # parse -> write must reproduce the file, so write -> parse gives an equal dataset
    buf = io.StringIO()
    xp.data.write_xmlc_file(xp.data.parse_xmlc_file(io.StringIO(biased_text)), buf)
    if buf.getvalue() != biased_text:
        problems.append("biased.txt does not round-trip through parse/write")
    with open(state.paths["stats.tsv"], encoding="utf-8") as fh:
        stats = fh.read().splitlines()
    if stats[0] != "min_ir\tilir\tpos80" or len(stats) != 2:
        problems.append("stats.tsv layout")
    else:
        min_ir, ilir, pos80 = (float(v) for v in stats[1].split("\t"))
        if not (min_ir > 0 and ilir >= 1 and 0 < pos80 <= 1):
            problems.append(f"stats.tsv values {stats[1]!r}")
    with open(state.paths["metrics.tsv"], encoding="utf-8") as fh:
        rows = [r.split("\t") for r in fh.read().splitlines()]
    n_test = state.shape["n_test"]
    expected = [["P", "1"], ["P", "5"], ["PSP", "1"], ["PSP", "5"]]
    if rows[0] != ["metric", "k", "value", "n_evaluated", "skipped"] or \
            [r[:2] for r in rows[1:]] != expected:
        problems.append("metrics.tsv layout")
    else:
        for name, k, value, n_eval, skipped in rows[1:]:
            high = 1.0 if name == "P" else math.inf
            counts = (int(n_eval), int(skipped))
            if not _finite_in(float(value), 0.0, high) or counts != (n_test, 0):
                problems.append(f"metrics.tsv row {name}@{k}: {value} {n_eval} {skipped}")
    return problems


# --- recovery ---------------------------------------------------------------

def recovery_setup(xp, workdir, seed, shape):
    config = xp.experiments.ExperimentConfig(sections={
        "data": {k: str(v) for k, v in shape.items()},
        "propensity.noise": {"family": "power_law", "beta": "auto", "gamma": "0.5"},
    })
    return State(xp=xp, seed=seed, config=config)


def recovery_unit(state, i):
    config = state.config.override("experiment", "seeds", str(state.seed + i))
    return state.seed + i, state.xp.experiments.run_propensity_recovery(config).to_tsv()


def recovery_record(state, raw):
    _, text = raw
    return {"values": {}, "files": {"recovery.tsv": hashlib.sha256(text.encode()).hexdigest()}}


def recovery_invariants(state, i, raw, record):
    seed, text = raw
    lines = text.splitlines()
    problems = []
    if not (lines[0].startswith("# config_hash\t") and lines[2] == f"# seeds\t{seed}"):
        problems.append("recovery.tsv provenance header")
    rows = [l.split("\t") for l in lines if not l.startswith("#")]
    if rows[0] != ["seed", "family", "fitted", "params", "mse", "converged"]:
        return problems + ["recovery.tsv column header"]
    got = [(r[1], r[2]) for r in rows[1:]]
    want = [(f, "yes") for f in ("constant", "freq_sigmoid", "power_law", "richards")] + \
           [("constant", "no"), ("freq_sigmoid", "no")]
    if got != want:
        problems.append(f"recovery.tsv rows {got}")
    for r in rows[1:]:
        mse = float(r[4])
        if not (math.isfinite(mse) and mse >= 0) or r[5] not in ("yes", "no", "-"):
            problems.append(f"recovery.tsv row {r}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc_eval",
        why="PS-metric Monte-Carlo evaluation: inject_missing then all 11 @k metrics; "
            "metrics is ~99% of the time, where a ranked-hits kernel acts",
        unit="one inject_missing draw, then the 11 @k metric functions at k=1,3,5 (33 calls)",
        shape={"m": 1000, "dim": 4, "n_test": 100},
        nominal_unit_s=0.35,
        setup=mc_setup, run_unit=mc_unit, record=mc_record, invariants=mc_invariants),
    Workload(
        name="train_grid",
        why="one-vs-all training over an lr x wd grid under all four losses; "
            "train_ova dominates, where one loss implementation acts",
        unit="for each of vanilla, unbiased, pejl_plug, pejl_mask: one train_ova grid "
             "search, then predict on the test set",
        shape={"m": 100, "dim": 4, "n_train": 500, "n_test": 500, "lrs": [0.01, 0.05],
               "wds": [0.0, 1e-6], "epochs": 20, "patience": 5},
        nominal_unit_s=0.3,
        setup=train_setup, run_unit=train_unit, record=train_record,
        invariants=train_invariants),
    Workload(
        name="xmlc_io",
        why="CLI stats, inject and eval on XMLC-shaped sparse text files: the only workload "
            "that parses and writes the data format, ranking at m=1000",
        unit="cli.main stats (train), inject (train, freq_sigmoid), eval (test, p,psp at k=1,5)",
        shape={"d": 10000, "m": 1000, "n_train": 1000, "n_test": 250, "labels_per_row": 4,
               "features_per_row": 30, "zipf": 0.9},
        nominal_unit_s=0.5,
        setup=xmlc_setup, run_unit=xmlc_unit, record=xmlc_record, invariants=xmlc_invariants,
        prepare=xmlc_prepare, same_input=True),
    Workload(
        name="recovery",
        why="propensity-recovery report, one experiment seed per unit: the only workload "
            "where LM fitting and family dispatch run",
        unit="run_propensity_recovery for seed = base seed + unit index, then to_tsv",
        shape={"m": 100, "dim": 4, "n_train": 2000, "n_val": 1000, "n_test": 100,
               "r_min": 0.2, "r_max": 0.5},
        nominal_unit_s=1.1,
        setup=recovery_setup, run_unit=recovery_unit, record=recovery_record,
        invariants=recovery_invariants),
)}


def compare_records(got: dict, want: dict, what: str) -> list[str]:
    """Files byte for byte (by digest), values within VALUE_TOLERANCE."""
    problems = []
    if set(got["files"]) != set(want["files"]) or set(got["values"]) != set(want["values"]):
        return [f"{what}: record keys differ"]
    for name, digest in want["files"].items():
        if got["files"][name] != digest:
            problems.append(f"{what}: {name} differs")
    for name, value in want["values"].items():
        seen = got["values"][name]
        if not (seen == value or abs(seen - value) <= VALUE_TOLERANCE):  # inf == inf
            problems.append(f"{what}: {name}={seen!r}, expected {value!r}")
    return problems
