"""Every CLI command's outputs, frozen: a refactor that changes one byte turns this red.

Text outputs compare by SHA-256 and checkpoint arrays within 1e-12; ``.npz`` bytes
are not compared (the archive embeds the config hash, which differs per loss).
An intended output change regenerates the reference with
``python3 tests/test_frozen_outputs.py`` and gives the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from xproplab.cli import main

REFERENCE = os.path.join(os.path.dirname(__file__), "frozen_outputs.json")

CONFIG = """
[experiment]
seeds = 5
p_controlled = 0.5

[data]
m = 6
dim = 2
r_min = 0.2
r_max = 0.45
n_train = 300
n_val = 300
n_test = 80

[metrics]
ks = 1,3
names = p,r,ndcg,psp,psr,psndcg,normpsp,macrof,abandonment,coverage

[train]
lrs = 0.1
wds = 0,1e-6
epochs = 6
patience = 2

[propensity.noise]
family = power_law
beta = auto
gamma = 0.5

[propensity.train]
family = freq_sigmoid
a = 0.55
b = 1.5

[propensity.eval]
family = constant
p = 0.6

[propensity.a]
family = power_law
beta = auto
gamma = 0.5

[propensity.b]
family = constant
p = 0.5
"""

LOSSES = ("vanilla", "unbiased", "pejl_plug", "pejl_mask")
FIT_FAMILIES = ("constant", "freq_sigmoid", "power_law", "richards")


def _run(*argv) -> str:
    """``main(argv)``, which must exit 0; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{argv[0]} exited {code}"
    return out.getvalue()


def produce(root: str) -> dict:
    """Run every command at a tiny shape under ``root``; return the record to freeze."""
    def path(name):
        return os.path.join(root, name)

    cfg = path("exp.ini")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    common = ("--config", cfg)
    texts, arrays = {}, {}

    _run("gen", *common, "--out", root)
    _run("stats", *common, "--set", f"data.path={path('train.txt')}", "--out", path("stats.tsv"))
    texts["inject.stdout"] = _run("inject", *common, "--set", f"data.path={path('train.txt')}",
                                  "--out", path("biased.txt"))
    for loss in LOSSES:
        model = path(f"{loss}.npz")
        _run("train", *common, "--set", f"data.path={path('biased.txt')}",
             "--set", f"train.loss={loss}", "--out", model)
        with np.load(model, allow_pickle=False) as data:
            for name in ("W", "bias", "prop_logits"):
                if name in data.files:
                    arrays[f"{loss}.{name}"] = data[name].tolist()
    _run("eval", *common, "--set", f"data.path={path('test.txt')}",
         "--set", f"eval.model={path('vanilla.npz')}", "--out", path("metrics.tsv"))

    priors = np.linspace(0.01, 0.3, 20)
    with open(path("targets.tsv"), "w", encoding="utf-8") as fh:
        fh.write("prior\ttarget\n" + "".join(
            f"{p:.10g}\t{min((2 * p) ** 0.5, 1.0):.10g}\n" for p in priors))
    for family in FIT_FAMILIES:
        _run("fit", "--set", f"fit.targets={path('targets.tsv')}",
             "--set", f"fit.family={family}", "--set", "fit.n=1000",
             "--out", path(f"fit_{family}.tsv"))

    _run("plot-data", *common, "--set", f"data.path={path('train.txt')}",
         "--out", path("freq.tsv"))
    _run("plot-data", *common, "--set", "plot.which=propensity_scatter",
         "--out", path("scatter.tsv"))
    for report in ("mismatch", "recovery", "feasibility"):
        _run(report, *common, "--out", path(f"{report}.tsv"))

    names = (["train.txt", "val.txt", "test.txt", "true_priors.tsv", "stats.tsv",
              "biased.txt", "metrics.tsv", "freq.tsv", "scatter.tsv", "mismatch.tsv",
              "recovery.tsv", "feasibility.tsv"]
             + [f"{loss}.npz.tuning.tsv" for loss in LOSSES]
             + [f"fit_{family}.tsv" for family in FIT_FAMILIES])
    for name in names:
        with open(path(name), "r", encoding="utf-8", newline="") as fh:
            texts[name] = fh.read()
    return {"files": {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                      for name, text in sorted(texts.items())},
            "arrays": arrays}


def compare(got: dict, want: dict) -> list:
    """Names of the outputs that differ from the frozen record."""
    if set(got["files"]) != set(want["files"]) or set(got["arrays"]) != set(want["arrays"]):
        return ["the set of outputs differs"]
    problems = [name for name, digest in want["files"].items() if got["files"][name] != digest]
    for name, value in want["arrays"].items():
        a, b = np.asarray(got["arrays"][name]), np.asarray(value)
        if a.shape != b.shape or not np.allclose(a, b, rtol=0, atol=1e-12):
            problems.append(name)
    return problems


def test_every_command_output_is_frozen(tmp_path):
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert compare(produce(str(tmp_path)), want) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = produce(tmp)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}: {len(record['files'])} digests, "
          f"{len(record['arrays'])} arrays", file=sys.stderr)
