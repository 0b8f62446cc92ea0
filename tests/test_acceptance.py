"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

from collections import defaultdict
from itertools import combinations

import numpy as np
from scipy.stats import spearmanr

from xproplab.cli import main
from xproplab.datagen import HyperBallConfig, generate_hyperball, inject_missing
from xproplab.experiments import ExperimentConfig, run_mismatch_experiment
from xproplab.metrics import (PredictionMatrix, abandonment_at_k,
                              check_unbiased_estimator_exists,
                              coverage_at_k, independent_mask_distribution,
                              macro_f_beta, ndcg_at_k, normalized_psp_at_k,
                              precision_at_k, ps_ndcg_at_k, ps_precision_at_k,
                              ps_recall_at_k, recall_at_k,
                              weighted_precision_at_k)
from xproplab.propensity import PropensityAssignment, eval_freq_sigmoid
from xproplab.propfit import FitProblem, fit_family, fit_mse
from xproplab.train import (LinearOvaModel, TrainConfig, loss_pejl_mask,
                            loss_pejl_plug, loss_unbiased, predict, sigmoid,
                            train_ova)

from _data import label_sets


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_ps_metric_unbiasedness():
    """Mean PSP@k under matched propensities estimates clean P@k."""
    cfg = HyperBallConfig(m=100, dim=4, seed=17, n_train=1, n_val=1, n_test=5000)
    _, _, test, _ = generate_hyperball(cfg)
    rng = np.random.default_rng(18)
    model = LinearOvaModel(W=rng.normal(0, 1, (100, 4)), bias=rng.normal(0, 0.1, 100))
    scores = predict(model, test)
    p_star = PropensityAssignment(np.linspace(0.3, 0.9, 100)[rng.permutation(100)])

    ks = (1, 3, 5)
    clean = {k: precision_at_k(test, scores, k).value for k in ks}
    draws = {k: [] for k in ks}
    for d in range(200):
        biased, _ = inject_missing(test, p_star, seed=1000 + d)
        for k in ks:
            draws[k].append(ps_precision_at_k(biased, scores, k, p_star).value)

    boot_rng = np.random.default_rng(19)
    ok = True
    details = []
    for k in ks:
        vals = np.array(draws[k])
        means = np.array([boot_rng.choice(vals, len(vals)).mean()
                          for _ in range(1000)])
        se = means.std(ddof=1)
        gap = abs(vals.mean() - clean[k])
        details.append(f"k={k}: |mean-clean|={gap:.5f}, 3se={3 * se:.5f}")
        ok = ok and gap <= 3 * se
    _report(1, "mean matched PSP@k within 3 bootstrap SE of clean P@k", ok,
            "; ".join(details))


def test_criterion_02_unnormalized_vs_normalized():
    labels = label_sets([[0]], 2)
    scores = PredictionMatrix(np.array([[1.0, 0.0]]))
    p = PropensityAssignment(np.array([0.25, 1.0]))
    raw = ps_precision_at_k(labels, scores, 1, p).value
    norm = normalized_psp_at_k(labels, scores, 1, p).value
    _report(2, "unnormalized PSP@1 > 1.5 while normalized PSP@1 <= 1",
            raw > 1.5 and norm <= 1.0, f"raw={raw}, normalized={norm}")


def test_criterion_03_scaling_pathology():
    """A fixed-prior label's propensity grows with n towards 1 (Jain et al. 2016).

    The n=1e9 values are frozen from a 50-digit mpmath evaluation of the
    closed form at prior 0.01.  By that closed form 0.999 is first reached
    at n ~ 10^10.91, 10^10.32 and 10^9.78, so the bound is checked at n=1e11,
    the first decade where all three parameter sets reach it.
    """
    ref_1e9 = {(0.5, 0.4): 0.9926742919, (0.55, 1.5): 0.9954096306,
               (0.6, 2.6): 0.9973233213}
    ok = True
    details = []
    for (a, b), ref in ref_1e9.items():
        vals = [eval_freq_sigmoid(0.01, 10**e, a, b) for e in range(3, 13)]
        v9, v11 = vals[9 - 3], vals[11 - 3]
        grows = all(lo < hi for lo, hi in zip(vals, vals[1:]))
        details.append(f"(a={a},b={b}): strict growth {grows}, "
                       f"n=1e9 -> {v9:.10f} (ref {ref:.10f}), n=1e11 -> {v11:.10f}")
        ok = ok and grows and abs(v9 - ref) <= 1e-9 and v11 >= 0.999
    _report(3, "propensity grows strictly over each decade n=1e3..1e12, matches "
            "the closed form at n=1e9 and reaches >= 0.999 at n=1e11", ok,
            "; ".join(details))


def test_criterion_04_feasibility_oracle():
    # rows, columns and loss entries are the label vectors 00, 01, 10, 11
    loss = [1.0, 0.0, 0.0, 0.0]
    together = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                         [0.5, 0.0, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5]])
    complementary = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                              [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0]])
    corr = check_unbiased_estimator_exists([together, complementary], loss)
    indep = check_unbiased_estimator_exists(
        [independent_mask_distribution([0.5, 0.5])], loss)
    ok = (not corr.feasible and corr.residual > 1e-6
          and indep.feasible and indep.residual <= 1e-9)
    _report(4, "correlated missingness infeasible, independent feasible", ok,
            f"correlated residual={corr.residual:.4f}, "
            f"independent residual={indep.residual:.2e}")


def test_criterion_05_fit_recovery():
    rng = np.random.default_rng(42)
    priors = rng.uniform(1e-3, 0.5, 200)
    clean = priors ** 0.3
    targets = np.clip(clean * (1 + rng.normal(0, 0.01, 200)), 1e-5, 1.0)
    problem = FitProblem(priors=priors, targets=targets, family="power_law")
    fitted = fit_family(problem)
    gamma_err = abs(fitted.params["gamma"] - 0.3)

    from xproplab.data import LabelPriors
    from xproplab.propensity import PropensityModelSpec, assign
    pri = LabelPriors(counts=(priors * 1000).astype(int), priors=priors)
    fitted_mse = fit_mse(assign(PropensityModelSpec("power_law", fitted.params), pri), targets)
    default = PropensityModelSpec("freq_sigmoid", {"a": 0.55, "b": 1.5, "n": 1000.0})
    default_mse = fit_mse(assign(default, pri), targets)
    ok = gamma_err <= 0.02 and fitted_mse < default_mse
    _report(5, "fitted power-law exponent within 0.02, fitted MSE beats default",
            ok, f"|gamma-0.3|={gamma_err:.4f}, "
            f"fitted mse={fitted_mse:.3g} < default mse={default_mse:.3g}")


def test_criterion_06_unbiased_loss_expectation():
    worst = 0.0
    for p in np.linspace(0.1, 1.0, 10):
        for f in np.linspace(0.05, 0.95, 10):
            z = np.array([[np.log(f / (1.0 - f))]])

            def value(t):
                return loss_unbiased(np.array([[t]]), z).value
            # a true positive is observed with probability p; a true negative
            # is never observed, so its target is 0 for every p
            lhs = p * value(1.0 / p) + (1 - p) * value(0.0)
            worst = max(worst, abs(lhs - value(1.0)))
    _report(6, "expected reweighted loss equals clean loss on a 10x10 grid",
            worst <= 1e-12, f"max abs error={worst:.2e}")


def test_criterion_07_gradient_checks():
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0

    def check(value, x, grad):
        """Worst relative error of grad against central differences of value,
        perturbing one entry of x at a time."""
        err = 0.0
        for idx in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[idx] = h
            num = (value(x + step) - value(x - step)) / (2 * h)
            err = max(err, abs(grad[idx] - num) / max(abs(num), 1e-8))
        return err

    for _ in range(20):
        Y = rng.integers(0, 2, (4, 3)).astype(np.float64)
        t = Y / rng.uniform(0.2, 0.9, 3)
        z = rng.uniform(-2.2, 2.2, (4, 3))
        theta = rng.uniform(-2.2, 2.2, 3)
        for target in (Y, t):  # vanilla, unbiased
            dz, _ = loss_unbiased(target, z).grads()
            worst = max(worst, check(lambda a: loss_unbiased(target, a).value, z, dz))
        dz, dtheta = loss_pejl_plug(Y, z, theta).grads()
        worst = max(worst, check(lambda a: loss_pejl_plug(Y, a, theta).value, z, dz))
        worst = max(worst, check(lambda a: loss_pejl_plug(Y, z, a).value, theta, dtheta))
        _, dtheta = loss_pejl_mask(Y, z, theta).grads()
        worst = max(worst, check(lambda a: loss_pejl_mask(Y, z, a).value, theta, dtheta))
    _report(7, "analytic gradients match central differences", worst <= 1e-6,
            f"worst relative error={worst:.2e}")


MISMATCH_CONFIG = """
[experiment]
seeds = {seeds}

[data]
m = 20
dim = 2
r_min = 0.1
r_max = 0.45
n_train = 1500
n_val = 50
n_test = 600

[metrics]
ks = 1

[train]
lrs = 0.1
wds = 0
epochs = 30
patience = 5

[propensity.a]
family = power_law
beta = auto
gamma = 2.0

[propensity.b]
family = power_law
beta = auto
gamma = 0.3
"""


def test_criterion_08_model_mismatch():
    seeds = ",".join(str(s) for s in range(1, 21))
    cfg = ExperimentConfig.from_text(MISMATCH_CONFIG.format(seeds=seeds))
    report = run_mismatch_experiment(cfg)
    cells = defaultdict(dict)
    for r in report.rows:
        if r["seed"] != "mean±se":
            cells[(r["seed"], r["noise"])][r["trained"]] = r

    clean_wins = total = 0
    psp_wins = {"a": 0, "b": 0}
    psp_total = {"a": 0, "b": 0}
    for (_, noise), d in cells.items():
        other = "b" if noise == "a" else "a"
        total += 1
        clean_wins += d[noise]["p@1"] > d[other]["p@1"]
        # the PSP variant whose propensities describe this noise process
        psp_total[noise] += 1
        psp_wins[noise] += (d[noise][f"psp@1_{noise}"]
                            > d[other][f"psp@1_{noise}"])
    clean_rate = clean_wins / total
    rate_a = psp_wins["a"] / psp_total["a"]
    rate_b = psp_wins["b"] / psp_total["b"]
    ok = clean_rate >= 0.6 and rate_a >= 0.7 and rate_b >= 0.7
    _report(8, "matched training wins clean P@1 and each compatible PSP@1",
            ok, f"clean={clean_rate:.0%}, psp_a={rate_a:.0%}, psp_b={rate_b:.0%}")


def test_criterion_09_joint_learning_trend():
    good = 0
    rhos = []
    for seed in range(10):
        cfg = HyperBallConfig(m=30, dim=2, radius_range=(0.2, 0.5), seed=100 + seed,
                              n_train=5000, n_val=1, n_test=1)
        train, _, _, _ = generate_hyperball(cfg)
        rng = np.random.default_rng(200 + seed)
        p_star = np.linspace(0.15, 0.95, 30)[rng.permutation(30)]
        pa = PropensityAssignment(p_star)
        biased, _ = inject_missing(train, pa, seed=300 + seed)
        mask = train.label_counts() >= 50
        model, _ = train_ova(biased, TrainConfig(loss="pejl_plug", seed=400 + seed,
                                                 lr_grid=(0.1,), wd_grid=(0.0,),
                                                 epochs=80, patience=10))
        rho = spearmanr(sigmoid(model.prop_logits)[mask], p_star[mask]).statistic
        rhos.append(rho)
        good += rho > 0.5
    _report(9, "jointly learned propensities track the true trend", good >= 8,
            f"Spearman>0.5 in {good}/10 seeds, min rho={min(rhos):.3f}")


def test_criterion_10_brute_force_oracle():
    rng = np.random.default_rng(10)
    m = 6
    p = PropensityAssignment(rng.uniform(0.2, 1.0, m))
    inv = 1.0 / p.p
    w = rng.uniform(0.5, 3.0, m)
    worst = 0.0

    for _ in range(50):
        lab = np.sort(rng.choice(m, size=int(rng.integers(1, 4)), replace=False))
        lab_set = set(lab.tolist())
        labels = label_sets([lab], m)
        for k in (1, 2, 3):
            denom = sum(1.0 / np.log(j + 1.0) for j in range(1, k + 1))
            for S in combinations(range(m), k):
                scores = np.zeros((1, m))
                for r, j in enumerate(S):
                    scores[0, j] = 1.0 - 0.1 * r  # rank r+1 for the r-th element
                hits = [r for r, j in enumerate(S) if j in lab_set]
                hit_set = [j for j in S if j in lab_set]

                expect = {
                    "P": len(hit_set) / k,
                    "R": len(hit_set) / len(lab_set),
                    "nDCG": sum(1.0 / np.log(r + 2.0) for r in hits) / denom,
                    "PSP": sum(inv[j] for j in hit_set) / k,
                    "PSR": sum(inv[j] for j in hit_set) / len(lab_set),
                    "PSnDCG": sum(inv[S[r]] / np.log(r + 2.0)
                                  for r in hits) / denom,
                    "WP": sum(w[j] for j in hit_set) / k,
                    "abandonment": 0.0 if hit_set else 1.0,
                    "coverage": len(hit_set) / m,
                    "macroF": float(np.mean([
                        2.0 * (j in lab_set and j in S)
                        / ((j in lab_set) + (j in S))
                        if (j in lab_set or j in S) else 0.0
                        for j in range(m)])),
                }
                pred = PredictionMatrix(scores)
                got = {
                    "P": precision_at_k(labels, pred, k).value,
                    "R": recall_at_k(labels, pred, k).value,
                    "nDCG": ndcg_at_k(labels, pred, k).value,
                    "PSP": ps_precision_at_k(labels, pred, k, p).value,
                    "PSR": ps_recall_at_k(labels, pred, k, p).value,
                    "PSnDCG": ps_ndcg_at_k(labels, pred, k, p).value,
                    "WP": weighted_precision_at_k(labels, pred, k, w).value,
                    "abandonment": abandonment_at_k(labels, pred, k).value,
                    "coverage": coverage_at_k(labels, pred, k).value,
                    "macroF": macro_f_beta(labels, pred, k=k).value,
                }
                for name in expect:
                    worst = max(worst, abs(expect[name] - got[name]))
    _report(10, "all metrics equal exhaustive recomputation over C(m,k) sets",
            worst <= 1e-12, f"max abs difference={worst:.2e}")


PIPELINE_CONFIG = """
[experiment]
seeds = 5

[data]
m = 8
dim = 2
r_min = 0.2
r_max = 0.45
n_train = 400
n_val = 60
n_test = 100

[metrics]
ks = 1,3
names = p,r,ndcg,psp

[train]
loss = vanilla
lrs = 0.1
wds = 0
epochs = 8
patience = 3

[propensity.noise]
family = constant
p = 0.6

[propensity.eval]
family = constant
p = 0.6
"""


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(PIPELINE_CONFIG)

    def run(tag):
        root = tmp_path / tag
        root.mkdir()
        assert main(["gen", "--config", str(cfg_path), "--out", str(root)]) == 0
        biased = root / "biased.txt"
        assert main(["inject", "--config", str(cfg_path), "--out", str(biased),
                     "--set", f"data.path={root / 'train.txt'}"]) == 0
        model = root / "model.npz"
        assert main(["train", "--config", str(cfg_path), "--out", str(model),
                     "--set", f"data.path={biased}"]) == 0
        metrics = root / "metrics.tsv"
        assert main(["eval", "--config", str(cfg_path), "--out", str(metrics),
                     "--set", f"data.path={root / 'test.txt'}",
                     "--set", f"eval.model={model}"]) == 0
        return {name: (root / name).read_bytes()
                for name in ("train.txt", "biased.txt", "metrics.tsv",
                             "model.npz.tuning.tsv")}

    first = run("run1")
    second = run("run2")
    ok = all(first[name] == second[name] for name in first)
    _report(11, "gen -> inject -> train -> eval is byte-identical across reruns",
            ok, f"{len(first)} artifacts compared")
