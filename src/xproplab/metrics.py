"""Evaluation metrics: vanilla, propensity-scored, normalized and long-tail task losses.

Per-instance label sets may be given as a :class:`~xproplab.data.SparseDataset`,
its CSR ``labels`` matrix or a sequence of integer arrays; scores as a
:class:`PredictionMatrix` or a dense ``(n, m)`` array.  There must be one label set per score row, and every
label id must lie in ``[0, m)``; anything else raises ``ValueError``.  The
top k of an instance are its k largest scores in descending order, with ties
going to the lower label index (a stable sort on the negated scores).  All
dataset-level values are means over the evaluated instances, with skipped
instances counted in the returned record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .data import SparseDataset
from .propensity import PropensityAssignment


@dataclass(frozen=True)
class PredictionMatrix:
    """Dense per-instance, per-label real scores."""

    n: int
    m: int
    scores: np.ndarray

    def __post_init__(self):
        if self.scores.shape != (self.n, self.m):
            raise ValueError("scores must have shape (n, m)")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class MetricValue:
    name: str
    k: Optional[int]
    value: float
    n_evaluated: int
    skipped: int = 0
    per_instance: Optional[np.ndarray] = None

    def __float__(self):
        return float(self.value)


def _as_scores(scores) -> np.ndarray:
    if isinstance(scores, PredictionMatrix):
        return scores.scores
    return np.asarray(scores, dtype=np.float64)


def top_k(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending; ties broken by ascending index."""
    return _top_k_matrix(np.asarray(scores, dtype=np.float64)[None, :], k)[0]


def _top_k_matrix(scores: np.ndarray, k: int) -> np.ndarray:
    if not 1 <= k <= scores.shape[1]:
        raise ValueError("k must satisfy 1 <= k <= m")
    # stable sort on -scores keeps ascending index order within ties
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def _positives(labels, n: int, m: int):
    """Row index and label id of every positive, and the positives per instance."""
    if isinstance(labels, SparseDataset):
        labels = labels.labels
    if isinstance(labels, sparse.csr_matrix):
        counts, cols = np.diff(labels.indptr), labels.indices
    else:
        labels = [np.asarray(l, dtype=np.int64) for l in labels]
        counts = np.array([len(lab) for lab in labels], dtype=np.int64)
        cols = np.concatenate([np.zeros(0, dtype=np.int64), *labels])
    if len(counts) != n:
        raise ValueError(f"{len(counts)} label sets for {n} score rows")
    bad = cols[(cols < 0) | (cols >= m)]
    if bad.size:
        raise ValueError(f"label id {int(bad[0])} outside [0, {m})")
    return np.repeat(np.arange(n), counts), cols, counts


def _rank(labels, scores, k: int):
    """The ranked-hits kernel behind every @k metric.

    Returns each instance's top k (n x k label ids), the n x k mask of which
    of them are positives, and the row index, label id and per-instance count
    of the positives.  Hits are found by one lookup of the flat keys
    ``i * m + j`` of the top k among those of the positives.
    """
    scores = _as_scores(scores)
    tops = _top_k_matrix(scores, k)
    n, m = scores.shape
    rows, cols, counts = _positives(labels, n, m)
    hits = np.isin(np.arange(n)[:, None] * m + tops, rows * m + cols)
    return tops, hits, rows, cols, counts


def _hit_gains(labels, scores, k: int, w=None):
    """Gain at each of the top k: 1, or the label's weight w, at a hit and 0
    elsewhere; with the positives per instance."""
    tops, hits, _, _, counts = _rank(labels, scores, k)
    return (hits if w is None else hits * w[tops]), counts


def _precision(name, labels, scores, k: int, w=None) -> MetricValue:
    gains, _ = _hit_gains(labels, scores, k, w)
    per = gains.sum(axis=1) / k
    return MetricValue(name, k, float(per.mean()), len(per), 0, per)


def _recall(name, labels, scores, k: int, w=None) -> MetricValue:
    gains, counts = _hit_gains(labels, scores, k, w)
    evaluated = counts > 0
    if not evaluated.any():
        raise ValueError("no instance has a positive label")
    per = gains.sum(axis=1)[evaluated] / counts[evaluated]
    return MetricValue(name, k, float(per.mean()), len(per),
                       int((~evaluated).sum()), per)


def _ndcg(name, labels, scores, k: int, w=None) -> MetricValue:
    gains, _ = _hit_gains(labels, scores, k, w)
    discounts = 1.0 / np.log(np.arange(1, k + 1) + 1.0)
    per = (gains * discounts).sum(axis=1) / float(discounts.sum())
    return MetricValue(name, k, float(per.mean()), len(per), 0, per)


def precision_at_k(labels, scores, k: int) -> MetricValue:
    return _precision("P", labels, scores, k)


def recall_at_k(labels, scores, k: int) -> MetricValue:
    """Instances without positives are skipped (the formula divides by their count)."""
    return _recall("R", labels, scores, k)


def ndcg_at_k(labels, scores, k: int) -> MetricValue:
    """Gain 1/ln(rank+1) per hit, against the fixed denominator sum_{j<=k} 1/ln(j+1)."""
    return _ndcg("nDCG", labels, scores, k)


def ps_precision_at_k(observed_labels, scores, k: int,
                      p: PropensityAssignment) -> MetricValue:
    return _precision("PSP", observed_labels, scores, k, p.inverse())


def ps_recall_at_k(observed_labels, scores, k: int,
                   p: PropensityAssignment) -> MetricValue:
    """Divides by the observed positive count, which stands in for the unknown
    number of truly relevant labels; instances with no observed positive are skipped."""
    return _recall("PSR", observed_labels, scores, k, p.inverse())


def ps_ndcg_at_k(observed_labels, scores, k: int,
                 p: PropensityAssignment) -> MetricValue:
    return _ndcg("PSnDCG", observed_labels, scores, k, p.inverse())


def normalized_psp_at_k(observed_labels, scores, k: int,
                        p: PropensityAssignment) -> MetricValue:
    """PSP@k divided by the best achievable PSP@k on the same observed labels."""
    inv = p.inverse()
    tops, hits, rows, cols, counts = _rank(observed_labels, scores, k)
    gains = hits * inv[tops]
    # the best top k of an instance are its k positives of largest 1/p
    order = np.lexsort((-inv[cols], rows))
    within = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    best = inv[cols[order]][within < k].sum()
    if best == 0.0:
        raise ValueError("normalizer is zero: no instance has an observed positive")
    return MetricValue("NormPSP", k, float(gains.sum() / best), len(counts), 0, None)


def weighted_precision_at_k(labels, scores, k: int, w) -> MetricValue:
    """P@k with arbitrary non-negative label weights; w = 1/p recovers PSP@k."""
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    return _precision("WP", labels, scores, k, w)


def binarize_top_k(scores, k: int) -> np.ndarray:
    """0/1 prediction matrix that keeps each instance's top-k scores."""
    scores = _as_scores(scores)
    tops = _top_k_matrix(scores, k)
    out = np.zeros_like(scores)
    np.put_along_axis(out, tops, 1.0, axis=1)
    return out


def macro_f_beta(labels, predictions, beta: float = 1.0,
                 k: Optional[int] = None) -> MetricValue:
    """Macro-averaged F_beta; labels with an all-zero denominator contribute 0.

    ``predictions`` is a binary n x m matrix, or scores when ``k`` is given
    (binarized by per-instance top-k).
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if k is not None:
        pred = binarize_top_k(predictions, k)
    else:
        pred = np.asarray(predictions, dtype=np.float64)
    n, m = pred.shape
    rows, cols, _ = _positives(labels, n, m)
    y = np.zeros((n, m))
    y[rows, cols] = 1.0
    tp = (y * pred).sum(axis=0)
    pos = y.sum(axis=0)
    predicted = pred.sum(axis=0)
    denom = beta ** 2 * pos + predicted
    per_label = np.where(denom > 0, (1 + beta ** 2) * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return MetricValue("macroF", k, float(per_label.mean()), n, 0, None)


def abandonment_at_k(labels, scores, k: int) -> MetricValue:
    """Fraction of instances whose top-k contains no relevant label."""
    _, hits, *_ = _rank(labels, scores, k)
    per = (~hits.any(axis=1)).astype(np.float64)
    return MetricValue("abandonment", k, float(per.mean()), len(per), 0, per)


def coverage_at_k(labels, scores, k: int) -> MetricValue:
    """Fraction of labels with at least one correct positive prediction."""
    scores = _as_scores(scores)
    tops, hits, *_ = _rank(labels, scores, k)
    covered = len(np.unique(tops[hits]))
    return MetricValue("coverage", k, covered / scores.shape[1], len(hits), 0, None)


# --- feasibility oracle for unbiased estimators of non-decomposable losses ---

@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    residual: float
    solution: dict  # observable label vector -> estimator value


def _validate_mask_distribution(dist: dict, m: int) -> None:
    for y, cond in dist.items():
        if len(y) != m or any(v not in (0, 1) for v in y):
            raise ValueError(f"malformed label vector {y}")
        total = 0.0
        for y_obs, prob in cond.items():
            if len(y_obs) != m or any(v not in (0, 1) for v in y_obs):
                raise ValueError(f"malformed observed vector {y_obs}")
            if prob < 0:
                raise ValueError("negative probability mass")
            if any(o > t for o, t in zip(y_obs, y)):
                raise ValueError(f"mass on {y_obs} outside the one-sided support of {y}")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"conditional distribution for {y} sums to {total}, not 1")


def check_unbiased_estimator_exists(m: int, mask_distributions: Sequence[dict],
                                    target_loss: dict,
                                    residual_tol: float = 1e-9) -> FeasibilityResult:
    """Can any function of the observed labels be an unbiased estimate of the loss?

    Each entry of ``mask_distributions`` maps a true label vector (0/1 tuple)
    to a conditional distribution over observed vectors; ``target_loss`` maps
    each true label vector to the loss of one fixed prediction.  The linear
    system requires the estimator's conditional expectation to equal the loss
    for every degenerate true-label distribution and every supplied missingness
    distribution; it is solved by least squares and declared feasible iff the
    residual is at most ``residual_tol``.
    """
    if m > 3:
        raise ValueError("the brute-force oracle is limited to m <= 3")
    all_y = [tuple(bits) for bits in product((0, 1), repeat=m)]
    for dist in mask_distributions:
        if set(dist) != set(all_y):
            raise ValueError("each distribution must condition on every true label vector")
        _validate_mask_distribution(dist, m)
    if set(target_loss) != set(all_y):
        raise ValueError("target_loss must cover every true label vector")

    observable = sorted({y_obs for dist in mask_distributions
                         for cond in dist.values() for y_obs in cond})
    col = {y_obs: j for j, y_obs in enumerate(observable)}
    rows = []
    rhs = []
    for dist in mask_distributions:
        for y in all_y:
            row = np.zeros(len(observable))
            for y_obs, prob in dist[y].items():
                row[col[y_obs]] += prob
            rows.append(row)
            rhs.append(float(target_loss[y]))
    A = np.array(rows)
    b = np.array(rhs)
    v, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ v - b))
    return FeasibilityResult(feasible=residual <= residual_tol, residual=residual,
                             solution={y_obs: float(v[j]) for y_obs, j in col.items()})


def independent_mask_distribution(p: Sequence[float]) -> dict:
    """Joint missingness distribution when labels go missing independently
    with per-label keep probabilities ``p``."""
    m = len(p)
    dist = {}
    for y in product((0, 1), repeat=m):
        cond = {}
        support = [j for j in range(m) if y[j] == 1]
        for keep in product((0, 1), repeat=len(support)):
            y_obs = list(y)
            prob = 1.0
            for j, kept in zip(support, keep):
                y_obs[j] = kept
                prob *= p[j] if kept else (1.0 - p[j])
            key = tuple(y_obs)
            cond[key] = cond.get(key, 0.0) + prob
        dist[tuple(y)] = cond
    return dist


def exact_observation_distribution(m: int) -> dict:
    """No-noise missingness: the observed vector equals the true vector a.s."""
    return {tuple(y): {tuple(y): 1.0} for y in product((0, 1), repeat=m)}
