"""Evaluation metrics: vanilla, propensity-scored, normalized and long-tail task losses.

Every metric takes ``labels`` as a :class:`~xproplab.data.SparseDataset` and
``scores`` as a :class:`PredictionMatrix`; any other type raises ``TypeError``.
Their constructors have already checked the inputs: each label id is an integer
in ``[0, m)`` at most once per instance, and every score is finite.  A dataset
whose n x m differs from the scores' raises ``ValueError`` naming both, as do k
outside ``[1, m]`` and a weight or propensity vector not of length m.

``_rank`` is the ranked-hits kernel behind every metric and its only hit
lookup.  The top k of an instance are its k largest scores in descending
order, with ties going to the lower label index: the first k of a stable sort
on the negated scores.  ``_top_k_matrix`` is the only ranking routine, and one
exact selection: a partition of the negated scores, in place, finds each row's
k-th score, every entry at or above it is taken (ties included, so each row
has at least k), and one stable sort of those by (row, negated score) puts each
row's top k first.
``_row_key_order`` is that sort, and the module's one way of ordering entries
within rows: its key is the complex number ``row + 1j * key``, which numpy
orders by real part, then imaginary part.  That is exact for float64 keys, so
``PredictionMatrix`` holds its scores as float64.  All dataset-level values
are means over the evaluated instances, with skipped instances counted in the
returned record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .data import SparseDataset
from .propensity import PropensityAssignment


@dataclass(frozen=True)
class PredictionMatrix:
    """Dense per-instance, per-label real scores: an n x m float64 array.

    Bool, integer and float input of at most 64 bits is converted once; a float64
    array is kept as it is, without a copy.  Complex and longdouble input raise
    ``TypeError``, and integers that float64 would round ``ValueError``.
    """

    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores)
        if scores.ndim != 2:
            raise ValueError("scores must be a 2-D (n, m) array")
        kind, size = scores.dtype.kind, scores.dtype.itemsize
        if kind not in "biuf" or size > 8:
            raise TypeError(f"scores must be bool, integer or float of at most 64 bits, "
                            f"got {scores.dtype}")
        exact = scores.astype(np.float64, copy=False)
        if kind in "iu" and size == 8:
            # above 2**53 an int64 or uint64 may round; the largest double below
            # the type's maximum casts back without overflow
            top = np.nextafter(float(np.iinfo(scores.dtype).max), 0.0)
            if not np.array_equal(np.minimum(exact, top).astype(scores.dtype), scores):
                raise ValueError("integer scores must be exact in float64")
        if not np.all(np.isfinite(exact)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", exact)


@dataclass(frozen=True)
class MetricValue:
    name: str
    k: int
    value: float
    n_evaluated: int
    skipped: int = 0


def _row_key_order(rows: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The stable order of entries by (row, key): exact for float64 keys and
    rows below 2**53."""
    return np.argsort(rows + 1j * key, kind="stable")


def _top_k_matrix(scores: np.ndarray, k: int) -> np.ndarray:
    """First k columns of ``np.argsort(-scores, axis=1, kind="stable")``."""
    n, m = scores.shape
    if not 1 <= k <= m:
        raise ValueError("k must satisfy 1 <= k <= m")
    neg = -scores
    neg.partition(k - 1, axis=1)  # in place: np.partition would copy neg again
    kth = -neg[:, k - 1:k]
    # every entry at or above the k-th score, in row-major order; negation is exact
    rows, cols = np.divmod(np.flatnonzero(scores >= kth), m)
    cols = cols[_row_key_order(rows, -scores[rows, cols])]
    return cols[np.searchsorted(rows, np.arange(n))[:, None] + np.arange(k)]


def _rank(labels, scores, k: int, w=None):
    """The ranked-hits kernel.

    Returns each instance's top k (n x k label ids), the n x k mask of which
    of them are positives, and the row index, label id and per-instance count
    of the positives.  Hits are found by one lookup of the flat keys
    ``i * m + j`` of the top k among those of the positives.  Label weights
    ``w``, if given, must have one entry per score column.
    """
    if not isinstance(labels, SparseDataset):
        raise TypeError(f"labels must be a SparseDataset, got {type(labels).__name__}")
    if not isinstance(scores, PredictionMatrix):
        raise TypeError(f"scores must be a PredictionMatrix, got {type(scores).__name__}")
    scores, positives = scores.scores, labels.labels
    n, m = scores.shape
    if positives.shape != (n, m):
        raise ValueError(f"labels are n x m = {labels.n} x {labels.m} "
                         f"but scores are {n} x {m}")
    if w is not None and len(w) != m:
        raise ValueError(f"{len(w)} label weights or propensities for m = {m} score columns")
    tops = _top_k_matrix(scores, k)
    counts = np.diff(positives.indptr)
    rows, cols = np.repeat(np.arange(n), counts), positives.indices
    hits = np.isin(np.arange(n)[:, None] * m + tops, rows * m + cols)
    return tops, hits, rows, cols, counts


def _hit_gains(labels, scores, k: int, w=None):
    """Gain at each of the top k: 1, or the label's weight w, at a hit and 0
    elsewhere; with the positives per instance."""
    tops, hits, _, _, counts = _rank(labels, scores, k, w)
    return (hits if w is None else hits * w[tops]), counts


def _precision(name, labels, scores, k: int, w=None) -> MetricValue:
    gains, _ = _hit_gains(labels, scores, k, w)
    per = gains.sum(axis=1) / k
    return MetricValue(name, k, float(per.mean()), len(per))


def _recall(name, labels, scores, k: int, w=None) -> MetricValue:
    gains, counts = _hit_gains(labels, scores, k, w)
    evaluated = counts > 0
    if not evaluated.any():
        raise ValueError("no instance has a positive label")
    per = gains.sum(axis=1)[evaluated] / counts[evaluated]
    return MetricValue(name, k, float(per.mean()), len(per),
                       int((~evaluated).sum()))


def _ndcg(name, labels, scores, k: int, w=None) -> MetricValue:
    gains, _ = _hit_gains(labels, scores, k, w)
    discounts = 1.0 / np.log(np.arange(1, k + 1) + 1.0)
    per = (gains * discounts).sum(axis=1) / float(discounts.sum())
    return MetricValue(name, k, float(per.mean()), len(per))


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
    tops, hits, rows, cols, counts = _rank(observed_labels, scores, k, inv)
    gains = hits * inv[tops]
    # the best top k of an instance are its k positives of largest 1/p
    order = _row_key_order(rows, -inv[cols])
    within = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    best = inv[cols[order]][within < k].sum()
    if best == 0.0:
        raise ValueError("normalizer is zero: no instance has an observed positive")
    return MetricValue("NormPSP", k, float(gains.sum() / best), len(counts))


def weighted_precision_at_k(labels, scores, k: int, w) -> MetricValue:
    """P@k with arbitrary non-negative label weights; w = 1/p recovers PSP@k."""
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    return _precision("WP", labels, scores, k, w)


def macro_f_beta(labels, scores, beta: float = 1.0, *, k: int) -> MetricValue:
    """Macro-averaged F_beta when each instance predicts its top k; labels with
    an all-zero denominator contribute 0.  True positives, positives and
    predictions are integer counts per label.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and > 0")
    tops, hits, _, cols, counts = _rank(labels, scores, k)
    tp, pos, predicted = (np.bincount(c, minlength=labels.m)
                          for c in (tops[hits], cols, tops.ravel()))
    denom = beta ** 2 * pos + predicted
    per_label = np.where(denom > 0, (1 + beta ** 2) * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return MetricValue("macroF", k, float(per_label.mean()), len(counts))


def abandonment_at_k(labels, scores, k: int) -> MetricValue:
    """Fraction of instances whose top-k contains no relevant label."""
    _, hits, *_ = _rank(labels, scores, k)
    per = (~hits.any(axis=1)).astype(np.float64)
    return MetricValue("abandonment", k, float(per.mean()), len(per))


def coverage_at_k(labels, scores, k: int) -> MetricValue:
    """Fraction of labels with at least one correct positive prediction."""
    tops, hits, *_ = _rank(labels, scores, k)
    covered = len(np.unique(tops[hits]))
    return MetricValue("coverage", k, covered / labels.m, len(hits))


# --- feasibility oracle for unbiased estimators of non-decomposable losses ---
#
# A missingness process over m labels is one 2^m x 2^m array ``P``: ``P[y, o]``
# is the probability of observing the label vector o when y is true.  Row and
# column i stand for the i-th vector of ``itertools.product((0, 1), repeat=m)``,
# so index bits are label values with label 0 the most significant, and the
# target loss is a finite length-2^m vector in the same order.  m is read from
# the loss and must satisfy 1 <= m <= 3.  Each process must have that shape,
# finite non-negative entries, rows summing to 1 within FEASIBILITY_TOL, and no
# mass on an o holding a label its y lacks (missingness is one-sided).  The
# estimator is feasible iff the least-squares residual is at most FEASIBILITY_TOL.

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    residual: float
    solution: np.ndarray  # estimator value per observed label vector, in vector order


def check_unbiased_estimator_exists(processes: Sequence, target_loss) -> FeasibilityResult:
    """Can any function v of the observed labels be an unbiased estimate of the
    loss of one fixed prediction?  Solves ``P @ v = target_loss`` jointly over the
    processes by least squares; a vector no process produces gets v = 0."""
    loss = np.asarray(target_loss, dtype=np.float64)
    if loss.shape not in ((2,), (4,), (8,)):
        raise ValueError(f"target_loss must have length 2^m with 1 <= m <= 3, got {loss.shape}")
    if not np.all(np.isfinite(loss)):
        raise ValueError("target_loss must be finite")
    size = len(loss)
    idx = np.arange(size)
    outside = (idx[:, None] & idx[None, :]) != idx[None, :]  # o has a label y lacks
    matrices = [np.asarray(P, dtype=np.float64) for P in processes]
    for P in matrices:
        if P.shape != (size, size):
            raise ValueError(f"each process must be {size} x {size}, got {P.shape}")
        if not (np.all(np.isfinite(P)) and np.all(P >= 0)):
            raise ValueError("process entries must be finite and non-negative")
        if not np.all(np.abs(P.sum(axis=1) - 1.0) <= FEASIBILITY_TOL):
            raise ValueError("each row of a process must sum to 1")
        if np.any(P[outside]):
            raise ValueError("mass outside the one-sided support: an observed vector "
                             "holds a label its true vector lacks")
    A = np.vstack(matrices)
    b = np.tile(loss, len(matrices))
    v, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ v - b))
    return FeasibilityResult(feasible=residual <= FEASIBILITY_TOL, residual=residual,
                             solution=v)


def independent_mask_distribution(p: Sequence[float]) -> np.ndarray:
    """Missingness process when label j goes missing independently with keep
    probability ``p[j]``: the Kronecker product of the per-label processes."""
    return reduce(np.kron, ([[1.0, 0.0], [1.0 - q, q]] for q in p), np.ones((1, 1)))


def exact_observation_distribution(m: int) -> np.ndarray:
    """No-noise missingness: the observed vector equals the true vector a.s."""
    return np.eye(2 ** m)
