"""Synthetic hyper-ball generator, missing-label injection and dataset re-splitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .data import FieldError, LabelPriors, SparseDataset, csr_rows, make_dataset
from .propensity import PropensityAssignment


@dataclass(frozen=True)
class HyperBallConfig:
    """Each label is a ball inside the unit feature ball; its radius sets its prior."""

    m: int = 100
    dim: int = 4
    radius_range: tuple = (0.05, 0.5)
    seed: int = 0
    n_train: int = 1000
    n_val: int = 1000
    n_test: int = 1000

    def __post_init__(self):
        r_min, r_max = self.radius_range
        if not 0 < r_min <= r_max < 1:  # comparisons are False for nan, so nan fails
            raise FieldError("radius_range", "must satisfy 0 < r_min <= r_max < 1, got "
                             f"r_min = {r_min}, r_max = {r_max}")
        if not self.dim >= 2:
            raise FieldError("dim", f"must be at least 2, got {self.dim}")
        for name in ("m", "n_train", "n_val", "n_test"):
            if not getattr(self, name) >= 1:
                raise FieldError(name, f"must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class NoiseTrace:
    seed: int
    model: PropensityAssignment
    removed: int
    kept: int


def _uniform_in_ball(rng: np.random.Generator, n: int, dim: int,
                     radius: float = 1.0) -> np.ndarray:
    """Uniform points in a ball: uniform direction, norm = radius * U^(1/dim)."""
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    norm = radius * rng.random(n) ** (1.0 / dim)
    return direction * norm[:, None]


def _points_to_dataset(points: np.ndarray, centers: np.ndarray,
                       radii: np.ndarray) -> SparseDataset:
    n, dim = points.shape
    # every row stores all dim coordinates, zeros included
    features = csr_rows(np.arange(0, n * dim + 1, dim), np.tile(np.arange(dim), n),
                        points.ravel(), dim)
    dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inside = dist2 <= radii[None, :] ** 2
    return SparseDataset(features=features, labels=sparse.csr_matrix(inside, dtype=np.float64))


def generate_hyperball(config: HyperBallConfig):
    """Sample train/val/test splits plus the analytic label priors.

    Label j occupies a ball of radius r_j (log-uniform over ``radius_range``)
    whose center is uniform in the ball of radius 1 - r_j, so it lies fully
    inside the unit feature ball; the true prior of label j is therefore
    vol(S_j)/vol(S) = r_j^dim.  Deterministic given ``config.seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    r_min, r_max = config.radius_range
    radii = np.exp(rng.uniform(np.log(r_min), np.log(r_max), config.m))
    centers = np.empty((config.m, config.dim))
    for j in range(config.m):
        centers[j] = _uniform_in_ball(rng, 1, config.dim, radius=1.0 - radii[j])[0]

    total = config.n_train + config.n_val + config.n_test
    points = _uniform_in_ball(rng, total, config.dim)
    splits = np.split(points, [config.n_train, config.n_train + config.n_val])
    train, val, test = (_points_to_dataset(p, centers, radii) for p in splits)

    counts = train.label_counts() + val.label_counts() + test.label_counts()
    true_priors = LabelPriors(m=config.m, counts=counts,
                              priors=radii ** config.dim, smoothing=0.0)
    return train, val, test, true_priors


def inject_missing(clean: SparseDataset, p: PropensityAssignment, seed: int):
    """Drop each positive (i, j) independently with probability 1 - p_j.

    Features are untouched and negatives never flip; deterministic given seed.
    """
    if p.m != clean.m:
        raise ValueError("propensity assignment m must match the dataset")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = clean.labels
    # one draw per positive in row order: the stream of per-row draws, concatenated
    keep = rng.random(labels.nnz) < p.p[labels.indices]
    indptr = np.concatenate([[0], np.cumsum(keep)])[labels.indptr]
    biased = SparseDataset(features=clean.features,
                           labels=csr_rows(indptr, labels.indices[keep], None, clean.m))
    kept = int(indptr[-1])
    trace = NoiseTrace(seed=seed, model=p, removed=labels.nnz - kept, kept=kept)
    return biased, trace


def resplit_benchmark(full: SparseDataset, s: int, split_fractions: Sequence[float],
                      seed: int):
    """Drop labels with fewer than s positives, re-index densely, shuffle and split."""
    if s < 1:
        raise ValueError("s must be >= 1")
    fractions = np.asarray(split_fractions, dtype=np.float64)
    if len(fractions) not in (2, 3) or abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError("need 2 or 3 split fractions summing to 1")
    counts = full.label_counts()
    surviving = np.flatnonzero(counts >= s)
    if len(surviving) == 0:
        raise ValueError(f"all labels have fewer than s={s} positives")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(full.n)
    cuts = np.floor(np.cumsum(fractions)[:-1] * full.n).astype(int)
    return tuple(SparseDataset(features=full.features[part],
                               labels=full.labels[part][:, surviving])
                 for part in np.split(order, cuts))


def ratings_to_multilabel(ratings: Sequence[tuple], m: int, threshold: float = 4.0,
                          seed: int = 0, probe_ratings: Optional[Sequence[tuple]] = None,
                          probe_size: Optional[int] = None):
    """Turn (user, item, rating) triples into a multi-label dataset.

    Per user, positives are items rated at least ``threshold``.  Users only in
    ``ratings`` are training users: their positives are split into equal halves,
    the first becoming a binary item-indexed feature vector and the second the
    label set (odd counts give the feature half the extra item).  Users that
    also appear in ``probe_ratings`` become test users: features come from half
    of their training-side positives, labels from all probe-side positives.
    ``p_controlled`` is probe_size / m when the probe rated a uniform random
    subset of ``probe_size`` items, else None.

    Returns (train, test, p_controlled, skipped_users); ``test`` is None
    without probe ratings.
    """
    def positives_by_user(triples):
        pos = {}
        for user, item, rating in triples:
            if not 0 <= item < m:
                raise ValueError(f"item id {item} >= m={m}")
            if rating >= threshold:
                pos.setdefault(user, set()).add(int(item))
        return pos

    train_pos = positives_by_user(ratings)
    probe_pos = positives_by_user(probe_ratings) if probe_ratings is not None else {}

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    train_feats, train_labs = [], []
    test_feats, test_labs = [], []
    skipped = 0
    for user in sorted(train_pos):
        items = np.array(sorted(train_pos[user]), dtype=np.int64)
        if user in probe_pos:
            if len(items) < 1:
                skipped += 1
                continue
            half = rng.permutation(items)[: (len(items) + 1) // 2]
            test_feats.append((np.sort(half), np.ones(len(half))))
            test_labs.append(sorted(probe_pos[user]))
        else:
            if len(items) < 2:
                skipped += 1
                continue
            perm = rng.permutation(items)
            cut = (len(items) + 1) // 2  # feature half gets the extra element
            feat, lab = np.sort(perm[:cut]), perm[cut:]
            train_feats.append((feat, np.ones(len(feat))))
            train_labs.append(lab.tolist())

    if not train_feats:
        raise ValueError("no usable training user (all had < 2 positives)")
    train = make_dataset(train_feats, train_labs, d=m, m=m)
    test = make_dataset(test_feats, test_labs, d=m, m=m) if test_feats else None
    p_controlled = probe_size / m if probe_size is not None else None
    return train, test, p_controlled, skipped
