"""Synthetic hyper-ball generator and missing-label injection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FieldError, LabelPriors, SparseDataset, can_allocate, csr_rows
from .propensity import PropensityAssignment


@dataclass(frozen=True)
class HyperBallConfig:
    """Each label is a ball inside the unit feature ball; its radius sets its prior."""

    m: int = 100
    dim: int = 4
    radius_range: tuple = (0.05, 0.5)
    seed: int = 0
    n_train: int = 2000
    n_val: int = 500
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
        for name in ("m", "dim", "n_train", "n_val", "n_test"):
            if not can_allocate(getattr(self, name)):
                raise FieldError(name, "is too large: numpy cannot allocate an array of "
                                 "that many values")


@dataclass(frozen=True)
class NoiseTrace:
    seed: int
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
    # membership in blocks of at least 64 rows and as many centers as keep a
    # block of the n x m x dim differences near 64k doubles
    rows = max(64, 65536 // (len(centers) * dim))
    cols = max(1, 65536 // (rows * dim))
    inside = np.empty((n, len(centers)), dtype=bool)
    for i in range(0, n, rows):
        for j in range(0, len(centers), cols):
            diff = points[i:i + rows, None, :] - centers[None, j:j + cols, :]
            inside[i:i + rows, j:j + cols] = (diff ** 2).sum(axis=2) <= radii[j:j + cols] ** 2
    label_ptr = np.concatenate([[0], np.cumsum(np.count_nonzero(inside, axis=1))])
    labels = csr_rows(label_ptr, np.nonzero(inside)[1], None, len(centers))
    return SparseDataset(features=features, labels=labels)


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
    true_priors = LabelPriors(counts=counts, priors=radii ** config.dim)
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
    trace = NoiseTrace(seed=seed, removed=labels.nnz - kept, kept=kept)
    return biased, trace
