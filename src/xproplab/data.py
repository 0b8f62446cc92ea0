"""Sparse multi-label datasets, the XMLC-repository text format and imbalance statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy import sparse


class ParseError(ValueError):
    """Raised when a dataset file is malformed; message names the offending line."""


class FieldError(ValueError):
    """A config dataclass value out of its range; `field` names the field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def _check_csr(mat, what: str, bound: str) -> None:
    """ValueError unless every row's column indices strictly increase within range."""
    if not isinstance(mat, sparse.csr_matrix):
        raise ValueError(f"{what}s must be a scipy.sparse.csr_matrix")
    idx = mat.indices
    if idx.size and (idx.min() < 0 or idx.max() >= mat.shape[1]):
        raise ValueError(f"{what} ids must lie in [0, {bound}={mat.shape[1]})")
    # the flat keys i * ncols + j strictly increase iff each row's ids do
    keys = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)) * mat.shape[1] + idx
    if np.any(np.diff(keys) <= 0):
        raise ValueError(f"{what} ids must strictly increase within each row")


@dataclass(frozen=True)
class SparseDataset:
    """n instances as two CSR matrices: ``features`` (n x d, real values) and
    ``labels`` (n x m, 0/1, one stored 1 per positive).  In both, each row's
    column indices strictly increase and lie in range.
    """

    features: sparse.csr_matrix
    labels: sparse.csr_matrix

    def __post_init__(self):
        _check_csr(self.features, "feature", "d")
        _check_csr(self.labels, "label", "m")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        if self.n < 1 or self.d < 1 or self.m < 1:
            raise ValueError("n, d and m must all be >= 1")
        if not np.all(self.labels.data == 1):
            raise ValueError("label values must all be 1")

    n = property(lambda self: self.features.shape[0])
    d = property(lambda self: self.features.shape[1])
    m = property(lambda self: self.labels.shape[1])

    def feature_matrix(self) -> sparse.csr_matrix:
        """Features as an n x d CSR matrix."""
        return self.features

    def label_matrix(self) -> np.ndarray:
        """Labels as a dense n x m 0/1 matrix."""
        return self.labels.toarray().astype(np.float64, copy=False)

    def label_counts(self) -> np.ndarray:
        """Number of positive instances per label."""
        return np.bincount(self.labels.indices, minlength=self.m).astype(np.int64)

    def total_positives(self) -> int:
        return int(self.labels.nnz)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDataset):
            return NotImplemented
        return all(a.shape == b.shape and all(np.array_equal(getattr(a, f), getattr(b, f))
                                              for f in ("indptr", "indices", "data"))
                   for a, b in ((self.features, other.features), (self.labels, other.labels)))


def csr_rows(indptr, indices, data, ncols: int) -> sparse.csr_matrix:
    """CSR matrix with ``len(indptr) - 1`` rows; ``data`` None stores ones."""
    indices = np.asarray(indices, dtype=np.int64)
    data = np.ones(len(indices)) if data is None else np.asarray(data, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, ncols))


@dataclass(frozen=True)
class LabelPriors:
    """Per-label positive counts and (optionally smoothed) prior estimates."""

    m: int
    counts: np.ndarray
    priors: np.ndarray
    smoothing: float

    def __post_init__(self):
        if len(self.counts) != self.m or len(self.priors) != self.m:
            raise ValueError("counts/priors length must equal m")
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")


@dataclass(frozen=True)
class ImbalanceStats:
    min_ir: float   # binary imbalance ratio of the head label
    ilir: float     # largest prior / smallest prior
    pos80: float    # fraction of labels holding 80% of positive assignments


def _parse_header(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(f"malformed header at line {lineno}: expected 'n d m'")
    try:
        n, d, m = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"malformed header at line {lineno}: non-integer field") from None
    if n < 1 or d < 1 or m < 1:
        raise ParseError(f"malformed header at line {lineno}: n, d, m must be >= 1")
    return n, d, m


def parse_xmlc_file(stream: TextIO | Iterable[str]) -> SparseDataset:
    """Parse the XMLC-repository sparse text format.

    First line is ``n d m``; each of the next n lines is
    ``<comma-separated labels> <feat:val> <feat:val> ...`` where the label list
    may be empty (the line then begins with a space).  Only blank lines may follow.
    """
    it = iter(stream)
    try:
        header = next(it)
    except StopIteration:
        raise ParseError("empty input: missing header") from None
    n, d, m = _parse_header(header.rstrip("\r\n"), 1)

    label_ptr, label_ids = [0], []
    feat_ptr, feat_ids, feat_vals = [0], [], []
    for lineno in range(2, n + 2):
        try:
            line = next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of input at line {lineno}: "
                             f"expected {n} instances") from None
        head, _, rest = line.rstrip("\r\n").partition(" ")
        if head:
            try:
                lab = [int(t) for t in head.split(",")]
            except ValueError:
                raise ParseError(f"non-numeric label at line {lineno}") from None
            for j in lab:
                if j < 0 or j >= m:
                    raise ParseError(f"label index {j} >= m={m} at line {lineno}"
                                     if j >= 0 else f"negative label index at line {lineno}")
            if len(set(lab)) != len(lab):
                raise ParseError(f"duplicate label index at line {lineno}")
            label_ids += lab
        label_ptr.append(len(label_ids))

        start = len(feat_ids)
        for tok in rest.split():
            fid, sep, sval = tok.partition(":")
            if not sep:
                raise ParseError(f"malformed feature token '{tok}' at line {lineno}")
            try:
                fi = int(fid)
                fv = float(sval)
            except ValueError:
                raise ParseError(f"non-numeric value in '{tok}' at line {lineno}") from None
            if fi < 0 or fi >= d:
                raise ParseError(f"feature index {fi} >= d={d} at line {lineno}"
                                 if fi >= 0 else f"negative feature index at line {lineno}")
            if not math.isfinite(fv):
                raise ParseError(f"non-finite value in '{tok}' at line {lineno}")
            feat_ids.append(fi)
            feat_vals.append(fv)
        if len(set(feat_ids[start:])) != len(feat_ids) - start:
            raise ParseError(f"duplicate feature index at line {lineno}")
        feat_ptr.append(len(feat_ids))

    features = csr_rows(feat_ptr, feat_ids, feat_vals, d)
    labels = csr_rows(label_ptr, label_ids, None, m)
    features.sort_indices()  # ids are unique per row, so each row sorts to one order
    labels.sort_indices()
    return SparseDataset(features=features, labels=labels)


def write_xmlc_file(dataset: SparseDataset, stream: TextIO) -> None:
    """Write the XMLC-repository text format; round-trips exactly through parse."""
    stream.write(f"{dataset.n} {dataset.d} {dataset.m}\n")
    fp, fi, fv = (a.tolist() for a in (dataset.features.indptr, dataset.features.indices,
                                       dataset.features.data))
    lp, li = dataset.labels.indptr.tolist(), dataset.labels.indices.tolist()
    for i in range(dataset.n):
        labs = ",".join(map(str, li[lp[i]:lp[i + 1]]))
        a, b = fp[i], fp[i + 1]
        feats = " ".join(f"{j}:{v!r}" for j, v in zip(fi[a:b], fv[a:b]))  # repr round-trips
        stream.write(f"{labs} {feats}".rstrip() + "\n" if labs or feats else " \n")


def estimate_priors(dataset: SparseDataset, alpha: float = 1.0) -> LabelPriors:
    """Smoothed label priors (count + alpha) / (n + alpha)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    counts = dataset.label_counts()
    priors = (counts + alpha) / (dataset.n + alpha)
    return LabelPriors(m=dataset.m, counts=counts, priors=priors, smoothing=alpha)


def imbalance_stats(priors: LabelPriors) -> ImbalanceStats:
    """Head imbalance ratio, inter-label imbalance ratio and Pos-80%."""
    p = np.asarray(priors.priors, dtype=np.float64)
    if p.min() <= 0:
        raise ValueError("ILIR undefined: zero minimum prior (use smoothing > 0)")
    total = int(priors.counts.sum())
    if total <= 0:
        raise ValueError("Pos-80% undefined: no positive assignments")
    max_p = float(p.max())
    min_ir = (1.0 - max_p) / max_p
    ilir = max_p / float(p.min())
    sorted_counts = np.sort(np.asarray(priors.counts))[::-1]
    cum = np.cumsum(sorted_counts)
    c = int(np.searchsorted(cum, 0.8 * total) + 1)  # smallest prefix reaching 80%
    return ImbalanceStats(min_ir=min_ir, ilir=ilir, pos80=c / priors.m)


def make_dataset(features: Sequence, labels: Sequence, d: int, m: int) -> SparseDataset:
    """Build a dataset from python-level per-instance sequences (used by generators).

    ``features`` items are (indices, values) pairs with strictly increasing
    indices, or dicts; ``labels`` items are iterables of distinct ints, read in
    sorted order.  Ids out of range, repeated or (feature pairs) unsorted raise.
    """
    pairs = [(sorted(f), [f[i] for i in sorted(f)]) if isinstance(f, dict) else f
             for f in features]
    rows = [sorted(int(j) for j in lab) for lab in labels]
    feats = csr_rows(np.cumsum([0] + [len(idx) for idx, _ in pairs]),
                     np.concatenate([np.zeros(0, np.int64), *(idx for idx, _ in pairs)]),
                     np.concatenate([np.zeros(0), *(val for _, val in pairs)]), d)
    labs = csr_rows(np.cumsum([0] + [len(r) for r in rows]),
                    [j for r in rows for j in r], None, m)
    return SparseDataset(features=feats, labels=labs)
