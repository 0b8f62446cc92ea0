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


@dataclass(frozen=True)
class SparseDataset:
    """Instances with sparse real feature vectors and sparse positive-label sets.

    ``features[i]`` is a pair ``(indices, values)`` of equally-sized arrays with
    strictly increasing feature indices; ``labels[i]`` is a strictly increasing
    array of label indices in ``[0, m)``.
    """

    n: int
    d: int
    m: int
    features: tuple  # tuple of (np.ndarray[int], np.ndarray[float]) pairs
    labels: tuple    # tuple of np.ndarray[int]

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.m < 1:
            raise ValueError("n, d and m must all be >= 1")
        if len(self.features) != self.n or len(self.labels) != self.n:
            raise ValueError("features/labels length must equal n")

    def feature_matrix(self) -> sparse.csr_matrix:
        """Features as an n x d CSR matrix."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for i, (idx, _) in enumerate(self.features):
            indptr[i + 1] = indptr[i] + len(idx)
        if indptr[-1] == 0:
            return sparse.csr_matrix((self.n, self.d))
        indices = np.concatenate([idx for idx, _ in self.features])
        data = np.concatenate([val for _, val in self.features])
        return sparse.csr_matrix((data, indices, indptr), shape=(self.n, self.d))

    def label_matrix(self) -> np.ndarray:
        """Labels as a dense n x m 0/1 matrix."""
        out = np.zeros((self.n, self.m), dtype=np.float64)
        for i, lab in enumerate(self.labels):
            out[i, lab] = 1.0
        return out

    def label_counts(self) -> np.ndarray:
        """Number of positive instances per label."""
        counts = np.zeros(self.m, dtype=np.int64)
        for lab in self.labels:
            counts[lab] += 1
        return counts

    def total_positives(self) -> int:
        return int(sum(len(lab) for lab in self.labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDataset):
            return NotImplemented
        if (self.n, self.d, self.m) != (other.n, other.d, other.m):
            return False
        for a, b in zip(self.labels, other.labels):
            if not np.array_equal(a, b):
                return False
        for (ia, va), (ib, vb) in zip(self.features, other.features):
            if not np.array_equal(ia, ib) or not np.array_equal(va, vb):
                return False
        return True


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

    First line is ``n d m``; each following line is
    ``<comma-separated labels> <feat:val> <feat:val> ...`` where the label list
    may be empty (the line then begins with a space).
    """
    it = iter(stream)
    try:
        header = next(it)
    except StopIteration:
        raise ParseError("empty input: missing header") from None
    n, d, m = _parse_header(header.rstrip("\r\n"), 1)

    features = []
    labels = []
    for i in range(n):
        lineno = i + 2
        try:
            line = next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of input at line {lineno}: "
                             f"expected {n} instances") from None
        line = line.rstrip("\r\n")
        head, _, rest = line.partition(" ")
        if head:
            try:
                lab = np.array([int(t) for t in head.split(",")], dtype=np.int64)
            except ValueError:
                raise ParseError(f"non-numeric label at line {lineno}") from None
            for j in lab:
                if j < 0 or j >= m:
                    raise ParseError(f"label index {j} >= m={m} at line {lineno}"
                                     if j >= 0 else f"negative label index at line {lineno}")
            if len(np.unique(lab)) != len(lab):
                raise ParseError(f"duplicate label index at line {lineno}")
            lab = np.sort(lab)
        else:
            lab = np.empty(0, dtype=np.int64)

        idxs = []
        vals = []
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
            idxs.append(fi)
            vals.append(fv)
        idx = np.array(idxs, dtype=np.int64)
        val = np.array(vals, dtype=np.float64)
        if len(np.unique(idx)) != len(idx):
            raise ParseError(f"duplicate feature index at line {lineno}")
        order = np.argsort(idx)
        features.append((idx[order], val[order]))
        labels.append(lab)

    return SparseDataset(n=n, d=d, m=m, features=tuple(features), labels=tuple(labels))


def write_xmlc_file(dataset: SparseDataset, stream: TextIO) -> None:
    """Write the XMLC-repository text format; round-trips exactly through parse."""
    stream.write(f"{dataset.n} {dataset.d} {dataset.m}\n")
    for lab, (idx, val) in zip(dataset.labels, dataset.features):
        # repr round-trips binary64
        feats = " ".join(f"{i}:{float(v)!r}" for i, v in zip(idx, val))
        stream.write(f"{','.join(str(j) for j in lab)} {feats}".rstrip() + "\n"
                     if len(lab) or feats else " \n")


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
    """Build a dataset from python-level feature/label sequences (used by generators).

    ``features`` items may be (indices, values) array pairs or dicts; ``labels``
    items any iterable of ints.
    """
    feats = []
    labs = []
    for f in features:
        if isinstance(f, dict):
            idx = np.array(sorted(f), dtype=np.int64)
            val = np.array([f[i] for i in idx], dtype=np.float64)
        else:
            idx = np.asarray(f[0], dtype=np.int64)
            val = np.asarray(f[1], dtype=np.float64)
        feats.append((idx, val))
    for l in labels:
        labs.append(np.array(sorted(set(int(j) for j in l)), dtype=np.int64))
    return SparseDataset(n=len(feats), d=d, m=m, features=tuple(feats), labels=tuple(labs))
