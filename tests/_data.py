"""Test helpers: datasets from python-level per-instance sequences."""

from typing import Sequence

import numpy as np

from xproplab.data import SparseDataset, csr_rows


def make_dataset(features: Sequence, labels: Sequence, d: int, m: int) -> SparseDataset:
    """Build a dataset from python-level per-instance sequences.

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


def label_sets(sets: Sequence, m: int) -> SparseDataset:
    """A dataset of the given per-instance label sets over m labels, with one
    empty feature row per instance: the labels a metric takes."""
    return make_dataset([{}] * len(sets), sets, d=1, m=m)
