"""Sparse multi-label datasets, the XMLC-repository text format and imbalance statistics."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, TextIO

import numpy as np


class ParseError(ValueError):
    """Raised when a dataset file is malformed.  ``line`` is the 1-based line at
    fault and ``reason`` what is wrong there; the message says both, naming the
    line as " at line N"."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line
        self.reason = message.replace(f" at line {line}", "", 1)


class FieldError(ValueError):
    """A config dataclass value out of its range; `field` names the field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


@dataclass(frozen=True, eq=False)
class Csr:
    """An n x ncols matrix in compressed sparse rows: row i stores the column
    ids ``indices[indptr[i]:indptr[i + 1]]`` with the values at the same
    positions of ``data``.  ``csr_rows`` builds one; ``SparseDataset`` checks it."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def toarray(self) -> np.ndarray:
        """The dense n x ncols matrix; entries not stored are 0."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        # adds, as scipy's toarray does, so that a stored -0.0 reads 0.0
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] += self.data
        return out


def csr_rows(indptr, indices, data, ncols: int) -> Csr:
    """CSR matrix with ``len(indptr) - 1`` rows; ``data`` None stores ones."""
    indices = np.asarray(indices, dtype=np.int64)
    data = np.ones(len(indices)) if data is None else np.asarray(data, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    return Csr(indptr, indices, data, (len(indptr) - 1, ncols))


def _unordered_rows(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The row of each id not above the one before it in its row (``rows``, each
    id's row, is nondecreasing); ids are only compared, so no width overflows."""
    return rows[1:][(rows[1:] == rows[:-1]) & (ids[1:] <= ids[:-1])]


def _check_csr(mat, what: str, bound: str) -> None:
    """ValueError unless ``mat`` is a well-formed Csr whose every row's column
    ids strictly increase within range."""
    if not isinstance(mat, Csr):
        raise ValueError(f"{what}s must be a Csr, got {type(mat).__name__}")
    ptr, idx = mat.indptr, mat.indices
    if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in (ptr, idx, mat.data)):
        raise ValueError(f"{what} indptr, indices and data must be 1-D arrays")
    if ptr.dtype.kind not in "iu" or idx.dtype.kind not in "iu":
        raise ValueError(f"{what} indptr and indices must hold integers")
    if len(ptr) != mat.shape[0] + 1 or not len(ptr):
        raise ValueError(f"{what} indptr must have n + 1 = {mat.shape[0] + 1} entries, "
                         f"got {len(ptr)}")
    if len(idx) != len(mat.data):
        raise ValueError(f"{what} indices and data must have the same length, "
                         f"got {len(idx)} and {len(mat.data)}")
    if ptr[0] != 0 or ptr[-1] != len(idx) or np.any(np.diff(ptr) < 0):
        raise ValueError(f"{what} indptr must rise from 0 to len(indices)={len(idx)} "
                         "without decreasing")
    if idx.size and (idx.min() < 0 or idx.max() >= mat.shape[1]):
        raise ValueError(f"{what} ids must lie in [0, {bound}={mat.shape[1]})")
    if _unordered_rows(np.repeat(np.arange(mat.shape[0]), np.diff(ptr)), idx).size:
        raise ValueError(f"{what} ids must strictly increase within each row")


@dataclass(frozen=True)
class SparseDataset:
    """n instances as two CSR matrices (``Csr``): ``features`` (n x d, real
    values) and ``labels`` (n x m, 0/1, one stored 1 per positive).  In both,
    each row's column indices strictly increase and lie in range.
    """

    features: Csr
    labels: Csr

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

    def feature_matrix(self):
        """Features as an n x d ``scipy.sparse.csr_matrix``, for scoring.  Only
        here is scipy imported.  ``train.predict`` calls it only for features
        with unstored entries or a product above ``DENSE_PRODUCT_MAX``; rows
        that store every feature, as ``generate_hyperball``'s do, are scored in
        numpy, so neither a command that does not score nor scoring a small
        dense dataset loads scipy."""
        from scipy import sparse
        f = self.features
        return sparse.csr_matrix((f.data, f.indices, f.indptr), shape=f.shape)

    def label_matrix(self) -> np.ndarray:
        """Labels as a dense n x m 0/1 matrix."""
        return self.labels.toarray().astype(np.float64, copy=False)

    def label_counts(self) -> np.ndarray:
        """Number of positive instances per label."""
        return np.bincount(self.labels.indices, minlength=self.m).astype(np.int64)

    def total_positives(self) -> int:
        return self.labels.nnz

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDataset):
            return NotImplemented
        return all(a.shape == b.shape and all(np.array_equal(getattr(a, f), getattr(b, f))
                                              for f in ("indptr", "indices", "data"))
                   for a, b in ((self.features, other.features), (self.labels, other.labels)))


@dataclass(frozen=True)
class LabelPriors:
    """Per-label positive counts and (optionally smoothed) prior estimates."""

    counts: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        if len(self.counts) != len(self.priors):
            raise ValueError("counts and priors must have the same length")

    m = property(lambda self: len(self.priors))


@dataclass(frozen=True)
class ImbalanceStats:
    min_ir: float   # binary imbalance ratio of the head label
    ilir: float     # largest prior / smallest prior
    pos80: float    # fraction of labels holding 80% of positive assignments


def _parse_header(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(f"malformed header at line {lineno}: expected 'n d m'", lineno)
    # ASCII decimal digits with an optional '-', as ids: int() would also read
    # '+1', '1_0' and non-ASCII digits
    if not all(re.fullmatch("-?[0-9]+", p) for p in parts):
        raise ParseError(f"malformed header at line {lineno}: non-integer field", lineno)
    n, d, m = (int(p) for p in parts)
    if n < 1 or d < 1 or m < 1:
        raise ParseError(f"malformed header at line {lineno}: n, d, m must be >= 1", lineno)
    return n, d, m


# the forms of an id string
_ID, _NEGATIVE, _NOT_AN_ID = 0, 1, 2
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.uint64)
# whether each code point is whitespace to str.split(); none lies above U+3000,
# so taken with mode="clip" the last entry, U+3001, stands for every higher one
_IS_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])

# the message of each label and feature-token fault code
_LABEL_FAULTS = {1: "non-numeric label at line {line}",
                 2: "negative label index at line {line}",
                 3: "label index {id} >= m={m} at line {line}",
                 4: "label index {id} >= 2**63 at line {line}"}
_FEATURE_FAULTS = {1: "malformed feature token '{tok}' at line {line}",
                   2: "non-numeric value in '{tok}' at line {line}",
                   3: "negative feature index at line {line}",
                   4: "feature index {id} >= d={d} at line {line}",
                   5: "non-finite value in '{tok}' at line {line}",
                   6: "feature index {id} >= 2**63 at line {line}"}


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``: bytes when it is ASCII, else 32-bit."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)


def _spans(first: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in the spans [first, end), one span after another, and the
    span of each."""
    lens = end - first
    owner = np.repeat(np.arange(len(first)), lens)
    return np.arange(len(owner)) + np.repeat(first - (np.cumsum(lens) - lens), lens), owner


def _ids(chars: np.ndarray, first: np.ndarray, end: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """The form and value of each id string ``chars[first[i]:end[i]]``.

    An id is ASCII decimal digits (``_ID``).  ``-`` then such digits is
    ``_NEGATIVE``; anything else, ``+1``, ``1_0`` or non-ASCII digits included,
    is ``_NOT_AN_ID``.  Values are exact below 10**19; a larger id gets the
    largest uint64.
    """
    at, owner = _spans(first, end)
    digits = (np.take(chars, at) - chars.dtype.type(ord("0"))).astype(np.uint64)  # wraps below "0"
    is_digit = digits <= 9
    others = np.bincount(owner[~is_digit], minlength=len(first))
    signed = end - first > 1
    signed[signed] = np.take(chars, first[signed]) == ord("-")
    form = np.where((end > first) & (others == 0), _ID,
                    np.where(signed & (others == 1), _NEGATIVE, _NOT_AN_ID))
    # each digit times ten to its place, summed per id: below 10**19 every sum
    # fits in a uint64, so differences of the wrapping prefix sums are exact
    place = np.take(end - 1, owner) - at
    terms = np.where(is_digit & (place < 19), digits, 0) * np.take(_POWERS_OF_TEN,
                                                                    np.minimum(place, 18))
    sums = np.concatenate((np.zeros(1, np.uint64), np.cumsum(terms, dtype=np.uint64)))
    spans_end = np.cumsum(end - first)
    value = sums[spans_end] - sums[spans_end - (end - first)]
    huge = np.bincount(owner[is_digit & (digits > 0) & (place >= 19)], minlength=len(first))
    value[huge > 0] = np.iinfo(np.uint64).max
    return form, value


def _row_order(rows: np.ndarray, ids: np.ndarray, bound: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts ``ids`` within each row (``rows`` is nondecreasing),
    and the rows, in increasing order, in which an id below ``bound`` occurs twice."""
    ids = ids.astype(np.int64)
    if rows.size and (int(rows[-1]) + 1) * bound <= 2**63:  # row * bound + id fits
        order = np.argsort(rows * bound + ids, kind="stable")  # timsort: linear when sorted
    else:
        order = np.lexsort((ids, rows))
    return order, _unordered_rows(rows, ids[order])  # sorting keeps each id in its row


def parse_xmlc_file(stream: TextIO | Iterable[str]) -> SparseDataset:
    """Parse the XMLC-repository sparse text format.

    First line is ``n d m``; each of the next n lines is ``<comma-separated labels>
    <feat:val> <feat:val> ...`` where the label list may be empty (the line then
    begins with a space).  Lines after the n-th instance are not read.

    A label or feature id is ASCII decimal digits; a feature value is a number
    Python's ``float`` reads.  The first malformed line raises ParseError naming
    it: a line's labels are checked before its features, its features in order.
    """
    it = iter(stream)
    try:
        header = next(it)
    except StopIteration:
        raise ParseError("empty input: missing header", 1) from None
    n, d, m = _parse_header(header.rstrip("\r\n"), 1)
    rows = [line.rstrip("\r\n").partition(" ") for line in islice(it, n)]

    label_lists = [head.split(",") if head else [] for head, _, _ in rows]
    label_counts = np.fromiter(map(len, label_lists), np.int64, len(rows))
    label_row = np.repeat(np.arange(len(rows)), label_counts)
    labels = list(chain.from_iterable(label_lists))
    label_end = np.cumsum(np.fromiter(map(len, labels), np.int64, len(labels)))
    form, label_ids = _ids(_code_points("".join(labels)),
                           np.concatenate(([0], label_end))[:-1], label_end)
    # ids are stored as int64, so one of 2**63 or more is a fault whatever m is
    label_fault = np.select([form == _NOT_AN_ID, form == _NEGATIVE, label_ids >= m,
                             label_ids >= 2**63], [1, 2, 3, 4], 0)

    # feature tokens are the runs of non-whitespace in each row's feature text
    rests = [rest for _, _, rest in rows]
    text = "\n".join(rests)
    chars = _code_points(text)
    space = np.take(_IS_SPACE, chars, mode="clip")
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    first, last = edges[0::2], edges[1::2]  # token i is text[first[i]:last[i]]
    row_first = np.cumsum([0] + [len(rest) + 1 for rest in rests[:-1]])
    token_row = np.searchsorted(row_first, first, side="right") - 1
    colon_at = np.append(np.flatnonzero(chars == ord(":")), len(chars))  # and a sentinel
    lo = np.searchsorted(colon_at, first)
    colons = np.searchsorted(colon_at, last) - lo
    colon = colon_at[lo]  # each token's first ':', where it has one
    # tokens up to the first that is not 'id:value' with both parts non-empty
    unsplit = (colons != 1) | (colon == first) | (colon == last - 1)
    k = int(np.argmax(unsplit)) if unsplit.any() else len(first)
    form, feature_ids = _ids(chars, first[:k], colon[:k])
    value_text = chars[:last[k - 1] if k else 0].copy()
    value_text[_spans(first[:k], colon[:k] + 1)[0]] = ord(" ")  # blanks each 'id:'
    values = []
    try:  # extend keeps the values before the first that float() rejects
        values.extend(map(float, value_text.tobytes().decode(
            "ascii" if value_text.itemsize == 1 else "utf-32-le", "surrogatepass").split()))
    except ValueError:
        pass
    k = len(values)  # tokens before k parsed; token k, if any, is their first fault
    feature_ids, values = feature_ids[:k], np.array(values, dtype=np.float64)
    token_fault = np.zeros(len(first), dtype=np.int64)
    token_fault[:k] = np.select([form[:k] == _NOT_AN_ID, form[:k] == _NEGATIVE,
                                 feature_ids >= d, feature_ids >= 2**63, ~np.isfinite(values)],
                                [2, 3, 4, 6, 5], 0)
    if k < len(first):
        token_fault[k] = 1 if colons[k] == 0 else 2

    label_ok, token_ok = label_fault == 0, token_fault[:k] == 0
    label_order, label_repeats = _row_order(label_row[label_ok], label_ids[label_ok], m)
    token_order, token_repeats = _row_order(token_row[:k][token_ok], feature_ids[token_ok], d)
    # the first fault of each kind as (row, rank within a row, message, token,
    # id); the least is the file's first fault.  Any non-numeric label of a line
    # ranks first, as int() reads all its labels before any is range-checked.
    faults = [(len(rows), 0, "unexpected end of input at line {line}: expected {n} instances",
               "", "")] if len(rows) < n else []
    faults += [(label_row[j], 0, _LABEL_FAULTS[1], "", "")
               for j in np.flatnonzero(label_fault == 1)[:1]]
    faults += [(label_row[j], 1, _LABEL_FAULTS[label_fault[j]], "",
                labels[j] if label_fault[j] >= 3 else "")
               for j in np.flatnonzero(label_fault > 1)[:1]]
    faults += [(r, 2, "duplicate label index at line {line}", "", "") for r in label_repeats[:1]]
    faults += [(token_row[j], 3, _FEATURE_FAULTS[token_fault[j]], text[first[j]:last[j]],
                text[first[j]:colon[j]] if token_fault[j] in (4, 6) else "")
               for j in np.flatnonzero(token_fault)[:1]]
    faults += [(r, 4, "duplicate feature index at line {line}", "", "")
               for r in token_repeats[:1]]
    if faults:
        row, _, message, token, id_ = min(faults, key=lambda fault: fault[:2])
        line = int(row) + 2
        raise ParseError(message.format(line=line, n=n, d=d, m=m, tok=token,
                                        id=int(id_) if id_ else None), line)

    # no line faulted, so the orders cover every label and token; ids are unique
    # per row, so each row sorts to one order
    token_counts = np.bincount(token_row, minlength=len(rows))
    features = csr_rows(np.concatenate([[0], np.cumsum(token_counts)]),
                        feature_ids[token_order], values[token_order], d)
    labels = csr_rows(np.concatenate([[0], np.cumsum(label_counts)]),
                      label_ids[label_order], None, m)
    return SparseDataset(features=features, labels=labels)


def write_xmlc_file(dataset: SparseDataset, stream: TextIO) -> None:
    """Write the XMLC-repository text format; round-trips exactly through parse."""
    fp, lp = dataset.features.indptr.tolist(), dataset.labels.indptr.tolist()
    labels = list(map(str, dataset.labels.indices.tolist()))
    # every token is formatted in one pass, and the file written at once; repr round-trips
    features = [f"{j}:{v!r}" for j, v in zip(dataset.features.indices.tolist(),
                                             dataset.features.data.tolist())]
    lines = [f"{dataset.n} {dataset.d} {dataset.m}\n"]
    for i in range(dataset.n):
        labs = ",".join(labels[lp[i]:lp[i + 1]])
        feats = " ".join(features[fp[i]:fp[i + 1]])
        lines.append(f"{labs} {feats}".rstrip() + "\n" if labs or feats else " \n")
    stream.write("".join(lines))


def estimate_priors(dataset: SparseDataset, alpha: float = 1.0) -> LabelPriors:
    """Smoothed label priors (count + alpha) / (n + alpha)."""
    if not (np.isfinite(alpha) and alpha >= 0):  # also rejects nan
        raise ValueError("alpha must be finite and >= 0")
    counts = dataset.label_counts()
    priors = (counts + alpha) / (dataset.n + alpha)
    return LabelPriors(counts=counts, priors=priors)


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
