import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xproplab.data import (ParseError, SparseDataset, csr_rows, estimate_priors,
                           imbalance_stats, make_dataset, parse_xmlc_file,
                           write_xmlc_file, LabelPriors)


def parse(text):
    return parse_xmlc_file(io.StringIO(text))


def roundtrip(ds):
    buf = io.StringIO()
    write_xmlc_file(ds, buf)
    return parse(buf.getvalue())


class TestParse:
    def test_basic(self):
        ds = parse("2 3 2\n0,1 0:1.5 2:0.5\n1 1:2.0\n")
        assert ds.n == 2 and ds.d == 3 and ds.m == 2
        assert ds.labels[0].indices.tolist() == [0, 1]
        assert ds.labels[1].indices.tolist() == [1]
        assert ds.features[0].indices.tolist() == [0, 2]
        assert ds.features[0].data.tolist() == [1.5, 0.5]

    def test_empty_label_list(self):
        ds = parse("1 2 2\n 0:1.0\n")
        assert ds.labels[0].nnz == 0
        assert ds.features[0].data.tolist() == [1.0]

    def test_label_out_of_range(self):
        with pytest.raises(ParseError, match=r"label index 5 >= m=2 at line 2"):
            parse("1 2 2\n5 0:1.0\n")

    def test_feature_out_of_range(self):
        with pytest.raises(ParseError, match="feature index"):
            parse("1 2 2\n0 7:1.0\n")

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate label"):
            parse("1 2 3\n1,1 0:1.0\n")

    def test_duplicate_feature(self):
        with pytest.raises(ParseError, match="duplicate feature"):
            parse("1 2 2\n0 0:1.0 0:2.0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("2 3\n")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("1 2 2\n0 0:abc\n")

    def test_truncated(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("3 2 2\n0 0:1.0\n")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ParseError):
            parse("0 1 1\n")

    def test_unsorted_ids_are_sorted(self):
        ds = parse("1 3 3\n2,0 2:0.5 0:1.5\n")
        assert ds.labels[0].indices.tolist() == [0, 2]
        assert ds.features[0].indices.tolist() == [0, 2]
        assert ds.features[0].data.tolist() == [1.5, 0.5]

    def test_crlf_accepted(self):
        ds = parse("1 2 2\r\n0 1:2.0\r\n")
        assert ds.labels[0].indices.tolist() == [0]


def csr(rows, ncols, values=None):
    """CSR matrix from per-row id lists, taken as given (no sorting)."""
    return csr_rows(np.cumsum([0] + [len(r) for r in rows]), [j for r in rows for j in r],
                    values, ncols)


class TestSparseDataset:
    def test_two_csr_fields(self):
        assert [f.name for f in dataclasses.fields(SparseDataset)] == ["features", "labels"]
        ds = SparseDataset(features=csr([[0, 2], []], 3), labels=csr([[1], []], 4))
        assert (ds.n, ds.d, ds.m, ds.total_positives()) == (2, 3, 4, 1)
        assert ds.feature_matrix() is ds.features
        assert ds.label_matrix().tolist() == [[0, 1, 0, 0], [0, 0, 0, 0]]
        assert ds.label_counts().tolist() == [0, 1, 0, 0]
        assert ds.label_counts().dtype == np.int64

    @pytest.mark.parametrize("features, labels, message", [
        ([[1, 0]], [[0]], "feature ids must strictly increase"),
        ([[0, 0]], [[0]], "feature ids must strictly increase"),
        ([[3]], [[0]], r"feature ids must lie in \[0, d=3\)"),
        ([[-1]], [[0]], r"feature ids must lie in \[0, d=3\)"),
        ([[0]], [[2, 1]], "label ids must strictly increase"),
        ([[0]], [[1, 1]], "label ids must strictly increase"),
        ([[0]], [[7]], r"label ids must lie in \[0, m=3\)"),
        ([[0], [1]], [[0]], "same number of rows"),
    ], ids=["feature_unsorted", "feature_duplicate", "feature_out_of_range",
            "feature_negative", "label_unsorted", "label_duplicate", "label_out_of_range",
            "row_counts"])
    def test_rejects_bad_ids(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            SparseDataset(features=csr(features, 3), labels=csr(labels, 3))

    def test_rejects_empty_shapes_and_non_csr(self):
        with pytest.raises(ValueError, match="n, d and m"):
            SparseDataset(features=csr([], 3), labels=csr([], 3))
        with pytest.raises(ValueError, match="n, d and m"):
            SparseDataset(features=csr([[0]], 1), labels=csr([[]], 0))
        with pytest.raises(ValueError, match="csr_matrix"):
            SparseDataset(features=csr([[0]], 1).tocoo(), labels=csr([[0]], 1))
        with pytest.raises(ValueError, match="label values"):
            SparseDataset(features=csr([[0]], 1), labels=csr([[0]], 1, values=[2.0]))

    @pytest.mark.parametrize("features, labels, m", [
        ([(np.array([0, 0]), np.array([1.0, 2.0]))], [[0]], 1),
        ([(np.array([1, 0]), np.array([1.0, 2.0]))], [[0]], 1),
        ([(np.array([2]), np.array([1.0]))], [[0]], 1),
        ([{0: 1.0}], [[7]], 1),
        ([{0: 1.0}], [[-1]], 2),
        ([{0: 1.0}], [[1, 1]], 2),
    ], ids=["feature_duplicate", "feature_unsorted", "feature_out_of_range",
            "label_out_of_range", "label_negative", "label_duplicate"])
    def test_make_dataset_rejects_bad_ids(self, features, labels, m):
        with pytest.raises(ValueError, match="ids must"):
            make_dataset(features, labels, d=2, m=m)

    def test_equality_compares_shapes_and_entries(self):
        ds = make_dataset([{0: 1.0}, {}], [[0], []], d=2, m=2)
        assert ds == make_dataset([{0: 1.0}, {}], [[0], []], d=2, m=2)
        assert ds != make_dataset([{0: 1.0}, {}], [[0], []], d=3, m=2)
        assert ds != make_dataset([{0: 1.0}, {}], [[0], []], d=2, m=3)
        assert ds != make_dataset([{0: 2.0}, {}], [[0], []], d=2, m=2)
        assert ds != make_dataset([{1: 1.0}, {}], [[0], []], d=2, m=2)
        assert ds != make_dataset([{0: 1.0}, {}], [[], [0]], d=2, m=2)


class TestWrite:
    def test_roundtrip_simple(self):
        ds = parse("2 3 2\n0,1 0:1.5 2:0.5\n1 1:2.0\n")
        assert roundtrip(ds) == ds

    def test_empty_labels_line_starts_with_space(self):
        ds = make_dataset([{0: 1.0}], [[]], d=2, m=2)
        buf = io.StringIO()
        write_xmlc_file(ds, buf)
        assert buf.getvalue().splitlines()[1].startswith(" ")

    def test_binary64_roundtrip(self):
        v = 0.1 + 0.2  # not exactly representable in decimal
        ds = make_dataset([{0: v}], [[0]], d=1, m=1)
        assert roundtrip(ds).features[0].data[0] == v


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_roundtrip_property(data):
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 5))
    feats, labs = [], []
    for _ in range(n):
        f_idx = data.draw(st.sets(st.integers(0, d - 1), max_size=d))
        feats.append({i: data.draw(st.floats(-1e6, 1e6, allow_nan=False))
                      for i in f_idx})
        labs.append(data.draw(st.sets(st.integers(0, m - 1), max_size=m)))
    ds = make_dataset(feats, labs, d=d, m=m)
    assert roundtrip(ds) == ds


class TestPriors:
    def test_zero_count_smoothed(self):
        ds = make_dataset([{0: 1.0}] * 4, [[]] * 4, d=1, m=1)
        priors = estimate_priors(ds, alpha=1.0)
        assert priors.priors[0] == pytest.approx(1 / 5)

    def test_relative_frequency_alpha_zero(self):
        labs = [[0]] * 2 + [[]] * 18
        ds = make_dataset([{0: 1.0}] * 20, labs, d=1, m=1)
        priors = estimate_priors(ds, alpha=0.0)
        assert priors.priors[0] == pytest.approx(0.1)

    def test_smoothing_formula(self):
        labs = [[0]] * 5 + [[]] * 15
        ds = make_dataset([{0: 1.0}] * 20, labs, d=1, m=1)
        priors = estimate_priors(ds, alpha=2.0)
        assert priors.priors[0] == pytest.approx(7 / 22)

    def test_negative_alpha_rejected(self):
        ds = make_dataset([{0: 1.0}], [[0]], d=1, m=1)
        with pytest.raises(ValueError):
            estimate_priors(ds, alpha=-1.0)


class TestImbalanceStats:
    def test_two_label_arithmetic(self):
        priors = LabelPriors(m=2, counts=np.array([50, 1]),
                             priors=np.array([0.5, 0.005]), smoothing=0.0)
        stats = imbalance_stats(priors)
        assert stats.ilir == pytest.approx(100.0)
        assert stats.min_ir == pytest.approx(1.0)

    def test_pos80_brute_force_scan(self):
        counts = np.array([8, 1, 1])
        priors = LabelPriors(m=3, counts=counts, priors=counts / 10, smoothing=0.0)
        # brute-force over all prefix sizes
        sorted_desc = np.sort(counts)[::-1]
        expected = min(c for c in range(1, 4)
                       if sorted_desc[:c].sum() >= 0.8 * counts.sum()) / 3
        stats = imbalance_stats(priors)
        assert stats.pos80 == pytest.approx(expected) == pytest.approx(1 / 3)

    def test_uniform_priors(self):
        m = 7
        priors = LabelPriors(m=m, counts=np.full(m, 3),
                             priors=np.full(m, 0.1), smoothing=0.0)
        stats = imbalance_stats(priors)
        assert stats.ilir == pytest.approx(1.0)
        assert stats.pos80 == pytest.approx(int(np.ceil(0.8 * m)) / m)

    @pytest.mark.parametrize("m", [3, 10, 50])
    def test_pos80_matches_brute_force(self, m):
        rng = np.random.default_rng(m)
        counts = rng.integers(1, 100, m)
        priors = LabelPriors(m=m, counts=counts,
                             priors=counts / counts.sum(), smoothing=0.0)
        sorted_desc = np.sort(counts)[::-1]
        expected = min(c for c in range(1, m + 1)
                       if sorted_desc[:c].sum() >= 0.8 * counts.sum()) / m
        assert imbalance_stats(priors).pos80 == pytest.approx(expected)

    def test_zero_prior_rejected(self):
        priors = LabelPriors(m=2, counts=np.array([5, 0]),
                             priors=np.array([0.5, 0.0]), smoothing=0.0)
        with pytest.raises(ValueError, match="ILIR"):
            imbalance_stats(priors)
