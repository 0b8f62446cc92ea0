import dataclasses
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xproplab.data import (_IS_SPACE, Csr, ParseError, SparseDataset, _row_order, csr_rows,
                           estimate_priors, imbalance_stats, parse_xmlc_file, write_xmlc_file,
                           LabelPriors)

from _data import make_dataset, parse_xmlc_per_token, row


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
        assert row(ds.labels, 0)[0] == [0, 1]
        assert row(ds.labels, 1)[0] == [1]
        assert row(ds.features, 0) == ([0, 2], [1.5, 0.5])

    def test_empty_label_list(self):
        ds = parse("1 2 2\n 0:1.0\n")
        assert row(ds.labels, 0) == ([], [])
        assert row(ds.features, 0)[1] == [1.0]

    def test_empty_input(self):
        with pytest.raises(ParseError, match="^empty input: missing header$") as exc:
            parse("")
        assert (exc.value.line, exc.value.reason) == (1, "empty input: missing header")

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

    @pytest.mark.parametrize("header, reason", [
        ("+1 2 2", "non-integer field"), ("1 \u0662 2", "non-integer field"),
        ("1 1_0 2", "non-integer field"), ("1 2.0 2", "non-integer field"),
        ("-1 2 2", "n, d, m must be >= 1"),
    ], ids=["plus", "arabic_indic", "underscore", "decimal_point", "negative"])
    def test_header_fields_are_ascii_digits(self, header, reason):
        # int() reads the first three; header fields follow the id grammar
        with pytest.raises(ParseError, match=f"^malformed header at line 1: {reason}$"):
            parse(header + "\n0 0:1.0\n")

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
        assert row(ds.labels, 0)[0] == [0, 2]
        assert row(ds.features, 0) == ([0, 2], [1.5, 0.5])

    def test_crlf_accepted(self):
        ds = parse("1 2 2\r\n0 1:2.0\r\n")
        assert row(ds.labels, 0)[0] == [0]

    @pytest.mark.parametrize("text, message", [
        ("1 2 2\n\u0661 0:1.0\n", "non-numeric label at line 2"),
        ("1 2 20\n1_0 0:1.0\n", "non-numeric label at line 2"),
        ("1 2 2\n+1 0:1.0\n", "non-numeric label at line 2"),
        ("1 2 2\n1,\t0 0:1.0\n", "non-numeric label at line 2"),
        ("1 2 2\n-0 0:1.0\n", "negative label index at line 2"),
        ("1 2 2\n0 \u0661:1.0\n", "non-numeric value in '\u0661:1.0' at line 2"),
        ("1 20 2\n0 1_0:1.0\n", "non-numeric value in '1_0:1.0' at line 2"),
        ("1 2 2\n0 +1:1.0\n", "non-numeric value in '+1:1.0' at line 2"),
        ("1 2 2\n0 -0:1.0\n", "negative feature index at line 2"),
    ], ids=["arabic_indic_label", "underscore_label", "plus_label", "tab_in_label",
            "minus_zero_label", "arabic_indic_feature", "underscore_feature", "plus_feature",
            "minus_zero_feature"])
    def test_ids_are_ascii_digits(self, text, message):
        # int() reads all of these; an id is ASCII decimal digits and nothing else
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)

    @pytest.mark.parametrize("text", [
        # (row + 1) * d passes 2**63 on the third row: duplicates by lexsort
        "3 4000000000000000000 2\n0\n0\n1 3999999999999999999:1 3999999999999999999:2\n",
        "3 4000000000000000000 2\n0\n0\n1 3999999999999999999:1 399999999999999999:2\n",
        "1 9223372036854775807 5\n1 9223372036854775806:1\n",
        "1 5 5\n1 18446744073709551617:1\n",
        "1 5 5\n99999999999999999999999999 0:1\n",
        "1 5 5\n" + "0" * 40 + "4 " + "0" * 40 + "2:1\n",
        "1 3 20000000000000000000\n9223372036854775808 0:1.0\n",
        "1 20000000000000000000 5\n1 10000000000000000000:1.0\n",
    ], ids=["repeat_past_2**63", "distinct_past_2**63", "int64_max_d", "past_2**64",
            "long_label", "leading_zeros", "label_2**63_under_m", "feature_10**19_under_d"])
    def test_long_ids_match_the_per_token_parser(self, text):
        assert outcome(parse_xmlc_file, text) == outcome(parse_xmlc_per_token, text)

    @pytest.mark.parametrize("text, message", [
        ("1 3 20000000000000000000\n9223372036854775808 0:1.0\n",
         "label index 9223372036854775808 >= 2**63 at line 2"),
        ("2 3 20000000000000000000\n0\n1,9223372036854775808 0:1.0\n",
         "label index 9223372036854775808 >= 2**63 at line 3"),
        ("1 20000000000000000000 5\n1 9223372036854775808:1.0\n",
         "feature index 9223372036854775808 >= 2**63 at line 2"),
        ("1 20000000000000000000 5\n1 0:1.0 10000000000000000000:1.0\n",
         "feature index 10000000000000000000 >= 2**63 at line 2"),
    ], ids=["label", "label_line_3", "feature", "feature_10**19"])
    def test_ids_past_int64_are_rejected_whatever_m_and_d(self, text, message):
        # ids are stored as int64: 2**63 fits under these headers' m and d, not in an id
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)

    def test_int64_max_ids_parse(self):
        ds = parse("1 3 20000000000000000000\n9223372036854775807 0:1.0\n")
        assert row(ds.labels, 0)[0] == [2**63 - 1] and ds.m == 20000000000000000000
        ds = parse("1 20000000000000000000 5\n1 9223372036854775807:1.0\n")
        assert row(ds.features, 0) == ([2**63 - 1], [1.0])

    @pytest.mark.parametrize("d", ["9", "9223372036854775807", "10000000000000000000"],
                             ids=["small", "int64_max", "past_2**63"])
    def test_each_row_is_ordered_and_checked_alone_at_every_width(self, d):
        # past int64, row * d + id keys would overflow: order is kept row by row
        ds = parse(f"2 {d} 5\n1 0:1.0 2:1.0\n2 8:1 1:2\n")
        assert (row(ds.features, 0), row(ds.features, 1)) == (([0, 2], [1.0, 1.0]),
                                                              ([1, 8], [2.0, 1.0]))
        with pytest.raises(ParseError, match="^duplicate feature index at line 3$"):
            parse(f"2 {d} 5\n1 0:1.0\n2 8:1 8:2\n")

    def test_values_keep_the_float_grammar(self):
        ds = parse("1 3 1\n0 0:1_0 1:\u0661.5 2:+2e-1\n")
        assert row(ds.features, 0)[1] == [10.0, 1.5, 0.2]

    def test_error_names_its_line_and_reason(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 2\n0 0:1.0\n1 1:nan\n")
        assert (str(exc.value), exc.value.line, exc.value.reason) == \
            ("non-finite value in '1:nan' at line 3", 3, "non-finite value in '1:nan'")
        with pytest.raises(ParseError) as exc:
            parse("3 2 2\n0 0:1.0\n")
        assert (exc.value.line, exc.value.reason) == \
            (3, "unexpected end of input: expected 3 instances")

    def test_whitespace_table_is_str_isspace(self):
        # feature tokens split where str.split() does, at every code point
        every = np.arange(sys.maxunicode + 1)
        assert np.flatnonzero(np.take(_IS_SPACE, every, mode="clip")).tolist() == \
            [c for c in every.tolist() if chr(c).isspace()]


# whitespace str.split() separates feature tokens at, ASCII and not
SPACES = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003", "\u3000"]
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["1", "-2.5", ".5", "5.", "+1e-3", "1E2", "-0.0", "1_0",
                                    "\u0661.5", "007"]))
BAD_VALUES = ["abc", "", "1:2", "1e", "--1", "0x10", "nan", "inf", "-inf", "NaN", "Infinity",
              "1e400", "-1e400", "nan(1)"]


@st.composite
def xmlc_texts(draw):
    """XMLC text: valid rows, then zero or more faults of every kind, a truncated
    body or lines after the n-th instance.  Ids stay inside the grammar both
    parsers share: no '+', '_', non-ASCII digits, '-0' or spaces in an id."""
    n, d, m = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    no_features = draw(st.booleans())
    rows = []
    for _ in range(n):
        labels = [str(j) for j in draw(st.lists(st.integers(0, m - 1), unique=True))]
        features = [] if no_features else [
            f"{i}:{draw(VALUES)}" for i in draw(st.lists(st.integers(0, d - 1), unique=True))]
        rows.append((labels, features))
    for _ in range(draw(st.integers(0, 3))):
        labels, features = rows[draw(st.integers(0, n - 1))]
        repeat = features[0].partition(":")[0] if features else "0"
        where, token = draw(st.sampled_from([
            (labels, str(m)), (labels, str(m + 7)), (labels, "-1"), (labels, "x"),
            (labels, ""), (labels, "1.5"), (labels, "1e2"),
            (features, "7"), (features, "abc"), (features, ":1.0"), (features, "a:1"),
            (features, "1.0:2"), (features, "-1:1.0"), (features, "-3:x"),
            (features, f"{d}:1.0"), (features, f"{d + 5}:nan")]
            + [(labels, labels[0] if labels else "0"), (features, f"{repeat}:2.0"),
               (features, "-2:0.5")] * 4
            + [(features, f"0:{v}") for v in BAD_VALUES]))
        where.insert(draw(st.integers(0, len(where))), token)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{n} {d} {m}"]
    for labels, features in rows:
        line = ",".join(labels)
        if features or draw(st.booleans()):
            gaps = [draw(st.sampled_from(SPACES)) for _ in range(len(features) + 1)]
            line += " " + "".join(g + f for g, f in zip(gaps, features)) + gaps[-1]
        lines.append(line)
    cut = draw(st.sampled_from([0, 0, 0, 1, 2]))
    lines = lines[:max(1, len(lines) - cut)]
    lines += draw(st.sampled_from([[], ["garbage"], ["0 x:y", "-1"]]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def outcome(parser, text):
    try:
        return parser(io.StringIO(text))
    except ParseError as exc:
        return str(exc), exc.line, type(exc.line)


@settings(max_examples=300, deadline=None)
@given(xmlc_texts())
def test_parse_matches_the_per_token_parser(text):
    assert outcome(parse_xmlc_file, text) == outcome(parse_xmlc_per_token, text)


@st.composite
def row_ids(draw):
    """(rows, ids, bound): nondecreasing rows, each with ids below ``bound`` (and
    2**63), bounds around 2**61 to 2**64 so that row * bound + id straddles int64."""
    bound = draw(st.sampled_from([2**61, 2**62, 2**63, 2**64])) + draw(st.integers(-2, 2))
    top = min(bound, 2**63) - 1
    ids = st.one_of(st.integers(0, 2), st.integers(top - 2, top))  # repeats are common
    entries = draw(st.lists(st.tuples(st.integers(0, 4), ids), min_size=1, max_size=12))
    entries.sort(key=lambda entry: entry[0])  # stable: ids keep their order within a row
    rows, ids = zip(*entries)
    return np.array(rows, np.int64), np.array(ids, np.int64), bound


@settings(max_examples=300, deadline=None)
@given(row_ids())
def test_row_order_is_lexsort_and_repeats_are_per_row(case):
    rows, ids, bound = case
    order, repeats = _row_order(rows, ids, bound)
    assert order.tolist() == np.lexsort((ids, rows)).tolist()
    expected = []  # each row once per id that equals the one before it, sorted
    for r in sorted(set(rows.tolist())):
        sorted_ids = sorted(ids[rows == r].tolist())
        expected += [r] * sum(a == b for a, b in zip(sorted_ids, sorted_ids[1:]))
    assert repeats.tolist() == expected


def csr(rows, ncols, values=None):
    """CSR matrix from per-row id lists, taken as given (no sorting)."""
    return csr_rows(np.cumsum([0] + [len(r) for r in rows]), [j for r in rows for j in r],
                    values, ncols)


class TestSparseDataset:
    def test_two_csr_fields(self):
        assert [f.name for f in dataclasses.fields(SparseDataset)] == ["features", "labels"]
        ds = SparseDataset(features=csr([[0, 2], []], 3), labels=csr([[1], []], 4))
        assert (ds.n, ds.d, ds.m, ds.total_positives()) == (2, 3, 4, 1)
        assert isinstance(ds.features, Csr) and isinstance(ds.labels, Csr)
        X = ds.feature_matrix()  # a scipy.sparse.csr_matrix of the same rows
        assert X.shape == ds.features.shape
        assert [X.indptr.tolist(), X.indices.tolist(), X.data.tolist()] == \
            [ds.features.indptr.tolist(), ds.features.indices.tolist(), ds.features.data.tolist()]
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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_accepts_exactly_the_rows_whose_ids_strictly_increase(self, data):
        # widths up to int64's largest, with ids near the width in adjacent rows,
        # where flat row * width + id keys would overflow
        width = data.draw(st.integers(1, 6) | st.integers(2**62, 2**63 - 1), label="width")
        ids = st.integers(0, min(width, 3) - 1) | st.integers(max(width - 3, 0), width - 1)
        rows = data.draw(st.lists(st.lists(ids, max_size=4), min_size=1, max_size=5))
        increasing = all(a < b for r in rows for a, b in zip(r, r[1:]))
        mat = csr(rows, width)
        for fields in ({"features": mat, "labels": csr([[0]] * len(rows), 1)},
                       {"features": csr([[0]] * len(rows), 1), "labels": mat}):
            try:
                SparseDataset(**fields)
            except ValueError as exc:
                assert not increasing and str(exc).endswith(
                    "ids must strictly increase within each row"), rows
            else:
                assert increasing, rows

    def test_rejects_empty_shapes_and_non_csr(self):
        with pytest.raises(ValueError, match="n, d and m"):
            SparseDataset(features=csr([], 3), labels=csr([], 3))
        with pytest.raises(ValueError, match="n, d and m"):
            SparseDataset(features=csr([[0]], 1), labels=csr([[]], 0))
        ds = SparseDataset(features=csr([[0]], 1), labels=csr([[0]], 1))
        with pytest.raises(ValueError, match="^features must be a Csr, got csr_matrix$"):
            SparseDataset(features=ds.feature_matrix(), labels=ds.labels)  # a scipy matrix
        with pytest.raises(ValueError, match="label values"):
            SparseDataset(features=csr([[0]], 1), labels=csr([[0]], 1, values=[2.0]))

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.complex128, np.float16,
                                       np.float32],
                             ids=["int64", "bool", "complex128", "float16", "float32"])
    def test_refuses_feature_values_that_are_not_float64(self, dtype):
        good = csr([[0, 2], [], [1]], 3)
        labels = csr([[0], [], []], 1)
        bad = dataclasses.replace(good, data=good.data.astype(dtype))
        with pytest.raises(ValueError, match=f"^feature values must be float64, "
                                             f"got {np.dtype(dtype)}$"):
            SparseDataset(features=bad, labels=labels)

    # each breaks one rule of the CSR layout in the features [[0, 2], [], [1]] (d = 3)
    @pytest.mark.parametrize("change, message", [
        ({"indptr": np.array([[0, 2, 2, 3]])}, "must be 1-D arrays"),
        ({"indices": np.array([[0, 2, 1]])}, "must be 1-D arrays"),
        ({"data": np.ones((3, 1))}, "must be 1-D arrays"),
        ({"indptr": [0, 2, 2, 3]}, "must be 1-D arrays"),
        ({"indptr": np.array([0.0, 2.0, 2.0, 3.0])}, "must hold integers"),
        ({"indices": np.array([0.0, 2.0, 1.0])}, "must hold integers"),
        ({"indptr": np.array([0, 2, 3])}, r"indptr must have n \+ 1 = 4 entries, got 3"),
        ({"indptr": np.array([1, 2, 2, 3])}, r"indptr must rise from 0 to len\(indices\)=3"),
        ({"indptr": np.array([0, 2, 1, 3])}, "without decreasing"),
        ({"indptr": np.array([0, 2, 2, 2])}, r"indptr must rise from 0 to len\(indices\)=3"),
        ({"data": np.ones(2)}, "indices and data must have the same length, got 3 and 2"),
    ], ids=["indptr_2d", "indices_2d", "data_2d", "indptr_list", "indptr_float",
            "indices_float", "indptr_length", "indptr_start", "indptr_decreasing",
            "indptr_end", "data_length"])
    def test_rejects_a_malformed_csr(self, change, message):
        good = csr([[0, 2], [], [1]], 3)
        labels = csr([[0], [], []], 1)
        SparseDataset(features=good, labels=labels)
        with pytest.raises(ValueError, match=f"^feature .*{message}"):
            SparseDataset(features=dataclasses.replace(good, **change), labels=labels)

    def test_csr_toarray_matches_the_rows(self):
        mat = csr([[0, 2], [], [1]], 3, values=[1.5, -0.0, 2.0])
        dense = mat.toarray()
        assert dense.tolist() == [[1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
        assert not np.signbit(dense).any()  # a stored -0.0 reads 0.0, as in scipy
        assert mat.nnz == 3

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
        assert row(roundtrip(ds).features, 0)[1] == [v]


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        ds = make_dataset([{0: 1.0}], [[0]], d=1, m=1)
        with pytest.raises(ValueError, match=r"^alpha must be finite and >= 0$"):
            estimate_priors(ds, alpha=alpha)

    def test_counts_and_priors_must_agree_in_length(self):
        assert LabelPriors(counts=np.array([5, 0]), priors=np.array([0.5, 0.1])).m == 2
        with pytest.raises(ValueError, match="same length"):
            LabelPriors(counts=np.array([5, 0]), priors=np.array([0.5, 0.1, 0.2]))


class TestImbalanceStats:
    def test_two_label_arithmetic(self):
        priors = LabelPriors(counts=np.array([50, 1]), priors=np.array([0.5, 0.005]))
        stats = imbalance_stats(priors)
        assert stats.ilir == pytest.approx(100.0)
        assert stats.min_ir == pytest.approx(1.0)

    def test_pos80_brute_force_scan(self):
        counts = np.array([8, 1, 1])
        priors = LabelPriors(counts=counts, priors=counts / 10)
        # brute-force over all prefix sizes
        sorted_desc = np.sort(counts)[::-1]
        expected = min(c for c in range(1, 4)
                       if sorted_desc[:c].sum() >= 0.8 * counts.sum()) / 3
        stats = imbalance_stats(priors)
        assert stats.pos80 == pytest.approx(expected) == pytest.approx(1 / 3)

    def test_uniform_priors(self):
        m = 7
        priors = LabelPriors(counts=np.full(m, 3), priors=np.full(m, 0.1))
        stats = imbalance_stats(priors)
        assert stats.ilir == pytest.approx(1.0)
        assert stats.pos80 == pytest.approx(int(np.ceil(0.8 * m)) / m)

    @pytest.mark.parametrize("m", [3, 10, 50])
    def test_pos80_matches_brute_force(self, m):
        rng = np.random.default_rng(m)
        counts = rng.integers(1, 100, m)
        priors = LabelPriors(counts=counts, priors=counts / counts.sum())
        sorted_desc = np.sort(counts)[::-1]
        expected = min(c for c in range(1, m + 1)
                       if sorted_desc[:c].sum() >= 0.8 * counts.sum()) / m
        assert imbalance_stats(priors).pos80 == pytest.approx(expected)

    def test_zero_prior_rejected(self):
        priors = LabelPriors(counts=np.array([5, 0]), priors=np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="ILIR"):
            imbalance_stats(priors)

    def test_no_positives_rejected(self):
        # smoothed priors are positive although no label has a positive
        priors = LabelPriors(counts=np.zeros(3, dtype=np.int64), priors=np.full(3, 0.1))
        with pytest.raises(ValueError, match="^Pos-80% undefined: no positive assignments$"):
            imbalance_stats(priors)
