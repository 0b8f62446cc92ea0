from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xproplab.metrics import (PredictionMatrix, _rank, _top_k_matrix, abandonment_at_k,
                              check_unbiased_estimator_exists, coverage_at_k,
                              exact_observation_distribution,
                              independent_mask_distribution, macro_f_beta,
                              ndcg_at_k, normalized_psp_at_k, precision_at_k,
                              ps_ndcg_at_k, ps_precision_at_k, ps_recall_at_k,
                              recall_at_k, weighted_precision_at_k)
from xproplab.propensity import PropensityAssignment
from xproplab.train import sigmoid

from _data import label_sets


def assignment(p):
    p = np.asarray(p, dtype=np.float64)
    return PropensityAssignment(p)


def stable_top_k(scores, k):
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


class TestTopK:
    def test_tie_broken_by_lower_index(self):
        scores = np.array([[0.1, 0.9, 0.9]])
        assert _top_k_matrix(scores, 2).tolist() == [[1, 2]] == stable_top_k(scores, 2).tolist()

    def test_full_permutation(self):
        scores = np.array([[0.3, 0.1, 0.5, 0.2]])
        out = _top_k_matrix(scores, 4)
        assert out.tolist() == [[2, 0, 3, 1]] == stable_top_k(scores, 4).tolist()

    def test_unique_max_first(self):
        scores = np.array([[0.2, 5.0, 0.1, 0.3]])
        for k in range(1, 5):
            out = _top_k_matrix(scores, k)
            assert out[0, 0] == 1 and out.tolist() == stable_top_k(scores, k).tolist()

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="1 <= k <= m"):
            _top_k_matrix(np.array([[1.0, 2.0]]), 3)
        with pytest.raises(ValueError, match="1 <= k <= m"):
            _top_k_matrix(np.array([[1.0, 2.0]]), 0)


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        labels = label_sets([[0]], 3)
        with pytest.raises(ValueError, match="scores must be finite"):
            precision_at_k(labels, PredictionMatrix(np.array([[0.2, bad, 0.5]])), 1)
        with pytest.raises(ValueError, match="scores must be finite"):
            macro_f_beta(labels, PredictionMatrix(np.array([[0.2, bad, 0.5]])), k=1)


SCORE_VALUES = {
    "tie_heavy_integers": st.integers(-2, 2).map(float),
    "signed_zeros": st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    # sigmoid(z) is exactly 1.0 for z above about 37
    "saturated": st.floats(-5, 60).map(lambda z: float(sigmoid(np.float64(z)))),
    # subnormals up to +-1e308, with both signed zeros and repeats
    "wide_floats": st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                              1e308, -1e308]),
                             st.floats(-1e308, 1e308)),
}


class TestTopKSelection:
    """The one-path selection equals the first k of a stable argsort."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(sorted(SCORE_VALUES)))
    def test_matches_stable_argsort(self, data, kind):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 12))
        scores = np.array(data.draw(st.lists(st.lists(SCORE_VALUES[kind], min_size=m,
                                                      max_size=m),
                                             min_size=n, max_size=n)))
        for k in range(1, m + 1):
            assert _top_k_matrix(scores, k).tolist() == stable_top_k(scores, k).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ties_straddling_rank_k(self, data):
        # per row: `above` entries over the tie, then ties that cross rank k
        m = data.draw(st.integers(2, 12))
        k = data.draw(st.integers(1, m - 1))
        rows = []
        for _ in range(data.draw(st.integers(1, 5))):
            above = data.draw(st.integers(0, k - 1))
            tied = data.draw(st.integers(k - above + 1, m - above))
            values = [2.0] * above + [1.0] * tied + [0.0] * (m - above - tied)
            rows.append(np.array(values)[data.draw(st.permutations(range(m)))])
        scores = np.array(rows)
        assert _top_k_matrix(scores, k).tolist() == stable_top_k(scores, k).tolist()


class TestVanillaMetrics:
    def test_precision_count_ratio(self):
        labels = label_sets([[1, 3]], 5)
        scores = PredictionMatrix(np.array([[0.0, 3.0, 2.0, 1.0, -1.0]]))  # top-3 = {1, 2, 3}
        assert precision_at_k(labels, scores, 3).value == pytest.approx(2 / 3)

    def test_perfect_ndcg(self):
        labels = label_sets([[0, 1]], 4)
        scores = PredictionMatrix(np.array([[0.9, 0.8, 0.1, 0.0]]))
        assert ndcg_at_k(labels, scores, 2).value == pytest.approx(1.0)

    def test_recall_brute_force_top2_sets(self):
        labels = label_sets([[0]], 3)
        scores = PredictionMatrix(np.array([[3.0, 2.0, 1.0]]))
        # oracle: enumerate every 2-subset, pick the one the scores select
        chosen = set(stable_top_k(scores.scores, 2)[0].tolist())
        expected = len(chosen & {0}) / 1
        assert recall_at_k(labels, scores, 2).value == pytest.approx(expected) == 1.0

    def test_recall_skips_empty_instances(self):
        labels = label_sets([[0], []], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        mv = recall_at_k(labels, scores, 1)
        assert mv.skipped == 1 and mv.n_evaluated == 1

    def test_ndcg_natural_log_discount(self):
        labels = label_sets([[1]], 2)
        scores = PredictionMatrix(np.array([[0.9, 0.8]]))  # hit at rank 2
        expected = (1 / np.log(3)) / (1 / np.log(2) + 1 / np.log(3))
        assert ndcg_at_k(labels, scores, 2).value == pytest.approx(expected)

    def test_monotone_score_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random((5, 6))
        labels = label_sets([rng.choice(6, size=2, replace=False) for _ in range(5)], 6)
        for k in (1, 3):
            a = precision_at_k(labels, PredictionMatrix(scores), k).value
            b = precision_at_k(labels, PredictionMatrix(np.exp(5 * scores)), k).value
            assert a == pytest.approx(b)


class TestPsMetrics:
    def test_single_instance_inverse(self):
        labels = label_sets([[0]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0]]))
        p = assignment([0.25, 1.0])
        assert ps_precision_at_k(labels, scores, 1, p).value == pytest.approx(4.0)

    def test_reduces_to_precision_at_unit_propensity(self):
        rng = np.random.default_rng(1)
        scores = PredictionMatrix(rng.random((20, 8)))
        labels = label_sets([rng.choice(8, size=3, replace=False) for _ in range(20)], 8)
        p = assignment(np.ones(8))
        for k in (1, 2, 5):
            assert ps_precision_at_k(labels, scores, k, p).value == \
                pytest.approx(precision_at_k(labels, scores, k).value)

    def test_hand_mean(self):
        labels = label_sets([[0], [1]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        p = assignment([0.5, 1.0])
        assert ps_precision_at_k(labels, scores, 1, p).value == pytest.approx(1.5)

    def test_ps_recall_divides_by_observed_count(self):
        labels = label_sets([[0, 1]], 3)
        scores = PredictionMatrix(np.array([[1.0, 0.9, 0.0]]))
        p = assignment([0.5, 1.0, 1.0])
        assert ps_recall_at_k(labels, scores, 2, p).value == pytest.approx((2 + 1) / 2)

    def test_ps_ndcg_unit_propensity_reduction(self):
        rng = np.random.default_rng(2)
        scores = PredictionMatrix(rng.random((10, 6)))
        labels = label_sets([rng.choice(6, size=2, replace=False) for _ in range(10)], 6)
        p = assignment(np.ones(6))
        assert ps_ndcg_at_k(labels, scores, 3, p).value == \
            pytest.approx(ndcg_at_k(labels, scores, 3).value)


class TestNormalizedPsp:
    def test_attains_max(self):
        labels = label_sets([[0, 2]], 3)
        scores = PredictionMatrix(np.array([[0.9, 0.0, 0.8]]))
        p = assignment([0.5, 1.0, 0.25])
        assert normalized_psp_at_k(labels, scores, 2, p).value == pytest.approx(1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            scores = PredictionMatrix(rng.random((6, 5)))
            labels = [rng.choice(5, size=rng.integers(0, 4), replace=False)
                      for _ in range(6)]
            if not any(len(l) for l in labels):
                continue
            p = assignment(rng.uniform(0.05, 1.0, 5))
            v = normalized_psp_at_k(label_sets(labels, 5), scores, 2, p).value
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_unnormalized_can_exceed_one_while_normalized_cannot(self):
        labels = label_sets([[0]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0]]))
        p = assignment([0.25, 1.0])
        raw = ps_precision_at_k(labels, scores, 1, p).value
        norm = normalized_psp_at_k(labels, scores, 1, p).value
        assert raw == pytest.approx(4.0) and raw > 1.0
        assert norm <= 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ties_in_inverse_propensity_match_the_oracle(self, k):
        # the best k positives of an instance are taken by (row, -1/p), ties in
        # label order; the normalizer's sum is the same whichever tie comes first
        rng = np.random.default_rng(40 + k)
        for trial in range(30):
            n, m = 6, 6
            scores = rng.random((n, m))
            labels = [rng.choice(m, size=rng.integers(1, m + 1), replace=False)
                      for _ in range(n)]
            p = assignment(rng.choice([0.25, 0.5, 1.0], m))
            expected = stable_top_k_oracle(labels, scores, k, p)["NormPSP"]
            got = normalized_psp_at_k(label_sets(labels, m), PredictionMatrix(scores), k, p)
            assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_all_empty_is_error(self):
        with pytest.raises(ValueError, match="normalizer"):
            normalized_psp_at_k(label_sets([[]], 2), PredictionMatrix(np.array([[1.0, 0.0]])),
                                1, assignment([0.5, 0.5]))


class TestWeightedPrecision:
    def test_unit_weights_reduce_to_precision(self):
        rng = np.random.default_rng(4)
        scores = PredictionMatrix(rng.random((8, 5)))
        labels = label_sets([rng.choice(5, size=2, replace=False) for _ in range(8)], 5)
        assert weighted_precision_at_k(labels, scores, 2, np.ones(5)).value == \
            pytest.approx(precision_at_k(labels, scores, 2).value)

    def test_inverse_propensity_weights_equal_psp(self):
        rng = np.random.default_rng(5)
        scores = PredictionMatrix(rng.random((8, 5)))
        labels = label_sets([rng.choice(5, size=2, replace=False) for _ in range(8)], 5)
        p = assignment(rng.uniform(0.1, 1.0, 5))
        assert weighted_precision_at_k(labels, scores, 2, 1.0 / p.p).value == \
            ps_precision_at_k(labels, scores, 2, p).value

    def test_rarity_weights_hand_computation(self):
        labels = label_sets([[0], [0], [1]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        w = np.array([1 / 2, 1 / 1])  # inverse label counts
        expected = (0.5 + 0.5 + 1.0) / 3
        assert weighted_precision_at_k(labels, scores, 1, w).value == \
            pytest.approx(expected)


class TestRejectedInput:
    SCORES = PredictionMatrix(np.array([[0.9, 0.5, 0.1], [0.2, 0.3, 0.4]]))

    @pytest.mark.parametrize("metric", [
        lambda labels, scores: recall_at_k(labels, scores, 1),
        lambda labels, scores: ps_recall_at_k(labels, scores, 1, assignment(np.full(3, 0.5))),
    ], ids=["r", "psr"])
    def test_recall_with_no_positive(self, metric):
        with pytest.raises(ValueError, match="^no instance has a positive label$"):
            metric(label_sets([[], []], 3), self.SCORES)

    @pytest.mark.parametrize("w", [[1.0, -0.5, 1.0], [1.0, np.nan, 1.0], [np.inf, 1.0, 1.0]],
                             ids=["negative", "nan", "inf"])
    def test_weights_must_be_finite_and_non_negative(self, w):
        with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
            weighted_precision_at_k(label_sets([[0], [1]], 3), self.SCORES, 1, np.array(w))

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_macro_f_beta_must_be_positive(self, beta):
        with pytest.raises(ValueError, match="^beta must be finite and > 0$"):
            macro_f_beta(label_sets([[0], [1]], 3), self.SCORES, beta, k=1)


class TestWeightLength:
    """A weight or propensity vector must have one entry per score column."""

    SCORES = PredictionMatrix(np.array([[0.9, 0.5, 0.1]]))  # m = 3

    @pytest.mark.parametrize("length", [1, 5])
    @pytest.mark.parametrize("name", ["psp", "psr", "psndcg", "normpsp", "wp"])
    def test_rejected(self, name, length):
        metric = {"psp": ps_precision_at_k, "psr": ps_recall_at_k, "psndcg": ps_ndcg_at_k,
                  "normpsp": normalized_psp_at_k}.get(name)
        p = np.full(length, 0.5)
        labels = label_sets([[0]], 3)
        for k in (1, 2):
            with pytest.raises(ValueError, match=rf"^{length} label weights or propensities "
                                                 r"for m = 3 score columns$"):
                if metric is None:
                    weighted_precision_at_k(labels, self.SCORES, k, p)
                else:
                    metric(labels, self.SCORES, k, assignment(p))


class TestMacroF:
    def test_perfect(self):
        labels = label_sets([[0], [1]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert macro_f_beta(labels, scores, k=1).value == pytest.approx(1.0)

    def test_hand_value(self):
        # each instance predicts its top 1: label 0 for the first, label 1 for the
        # second.  label 0: TP=1 FP=0 FN=1 -> F1 = 2/3 ; label 1: TP=1 FP=0 FN=0 -> F1 = 1
        labels = label_sets([[0], [0, 1]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert macro_f_beta(labels, scores, beta=1.0, k=1).value == \
            pytest.approx((2 / 3 + 1) / 2)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.random((10, 4))
        labels = [rng.choice(4, size=2, replace=False) for _ in range(10)]
        base = macro_f_beta(label_sets(labels, 4), PredictionMatrix(scores), k=2).value
        perm = rng.permutation(4)
        inv = np.argsort(perm)
        permuted_labels = label_sets([inv[l] for l in labels], 4)
        assert macro_f_beta(permuted_labels, PredictionMatrix(scores[:, perm]), k=2).value == \
            pytest.approx(base)


class TestAbandonmentCoverage:
    def test_abandonment_all_hit(self):
        labels = label_sets([[0], [1]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert abandonment_at_k(labels, scores, 1).value == 0.0

    def test_abandonment_no_labels(self):
        scores = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert abandonment_at_k(label_sets([[], []], 2), scores, 1).value == 1.0

    def test_abandonment_direct_count(self):
        labels = label_sets([[0], [1], [1]], 2)
        scores = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        assert abandonment_at_k(labels, scores, 1).value == pytest.approx(2 / 3)

    def test_coverage_count_over_m(self):
        labels = label_sets([[1], [2], [3]], 4)
        scores = PredictionMatrix(np.array([[0, 1.0, 0, 0], [0, 0, 1.0, 0], [1.0, 0, 0, 0]]))
        assert coverage_at_k(labels, scores, 1).value == pytest.approx(0.5)

    def test_coverage_single_label(self):
        assert coverage_at_k(label_sets([[0]], 1), PredictionMatrix(np.array([[1.0]])),
                             1).value == 1.0

    def test_coverage_brute_force(self):
        rng = np.random.default_rng(7)
        scores = rng.random((5, 6))
        labels = [rng.choice(6, size=2, replace=False) for _ in range(5)]
        k = 2
        covered = set()
        for i in range(5):
            tops = set(stable_top_k(scores, k)[i].tolist())
            covered |= tops & set(labels[i].tolist())
        assert coverage_at_k(label_sets(labels, 6), PredictionMatrix(scores), k).value == \
            pytest.approx(len(covered) / 6)


def assert_hits_are_set_membership(sets, scores, k):
    """``_rank``'s hit mask is each row's membership test of its top-k ids
    against its positives, and coverage counts the Python set of hit ids."""
    m = scores.shape[1]
    labels, predictions = label_sets(sets, m), PredictionMatrix(scores)
    tops, hits, *_ = _rank(labels, predictions, k)
    positives = [set(s) for s in sets]
    assert hits.tolist() == [[j in s for j in row] for row, s in zip(tops.tolist(), positives)]
    covered = set().union(*(s.intersection(row) for row, s in zip(tops.tolist(), positives)))
    assert coverage_at_k(labels, predictions, k).value == len(covered) / m


class TestHitLookup:
    """Hits come from one binary search of the top-k keys among the positives'
    sorted keys: every case must equal a per-row set membership test."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_set_membership(self, data):
        n = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(1, 12))
        scores = np.array(data.draw(st.lists(st.lists(SCORE_VALUES["tie_heavy_integers"],
                                                      min_size=m, max_size=m),
                                             min_size=n, max_size=n)))
        sets = data.draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=n, max_size=n))
        for k in range(1, m + 1):
            assert_hits_are_set_membership(sets, scores, k)

    # m = 4 over three rows, ties everywhere: row 1 ranks label 3 last
    SCORES = np.array([[1.0, 1.0, 0.0, 1.0], [2.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("sets", [
        [[], [], []], [[], [1, 2], []], [[0, 3], [], [3]], [[], [], [3]], [[], [3], []],
    ], ids=["no_positive", "middle_row_only", "rows_without_positives",
            "largest_key_only", "last_ranked_positive"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_edge_cases(self, sets, k):
        assert_hits_are_set_membership(sets, self.SCORES, k)

    @pytest.mark.parametrize("k", [1, 4])
    def test_no_positive_anywhere(self, k):
        labels, scores = label_sets([[], [], []], 4), PredictionMatrix(self.SCORES)
        assert precision_at_k(labels, scores, k).value == 0.0
        assert abandonment_at_k(labels, scores, k).value == 1.0
        assert coverage_at_k(labels, scores, k).value == 0.0


AT_K_METRICS = {
    "P": lambda labels, scores, k, p: precision_at_k(labels, scores, k),
    "R": lambda labels, scores, k, p: recall_at_k(labels, scores, k),
    "nDCG": lambda labels, scores, k, p: ndcg_at_k(labels, scores, k),
    "PSP": lambda labels, scores, k, p: ps_precision_at_k(labels, scores, k, p),
    "PSR": lambda labels, scores, k, p: ps_recall_at_k(labels, scores, k, p),
    "PSnDCG": lambda labels, scores, k, p: ps_ndcg_at_k(labels, scores, k, p),
    "NormPSP": lambda labels, scores, k, p: normalized_psp_at_k(labels, scores, k, p),
    "WP": lambda labels, scores, k, p: weighted_precision_at_k(labels, scores, k, 2.0 / p.p),
    "macroF": lambda labels, scores, k, p: macro_f_beta(labels, scores, 1.0, k=k),
    "abandonment": lambda labels, scores, k, p: abandonment_at_k(labels, scores, k),
    "coverage": lambda labels, scores, k, p: coverage_at_k(labels, scores, k),
}


def stable_top_k_oracle(labels, scores, k, p):
    """Every @k metric from first principles, ranking each row by a stable
    argsort of the negated scores (ties go to the lower label index)."""
    n, m = scores.shape
    inv = 1.0 / p.p
    discounts = [1.0 / np.log(r + 2.0) for r in range(k)]
    tops = [[int(j) for j in np.argsort(-scores[i], kind="stable")[:k]] for i in range(n)]
    sets = [set(int(j) for j in lab) for lab in labels]
    hits = [[j in sets[i] for j in tops[i]] for i in range(n)]
    nonempty = [i for i in range(n) if sets[i]]
    out = {
        "P": np.mean([sum(h) / k for h in hits]),
        "nDCG": np.mean([sum(d for d, h in zip(discounts, hs) if h) / sum(discounts)
                         for hs in hits]),
        "PSP": np.mean([sum(inv[j] for j in sets[i] & set(tops[i])) / k for i in range(n)]),
        "PSnDCG": np.mean([sum(d * inv[j] for d, j, h in zip(discounts, tops[i], hits[i]) if h)
                           / sum(discounts) for i in range(n)]),
        "WP": np.mean([sum(2.0 * inv[j] for j in sets[i] & set(tops[i])) / k
                       for i in range(n)]),
        "abandonment": np.mean([0.0 if any(h) else 1.0 for h in hits]),
        "coverage": len(set().union(*(sets[i] & set(tops[i]) for i in range(n)))) / m,
    }
    if nonempty:
        out["R"] = np.mean([sum(hits[i]) / len(sets[i]) for i in nonempty])
        out["PSR"] = np.mean([sum(inv[j] for j in sets[i] & set(tops[i])) / len(sets[i])
                              for i in nonempty])
        best = sum(sum(sorted((inv[j] for j in sets[i]), reverse=True)[:k]) for i in range(n))
        out["NormPSP"] = sum(sum(inv[j] for j in sets[i] & set(tops[i])) for i in range(n)) / best
    f1 = []
    for j in range(m):
        tp = sum(j in sets[i] and j in tops[i] for i in range(n))
        denom = sum(j in s for s in sets) + sum(j in t for t in tops)
        f1.append(2.0 * tp / denom if denom else 0.0)
    out["macroF"] = np.mean(f1)
    return out


class TestTiesAtRankK:
    """Equal scores straddling rank k: every @k metric ranks like a stable argsort."""

    def test_hand_example(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.5]])
        p = assignment([0.5, 1.0, 0.25, 1.0])
        assert _top_k_matrix(scores, 2).tolist() == [[1, 0]] == stable_top_k(scores, 2).tolist()
        hit = {name: fn(label_sets([[0]], 4), PredictionMatrix(scores), 2, p).value
               for name, fn in AT_K_METRICS.items()}
        miss = {name: fn(label_sets([[2]], 4), PredictionMatrix(scores), 2, p).value
                for name, fn in AT_K_METRICS.items()}
        assert hit["P"] == 0.5 and miss["P"] == 0.0
        assert hit["R"] == 1.0 and miss["R"] == 0.0
        assert hit["nDCG"] == pytest.approx((1 / np.log(3)) / (1 / np.log(2) + 1 / np.log(3)))
        assert hit["PSP"] == 1.0 and miss["PSP"] == 0.0
        assert hit["NormPSP"] == 1.0 and miss["NormPSP"] == 0.0
        assert hit["abandonment"] == 0.0 and miss["abandonment"] == 1.0
        assert hit["coverage"] == 0.25 and miss["coverage"] == 0.0
        # label 0 is predicted and relevant; labels 1 and 2 are each one-sided
        assert hit["macroF"] == pytest.approx(1.0 / 4)
        assert miss["macroF"] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_ties_match_stable_oracle(self, k):
        rng = np.random.default_rng(11 + k)
        for trial in range(30):
            n, m = 6, 5
            scores = rng.integers(0, 3, (n, m)).astype(np.float64)
            labels = [rng.choice(m, size=rng.integers(0, 4), replace=False)
                      for _ in range(n)]
            p = assignment(rng.uniform(0.1, 1.0, m))
            expected = stable_top_k_oracle(labels, scores, k, p)
            dataset, predictions = label_sets(labels, m), PredictionMatrix(scores)
            for name, fn in AT_K_METRICS.items():
                if name not in expected:
                    with pytest.raises(ValueError):
                        fn(dataset, predictions, k, p)
                    continue
                assert fn(dataset, predictions, k, p).value == \
                    pytest.approx(expected[name], rel=1e-12, abs=1e-12), name
            assert _top_k_matrix(scores, k).tolist() == stable_top_k(scores, k).tolist()


class TestLabelIdRange:
    """Ids outside [0, m), or repeated within an instance, never reach a metric:
    the SparseDataset that would carry them is rejected, so no id wraps around
    or aliases into the next row's keys."""

    SCORES = np.array([[0.9, 0.5, 0.1], [0.1, 0.5, 0.9]])
    P = assignment([0.5, 1.0, 0.25])

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_rejected(self, name, bad):
        with pytest.raises(ValueError, match=r"^label ids must lie in \[0, m=3\)$"):
            AT_K_METRICS[name](label_sets([[bad, 0], [1]], 3),
                               PredictionMatrix(self.SCORES), 1, self.P)

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    @pytest.mark.parametrize("sets, message", [
        ([[0], [1, 2, 1]], "label ids must strictly increase within each row"),
    ], ids=["repeated"])
    def test_repeated_or_non_integral_id_rejected(self, name, sets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AT_K_METRICS[name](label_sets(sets, 3), PredictionMatrix(self.SCORES), 1, self.P)


class TestInputForms:
    """Every metric takes labels as a SparseDataset and scores as a
    PredictionMatrix, of one n x m."""

    SCORES = np.array([[0.9, 0.5, 0.1], [0.1, 0.5, 0.9]])
    P = assignment([0.5, 1.0, 0.25])

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    @pytest.mark.parametrize("form", ["id_arrays", "csr", "raw_scores"])
    def test_other_forms_raise_type_error(self, name, form):
        dataset, scores = label_sets([[0], [1, 2]], 3), PredictionMatrix(self.SCORES)
        labels, scores, message = {
            "id_arrays": ([np.array([0]), np.array([1, 2])], scores,
                          "labels must be a SparseDataset, got list"),
            "csr": (dataset.labels, scores,
                    f"labels must be a SparseDataset, got {type(dataset.labels).__name__}"),
            "raw_scores": (dataset, self.SCORES,
                           "scores must be a PredictionMatrix, got ndarray"),
        }[form]
        with pytest.raises(TypeError, match=f"^{message}$"):
            AT_K_METRICS[name](labels, scores, 1, self.P)

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    @pytest.mark.parametrize("sets, m", [([[0]], 3), ([[0], [1]], 2), ([[0], [3]], 4)],
                             ids=["n", "m_smaller", "m_larger"])
    def test_shape_mismatch_raises_value_error(self, name, sets, m):
        # a label id at or above the scores' m would alias into the next row's keys
        with pytest.raises(ValueError, match=rf"^labels are n x m = {len(sets)} x {m} "
                                             r"but scores are 2 x 3$"):
            AT_K_METRICS[name](label_sets(sets, m), PredictionMatrix(self.SCORES), 1, self.P)

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scores_are_only_read(self, name, k):
        # PredictionMatrix keeps a float64 array as it is, so a metric that wrote
        # to its scores would write to the caller's array
        scores = np.array([[0.9, 0.5, 0.9], [0.1, 0.5, 0.9]])
        held = scores.copy()
        held.setflags(write=False)
        got = AT_K_METRICS[name](label_sets([[0], [1, 2]], 3), PredictionMatrix(held), k, self.P)
        want = AT_K_METRICS[name](label_sets([[0], [1, 2]], 3), PredictionMatrix(scores), k,
                                  self.P)
        assert got == want and np.array_equal(held, scores)


class TestBruteForceEquivalence:
    """Every dataset-level metric against exhaustive recomputation over all
    C(m, k) candidate prediction sets on a small problem."""

    def test_precision_is_maximal_for_best_set(self):
        rng = np.random.default_rng(8)
        m, k = 6, 2
        labels = [rng.choice(m, size=3, replace=False) for _ in range(10)]
        for i, lab in enumerate(labels):
            lab_set = set(lab.tolist())
            best = max(len(set(c) & lab_set) / k
                       for c in combinations(range(m), k))
            scores = np.zeros((1, m))
            scores[0, lab[:k]] = 1.0
            got = precision_at_k(label_sets([lab], m), PredictionMatrix(scores), k).value
            assert got == pytest.approx(best)

    def test_metric_equals_bruteforce_on_chosen_set(self):
        rng = np.random.default_rng(9)
        m, k = 6, 3
        scores = rng.random((4, m))
        labels = [rng.choice(m, size=2, replace=False) for _ in range(4)]
        p = assignment(rng.uniform(0.2, 1.0, m))
        for i in range(4):
            chosen = frozenset(stable_top_k(scores, k)[i].tolist())
            lab_set = set(labels[i].tolist())
            expected_p = len(chosen & lab_set) / k
            expected_psp = sum(1.0 / p.p[j] for j in chosen & lab_set) / k
            one, row = label_sets([labels[i]], m), PredictionMatrix(scores[i:i + 1])
            assert precision_at_k(one, row, k).value == pytest.approx(expected_p)
            assert ps_precision_at_k(one, row, k, p).value == pytest.approx(expected_psp)


class TestPredictionMatrix:
    """Scores are held as float64: other real dtypes are converted once, exactly."""

    def test_shape_check(self):
        for scores in (np.zeros(3), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError, match="2-D"):
                PredictionMatrix(scores)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PredictionMatrix(np.array([[np.nan, 0.0]]))

    def test_float64_is_kept_without_a_copy(self):
        scores = np.array([[0.2, 0.9]])
        assert PredictionMatrix(scores).scores is scores

    @pytest.mark.parametrize("values, dtype", [
        ([[True, False, True]], np.bool_),
        ([[0.1, 0.7, 0.7]], np.float32),
        ([[0, 5, 3]], np.uint8),
        ([[-3, 0, 2**31 - 1]], np.int32),
        ([[2**60, -2**63, 2**53]], np.int64),
        ([[2**64 - 2**11, 0, 2**53]], np.uint64),
    ], ids=["bool", "float32", "uint8", "int32", "int64_exact", "uint64_exact"])
    def test_real_dtypes_are_converted_exactly(self, values, dtype):
        given = np.array(values, dtype=dtype)
        held = PredictionMatrix(given).scores
        # == between an integer and a float64 array compares in float64, which
        # cannot see a rounding: cast back to the input dtype first
        assert held.dtype == np.float64 and np.array_equal(held.astype(dtype), given)

    @pytest.mark.parametrize("scores, error, message", [
        (np.array([[1 + 0j, 0j]]), TypeError, "got complex128"),
        (np.array([[1.0, 0.0]], dtype=np.longdouble), TypeError, "got float128"),
        (np.array([["a", "b"]]), TypeError, "got <U1"),
        (np.array([[2**60 + 1, 0]], dtype=np.int64), ValueError, "exact in float64"),
        (np.array([[2**53 + 1]], dtype=np.int64), ValueError, "exact in float64"),
        (np.array([[2**63 - 1]], dtype=np.int64), ValueError, "exact in float64"),
        (np.array([[2**64 - 1]], dtype=np.uint64), ValueError, "exact in float64"),
    ], ids=["complex", "longdouble", "text", "int64_2**60+1", "int64_2**53+1", "int64_max",
            "uint64_max"])
    def test_refused(self, scores, error, message):
        if scores.dtype == np.longdouble and np.finfo(np.longdouble).bits <= 64:
            pytest.skip("longdouble is float64 on this platform")
        with pytest.raises(error, match=message):
            PredictionMatrix(scores)

    def test_unsigned_scores_rank_as_their_float_copy(self):
        # negating a uint8 array wraps around, which once ranked these backwards
        labels = label_sets([[1]], 3)
        scores = np.array([[0, 5, 3]], dtype=np.uint8)
        for k in (1, 2, 3):
            got = precision_at_k(labels, PredictionMatrix(scores), k).value
            assert got == precision_at_k(labels, PredictionMatrix(scores.astype(float)), k).value
        assert precision_at_k(labels, PredictionMatrix(scores), 1).value == 1.0


def _with_row(y, row):
    """The 2-label no-noise process with row y replaced."""
    P = np.eye(4)
    P[y] = row
    return P


class TestFeasibilityOracle:
    # rows, columns and loss entries are the label vectors 00, 01, 10, 11
    # abandonment-style loss of predicting both labels: non-decomposable
    LOSS = [1.0, 0.0, 0.0, 0.0]

    def correlated(self):
        together = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                             [0.5, 0.0, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5]])
        complementary = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                                  [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0]])
        return [together, complementary]

    def test_correlated_infeasible(self):
        result = check_unbiased_estimator_exists(self.correlated(), self.LOSS)
        assert not result.feasible
        assert result.residual > 1e-6

    def test_independent_feasible(self):
        processes = [independent_mask_distribution([0.5, 0.5])]
        result = check_unbiased_estimator_exists(processes, self.LOSS)
        assert result.feasible

    def test_no_noise_identity_solution(self):
        loss = [0.3, 0.7, 0.1, 0.9]
        result = check_unbiased_estimator_exists([exact_observation_distribution(2)], loss)
        assert result.feasible and result.residual <= 1e-12
        for v, target in zip(result.solution, loss):
            assert v == pytest.approx(target)

    def test_independent_unbiased_by_monte_carlo(self):
        # the solved estimator really is unbiased: simulate the missingness
        p = [0.6, 0.8]
        processes = [independent_mask_distribution(p)]
        result = check_unbiased_estimator_exists(processes, self.LOSS)
        assert result.feasible
        rng = np.random.default_rng(10)
        for y in [(1, 1), (1, 0), (0, 1), (0, 0)]:
            draws = []
            for _ in range(40000):
                obs = tuple(int(y[j] and rng.random() < p[j]) for j in range(2))
                draws.append(result.solution[2 * obs[0] + obs[1]])
            assert np.mean(draws) == pytest.approx(self.LOSS[2 * y[0] + y[1]], abs=0.02)

    def test_mask_validation(self):
        bad = _with_row(0, [0.0, 0.0, 1.0, 0.0])  # 00 observed as 10
        with pytest.raises(ValueError, match="one-sided"):
            check_unbiased_estimator_exists([bad], self.LOSS)

    def test_m_limit(self):
        with pytest.raises(ValueError):
            check_unbiased_estimator_exists([], np.zeros(16))

    @pytest.mark.parametrize("process, loss, message", [
        (np.eye(3), LOSS, r"must be 4 x 4"),
        (_with_row(1, [1.5, -0.5, 0.0, 0.0]), LOSS, "finite and non-negative"),
        (_with_row(1, [np.nan, 1.0, 0.0, 0.0]), LOSS, "finite and non-negative"),
        (_with_row(1, [np.inf, 1.0, 0.0, 0.0]), LOSS, "finite and non-negative"),
        (_with_row(3, [0.0, 0.0, 0.0, 0.9]), LOSS, "sum to 1"),
        (_with_row(1, [0.0, 0.5, 0.5, 0.0]), LOSS, "one-sided"),  # 01 observed as 10
        (np.eye(4), [1.0, 0.0, 0.0], r"length 2\^m"),
        (np.eye(16), np.zeros(16), r"length 2\^m"),
        (np.eye(4), [np.nan, 0.0, 0.0, 0.0], "target_loss must be finite"),
    ], ids=["shape", "negative", "nan", "inf", "row_sum", "outside_support", "loss_len_3",
            "loss_len_16", "loss_nan"])
    def test_bad_input_raises_before_solving(self, monkeypatch, process, loss, message):
        def never(*args, **kwargs):
            raise AssertionError("lstsq ran on invalid input")
        monkeypatch.setattr(np.linalg, "lstsq", never)
        with pytest.raises(ValueError, match=message):
            check_unbiased_estimator_exists([process], loss)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_independent_missingness_admits_every_loss(self, data):
        # Jain et al. (2016): under independent missingness an unbiased
        # estimator of any loss exists
        m = data.draw(st.integers(1, 3))
        p = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
        loss = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 ** m, max_size=2 ** m))
        P = independent_mask_distribution(p)
        assert P.shape == (2 ** m, 2 ** m)
        assert np.all(P >= 0) and np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(P, np.tril(P))
        assert check_unbiased_estimator_exists([P], loss).feasible
