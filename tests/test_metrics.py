from itertools import combinations

import numpy as np
import pytest

from xproplab.metrics import (PredictionMatrix, abandonment_at_k,
                              binarize_top_k, check_unbiased_estimator_exists,
                              coverage_at_k, exact_observation_distribution,
                              independent_mask_distribution, macro_f_beta,
                              ndcg_at_k, normalized_psp_at_k, precision_at_k,
                              ps_ndcg_at_k, ps_precision_at_k, ps_recall_at_k,
                              recall_at_k, top_k, weighted_precision_at_k)
from xproplab.data import make_dataset
from xproplab.propensity import PropensityAssignment


def assignment(p):
    p = np.asarray(p, dtype=np.float64)
    return PropensityAssignment(m=len(p), p=p, source="test")


class TestTopK:
    def test_tie_broken_by_lower_index(self):
        assert top_k([0.1, 0.9, 0.9], 2).tolist() == [1, 2]

    def test_full_permutation(self):
        out = top_k([0.3, 0.1, 0.5, 0.2], 4)
        assert sorted(out.tolist()) == [0, 1, 2, 3]

    def test_unique_max_first(self):
        scores = [0.2, 5.0, 0.1, 0.3]
        for k in range(1, 5):
            assert top_k(scores, k)[0] == 1

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            top_k([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            top_k([1.0, 2.0], 0)


class TestVanillaMetrics:
    def test_precision_count_ratio(self):
        labels = [[1, 3]]
        scores = [[0.0, 3.0, 2.0, 1.0, -1.0]]  # top-3 = {1, 2, 3}
        assert precision_at_k(labels, scores, 3).value == pytest.approx(2 / 3)

    def test_perfect_ndcg(self):
        labels = [[0, 1]]
        scores = [[0.9, 0.8, 0.1, 0.0]]
        assert ndcg_at_k(labels, scores, 2).value == pytest.approx(1.0)

    def test_recall_brute_force_top2_sets(self):
        labels = [[0]]
        scores = [[3.0, 2.0, 1.0]]
        # oracle: enumerate every 2-subset, pick the one the scores select
        chosen = set(top_k(scores[0], 2).tolist())
        expected = len(chosen & {0}) / 1
        assert recall_at_k(labels, scores, 2).value == pytest.approx(expected) == 1.0

    def test_recall_skips_empty_instances(self):
        labels = [[0], []]
        scores = [[1.0, 0.0], [1.0, 0.0]]
        mv = recall_at_k(labels, scores, 1)
        assert mv.skipped == 1 and mv.n_evaluated == 1

    def test_ndcg_natural_log_discount(self):
        labels = [[1]]
        scores = [[0.9, 0.8]]  # hit at rank 2
        expected = (1 / np.log(3)) / (1 / np.log(2) + 1 / np.log(3))
        assert ndcg_at_k(labels, scores, 2).value == pytest.approx(expected)

    def test_monotone_score_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random((5, 6))
        labels = [rng.choice(6, size=2, replace=False) for _ in range(5)]
        for k in (1, 3):
            a = precision_at_k(labels, scores, k).value
            b = precision_at_k(labels, np.exp(5 * scores), k).value
            assert a == pytest.approx(b)


class TestPsMetrics:
    def test_single_instance_inverse(self):
        labels = [[0]]
        scores = [[1.0, 0.0]]
        p = assignment([0.25, 1.0])
        assert ps_precision_at_k(labels, scores, 1, p).value == pytest.approx(4.0)

    def test_reduces_to_precision_at_unit_propensity(self):
        rng = np.random.default_rng(1)
        scores = rng.random((20, 8))
        labels = [rng.choice(8, size=3, replace=False) for _ in range(20)]
        p = assignment(np.ones(8))
        for k in (1, 2, 5):
            assert ps_precision_at_k(labels, scores, k, p).value == \
                pytest.approx(precision_at_k(labels, scores, k).value)

    def test_hand_mean(self):
        labels = [[0], [1]]
        scores = [[1.0, 0.0], [0.0, 1.0]]
        p = assignment([0.5, 1.0])
        assert ps_precision_at_k(labels, scores, 1, p).value == pytest.approx(1.5)

    def test_ps_recall_divides_by_observed_count(self):
        labels = [[0, 1]]
        scores = [[1.0, 0.9, 0.0]]
        p = assignment([0.5, 1.0, 1.0])
        assert ps_recall_at_k(labels, scores, 2, p).value == pytest.approx((2 + 1) / 2)

    def test_ps_ndcg_unit_propensity_reduction(self):
        rng = np.random.default_rng(2)
        scores = rng.random((10, 6))
        labels = [rng.choice(6, size=2, replace=False) for _ in range(10)]
        p = assignment(np.ones(6))
        assert ps_ndcg_at_k(labels, scores, 3, p).value == \
            pytest.approx(ndcg_at_k(labels, scores, 3).value)


class TestNormalizedPsp:
    def test_attains_max(self):
        labels = [[0, 2]]
        scores = [[0.9, 0.0, 0.8]]
        p = assignment([0.5, 1.0, 0.25])
        assert normalized_psp_at_k(labels, scores, 2, p).value == pytest.approx(1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            scores = rng.random((6, 5))
            labels = [rng.choice(5, size=rng.integers(0, 4), replace=False)
                      for _ in range(6)]
            if not any(len(l) for l in labels):
                continue
            p = assignment(rng.uniform(0.05, 1.0, 5))
            v = normalized_psp_at_k(labels, scores, 2, p).value
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_unnormalized_can_exceed_one_while_normalized_cannot(self):
        labels = [[0]]
        scores = [[1.0, 0.0]]
        p = assignment([0.25, 1.0])
        raw = ps_precision_at_k(labels, scores, 1, p).value
        norm = normalized_psp_at_k(labels, scores, 1, p).value
        assert raw == pytest.approx(4.0) and raw > 1.0
        assert norm <= 1.0

    def test_all_empty_is_error(self):
        with pytest.raises(ValueError, match="normalizer"):
            normalized_psp_at_k([[]], [[1.0, 0.0]], 1, assignment([0.5, 0.5]))


class TestWeightedPrecision:
    def test_unit_weights_reduce_to_precision(self):
        rng = np.random.default_rng(4)
        scores = rng.random((8, 5))
        labels = [rng.choice(5, size=2, replace=False) for _ in range(8)]
        assert weighted_precision_at_k(labels, scores, 2, np.ones(5)).value == \
            pytest.approx(precision_at_k(labels, scores, 2).value)

    def test_inverse_propensity_weights_equal_psp(self):
        rng = np.random.default_rng(5)
        scores = rng.random((8, 5))
        labels = [rng.choice(5, size=2, replace=False) for _ in range(8)]
        p = assignment(rng.uniform(0.1, 1.0, 5))
        assert weighted_precision_at_k(labels, scores, 2, 1.0 / p.p).value == \
            ps_precision_at_k(labels, scores, 2, p).value

    def test_rarity_weights_hand_computation(self):
        labels = [[0], [0], [1]]
        scores = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        w = np.array([1 / 2, 1 / 1])  # inverse label counts
        expected = (0.5 + 0.5 + 1.0) / 3
        assert weighted_precision_at_k(labels, scores, 1, w).value == \
            pytest.approx(expected)


class TestMacroF:
    def test_perfect(self):
        labels = [[0], [1]]
        pred = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert macro_f_beta(labels, pred).value == pytest.approx(1.0)

    def test_no_positive_predictions(self):
        labels = [[0], [1]]
        pred = np.zeros((2, 2))
        assert macro_f_beta(labels, pred).value == pytest.approx(0.0)

    def test_hand_value(self):
        # label 0: TP=1 FP=0 FN=1 -> F1 = 2/3 ; label 1: TP=1 FP=0 FN=0 -> F1 = 1
        labels = [[0], [0, 1]]
        pred = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert macro_f_beta(labels, pred, beta=1.0).value == pytest.approx((2 / 3 + 1) / 2)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.random((10, 4))
        labels = [rng.choice(4, size=2, replace=False) for _ in range(10)]
        base = macro_f_beta(labels, scores, k=2).value
        perm = rng.permutation(4)
        inv = np.argsort(perm)
        permuted_labels = [inv[l] for l in labels]
        assert macro_f_beta(permuted_labels, scores[:, perm], k=2).value == \
            pytest.approx(base)

    def test_at_k_binarization(self):
        scores = np.array([[0.9, 0.5, 0.1]])
        assert binarize_top_k(scores, 2).tolist() == [[1.0, 1.0, 0.0]]


class TestAbandonmentCoverage:
    def test_abandonment_all_hit(self):
        labels = [[0], [1]]
        scores = [[1.0, 0.0], [0.0, 1.0]]
        assert abandonment_at_k(labels, scores, 1).value == 0.0

    def test_abandonment_no_labels(self):
        assert abandonment_at_k([[], []], [[1.0, 0.0], [1.0, 0.0]], 1).value == 1.0

    def test_abandonment_direct_count(self):
        labels = [[0], [1], [1]]
        scores = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        assert abandonment_at_k(labels, scores, 1).value == pytest.approx(2 / 3)

    def test_coverage_count_over_m(self):
        labels = [[1], [2], [3]]
        scores = [[0, 1.0, 0, 0], [0, 0, 1.0, 0], [1.0, 0, 0, 0]]
        assert coverage_at_k(labels, scores, 1).value == pytest.approx(0.5)

    def test_coverage_single_label(self):
        assert coverage_at_k([[0]], [[1.0]], 1).value == 1.0

    def test_coverage_brute_force(self):
        rng = np.random.default_rng(7)
        scores = rng.random((5, 6))
        labels = [rng.choice(6, size=2, replace=False) for _ in range(5)]
        k = 2
        covered = set()
        for i in range(5):
            tops = set(top_k(scores[i], k).tolist())
            covered |= tops & set(labels[i].tolist())
        assert coverage_at_k(labels, scores, k).value == pytest.approx(len(covered) / 6)


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
        assert top_k(scores[0], 2).tolist() == [1, 0]
        assert binarize_top_k(scores, 2).tolist() == [[1.0, 1.0, 0.0, 0.0]]
        hit = {name: fn([[0]], scores, 2, p).value for name, fn in AT_K_METRICS.items()}
        miss = {name: fn([[2]], scores, 2, p).value for name, fn in AT_K_METRICS.items()}
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
            for name, fn in AT_K_METRICS.items():
                if name not in expected:
                    with pytest.raises(ValueError):
                        fn(labels, scores, k, p)
                    continue
                assert fn(labels, scores, k, p).value == \
                    pytest.approx(expected[name], rel=1e-12, abs=1e-12), name
            stable = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            want = np.zeros((n, m))
            np.put_along_axis(want, stable, 1.0, axis=1)
            assert binarize_top_k(scores, k).tolist() == want.tolist()


class TestLabelIdRange:
    """Ids outside [0, m) are rejected, not wrapped around or aliased into the next row."""

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_rejected(self, name, bad):
        scores = np.array([[0.9, 0.5, 0.1], [0.1, 0.5, 0.9]])
        p = assignment([0.5, 1.0, 0.25])
        with pytest.raises(ValueError, match=f"label id {bad} outside"):
            AT_K_METRICS[name]([[bad, 0], [1]], scores, 1, p)

    def test_macro_f_on_binary_predictions(self):
        with pytest.raises(ValueError, match="label id 2 outside"):
            macro_f_beta([[2]], np.array([[1.0, 0.0]]))

    def test_label_sets_must_match_score_rows(self):
        with pytest.raises(ValueError, match="2 label sets for 1 score rows"):
            precision_at_k([[0], [1]], [[0.9, 0.1]], 1)


class TestLabelInputs:
    """A dataset, its CSR label matrix and a list of id arrays give the same value."""

    @pytest.mark.parametrize("name", sorted(AT_K_METRICS))
    def test_dataset_csr_and_id_lists_agree(self, name):
        rng = np.random.default_rng(10)
        rows = [[0, 3], [], [1, 2, 4], [4]]
        ds = make_dataset([([0], [1.0])] * len(rows), rows, d=1, m=5)
        scores = rng.random((len(rows), 5))
        p = assignment([0.5, 1.0, 0.25, 0.8, 0.4])

        def run(labels):
            v = AT_K_METRICS[name](labels, scores, 2, p)
            per = None if v.per_instance is None else v.per_instance.tolist()
            return v.value, v.n_evaluated, v.skipped, per
        want = run([np.array(r) for r in rows])
        assert run(ds) == want
        assert run(ds.labels) == want


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
            got = precision_at_k([lab], scores, k).value
            assert got == pytest.approx(best)

    def test_metric_equals_bruteforce_on_chosen_set(self):
        rng = np.random.default_rng(9)
        m, k = 6, 3
        scores = rng.random((4, m))
        labels = [rng.choice(m, size=2, replace=False) for _ in range(4)]
        p = assignment(rng.uniform(0.2, 1.0, m))
        for i in range(4):
            chosen = frozenset(top_k(scores[i], k).tolist())
            lab_set = set(labels[i].tolist())
            expected_p = len(chosen & lab_set) / k
            expected_psp = sum(1.0 / p.p[j] for j in chosen & lab_set) / k
            assert precision_at_k([labels[i]], scores[i:i + 1], k).value == \
                pytest.approx(expected_p)
            assert ps_precision_at_k([labels[i]], scores[i:i + 1], k, p).value == \
                pytest.approx(expected_psp)


class TestPredictionMatrix:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            PredictionMatrix(n=2, m=3, scores=np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PredictionMatrix(n=1, m=2, scores=np.array([[np.nan, 0.0]]))


class TestFeasibilityOracle:
    def loss_table(self):
        # abandonment-style loss of predicting both labels: non-decomposable
        return {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}

    def correlated(self):
        together = {(1, 1): {(1, 1): 0.5, (0, 0): 0.5},
                    (1, 0): {(1, 0): 0.5, (0, 0): 0.5},
                    (0, 1): {(0, 1): 0.5, (0, 0): 0.5},
                    (0, 0): {(0, 0): 1.0}}
        complementary = {(1, 1): {(1, 0): 0.5, (0, 1): 0.5},
                         (1, 0): {(1, 0): 0.5, (0, 0): 0.5},
                         (0, 1): {(0, 1): 0.5, (0, 0): 0.5},
                         (0, 0): {(0, 0): 1.0}}
        return [together, complementary]

    def test_correlated_infeasible(self):
        result = check_unbiased_estimator_exists(2, self.correlated(),
                                                 self.loss_table())
        assert not result.feasible
        assert result.residual > 1e-6

    def test_independent_feasible(self):
        dists = [independent_mask_distribution([0.5, 0.5])]
        result = check_unbiased_estimator_exists(2, dists, self.loss_table())
        assert result.feasible

    def test_no_noise_identity_solution(self):
        loss = {(0, 0): 0.3, (0, 1): 0.7, (1, 0): 0.1, (1, 1): 0.9}
        result = check_unbiased_estimator_exists(
            2, [exact_observation_distribution(2)], loss)
        assert result.feasible and result.residual <= 1e-12
        for y, v in result.solution.items():
            assert v == pytest.approx(loss[y])

    def test_independent_unbiased_by_monte_carlo(self):
        # the solved estimator really is unbiased: simulate the missingness
        p = [0.6, 0.8]
        dists = [independent_mask_distribution(p)]
        loss = self.loss_table()
        result = check_unbiased_estimator_exists(2, dists, loss)
        assert result.feasible
        rng = np.random.default_rng(10)
        for y in [(1, 1), (1, 0), (0, 1), (0, 0)]:
            draws = []
            for _ in range(40000):
                obs = tuple(int(y[j] and rng.random() < p[j]) for j in range(2))
                draws.append(result.solution[obs])
            assert np.mean(draws) == pytest.approx(loss[y], abs=0.02)

    def test_mask_validation(self):
        bad = {(0, 0): {(1, 0): 1.0}, (0, 1): {(0, 1): 1.0},
               (1, 0): {(1, 0): 1.0}, (1, 1): {(1, 1): 1.0}}
        with pytest.raises(ValueError, match="one-sided"):
            check_unbiased_estimator_exists(2, [bad], self.loss_table())

    def test_m_limit(self):
        with pytest.raises(ValueError):
            check_unbiased_estimator_exists(4, [], {})
