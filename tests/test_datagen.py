import numpy as np
import pytest

from xproplab.data import SparseDataset, estimate_priors, make_dataset
from xproplab.datagen import (HyperBallConfig, generate_hyperball,
                              inject_missing, ratings_to_multilabel,
                              resplit_benchmark)
from xproplab.propensity import PropensityAssignment


def assignment(p):
    p = np.asarray(p, dtype=np.float64)
    return PropensityAssignment(m=len(p), p=p, source="test")


class TestHyperBall:
    def test_determinism(self):
        cfg = HyperBallConfig(m=10, dim=3, seed=7, n_train=50, n_val=20, n_test=20)
        a = generate_hyperball(cfg)
        b = generate_hyperball(cfg)
        for da, db in zip(a[:3], b[:3]):
            assert da == db
        assert np.array_equal(a[3].priors, b[3].priors)

    def test_seed_changes_data(self):
        base = HyperBallConfig(m=10, dim=3, seed=7, n_train=50, n_val=20, n_test=20)
        other = HyperBallConfig(m=10, dim=3, seed=8, n_train=50, n_val=20, n_test=20)
        assert generate_hyperball(base)[0] != generate_hyperball(other)[0]

    def test_shapes_and_feature_ball(self):
        cfg = HyperBallConfig(m=5, dim=4, seed=1, n_train=40, n_val=10, n_test=15)
        train, val, test, priors = generate_hyperball(cfg)
        assert (train.n, val.n, test.n) == (40, 10, 15)
        assert train.d == 4 and train.m == 5 and priors.m == 5
        X = train.feature_matrix().toarray()
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0 + 1e-12)

    def test_true_priors_are_radius_powers(self):
        cfg = HyperBallConfig(m=8, dim=3, radius_range=(0.1, 0.4), seed=3,
                              n_train=10, n_val=10, n_test=10)
        _, _, _, priors = generate_hyperball(cfg)
        radii = priors.priors ** (1.0 / cfg.dim)
        assert np.all(radii >= 0.1 - 1e-12) and np.all(radii <= 0.4 + 1e-12)

    def test_empirical_priors_match_analytic(self):
        # frequency oracle: with many samples the empirical label frequency
        # must sit within 4 binomial standard deviations of r^dim
        cfg = HyperBallConfig(m=6, dim=2, radius_range=(0.2, 0.45), seed=11,
                              n_train=20000, n_val=1, n_test=1)
        train, _, _, priors = generate_hyperball(cfg)
        emp = train.label_counts() / train.n
        for j in range(cfg.m):
            p = priors.priors[j]
            sd = np.sqrt(p * (1 - p) / train.n)
            assert abs(emp[j] - p) < 4 * sd + 1e-9

    def test_labels_consistent_with_geometry(self):
        cfg = HyperBallConfig(m=4, dim=3, seed=5, n_train=30, n_val=5, n_test=5)
        train, _, _, _ = generate_hyperball(cfg)
        # every labelled point must carry a full dense feature row
        for row in train.features:
            assert row.indices.tolist() == list(range(cfg.dim))
            assert np.linalg.norm(row.data) <= 1.0 + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HyperBallConfig(radius_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            HyperBallConfig(radius_range=(0.5, 0.1))
        with pytest.raises(ValueError):
            HyperBallConfig(dim=1)


class TestInjectMissing:
    def make_clean(self):
        cfg = HyperBallConfig(m=12, dim=2, radius_range=(0.15, 0.45), seed=2,
                              n_train=3000, n_val=1, n_test=1)
        return generate_hyperball(cfg)[0]

    def test_unit_propensity_is_identity(self):
        clean = self.make_clean()
        biased, trace = inject_missing(clean, assignment(np.ones(12)), seed=0)
        assert biased == clean
        assert trace.removed == 0

    def test_features_and_negatives_untouched(self):
        clean = self.make_clean()
        biased, _ = inject_missing(clean, assignment(np.full(12, 0.5)), seed=3)
        assert biased.features is clean.features
        for lab_b, lab_c in zip(biased.labels, clean.labels):
            assert set(lab_b.indices.tolist()) <= set(lab_c.indices.tolist())

    def test_determinism(self):
        clean = self.make_clean()
        p = assignment(np.full(12, 0.4))
        a, _ = inject_missing(clean, p, seed=9)
        b, _ = inject_missing(clean, p, seed=9)
        assert a == b
        c, _ = inject_missing(clean, p, seed=10)
        assert a != c

    def test_keep_rate_matches_propensity(self):
        # binomial oracle per label on a large clean dataset
        clean = self.make_clean()
        p_vec = np.linspace(0.2, 0.9, 12)
        biased, trace = inject_missing(clean, assignment(p_vec), seed=4)
        clean_counts = clean.label_counts()
        kept_counts = biased.label_counts()
        for j in range(12):
            n_j = clean_counts[j]
            if n_j < 50:
                continue
            sd = np.sqrt(n_j * p_vec[j] * (1 - p_vec[j]))
            assert abs(kept_counts[j] - n_j * p_vec[j]) < 4 * sd + 1e-9
        assert trace.kept + trace.removed == clean_counts.sum()

    def test_m_mismatch(self):
        clean = self.make_clean()
        with pytest.raises(ValueError):
            inject_missing(clean, assignment(np.ones(5)), seed=0)


def inject_missing_per_row(clean, p, seed):
    """Reference: the per-row loop inject_missing replaced, one draw per non-empty row."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels, kept, total = [], 0, 0
    for i in range(clean.n):
        lab = clean.labels.indices[clean.labels.indptr[i]:clean.labels.indptr[i + 1]]
        total += len(lab)
        if len(lab) == 0:
            labels.append(lab)
            continue
        keep = rng.random(len(lab)) < p.p[lab]
        kept += int(keep.sum())
        labels.append(lab[keep])
    return labels, kept, total - kept


class TestInjectMissingOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        labels = [[]] + [np.flatnonzero(rng.random(m) < rng.choice([0.0, 0.3, 0.8]))
                         for _ in range(n - 1)]
        clean = make_dataset([{0: 1.0}] * n, labels, d=1, m=m)
        p = assignment(rng.uniform(0.05, 1.0, m))
        biased, trace = inject_missing(clean, p, seed=seed + 100)
        want, kept, removed = inject_missing_per_row(clean, p, seed + 100)
        assert [row.indices.tolist() for row in biased.labels] == [w.tolist() for w in want]
        assert (trace.kept, trace.removed) == (kept, removed)


def resplit_per_row(full, s, split_fractions, seed):
    """Reference: the per-row label remap resplit_benchmark replaced."""
    surviving = np.flatnonzero(full.label_counts() >= s)
    remap = -np.ones(full.m, dtype=np.int64)
    remap[surviving] = np.arange(len(surviving))
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(full.n)
    cuts = np.floor(np.cumsum(split_fractions)[:-1] * full.n).astype(int)
    rows = [full.labels[i].indices for i in range(full.n)]
    return [[np.sort(remap[rows[i]][remap[rows[i]] >= 0]).tolist() for i in part]
            for part in np.split(order, cuts)]


class TestResplit:
    def build(self):
        feats = [(np.array([0]), np.array([1.0])) for _ in range(10)]
        labs = [[0], [0], [0, 1], [1], [2], [0, 2], [2], [0], [1, 2], [0]]
        return make_dataset(feats, labs, d=1, m=4)

    def test_rare_labels_dropped_and_reindexed(self):
        full = self.build()
        # counts: label0=6, label1=3, label2=4, label3=0
        a, b = resplit_benchmark(full, s=4, split_fractions=[0.5, 0.5], seed=0)
        assert a.m == b.m == 2  # labels 0 and 2 survive
        union = set()
        for ds in (a, b):
            union |= set(ds.labels.indices.tolist())
        assert union <= {0, 1}

    def test_split_sizes(self):
        full = self.build()
        a, b, c = resplit_benchmark(full, 1, [0.5, 0.3, 0.2], seed=1)
        assert (a.n, b.n, c.n) == (5, 3, 2)
        assert a.n + b.n + c.n == full.n

    def test_instances_preserved(self):
        full = self.build()
        a, b = resplit_benchmark(full, 1, [0.6, 0.4], seed=2)
        n_pos_before = full.labels.nnz
        n_pos_after = a.labels.nnz + b.labels.nnz
        assert n_pos_after == n_pos_before  # s=1 keeps every observed label

    def test_determinism(self):
        full = self.build()
        x = resplit_benchmark(full, 1, [0.5, 0.5], seed=3)
        y = resplit_benchmark(full, 1, [0.5, 0.5], seed=3)
        assert x[0] == y[0] and x[1] == y[1]

    def test_all_dropped_raises(self):
        full = self.build()
        with pytest.raises(ValueError):
            resplit_benchmark(full, 100, [0.5, 0.5], seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_row_remap(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 30, 8
        labels = [np.flatnonzero(rng.random(m) < 0.3) for _ in range(n)]
        feats = [(np.array([i % 3]), np.array([float(i)])) for i in range(n)]
        full = make_dataset(feats, labels, d=3, m=m)
        parts = resplit_benchmark(full, 3, [0.5, 0.3, 0.2], seed)
        want = resplit_per_row(full, 3, [0.5, 0.3, 0.2], seed)
        assert [[row.indices.tolist() for row in part.labels] for part in parts] == want
        order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
        assert np.concatenate([part.features.data for part in parts]).tolist() == \
            order.astype(float).tolist()

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            resplit_benchmark(self.build(), 1, [0.5, 0.4], seed=0)


class TestRatingsToMultilabel:
    def test_train_half_split(self):
        ratings = [(0, i, 5.0) for i in range(4)] + [(1, 0, 5.0), (1, 1, 1.0)]
        train, test, pc, skipped = ratings_to_multilabel(ratings, m=4)
        assert test is None and pc is None
        # user 1 has a single positive and is skipped
        assert skipped == 1 and train.n == 1
        idx, lab = train.features[0].indices, train.labels[0].indices
        assert len(idx) == 2 and len(lab) == 2
        assert set(idx.tolist()) | set(lab.tolist()) == {0, 1, 2, 3}
        assert set(idx.tolist()) & set(lab.tolist()) == set()

    def test_odd_count_gives_feature_extra_item(self):
        ratings = [(0, i, 4.5) for i in range(5)]
        train, _, _, _ = ratings_to_multilabel(ratings, m=5)
        idx = train.features[0].indices
        assert len(idx) == 3 and len(train.labels[0].indices) == 2

    def test_threshold_filters(self):
        ratings = [(0, 0, 5.0), (0, 1, 3.0), (0, 2, 4.0)]
        train, _, _, _ = ratings_to_multilabel(ratings, m=3, threshold=4.0)
        idx = train.features[0].indices
        assert set(idx.tolist()) | set(train.labels[0].indices.tolist()) == {0, 2}

    def test_probe_users_become_test(self):
        ratings = [(0, i, 5.0) for i in range(4)] + [(1, i, 5.0) for i in range(4)]
        probe = [(1, 7, 5.0), (1, 8, 5.0), (1, 3, 2.0)]
        train, test, pc, _ = ratings_to_multilabel(ratings, m=10,
                                                   probe_ratings=probe,
                                                   probe_size=1)
        assert train.n == 1 and test.n == 1
        assert test.labels[0].indices.tolist() == [7, 8]
        idx = test.features[0].indices
        assert len(idx) == 2  # half of the four training positives
        assert pc == pytest.approx(0.1)

    def test_controlled_propensity_ratio(self):
        _, _, pc, _ = ratings_to_multilabel([(0, 0, 5.0), (0, 1, 5.0)], m=1000,
                                            probe_size=10)
        assert pc == pytest.approx(0.01)

    def test_item_range_check(self):
        with pytest.raises(ValueError):
            ratings_to_multilabel([(0, 5, 5.0)], m=3)

    def test_determinism(self):
        ratings = [(u, i, 5.0) for u in range(5) for i in range(6)]
        a = ratings_to_multilabel(ratings, m=6, seed=4)[0]
        b = ratings_to_multilabel(ratings, m=6, seed=4)[0]
        assert a == b
