import numpy as np
import pytest

from xproplab.data import SparseDataset, estimate_priors
from xproplab.datagen import (HyperBallConfig, _points_to_dataset, generate_hyperball,
                              inject_missing)
from xproplab.propensity import PropensityAssignment

from _data import make_dataset, row


def assignment(p):
    p = np.asarray(p, dtype=np.float64)
    return PropensityAssignment(p)


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
        for i in range(train.n):
            ids, values = row(train.features, i)
            assert ids == list(range(cfg.dim))
            assert np.linalg.norm(values) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n, m, dim", [(1, 1, 2), (37, 5, 3), (300, 100, 4),
                                           (50, 700, 9), (4, 4200, 17), (130, 1000, 20),
                                           (7, 1, 2)])
    def test_blocked_membership_matches_one_shot(self, n, m, dim):
        rng = np.random.default_rng(n + m + dim)
        points = rng.uniform(-1, 1, (n, dim))
        centers = rng.uniform(-1, 1, (m, dim))
        radii = rng.uniform(0.3, 1.2, m)
        one_shot = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) \
            <= radii[None, :] ** 2
        labels = _points_to_dataset(points, centers, radii).labels
        assert np.array_equal(labels.toarray(), one_shot.astype(np.float64))

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
        for i in range(clean.n):
            assert set(row(biased.labels, i)[0]) <= set(row(clean.labels, i)[0])

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
        assert [row(biased.labels, i)[0] for i in range(n)] == [w.tolist() for w in want]
        assert (trace.kept, trace.removed) == (kept, removed)
