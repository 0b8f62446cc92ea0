import tracemalloc

import numpy as np
import pytest

from xproplab.datagen import HyperBallConfig, generate_hyperball, inject_missing
from xproplab.metrics import precision_at_k
from xproplab.propensity import PropensityAssignment
from xproplab.train import (Adam, LinearOvaModel, TrainConfig, load_model,
                            loss_pejl_mask, loss_pejl_plug, loss_unbiased,
                            predict, save_model, sigmoid, train_ova)

from _data import make_dataset


def assignment(p):
    p = np.asarray(p, dtype=np.float64)
    return PropensityAssignment(p)


def logit(x):
    return np.log(x / (1.0 - x))


def numeric_grad(value, x, h=1e-6):
    """Central differences of the scalar function `value` in every entry of x."""
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        out[idx] = (value(x + step) - value(x - step)) / (2 * h)
    return out


def batch(seed, b=5, m=3):
    """Observed labels, label logits and propensity logits for a b x m batch."""
    rng = np.random.default_rng(seed)
    Y = rng.integers(0, 2, (b, m)).astype(np.float64)
    return Y, rng.uniform(-2.0, 2.0, (b, m)), rng.uniform(-2.0, 2.0, m)


class TestScalarLosses:
    """The loss functions that train and validate, over b x m batches."""

    def test_vanilla_gradient_matches_central_difference(self):
        Y, z, _ = batch(0)
        dz, dtheta = loss_unbiased(Y, z).grads()
        assert dtheta is None
        assert np.allclose(dz, numeric_grad(lambda a: loss_unbiased(Y, a).value, z),
                           rtol=1e-5, atol=0)

    def test_unbiased_gradient_matches_central_difference(self):
        Y, z, _ = batch(1)
        t = Y / np.array([0.5, 0.25, 0.9])
        dz, _ = loss_unbiased(t, z).grads()
        assert np.allclose(dz, numeric_grad(lambda a: loss_unbiased(t, a).value, z),
                           rtol=1e-5, atol=0)

    def test_unbiased_reduces_to_vanilla_at_unit_propensity(self):
        # with p = 1 the target is the labels: plain binary cross-entropy
        Y, z, _ = batch(2)
        f = sigmoid(z)
        bce = np.mean(-Y * np.log(f) - (1 - Y) * np.log(1 - f))
        assert loss_unbiased(Y / np.ones(3), z).value == pytest.approx(bce, rel=1e-14)

    def test_unbiasedness_identity(self):
        # E over the missing-label coin of the reweighted loss equals the
        # clean loss: p * loss(1/p-part) + (1-p) * loss(0-part) == loss(y=1)
        p = 0.4
        z = logit(np.array([[0.3, 0.05, 0.8]]))
        ones = np.ones_like(z)
        observed = loss_unbiased(ones / p, z).value
        hidden = loss_unbiased(0 * ones, z).value
        assert p * observed + (1 - p) * hidden == pytest.approx(loss_unbiased(ones, z).value)

    def test_pejl_plug_gradients(self):
        Y, z, theta = batch(3)
        dz, dtheta = loss_pejl_plug(Y, z, theta).grads()
        assert np.allclose(dz, numeric_grad(lambda a: loss_pejl_plug(Y, a, theta).value, z),
                           rtol=1e-5, atol=0)
        assert np.allclose(dtheta,
                           numeric_grad(lambda a: loss_pejl_plug(Y, z, a).value, theta),
                           rtol=1e-5, atol=0)

    def test_pejl_plug_optimum_at_product(self):
        # with y drawn at rate eta*p the minimizing product p*f is eta*p
        eta, p_true = 0.7, 0.5
        rate = eta * p_true
        theta = logit(np.array([p_true]))

        def expected_loss(q):
            z = logit(np.array([[q / p_true]]))
            return rate * loss_pejl_plug(np.ones((1, 1)), z, theta).value + \
                (1 - rate) * loss_pejl_plug(np.zeros((1, 1)), z, theta).value

        qs = np.linspace(0.05, 0.45, 81)
        best = qs[np.argmin([expected_loss(q) for q in qs])]
        assert best == pytest.approx(rate, abs=0.01)

    def test_pejl_mask_gradient(self):
        Y, z, theta = batch(4)
        dz, dtheta = loss_pejl_mask(Y, z, theta).grads()
        assert dz is None
        assert np.allclose(dtheta,
                           numeric_grad(lambda a: loss_pejl_mask(Y, z, a).value, theta),
                           rtol=1e-5, atol=0)

    def test_pejl_mask_gradient_vanishes_at_true_propensity(self):
        # fed the expected observed labels eta*p and the clean probabilities
        # eta, the mask loss reweights its target back to p, so phi = p is
        # its stationary point
        rng = np.random.default_rng(5)
        eta = rng.uniform(0.05, 0.95, (6, 4))
        p = np.array([0.1, 0.35, 0.6, 0.9])
        _, dtheta = loss_pejl_mask(eta * p, logit(eta), logit(p)).grads()
        assert np.max(np.abs(dtheta)) <= 1e-12


class TestAdam:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(0)
        w = rng.random((3, 2))
        before = w.copy()
        opt = Adam([w.shape], lr=0.0)
        opt.step([w], [rng.random(w.shape)])
        assert np.array_equal(w, before)

    def test_first_step_magnitude(self):
        # bias correction makes the very first step lr-sized per coordinate
        w = np.zeros(4)
        opt = Adam([w.shape], lr=0.1)
        opt.step([w], [np.array([1.0, -1.0, 2.0, -0.5])])
        assert np.allclose(np.abs(w), 0.1, atol=1e-6)

    def test_quadratic_convergence(self):
        w = np.array([5.0])
        opt = Adam([w.shape], lr=0.1)
        for _ in range(500):
            opt.step([w], [2 * w])  # gradient of w^2
        assert abs(w[0]) < 1e-3

    def test_weight_decay_shrinks(self):
        w = np.array([1.0])
        opt = Adam([w.shape], lr=0.01, weight_decay=1.0)
        for _ in range(50):
            opt.step([w], [np.zeros(1)])
        assert w[0] < 1.0


def toy_separable(n=400, seed=0):
    """Two well-separated gaussian blobs in 2-d; label 0 marks the right blob,
    label 1 the left."""
    rng = np.random.default_rng(seed)
    side = rng.integers(0, 2, n)
    x = rng.normal(0, 0.3, (n, 2))
    x[:, 0] += np.where(side == 0, 2.0, -2.0)
    feats = [(np.array([0, 1]), x[i]) for i in range(n)]
    labs = [[int(side[i])] for i in range(n)]
    return make_dataset(feats, labs, d=2, m=2)


SMALL = dict(lr_grid=(0.1,), wd_grid=(0.0,), epochs=30, patience=5)


class TestTraining:
    def test_separable_high_precision(self):
        data = toy_separable()
        model, log = train_ova(data, TrainConfig(loss="vanilla", seed=1, **SMALL))
        scores = predict(model, data)
        assert precision_at_k(data, scores, 1).value >= 0.95
        assert len(log) == 1 and log[0]["status"] == "ok"

    def test_vanilla_equals_unbiased_with_unit_propensity(self):
        data = toy_separable(n=200, seed=2)
        cfg_v = TrainConfig(loss="vanilla", seed=3, **SMALL)
        cfg_u = TrainConfig(loss="unbiased", seed=3,
                            propensities=assignment(np.ones(2)), **SMALL)
        mv, _ = train_ova(data, cfg_v)
        mu, _ = train_ova(data, cfg_u)
        assert np.array_equal(mv.W, mu.W)
        assert np.array_equal(mv.bias, mu.bias)

    def test_determinism(self):
        data = toy_separable(n=200, seed=4)
        cfg = TrainConfig(loss="vanilla", seed=5, **SMALL)
        a, _ = train_ova(data, cfg)
        b, _ = train_ova(data, cfg)
        assert np.array_equal(a.W, b.W)
        c, _ = train_ova(data, TrainConfig(loss="vanilla", seed=6, **SMALL))
        assert not np.array_equal(a.W, c.W)

    @pytest.mark.parametrize("n, config, message", [
        (1, TrainConfig(**SMALL), "training set too small"),
        (50, TrainConfig(loss="unbiased", propensities=assignment([0.5]), **SMALL),
         "propensity assignment m must match the dataset"),
    ], ids=["one_row", "propensity_length"])
    def test_rejects_unusable_input(self, n, config, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_ova(toy_separable(n=n), config)

    def test_unbiased_requires_propensities(self):
        with pytest.raises(ValueError):
            train_ova(toy_separable(n=50), TrainConfig(loss="unbiased", **SMALL))

    def test_grid_log_covers_all_cells(self):
        data = toy_separable(n=120, seed=7)
        cfg = TrainConfig(loss="vanilla", seed=8, lr_grid=(0.05, 0.1),
                          wd_grid=(0.0, 1e-6), epochs=5, patience=2)
        model, log = train_ova(data, cfg)
        assert len(log) == 4
        assert {(e["lr"], e["wd"]) for e in log} == {(0.05, 0.0), (0.05, 1e-6),
                                                     (0.1, 0.0), (0.1, 1e-6)}
        best = min(e["val_objective"] for e in log if e["status"] == "ok")
        assert np.isfinite(best)

    def test_unbiased_outscores_vanilla_under_heavy_bias(self):
        # inject strong label-dependent missingness; reweighting must recover
        # more of the clean-test precision than ignoring the bias
        cfg = HyperBallConfig(m=6, dim=2, radius_range=(0.25, 0.45), seed=9,
                              n_train=1500, n_val=1, n_test=800)
        train, _, test, priors = generate_hyperball(cfg)
        p_star = assignment(np.linspace(0.15, 0.9, 6))
        biased, _ = inject_missing(train, p_star, seed=10)
        shared = dict(lr_grid=(0.1,), wd_grid=(0.0,), epochs=40, patience=5, seed=11)
        m_v, _ = train_ova(biased, TrainConfig(loss="vanilla", **shared))
        m_u, _ = train_ova(biased, TrainConfig(loss="unbiased",
                                               propensities=p_star, **shared))
        pv = precision_at_k(test, predict(m_v, test), 1).value
        pu = precision_at_k(test, predict(m_u, test), 1).value
        assert pu >= pv - 0.02  # unbiased never collapses; usually strictly better

    def test_pejl_losses_produce_propensity_estimates(self):
        data = toy_separable(n=200, seed=12)
        for loss in ("pejl_plug", "pejl_mask"):
            model, _ = train_ova(data, TrainConfig(loss=loss, seed=13, **SMALL))
            assert model.prop_logits is not None
            p = sigmoid(model.prop_logits)
            assert p.shape == (2,)
            assert np.all(p > 0) and np.all(p < 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergingCells:
    """A cell whose validation objective turns non-finite stops there and is
    logged as failed, its log entry the only report of the failure (no numpy
    warning); the grid is logged lr-major; only a grid of nothing but failed
    cells raises."""

    GRID = dict(wd_grid=(0.0, 1e-6), epochs=5, patience=2, seed=8)

    @staticmethod
    def extra(loss):
        return {"propensities": assignment([0.5, 0.8])} if loss == "unbiased" else {}

    # epochs each lr = 1e308 cell ran before its objective left the finite range
    @pytest.mark.parametrize("loss, first_epochs", [
        ("vanilla", 3), ("unbiased", 2), ("pejl_plug", 3), ("pejl_mask", 1)])
    def test_failed_cells_are_logged_and_skipped(self, loss, first_epochs):
        data = toy_separable(n=120, seed=7)
        _, log = train_ova(data, TrainConfig(loss=loss, lr_grid=(1e308, 0.05),
                                             **self.GRID, **self.extra(loss)))
        assert [(e["lr"], e["wd"]) for e in log] == [(1e308, 0.0), (1e308, 1e-6),
                                                    (0.05, 0.0), (0.05, 1e-6)]
        assert [(e["status"], e["epochs_ran"], e["val_objective"]) for e in log[:2]] == [
            ("failed", first_epochs, np.inf), ("failed", 2, np.inf)]
        assert [e["status"] for e in log[2:]] == ["ok", "ok"]
        assert all(np.isfinite(e["val_objective"]) and e["epochs_ran"] == 5 for e in log[2:])

    @pytest.mark.parametrize("loss", ["vanilla", "unbiased", "pejl_plug", "pejl_mask"])
    def test_all_cells_failed_raises(self, loss):
        data = toy_separable(n=120, seed=7)
        with pytest.raises(RuntimeError, match="^all grid cells diverged$"):
            train_ova(data, TrainConfig(loss=loss, lr_grid=(1e308,), **self.GRID,
                                        **self.extra(loss)))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = LinearOvaModel(W=np.arange(6.0).reshape(2, 3),
                               bias=np.array([0.1, -0.2]),
                               prop_logits=np.array([0.5, -1.0]))
        path = tmp_path / "model.npz"
        save_model(model, path, config_hash="abc")
        back = load_model(path)
        assert np.array_equal(back.W, model.W)
        assert np.array_equal(back.bias, model.bias)
        assert np.array_equal(back.prop_logits, model.prop_logits)

    def test_roundtrip_without_logits(self, tmp_path):
        model = LinearOvaModel(W=np.ones((1, 2)), bias=np.zeros(1))
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert load_model(path).prop_logits is None

    def test_predictions_survive_roundtrip(self, tmp_path):
        data = toy_separable(n=100, seed=14)
        model, _ = train_ova(data, TrainConfig(loss="vanilla", seed=15, **SMALL))
        path = tmp_path / "m.npz"
        save_model(model, path)
        a = predict(model, data).scores
        b = predict(load_model(path), data).scores
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("arrays, message", [
        ({"W": np.ones(3), "bias": np.zeros(3)}, r"W must be a 2-D m x d array, got shape \(3,\)"),
        ({"W": np.ones((3, 2)), "bias": np.zeros(5)},
         r"bias must have shape \(m,\) = \(3,\), got \(5,\)"),
        ({"W": np.ones((3, 2)), "bias": np.zeros((3, 1))},
         r"bias must have shape \(m,\) = \(3,\), got \(3, 1\)"),
        ({"W": np.ones((3, 2)), "bias": np.zeros(3), "prop_logits": np.zeros(2)},
         r"prop_logits must have shape \(m,\) = \(3,\), got \(2,\)"),
        ({"bias": np.zeros(3)}, "checkpoint has no W"),
        ({"W": np.full((3, 2), np.nan), "bias": np.zeros(3)}, "W must hold finite real numbers"),
        ({"W": np.ones((3, 2)), "bias": np.array([0.0, np.inf, 0.0])},
         "bias must hold finite real numbers"),
        ({"W": np.ones((3, 2)), "bias": np.zeros(3), "prop_logits": np.array([0, 0, -np.inf])},
         "prop_logits must hold finite real numbers"),
        ({"W": np.array([["a", "b"]]), "bias": np.zeros(1)}, "W must hold finite real numbers"),
        ({"version": np.array([1, 1]), "W": np.ones((1, 1)), "bias": np.zeros(1)},
         r"version must be the integer 1, got \[1, 1\]"),
        ({"version": np.array(1.5), "W": np.ones((1, 1)), "bias": np.zeros(1)},
         "version must be the integer 1, got 1.5"),
        ({"version": np.array(1.0), "W": np.ones((1, 1)), "bias": np.zeros(1)},
         "version must be the integer 1, got 1.0"),
        ({"version": np.array(True), "W": np.ones((1, 1)), "bias": np.zeros(1)},
         "version must be the integer 1, got True"),
        ({"version": np.array(2), "W": np.ones((1, 1)), "bias": np.zeros(1)},
         "version must be the integer 1, got 2"),
    ], ids=["W_1d", "bias_length", "bias_2d", "prop_logits_length", "no_W", "W_nan",
            "bias_inf", "prop_logits_inf", "W_text", "version_list", "version_fraction",
            "version_float", "version_bool", "version_2"])
    def test_rejects_misshapen_arrays(self, tmp_path, arrays, message):
        path = tmp_path / "bad.npz"
        np.savez(path, **{"version": np.array(1), "config_hash": np.array(""), **arrays})
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_model(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.array(99), W=np.ones((1, 1)), bias=np.zeros(1),
                 config_hash=np.array(""))
        with pytest.raises(ValueError):
            load_model(path)


class TestPredict:
    def test_sigmoid_of_linear_score(self):
        model = LinearOvaModel(W=np.array([[1.0, 0.0]]), bias=np.array([0.5]))
        data = make_dataset([(np.array([0, 1]), np.array([2.0, 3.0]))], [[0]],
                            d=2, m=1)
        out = predict(model, data)
        assert out.scores[0, 0] == pytest.approx(sigmoid(2.5))

    def test_dimension_check(self):
        model = LinearOvaModel(W=np.ones((1, 3)), bias=np.zeros(1))
        data = make_dataset([(np.array([0]), np.array([1.0]))], [[0]], d=2, m=1)
        with pytest.raises(ValueError):
            predict(model, data)

    # at d = 2**14 a block holds 8 labels: m below, at and across the block size
    @pytest.mark.parametrize("d, m", [(4, 3), (2**14, 1), (2**14, 7), (2**14, 8), (2**14, 9),
                                      (2**14, 17), (2**14, 24)])
    def test_scores_are_the_whole_product_bit_for_bit(self, d, m):
        rng = np.random.default_rng(m)
        rows = [{}] + [dict(zip(rng.choice(d, 4, replace=False).tolist(), rng.normal(size=4)))
                       for _ in range(5)]  # the first row has no features
        data = make_dataset(rows, [[]] * len(rows), d=d, m=m)
        model = LinearOvaModel(W=rng.normal(size=(m, d)), bias=rng.normal(size=m))
        expected = sigmoid(np.asarray(data.features @ model.W.T) + model.bias)
        assert np.array_equal(predict(model, data).scores, expected)

    def test_never_copies_all_of_W(self):
        rng = np.random.default_rng(0)
        d, m = 4096, 512
        rows = [dict(zip(rng.choice(d, 30, replace=False).tolist(), rng.random(30)))
                for _ in range(20)]
        data = make_dataset(rows, [[]] * len(rows), d=d, m=m)
        model = LinearOvaModel(W=rng.normal(size=(m, d)), bias=np.zeros(m))
        tracemalloc.start()
        try:
            predict(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.W.nbytes / 8  # 2 MiB of a 16 MiB W
