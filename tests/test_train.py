import io
import re
import tracemalloc
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npy_format

from xproplab import train
from xproplab.cli import main
from xproplab.data import Csr, SparseDataset, csr_rows, write_xmlc_file
from xproplab.datagen import HyperBallConfig, generate_hyperball, inject_missing
from xproplab.metrics import precision_at_k
from xproplab.propensity import PropensityAssignment
from xproplab.train import (Adam, LinearOvaModel, TrainConfig, load_model,
                            loss_pejl_mask, loss_pejl_plug, loss_unbiased,
                            open_checkpoint, predict, save_model, sigmoid, train_ova)

from _data import MISSHAPEN_CHECKPOINTS, MISSHAPEN_IDS, make_dataset


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
        opt = Adam(w.shape, lr=0.0)
        opt.step(w, rng.random(w.shape))
        assert np.array_equal(w, before)

    def test_first_step_magnitude(self):
        # bias correction makes the very first step lr-sized per coordinate
        w = np.zeros(4)
        opt = Adam(w.shape, lr=0.1)
        opt.step(w, np.array([1.0, -1.0, 2.0, -0.5]))
        assert np.allclose(np.abs(w), 0.1, atol=1e-6)

    def test_quadratic_convergence(self):
        w = np.array([5.0])
        opt = Adam(w.shape, lr=0.1)
        for _ in range(500):
            opt.step(w, 2 * w)  # gradient of w^2
        assert abs(w[0]) < 1e-3

    def test_weight_decay_shrinks(self):
        w = np.array([1.0])
        opt = Adam(w.shape, lr=0.01, weight_decay=1.0)
        for _ in range(50):
            opt.step(w, np.zeros(1))
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

    @pytest.mark.parametrize("loss", ["vanilla", "unbiased"])
    def test_keeps_one_dense_copy_of_the_data(self, loss):
        # 20 stored features and 3 labels a row; W and the Adam state are far
        # smaller than X and T, so a second dense copy of either shows
        rng = np.random.default_rng(0)
        n, d, m = 2000, 250, 200

        def rows(width, count):
            ids = np.concatenate([np.sort(rng.choice(width, count, replace=False))
                                  for _ in range(n)])
            return np.arange(0, n * count + 1, count), ids

        data = SparseDataset(csr_rows(*rows(d, 20), rng.random(n * 20), d),
                             csr_rows(*rows(m, 3), None, m))
        extra = {"propensities": assignment(np.full(m, 0.5))} if loss == "unbiased" else {}
        config = TrainConfig(loss=loss, lr_grid=(0.01,), wd_grid=(0.0,), epochs=1, **extra)
        tracemalloc.start()
        try:
            train_ova(data, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * (d + m)  # 1.7x X + T here; a copy of both for training is 2.6x


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergingCells:
    """A cell whose validation objective or any parameter turns non-finite stops
    there and is logged as failed, its log entry the only report of the failure
    (no numpy warning); the grid is logged lr-major; only a grid of nothing but
    failed cells raises."""

    GRID = dict(wd_grid=(0.0, 1e-6), epochs=5, patience=2, seed=8)

    @staticmethod
    def extra(loss):
        return {"propensities": assignment([0.5, 0.8])} if loss == "unbiased" else {}

    # epochs each lr = 1e308 cell (wd = 0, then 1e-6) ran before its objective or
    # its parameters left the finite range
    @pytest.mark.parametrize("loss, first_epochs, second_epochs", [
        ("vanilla", 3, 2), ("unbiased", 2, 2), ("pejl_plug", 3, 2), ("pejl_mask", 1, 1)])
    def test_failed_cells_are_logged_and_skipped(self, loss, first_epochs, second_epochs):
        data = toy_separable(n=120, seed=7)
        _, log = train_ova(data, TrainConfig(loss=loss, lr_grid=(1e308, 0.05),
                                             **self.GRID, **self.extra(loss)))
        assert [(e["lr"], e["wd"]) for e in log] == [(1e308, 0.0), (1e308, 1e-6),
                                                    (0.05, 0.0), (0.05, 1e-6)]
        assert [(e["status"], e["epochs_ran"], e["val_objective"]) for e in log[:2]] == [
            ("failed", first_epochs, np.inf), ("failed", second_epochs, np.inf)]
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

    @pytest.mark.parametrize("arrays, message", MISSHAPEN_CHECKPOINTS, ids=MISSHAPEN_IDS)
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


def _sparse_rows(rng, d, n, nnz):
    """n feature rows of nnz normal values at distinct random columns, the first empty."""
    return [{}] + [dict(zip(rng.choice(d, nnz, replace=False).tolist(), rng.normal(size=nnz)))
                   for _ in range(n - 1)]


def _eval(tmp_path, data, model_path):
    """Exit code of `eval` on `data` with the checkpoint at `model_path`, and its output."""
    data_path, out = tmp_path / "test.txt", tmp_path / "metrics.tsv"
    with open(data_path, "w", encoding="utf-8", newline="") as fh:
        write_xmlc_file(data, fh)
    code = main(["eval", "--out", str(out), "--set", f"data.path={data_path}",
                 "--set", f"eval.model={model_path}", "--set", "metrics.ks=1"])
    return code, out.read_text() if out.exists() else None


class TestStreamedCheckpoint:
    """`eval` scores the checkpoint's W as open_checkpoint reads it, block by block."""

    @staticmethod
    def streamed(path, data):
        with open_checkpoint(path) as checkpoint:
            return predict(checkpoint, data)

    # at d = 2**14 a block holds 8 labels; at d > 2**17 it holds one
    @pytest.mark.parametrize("d, m, layout", [
        (2**14, 7, "C"), (2**14, 8, "C"), (2**14, 9, "C"), (2**14, 17, "C"),
        (2**17 + 3, 3, "C"), (2**14, 9, "float32"), (2**14, 17, "Fortran"),
        (2**14, 9, "compressed"), (2**14, 9, "prop_logits"), (4, 3, "C"),
    ])
    def test_scores_equal_the_loaded_models_bit_for_bit(self, tmp_path, d, m, layout):
        rng = np.random.default_rng(m)
        data = make_dataset(_sparse_rows(rng, d, 6, 4), [[]] * 6, d=d, m=m)
        W = rng.normal(size=(m, d))
        W = {"float32": W.astype(np.float32), "Fortran": np.asfortranarray(W)}.get(layout, W)
        model = LinearOvaModel(W=W, bias=rng.normal(size=m),
                               prop_logits=rng.normal(size=m) if layout == "prop_logits" else None)
        path = tmp_path / "model.npz"
        if layout == "compressed":
            np.savez_compressed(path, version=np.array(1), W=W, bias=model.bias)
        else:
            save_model(model, path)
        streamed = self.streamed(path, data).scores
        assert np.array_equal(streamed, predict(load_model(path), data).scores)
        assert np.array_equal(streamed, predict(model, data).scores)
        with open_checkpoint(path) as checkpoint:
            assert np.array_equal(checkpoint.bias, model.bias)
            assert (checkpoint.prop_logits is None) == (model.prop_logits is None)

    @pytest.mark.parametrize("corrupt, reason", [
        ("flipped_byte", "Bad CRC-32 for file 'W.npy'"),
        ("truncated", "File is not a zip file"),
        ("not_a_zip", "File is not a zip file"),
        ("bare_npy", "File is not a zip file"),
    ])
    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys, corrupt, reason):
        W = np.arange(6.0).reshape(3, 2) + 0.5
        path = tmp_path / "model.npz"
        save_model(LinearOvaModel(W=W, bias=np.zeros(3)), path)
        raw = bytearray(path.read_bytes())
        if corrupt == "flipped_byte":  # the lowest mantissa bit of W[0, 0]: still finite
            raw[raw.index(W.tobytes())] ^= 1
        elif corrupt == "truncated":
            raw = raw[:len(raw) // 2]
        elif corrupt == "not_a_zip":
            raw = bytearray(b"3 2 3\n")
        else:
            np.save(tmp_path / "W.npy", W)
            raw = bytearray((tmp_path / "W.npy").read_bytes())
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^not a readable .npz file: {re.escape(reason)}$"):
            load_model(path)
        data = make_dataset([{0: 1.0}, {1: 1.0}], [[0, 1], [2]], d=2, m=3)
        assert _eval(tmp_path, data, path) == (1, None)
        assert (f"config error: [eval] model {path}: not a readable .npz file: {reason}\n"
                == capsys.readouterr().err)

    @pytest.mark.parametrize("cut, extra, message", [
        (8, b"", "W ends before its 3 x 2 values"),
        (0, b"\0", "W has bytes past its 3 x 2 values"),
    ], ids=["short", "long"])
    def test_W_member_of_the_wrong_length(self, tmp_path, cut, extra, message):
        def npy(array):
            buf = io.BytesIO()
            np.save(buf, array)
            return buf.getvalue()

        path = tmp_path / "model.npz"
        with zipfile.ZipFile(path, "w") as archive:  # CRC-32s of the bytes as written
            archive.writestr("version.npy", npy(np.array(1)))
            archive.writestr("bias.npy", npy(np.zeros(3)))
            archive.writestr("W.npy", npy(np.ones((3, 2)))[:-cut or None] + extra)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_model(path)

    def test_eval_never_holds_all_of_W(self, tmp_path):
        rng = np.random.default_rng(0)
        d, m = 4096, 1024
        data = make_dataset(_sparse_rows(rng, d, 20, 30), [[i] for i in range(20)], d=d, m=m)
        W = rng.normal(size=(m, d))
        path = tmp_path / "model.npz"
        save_model(LinearOvaModel(W=W, bias=np.zeros(m)), path)
        tracemalloc.start()
        try:
            code, _ = _eval(tmp_path, data, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < W.nbytes / 8  # 4 MiB of a 32 MiB W



def _W_npy_header(path):
    """(shape, fortran_order, dtype) from the .npy header of a checkpoint's W."""
    with zipfile.ZipFile(path) as archive, archive.open("W.npy") as member:
        assert npy_format.read_magic(member) == (1, 0)
        return npy_format.read_array_header_1_0(member)


# the faults of a checkpoint that a model can hold: all but a missing W and a bad version
_MODEL_FAULTS = [pytest.param(arrays, message, id=i)
                 for (arrays, message), i in zip(MISSHAPEN_CHECKPOINTS, MISSHAPEN_IDS)
                 if "W" in arrays and "version" not in arrays]
_LAST_BLOCK_INF = np.ones((17, 2**14))  # three blocks of 8 rows; only the last holds an inf
_LAST_BLOCK_INF[-1, -1] = np.inf


class TestCheckpointWriter:
    """save_model writes W a block of rows at a time, in np.savez's layout."""

    # at d = 2**14 a block holds 8 labels, so m = 17 writes three blocks
    @pytest.mark.parametrize("layout", ["C", "float32", "big_endian", "Fortran", "strided",
                                        "prop_logits"])
    def test_round_trips_bit_for_bit_as_C_order_rows(self, tmp_path, layout):
        rng = np.random.default_rng(3)
        d, m = 2**14, 17
        W = rng.normal(size=(m, 2 * d) if layout == "strided" else (m, d))
        W = {"float32": W.astype(np.float32), "big_endian": W.astype(">f8"),
             "Fortran": np.asfortranarray(W), "strided": W[:, ::2]}.get(layout, W)
        model = LinearOvaModel(W=W, bias=rng.normal(size=m),
                               prop_logits=rng.normal(size=m) if layout == "prop_logits" else None)
        path = tmp_path / "model.npz"
        save_model(model, path, config_hash="abc")
        assert _W_npy_header(path) == ((m, d), False, W.dtype)
        with np.load(path) as stored:
            assert np.array_equal(stored["W"], W) and stored["W"].dtype == W.dtype
            assert np.array_equal(stored["bias"], model.bias)
            assert stored["config_hash"] == "abc"
            assert ("prop_logits" in stored) == (layout == "prop_logits")
        loaded = load_model(path)
        assert np.array_equal(loaded.W, W) and loaded.W.dtype == W.dtype
        data = make_dataset(_sparse_rows(rng, d, 6, 4), [[]] * 6, d=d, m=m)
        streamed = TestStreamedCheckpoint.streamed(path, data).scores
        assert np.array_equal(streamed, predict(model, data).scores)

    @pytest.mark.parametrize("layout", ["C", "float32", "prop_logits"])
    def test_archive_matches_np_savez(self, tmp_path, layout):
        rng = np.random.default_rng(4)
        m = 17
        W = rng.normal(size=(m, 2**14))
        payload = {"version": np.array(1), "W": W.astype(np.float32) if layout == "float32" else W,
                   "bias": rng.normal(size=m), "config_hash": np.array("abc")}
        if layout == "prop_logits":
            payload["prop_logits"] = rng.normal(size=m)
        save_model(LinearOvaModel(W=payload["W"], bias=payload["bias"],
                                  prop_logits=payload.get("prop_logits")),
                   tmp_path / "model.npz", config_hash="abc")
        np.savez(tmp_path / "savez.npz", **payload)

        def members(path):
            with zipfile.ZipFile(path) as archive:
                return [(info.filename, info.compress_type, info.CRC, info.file_size)
                        for info in archive.infolist()]

        assert members(tmp_path / "model.npz") == members(tmp_path / "savez.npz")

    def test_reads_Fortran_order_from_other_writers(self, tmp_path):
        rng = np.random.default_rng(5)
        d, m = 2**14, 17
        W = np.asfortranarray(rng.normal(size=(m, d)))
        bias = rng.normal(size=m)
        path = tmp_path / "model.npz"
        np.savez(path, version=np.array(1), W=W, bias=bias)
        assert _W_npy_header(path)[1] is True
        data = make_dataset(_sparse_rows(rng, d, 6, 4), [[]] * 6, d=d, m=m)
        expected = predict(LinearOvaModel(W=W, bias=bias), data).scores
        assert np.array_equal(TestStreamedCheckpoint.streamed(path, data).scores, expected)
        assert np.array_equal(load_model(path).W, W)

    def test_save_never_copies_W(self, tmp_path):
        W = np.random.default_rng(0).normal(size=(1024, 4096))
        model = LinearOvaModel(W=W, bias=np.zeros(1024))
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "model.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < W.nbytes / 8  # 4 MiB of a 32 MiB W

    @pytest.mark.parametrize("arrays, message", _MODEL_FAULTS + [
        pytest.param({"W": np.ones((1, 1), complex), "bias": np.zeros(1)},
                     "W must hold finite real numbers", id="W_complex"),
        pytest.param({"W": np.array([[1.0, None]]), "bias": np.zeros(1)},
                     "W must hold finite real numbers", id="W_object"),
        pytest.param({"W": _LAST_BLOCK_INF, "bias": np.zeros(17)},
                     "W must hold finite real numbers", id="W_inf_in_last_block"),
    ])
    def test_refuses_what_open_checkpoint_refuses(self, tmp_path, arrays, message):
        path = tmp_path / "model.npz"
        model = LinearOvaModel(W=arrays["W"], bias=arrays["bias"],
                               prop_logits=arrays.get("prop_logits"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            save_model(model, path)
        assert not path.exists()


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

    # Sparse rows (n_dense 0): at d = 2**14 a block holds 8 labels, so m is below,
    # at and across the block size.  Rows that store all d features are scored by
    # numpy column passes while n * d * m is at most DENSE_PRODUCT_MAX = 2**22, and
    # by the csr product above it.
    @pytest.mark.parametrize("d, m, n_dense, dtype", [
        *((d, m, 0, np.float64) for d, m in [(4, 3), (2**14, 1), (2**14, 7), (2**14, 8),
                                             (2**14, 9), (2**14, 17), (2**14, 24)]),
        (1, 3, 6, np.float64), (4, 3, 6, np.float64), (4, 3, 6, np.float32),
        (4, 3, 6, np.int64), (4, 2**10, 2**10, np.float64), (4, 2**10 + 1, 2**10, np.float32)
    ])
    def test_scores_are_the_whole_product_bit_for_bit(self, d, m, n_dense, dtype):
        rng = np.random.default_rng(m)
        if n_dense:  # stored zeros of both signs included
            rows = [(np.arange(d), v) for v in rng.normal(size=(n_dense, d)).round(1) * 8]
            rows[0][1][0], rows[-1][1][-1] = 0.0, -0.0
        else:
            rows = [{}] + [dict(zip(rng.choice(d, 4, replace=False).tolist(),
                                    rng.normal(size=4))) for _ in range(5)]  # row 0 is empty
        data = make_dataset(rows, [[]] * len(rows), d=d, m=m)
        model = LinearOvaModel(W=(rng.normal(size=(m, d)) * 3).astype(dtype),
                               bias=rng.normal(size=m))
        expected = sigmoid(np.asarray(data.feature_matrix() @ model.W.T) + model.bias)
        assert predict(model, data).scores.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_dense_logits_keep_the_nan_of_zero_times_inf(self, monkeypatch):
        # a stored 0.0 times an infinite weight is nan in the csr product, without
        # a warning; PredictionMatrix refuses it, so compare what it is handed
        monkeypatch.setattr(train, "PredictionMatrix", lambda scores: scores)
        data = make_dataset([(np.arange(2), np.array([0.0, 1.0])),
                             (np.arange(2), np.array([2.0, -0.5]))], [[]] * 2, d=2, m=3)
        model = LinearOvaModel(W=np.array([[np.inf, 1.0], [-np.inf, 2.0], [1.0, -np.inf]]),
                               bias=np.zeros(3))
        expected = sigmoid(np.asarray(data.feature_matrix() @ model.W.T) + model.bias)
        got = predict(model, data)
        assert np.isnan(got).sum() == 2 and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dense, over, csr", [(True, 0, False), (True, 1, True),
                                                  (False, 0, True)],
                             ids=["dense_at_bound", "dense_over_bound", "sparse"])
    def test_each_side_of_the_bound_takes_its_own_path(self, monkeypatch, dense, over, csr):
        calls = []
        feature_matrix = SparseDataset.feature_matrix
        monkeypatch.setattr(SparseDataset, "feature_matrix",
                            lambda self: calls.append(self) or feature_matrix(self))
        n, d = 2**10, 4
        m = train.DENSE_PRODUCT_MAX // (n * d) + over  # n * d * m at the bound, or over it
        counts = np.full(n, d)
        counts[0] -= not dense  # row 0 leaves its last feature unstored
        ids = np.concatenate([np.arange(c) for c in counts])
        features = Csr(np.concatenate([[0], np.cumsum(counts)]), ids, np.ones(len(ids)), (n, d))
        data = SparseDataset(features, csr_rows(np.zeros(n + 1, np.int64), [], None, m))
        predict(LinearOvaModel(W=np.ones((m, d)), bias=np.zeros(m)), data)
        assert len(calls) == csr

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
