"""One-vs-all linear probabilistic classifiers with vanilla, unbiased and
joint-propensity losses."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import FieldError, SparseDataset
from .metrics import PredictionMatrix
from .propensity import PropensityAssignment

EPS = 1e-12

LOSSES = ("vanilla", "unbiased", "pejl_plug", "pejl_mask")


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _clamp_prob(f):
    return np.clip(f, EPS, 1.0 - EPS)


class Loss:
    """Mean cross-entropy of a target `t` against a probability `q` over a
    b x m batch, with a function `grads()` that returns its gradients
    `(dz, dtheta)` with respect to the label logits z and the propensity logits
    theta (`None` for a logit the loss does not train). Neither is computed
    until asked for: training needs only the gradients, validation only the
    value."""

    def __init__(self, t, q, grads):
        self.t, self.q, self.grads = t, q, grads

    @property
    def value(self) -> float:
        q = _clamp_prob(self.q)
        return float(np.mean(-self.t * np.log(q) - (1.0 - self.t) * np.log(1.0 - q)))


def loss_unbiased(t, z) -> Loss:
    """Inverse-propensity-weighted cross-entropy of sigmoid(z) against the
    target t = Y/p; t = Y is the vanilla loss. The coefficient (1 - t) goes
    negative for observed positives with p < 1; that is what makes the loss
    unbiased and it is deliberately not clamped."""
    f = sigmoid(z)
    return Loss(t, f, lambda: ((f - t) * (1.0 / t.size), None))


def loss_pejl_plug(Y, z, theta) -> Loss:
    """Joint loss on the product sigmoid(theta) * sigmoid(z) as the estimate of
    the observed-label probability."""
    f, p = sigmoid(z), sigmoid(theta)
    pf = p * f

    def grads():
        q = _clamp_prob(pf)
        common = (-Y / q + (1.0 - Y) / (1.0 - q)) * (1.0 / Y.size)
        return common * p * f * (1.0 - f), (common * f).sum(axis=0) * p * (1.0 - p)
    return Loss(Y, pf, grads)


def loss_pejl_mask(Y, z, theta) -> Loss:
    """Mask-model loss: unbiased cross-entropy of phi = sigmoid(theta) on the
    mask variable, with the clean-probability estimate sigmoid(z) in the
    reweighting role (target Y / sigmoid(z)). Only theta is trained, so dz is
    None although the value depends on z."""
    t = Y / _clamp_prob(sigmoid(z))
    phi = sigmoid(theta)

    def grads():
        dphi = -t / phi + (1.0 - t) / (1.0 - phi)
        return None, (dphi * (1.0 / t.size)).sum(axis=0) * phi * (1.0 - phi)
    return Loss(t, phi, grads)


@dataclass
class LinearOvaModel:
    """m x d weight matrix + bias; joint-propensity training adds per-label
    propensity logits."""

    W: np.ndarray
    bias: np.ndarray
    prop_logits: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "vanilla"
    propensities: Optional[PropensityAssignment] = None
    lr_grid: tuple = (0.005, 0.01, 0.05, 0.1)
    wd_grid: tuple = (0.0, 1e-8, 1e-7, 1e-6)
    epochs: int = 100
    batch_size: int = 128
    patience: int = 5
    val_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        # chained comparisons are False for nan, so nan is rejected everywhere
        checks = (
            ("loss", self.loss in LOSSES,
             f"must be one of {', '.join(LOSSES)}, got {self.loss!r}"),
            ("lr_grid", len(self.lr_grid) > 0 and all(0 < v < math.inf for v in self.lr_grid),
             f"must be one or more finite numbers > 0, got {list(self.lr_grid)}"),
            ("wd_grid", len(self.wd_grid) > 0 and all(0 <= v < math.inf for v in self.wd_grid),
             f"must be one or more finite numbers >= 0, got {list(self.wd_grid)}"),
            ("epochs", self.epochs >= 1, f"must be at least 1, got {self.epochs}"),
            ("batch_size", self.batch_size >= 1, f"must be at least 1, got {self.batch_size}"),
            ("patience", self.patience >= 0, f"must be at least 0, got {self.patience}"),
            ("val_fraction", 0 < self.val_fraction < 0.5,
             f"must lie in (0, 0.5), got {self.val_fraction}"),
        )
        for name, ok, reason in checks:
            if not ok:
                raise FieldError(name, reason)


class Adam:
    """Standard Adam with bias correction; weight decay is added to the gradient."""

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, shapes, lr, weight_decay=0.0):
        self.lr = lr
        self.wd = weight_decay
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        for i, (param, grad) in enumerate(zip(params, grads)):
            g = grad + self.wd * param
            self.m[i] = self.BETA1 * self.m[i] + (1 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1 - self.BETA2) * g * g
            m_hat = self.m[i] / (1 - self.BETA1 ** self.t)
            v_hat = self.v[i] / (1 - self.BETA2 ** self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPSILON)


def _cell_loss(loss, T, z, theta, phi_step=False) -> Loss:
    """The loss a grid cell trains and validates on, over targets T (the labels
    divided by the propensities, which are all one except for the unbiased
    loss). pejl_mask alternates: its f steps and its validation use the
    unbiased loss with the current mask estimate as the propensity, its phi
    steps the mask loss."""
    if loss == "pejl_plug":
        return loss_pejl_plug(T, z, theta)
    if loss == "pejl_mask":
        return loss_pejl_mask(T, z, theta) if phi_step else loss_unbiased(T / sigmoid(theta), z)
    return loss_unbiased(T, z)


def _train_cell(loss, X, T, X_val, T_val, lr, wd, config, rng):
    n, d = X.shape
    m = T.shape[1]
    k = 1.0 / d
    W = rng.uniform(-math.sqrt(k), math.sqrt(k), (m, d))
    bias = np.zeros(m)
    params = [W, bias]
    theta = None
    if loss in ("pejl_plug", "pejl_mask"):
        theta = rng.uniform(-math.e, math.e, m)
        params.append(theta)
    # the (rows, phi_step) each epoch trains on, in turn
    phases = [(np.arange(n), False)]
    if loss == "pejl_mask":
        # two fixed halves: even epochs train f on the first, odd epochs phi on the second
        phases = list(zip(np.split(rng.permutation(n), [n // 2]), (False, True)))
    opt = Adam([p.shape for p in params], lr, wd)

    best, best_val, bad_epochs = None, np.inf, 0
    for epoch in range(config.epochs):
        rows, phi_step = phases[epoch % len(phases)]
        order = rows[rng.permutation(len(rows))]
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            Xb = X[batch]
            dz, dtheta = _cell_loss(loss, T[batch], Xb @ W.T + bias, theta, phi_step).grads()
            # pejl_mask gives the block a step does not train a zero gradient.
            # That does not freeze it: Adam still moves it through its momentum,
            # and with wd > 0 the decay alone moves a block that has had no real
            # gradient yet (theta in epoch 0) by about lr per step, because Adam
            # normalizes the gradient.
            if dz is None:
                grads = [np.zeros_like(W), np.zeros_like(bias)]
            else:
                grads = [dz.T @ Xb, dz.sum(axis=0)]
            if theta is not None:
                grads.append(np.zeros_like(theta) if dtheta is None else dtheta)
            opt.step(params, grads)

        val_obj = _cell_loss(loss, T_val, X_val @ W.T + bias, theta).value
        if not np.isfinite(val_obj):
            best, best_val = None, np.inf
            break
        if val_obj < best_val:
            best_val = val_obj
            best = (W.copy(), bias.copy(), None if theta is None else theta.copy())
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break
    return best, epoch + 1, best_val


def train_ova(train: SparseDataset, config: TrainConfig):
    """Grid-search lr x weight-decay with early stopping on a carved-out
    validation fraction of the (biased) training set; returns the best model
    and the full tuning log."""
    if train.n < 2:
        raise ValueError("training set too small")
    if config.loss == "unbiased":
        if config.propensities is None:
            raise ValueError("unbiased loss requires propensities")
        if config.propensities.m != train.m:
            raise ValueError("propensity assignment m must match the dataset")
        p_vec = config.propensities.p
    else:
        p_vec = np.ones(train.m)

    X = np.asarray(train.feature_matrix().todense())
    T = train.label_matrix() / p_vec

    cells = list(itertools.product(config.lr_grid, config.wd_grid))
    split_seed, *cell_seeds = np.random.SeedSequence(config.seed).spawn(len(cells) + 1)
    order = np.random.default_rng(split_seed).permutation(train.n)
    n_val = max(1, int(round(config.val_fraction * train.n)))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    X_tr, T_tr = X[tr_idx], T[tr_idx]
    X_val, T_val = X[val_idx], T[val_idx]

    tuning_log = []
    best_state = None
    best_val = np.inf
    for (lr, wd), seed in zip(cells, cell_seeds):
        with np.errstate(all="ignore"):  # a diverging cell is reported by its log entry
            state, epochs_ran, val_obj = _train_cell(
                config.loss, X_tr, T_tr, X_val, T_val, lr, wd, config,
                np.random.default_rng(seed))
        status = "ok" if state is not None else "failed"
        tuning_log.append({"lr": lr, "wd": wd, "val_objective": val_obj,
                           "epochs_ran": epochs_ran, "status": status})
        if state is not None and val_obj < best_val:
            best_val = val_obj
            best_state = state
    if best_state is None:
        raise RuntimeError("all grid cells diverged")
    W, bias, theta = best_state
    return LinearOvaModel(W=W, bias=bias, prop_logits=theta), tuning_log


def predict(model: LinearOvaModel, dataset: SparseDataset) -> PredictionMatrix:
    """Per-instance sigmoid scores for every label.

    The logits are computed a block of labels at a time: csr @ dense copies its
    dense operand into C order, and a block of about 2**17 weights keeps that
    copy small where the whole of W.T would copy all of W.  Each logit still
    sums its row's nonzeros in CSR order, so the scores do not depend on the
    block size.
    """
    if model.d != dataset.d:
        raise ValueError(f"model d={model.d} does not match dataset d={dataset.d}")
    X = dataset.feature_matrix()
    z = np.empty((dataset.n, model.m), dtype=np.result_type(X.dtype, model.W.dtype))
    step = max(1, 2**17 // model.d)
    for c in range(0, model.m, step):
        z[:, c:c + step] = X @ model.W[c:c + step].T
    z += model.bias
    return PredictionMatrix(sigmoid(z))


CHECKPOINT_VERSION = 1


def save_model(model: LinearOvaModel, path, config_hash: str = "") -> None:
    payload = {"version": np.array(CHECKPOINT_VERSION),
               "W": model.W, "bias": model.bias,
               "config_hash": np.array(config_hash)}
    if model.prop_logits is not None:
        payload["prop_logits"] = model.prop_logits
    np.savez(path, **payload)


def load_model(path) -> LinearOvaModel:
    """The model a checkpoint holds; ValueError naming the key of a missing,
    misshapen or non-finite array: version must be the 0-d integer
    CHECKPOINT_VERSION, W must be m x d, and bias and any prop_logits length m."""
    with np.load(path, allow_pickle=False) as data:
        missing = [key for key in ("version", "W", "bias") if key not in data.files]
        if missing:
            raise ValueError(f"checkpoint has no {', '.join(missing)}")
        version = data["version"]
        if version.shape or version.dtype.kind not in "iu" or version != CHECKPOINT_VERSION:
            raise ValueError(f"version must be the integer {CHECKPOINT_VERSION}, "
                             f"got {version.tolist()!r}")
        W = data["W"]
        if W.ndim != 2:
            raise ValueError(f"W must be a 2-D m x d array, got shape {W.shape}")
        arrays = {key: data[key] for key in ("bias", "prop_logits") if key in data.files}
        for key, array in arrays.items():
            if array.shape != (W.shape[0],):
                raise ValueError(f"{key} must have shape (m,) = ({W.shape[0]},), "
                                 f"got {array.shape}")
        for key, array in {"W": W, **arrays}.items():
            if array.dtype.kind not in "biuf" or not np.isfinite(array).all():
                raise ValueError(f"{key} must hold finite real numbers")
        return LinearOvaModel(W=W, bias=arrays["bias"], prop_logits=arrays.get("prop_logits"))
