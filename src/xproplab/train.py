"""One-vs-all linear probabilistic classifiers with vanilla, unbiased and
joint-propensity losses."""

from __future__ import annotations

import itertools
import math
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from numpy.lib import format as npy_format

from .data import FieldError, SparseDataset
from .metrics import PredictionMatrix
from .propensity import PropensityAssignment

EPS = 1e-12

# weights of W that save_model writes, open_checkpoint reads and predict scores at a time
BLOCK = 2**17

# the most multiply-adds n * d * m that predict runs as numpy column passes on rows
# that store every feature: at d = 2 to 16 those run 2-8x slower than the csr
# product, so this caps the extra time per call at about 10 ms, a small part of
# the 0.15-0.25 s that importing scipy.sparse costs a process (CHANGES.md)
DENSE_PRODUCT_MAX = 2**22

LOSSES = ("vanilla", "unbiased", "pejl_plug", "pejl_mask")


def sigmoid(z):
    """1 / (1 + exp(-z)) with z clipped to [-500, 500], computed in one new
    float64 array; a scalar z gives a scalar."""
    out = np.empty(np.shape(z))
    np.clip(z, -500.0, 500.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out[()]


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

    @property
    def dtype(self) -> np.dtype:
        return self.W.dtype

    @property
    def blocks(self) -> Iterator:
        """(first row, rows) of W, about BLOCK weights at a time."""
        step = _block_rows(self.d)
        return ((c, self.W[c:c + step]) for c in range(0, self.m, step))


def _block_rows(d: int) -> int:
    return max(1, BLOCK // max(d, 1))


# the fewest instances train_ova takes: at least one to validate on, one to train on
MIN_TRAIN_N = 2


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
    """Standard Adam with bias correction over one array; weight decay is added to the gradient."""

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, shape, lr, weight_decay=0.0):
        self.lr = lr
        self.wd = weight_decay
        self.t = 0
        self.m, self.v = np.zeros(shape), np.zeros(shape)
        self._g, self._tmp = np.empty(shape), np.empty(shape)

    def step(self, param, grad):
        """One update of ``param`` in place.  Each value is computed by the
        same operations, in the same order, as the textbook form
        ``m = B1 * m + (1 - B1) * g``, ``v = B2 * v + ((1 - B2) * g) * g``,
        ``param -= (lr * m_hat) / (sqrt(v_hat) + EPSILON)``, so it matches
        that form bit for bit without allocating a temporary."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        m, v, g, tmp = self.m, self.v, self._g, self._tmp
        np.multiply(self.wd, param, out=g)
        g += grad
        m *= b1
        m += np.multiply(1 - b1, g, out=tmp)
        v *= b2
        np.multiply(1 - b2, g, out=tmp)
        tmp *= g
        v += tmp
        update, denom = np.divide(m, c1, out=g), np.divide(v, c2, out=tmp)
        np.sqrt(denom, out=denom)
        denom += self.EPSILON
        update *= self.lr
        update /= denom
        param -= update


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
    # W, bias and (for the joint losses) theta are views of one flat buffer and
    # their gradients views of another, so that each Adam step is one pass
    sizes = [m * d, m, m] if loss in ("pejl_plug", "pejl_mask") else [m * d, m]
    params, grads = np.zeros(sum(sizes)), np.zeros(sum(sizes))
    W, bias, *theta = np.split(params, np.cumsum(sizes)[:-1])
    gW, gbias, *gtheta = np.split(grads, np.cumsum(sizes)[:-1])
    W, gW = W.reshape(m, d), gW.reshape(m, d)
    W[...] = rng.uniform(-math.sqrt(k), math.sqrt(k), (m, d))
    theta = theta[0] if theta else None
    if theta is not None:
        theta[...] = rng.uniform(-math.e, math.e, m)
    # the (rows, phi_step) each epoch trains on, in turn
    phases = [(np.arange(n), False)]
    if loss == "pejl_mask":
        # two fixed halves: even epochs train f on the first, odd epochs phi on the second
        phases = list(zip(np.split(rng.permutation(n), [n // 2]), (False, True)))
    opt = Adam(params.shape, lr, wd)

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
                gW[...], gbias[...] = 0.0, 0.0
            else:
                np.matmul(dz.T, Xb, out=gW)
                dz.sum(axis=0, out=gbias)
            if theta is not None:
                gtheta[0][...] = 0.0 if dtheta is None else dtheta
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
    if train.n < MIN_TRAIN_N:
        raise ValueError("training set too small")
    if config.loss == "unbiased":
        if config.propensities is None:
            raise ValueError("unbiased loss requires propensities")
        if config.propensities.m != train.m:
            raise ValueError("propensity assignment m must match the dataset")
        p_vec = config.propensities.p
    else:
        p_vec = np.ones(train.m)

    X = train.features.toarray()
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


def predict(model: LinearOvaModel | Checkpoint, dataset: SparseDataset) -> PredictionMatrix:
    """Per-instance sigmoid scores for every label, from a `LinearOvaModel` or
    from the `Checkpoint` that `open_checkpoint` yields, whose W is read from
    the file as it is scored.

    The logits are computed a block of labels at a time (`model.blocks`):
    csr @ dense copies its dense operand into C order, and a block of about
    BLOCK weights keeps that copy small where the whole of W.T would copy all of
    W.  Each logit sums its row's stored features in CSR order, starting from
    0.0, so the scores do not depend on the block size.

    Where every row stores all d features and the product is at most
    DENSE_PRODUCT_MAX multiply-adds, the logits are d numpy passes over the
    n x d feature values, each adding one column's products: the multiply-then-add
    sequence scipy's csr product runs, so the scores are the same to the bit,
    and scipy.sparse is never imported.  Any other dataset is scored by the
    csr product (`feature_matrix`), which is faster per multiply-add.
    """
    if model.d != dataset.d:
        raise ValueError(f"model d={model.d} does not match dataset d={dataset.d}")
    n, d, f = dataset.n, dataset.d, dataset.features
    dense = f.nnz == n * d and n * d * model.m <= DENSE_PRODUCT_MAX
    X = f.data.reshape(n, d) if dense else dataset.feature_matrix()
    z = np.empty((n, model.m), dtype=np.result_type(X.dtype, model.dtype))
    for c, block in model.blocks:
        zb = z[:, c:c + len(block)]
        if dense:
            zb[...] = 0.0
            with np.errstate(all="ignore"):  # silent, as the csr product is
                for j in range(d):
                    zb += X[:, j, None] * block[:, j]
        else:
            zb[...] = X @ block.T
    z += model.bias
    return PredictionMatrix(sigmoid(z))


CHECKPOINT_VERSION = 1


def save_model(model: LinearOvaModel, path, config_hash: str = "") -> None:
    """Write `model` to the .npz file at `path`, that path exactly, in the
    .npz layout numpy writes: stored (uncompressed) zip64 members version, W,
    bias, config_hash and any prop_logits, in that order.  W is written in C
    order whatever its layout, a block of rows at a time as `open_checkpoint`
    reads it back, so a C-order W is never copied.  A model that
    `open_checkpoint` would refuse raises the ValueError it would raise, naming
    the key; W's values are checked as its blocks are written, and a refusal
    there removes the partly written file."""
    arrays = {key: np.asarray(array) for key, array in
              (("bias", model.bias), ("prop_logits", model.prop_logits)) if array is not None}
    _check_arrays(model.W.shape, model.dtype, arrays)
    archive = zipfile.ZipFile(path, "w", allowZip64=True)
    try:
        with archive:
            _write_array(archive, "version", np.array(CHECKPOINT_VERSION))
            with archive.open("W.npy", "w", force_zip64=True) as member:
                npy_format.write_array_header_1_0(
                    member, {"descr": npy_format.dtype_to_descr(model.dtype),
                             "fortran_order": False, "shape": model.W.shape})
                for _, block in model.blocks:
                    block = np.ascontiguousarray(block)
                    _finite_real("W", block)
                    member.write(block)  # the block's own memory: zipfile takes any buffer
            _write_array(archive, "bias", arrays["bias"])
            _write_array(archive, "config_hash", np.array(config_hash))
            if "prop_logits" in arrays:
                _write_array(archive, "prop_logits", arrays["prop_logits"])
    except BaseException:
        os.remove(path)
        raise


@dataclass
class Checkpoint:
    """A checkpoint's m x d shape, W's dtype and its small arrays, with W still
    in the file: `blocks` yields W's rows once, as `LinearOvaModel.blocks` does,
    and only while `open_checkpoint` holds the file open."""

    m: int
    d: int
    dtype: np.dtype
    bias: np.ndarray
    prop_logits: Optional[np.ndarray]
    blocks: Iterator


def _finite_real(key, array):
    if array.dtype.kind not in "biuf" or not np.isfinite(array).all():
        raise ValueError(f"{key} must hold finite real numbers")


def _check_arrays(shape, dtype, arrays):
    """ValueError naming the key unless W's `shape` is m x d, its `dtype` real,
    and each of `arrays` (bias, any prop_logits) holds m finite real numbers.
    W's values are checked a block at a time, as they are read or written."""
    if len(shape) != 2:
        raise ValueError(f"W must be a 2-D m x d array, got shape {shape}")
    m = shape[0]
    for key, array in arrays.items():
        if array.shape != (m,):
            raise ValueError(f"{key} must have shape (m,) = ({m},), got {array.shape}")
    _finite_real("W", np.empty(0, dtype))  # W's dtype, before any value is read
    for key, array in arrays.items():
        _finite_real(key, array)


def _stored_blocks(member, m, d, dtype, fortran_order):
    """(first row, rows) of the m x d W that `member` holds after its .npy
    header, about BLOCK weights at a time, each checked while it is fresh; then
    the member is read to its end, so that zipfile checks its CRC-32.  W stored
    in Fortran order has no contiguous row and is read whole."""

    def values(count):
        data = member.read(count * dtype.itemsize)
        if len(data) != count * dtype.itemsize:
            raise ValueError(f"W ends before its {m} x {d} values")
        return np.frombuffer(data, dtype)

    whole = values(m * d).reshape(d, m).T if fortran_order else None
    step = _block_rows(d)
    for c in range(0, m, step):
        rows = min(step, m - c)
        block = whole[c:c + rows] if fortran_order else values(rows * d).reshape(rows, d)
        _finite_real("W", block)
        yield c, block
    if member.read(1):
        raise ValueError(f"W has bytes past its {m} x {d} values")


def _read_array(archive, key):
    with archive.open(f"{key}.npy") as member:
        return npy_format.read_array(member, allow_pickle=False)


def _write_array(archive, key, array):
    with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
        npy_format.write_array(member, array, allow_pickle=False)


@contextmanager
def open_checkpoint(path) -> Iterator[Checkpoint]:
    """The checkpoint at `path`, with W left in the file for `predict` or
    `load_model` to read.  ValueError naming the key of a missing, misshapen or
    non-finite array: version must be the 0-d integer CHECKPOINT_VERSION, W must
    be m x d, and bias and any prop_logits length m.  W's values are checked as
    its blocks are read; a file that is not a readable .npz, or whose CRC-32
    does not match, is a ValueError too."""
    try:
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
            missing = [key for key in ("version", "W", "bias") if f"{key}.npy" not in names]
            if missing:
                raise ValueError(f"checkpoint has no {', '.join(missing)}")
            version = _read_array(archive, "version")
            if version.shape or version.dtype.kind not in "iu" or version != CHECKPOINT_VERSION:
                raise ValueError(f"version must be the integer {CHECKPOINT_VERSION}, "
                                 f"got {version.tolist()!r}")
            arrays = {key: _read_array(archive, key) for key in ("bias", "prop_logits")
                      if f"{key}.npy" in names}
            with archive.open("W.npy") as member:
                read_header = (npy_format.read_array_header_1_0
                               if npy_format.read_magic(member) == (1, 0)
                               else npy_format.read_array_header_2_0)
                shape, fortran_order, dtype = read_header(member)
                _check_arrays(shape, dtype, arrays)
                m, d = shape
                yield Checkpoint(m, d, dtype, arrays["bias"], arrays.get("prop_logits"),
                                 _stored_blocks(member, m, d, dtype, fortran_order))
    except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
        raise ValueError(f"not a readable .npz file: {exc}") from None


def load_model(path) -> LinearOvaModel:
    """The model a checkpoint holds, checked as `open_checkpoint` checks it."""
    with open_checkpoint(path) as checkpoint:
        W = np.empty((checkpoint.m, checkpoint.d), checkpoint.dtype)
        for c, block in checkpoint.blocks:
            W[c:c + len(block)] = block
    return LinearOvaModel(W=W, bias=checkpoint.bias, prop_logits=checkpoint.prop_logits)
