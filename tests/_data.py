"""Test helpers: datasets from python-level per-instance sequences, malformed
checkpoints, and the reference loops that faster library code is checked
against: the one-start LM loop and the per-token XMLC parser."""

import math
from typing import Sequence

import numpy as np

from xproplab.data import ParseError, SparseDataset, _parse_header, csr_rows
from xproplab.propfit import (LAMBDA0, LAMBDA_DOWN, LAMBDA_MAX, LAMBDA_UP, TOL,
                              FitProblem, FitResult)


# the arrays of a checkpoint with one array missing, misshapen or not finite (the
# tests add version 1 and config_hash where they are not given), and a regular
# expression of the message it is rejected with
MISSHAPEN_CHECKPOINTS = [
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
]
MISSHAPEN_IDS = ["W_1d", "bias_length", "bias_2d", "prop_logits_length", "no_W", "W_nan",
                 "bias_inf", "prop_logits_inf", "W_text", "version_list", "version_fraction",
                 "version_float", "version_bool", "version_2"]


def make_dataset(features: Sequence, labels: Sequence, d: int, m: int) -> SparseDataset:
    """Build a dataset from python-level per-instance sequences.

    ``features`` items are (indices, values) pairs with strictly increasing
    indices, or dicts; ``labels`` items are iterables of distinct ints, read in
    sorted order.  Ids out of range, repeated or (feature pairs) unsorted raise.
    """
    pairs = [(sorted(f), [f[i] for i in sorted(f)]) if isinstance(f, dict) else f
             for f in features]
    rows = [sorted(int(j) for j in lab) for lab in labels]
    feats = csr_rows(np.cumsum([0] + [len(idx) for idx, _ in pairs]),
                     np.concatenate([np.zeros(0, np.int64), *(idx for idx, _ in pairs)]),
                     np.concatenate([np.zeros(0), *(val for _, val in pairs)]), d)
    labs = csr_rows(np.cumsum([0] + [len(r) for r in rows]),
                    [j for r in rows for j in r], None, m)
    return SparseDataset(features=feats, labels=labs)


def row(mat, i: int) -> tuple[list, list]:
    """Row i of a ``Csr`` as its column ids and its values."""
    lo, hi = mat.indptr[i], mat.indptr[i + 1]
    return mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist()


def label_sets(sets: Sequence, m: int) -> SparseDataset:
    """A dataset of the given per-instance label sets over m labels, with one
    empty feature row per instance: the labels a metric takes."""
    return make_dataset([{}] * len(sets), sets, d=1, m=m)


def lm_fit_one_start(problem: FitProblem, init, max_iter: int = 200) -> FitResult:
    """The one-start Levenberg-Marquardt loop ``propfit`` ran before its starts ran
    in lockstep, kept verbatim as the oracle of the lockstep fits.

    Damped least squares on inverse propensities.

    Jacobian by central finite differences, all 2p probes in one batched family
    evaluation (one-sided at a domain edge); a step is accepted iff it decreases
    the residual, with the damping factor multiplied by ``LAMBDA_DOWN`` on
    accept and ``LAMBDA_UP`` on reject.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    theta = np.asarray(init, dtype=np.float64).copy()
    if len(theta) != len(problem.free_names):
        raise ValueError(f"init must have {len(problem.free_names)} entries "
                         f"({problem.free_names})")

    w = problem.effective_weights()
    sw = np.sqrt(w)
    inv_targets = 1.0 / problem.targets
    wsum = float(w.sum())

    def residual_rows(thetas):
        pred, ok = problem.predict_rows(thetas)
        return sw * (inv_targets - 1.0 / pred), ok

    def residuals(t):
        r, ok = residual_rows(t[None])
        return r[0] if ok[0] else None

    def jacobian(t, r0):
        # the 2p central-difference probes, evaluated in one call: row k moves
        # parameter k up by its step, row p + k moves it down
        p = len(t)
        h = 1e-6 * np.maximum(np.abs(t), 1.0)
        probes = np.empty((2 * p, p))
        probes[:] = t
        diagonals = probes.reshape(2, p * p)[:, ::p + 1]  # a view of both blocks' diagonals
        diagonals[0] += h
        diagonals[1] -= h
        rows, ok = residual_rows(probes)
        rp, rm = rows[:p], rows[p:]
        Jt = (rp - rm) / (2 * h)[:, None]
        if not ok.all():
            # one-sided difference where one probe of a parameter left the domain,
            # and 0 where both did
            okp, okm = ok[:p, None], ok[p:, None]
            Jt = np.where(okp & okm, Jt, np.where(okp, (rp - r0) / h[:, None],
                                                  np.where(okm, (r0 - rm) / h[:, None], 0.0)))
        return np.ascontiguousarray(Jt.T)

    r = residuals(theta)
    if r is None:
        raise ValueError("init violates the family domain or gives non-finite predictions")
    obj = float(r @ r)
    lam = LAMBDA0
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        J = jacobian(theta, r)
        g = J.T @ r
        if np.max(np.abs(g)) < TOL:
            converged = True
            break
        A = J.T @ J
        diag = np.diag(A).copy()
        diag[diag <= 0] = 1.0
        accepted = False
        while lam <= LAMBDA_MAX:
            try:
                step = np.linalg.solve(A + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            candidate = theta + step
            r_new = residuals(candidate)
            if r_new is not None:
                obj_new = float(r_new @ r_new)
                if np.isfinite(obj_new) and obj_new < obj:
                    rel_drop = (obj - obj_new) / max(obj, np.finfo(float).tiny)
                    theta, r, obj = candidate, r_new, obj_new
                    lam = max(lam * LAMBDA_DOWN, 1e-15)
                    accepted = True
                    if rel_drop < TOL:
                        converged = True
                    break
            lam *= LAMBDA_UP
        if not accepted:
            break  # damping escalation exhausted: report best-so-far
        if converged:
            break

    mse = obj / wsum if wsum > 0 else 0.0
    return FitResult(params=problem.param_dict(theta), mse=float(mse),
                     iterations=iterations, converged=converged)


def parse_xmlc_per_token(stream) -> SparseDataset:
    """The per-token parser ``data.parse_xmlc_file`` was before it parsed arrays,
    kept as the oracle of the array parser; only its ParseErrors now pass
    their line.

    Parse the XMLC-repository sparse text format.

    First line is ``n d m``; each of the next n lines is ``<comma-separated labels>
    <feat:val> <feat:val> ...`` where the label list may be empty (the line then
    begins with a space).  Lines after the n-th instance are not read.
    """
    it = iter(stream)
    try:
        header = next(it)
    except StopIteration:
        raise ParseError("empty input: missing header", 1) from None
    n, d, m = _parse_header(header.rstrip("\r\n"), 1)

    label_ptr, label_ids = [0], []
    feat_ptr, feat_ids, feat_vals = [0], [], []
    for lineno in range(2, n + 2):
        try:
            line = next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of input at line {lineno}: "
                             f"expected {n} instances", lineno) from None
        head, _, rest = line.rstrip("\r\n").partition(" ")
        if head:
            try:
                lab = [int(t) for t in head.split(",")]
            except ValueError:
                raise ParseError(f"non-numeric label at line {lineno}", lineno) from None
            for j in lab:
                if j < 0 or j >= m:
                    raise ParseError(f"label index {j} >= m={m} at line {lineno}"
                                     if j >= 0 else f"negative label index at line {lineno}",
                                     lineno)
                if j >= 2**63:
                    raise ParseError(f"label index {j} >= 2**63 at line {lineno}", lineno)
            if len(set(lab)) != len(lab):
                raise ParseError(f"duplicate label index at line {lineno}", lineno)
            label_ids += sorted(lab)
        label_ptr.append(len(label_ids))

        start = len(feat_ids)
        for tok in rest.split():
            fid, sep, sval = tok.partition(":")
            if not sep:
                raise ParseError(f"malformed feature token '{tok}' at line {lineno}", lineno)
            try:
                fi = int(fid)
                fv = float(sval)
            except ValueError:
                raise ParseError(f"non-numeric value in '{tok}' at line {lineno}",
                                 lineno) from None
            if fi < 0 or fi >= d:
                raise ParseError(f"feature index {fi} >= d={d} at line {lineno}"
                                 if fi >= 0 else f"negative feature index at line {lineno}",
                                 lineno)
            if fi >= 2**63:
                raise ParseError(f"feature index {fi} >= 2**63 at line {lineno}", lineno)
            if not math.isfinite(fv):
                raise ParseError(f"non-finite value in '{tok}' at line {lineno}", lineno)
            feat_ids.append(fi)
            feat_vals.append(fv)
        if len(set(feat_ids[start:])) != len(feat_ids) - start:
            raise ParseError(f"duplicate feature index at line {lineno}", lineno)
        row = sorted(zip(feat_ids[start:], feat_vals[start:]))  # ids are unique per row
        feat_ids[start:], feat_vals[start:] = [i for i, _ in row], [v for _, v in row]
        feat_ptr.append(len(feat_ids))

    features = csr_rows(feat_ptr, feat_ids, feat_vals, d)
    labels = csr_rows(label_ptr, label_ids, None, m)
    return SparseDataset(features=features, labels=labels)
