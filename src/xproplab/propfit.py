"""Levenberg-Marquardt fitting of propensity families to inverse-propensity targets."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .propensity import (FAMILY_TABLE, FITTABLE, P_MIN, PropensityAssignment,
                         PropensityModelSpec)

# Levenberg-Marquardt damping: its start, its factors on a rejected and an accepted
# step, and the ceiling at which a step is given up; TOL bounds the gradient and the
# relative objective drop that count as converged; a fit stops after MAX_ITER rounds
LAMBDA0, LAMBDA_UP, LAMBDA_DOWN, LAMBDA_MAX = 1e-3, 10.0, 0.1, 1e12
TOL = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class FitProblem:
    """Targets are direct (bias-controlled) propensity estimates; ``fixed`` pins
    parameters that are not free during the fit (e.g. the dataset size of the
    frequency-sigmoid family)."""

    priors: np.ndarray
    targets: np.ndarray
    family: str
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "targets", targets)
        if len(priors) != len(targets) or len(priors) == 0:
            raise ValueError("priors and targets must have equal, nonzero length")
        if not np.all((targets > 0) & (targets <= 1)):  # also rejects nan
            raise ValueError("targets must lie in (0, 1]")
        if not np.all((priors > 0) & (priors < 1)):  # also rejects nan
            raise ValueError("priors must lie in (0, 1)")
        if self.family not in FITTABLE:
            raise ValueError(f"cannot fit family '{self.family}' "
                             f"(fittable: {', '.join(FITTABLE)})")
        family = FAMILY_TABLE[self.family]
        unknown = sorted(set(self.fixed) - set(family.params))
        if unknown:
            raise ValueError(f"cannot fix {unknown}: {self.family} has parameters "
                             f"{', '.join(family.params)}")
        if not self.free_names:
            raise ValueError(f"fixed leaves no parameter of {self.family} free")
        grid = family.inits(priors, targets)
        no_init = set(self.free_names) - set(grid[0])
        if no_init:
            raise ValueError(f"{self.family} has no initial value for {sorted(no_init)}: "
                             "pass them in fixed")

    @property
    def free_names(self) -> tuple:
        return tuple(n for n in FAMILY_TABLE[self.family].params if n not in self.fixed)

    def param_dict(self, theta: np.ndarray) -> dict:
        params = dict(self.fixed)
        params.update(zip(self.free_names, theta))
        return params

    def predict_rows(self, thetas) -> tuple:
        """The family's propensities at each row of free parameters ``thetas``
        (K×p) in one evaluation: the K×m values and the (K,) mask of the rows
        inside the family's domain with finite values."""
        return FAMILY_TABLE[self.family].rows(self.priors, self.param_dict(np.transpose(thetas)))

    def effective_weights(self) -> np.ndarray:
        # targets clamped at the codomain floor are clamp artifacts, not data
        return np.where(self.targets <= P_MIN, 0.0, 1.0)


@dataclass(frozen=True)
class FitResult:
    params: dict          # full parameter dict (free + fixed)
    mse: float            # weighted mean squared error on inverse propensities
    iterations: int
    converged: bool

    def spec(self, family: str) -> PropensityModelSpec:
        return PropensityModelSpec(family=family, params=self.params)


def fit_mse(assignment: PropensityAssignment, targets) -> float:
    """Mean over labels of the squared inverse-propensity difference."""
    targets = np.asarray(targets, dtype=np.float64)
    if len(targets) != assignment.m:
        raise ValueError("targets length must equal m")
    if not np.all((targets > 0) & (targets <= 1)):  # also rejects nan
        raise ValueError("targets must lie in (0, 1]")
    return float(np.mean((1.0 / targets - 1.0 / assignment.p) ** 2))


def lm_fit(problem: FitProblem, init, max_iter: int = MAX_ITER) -> FitResult:
    """Damped least squares on inverse propensities from one start: the one-start
    case of :func:`fit_family`'s lockstep fit (see ``_lm_starts``).

    Jacobian by central finite differences, all 2p probes in one batched family
    evaluation (one-sided at a domain edge); a step is accepted iff it decreases
    the residual, with the damping factor multiplied by ``LAMBDA_DOWN`` on
    accept and ``LAMBDA_UP`` on reject.
    """
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    theta = np.asarray(init, dtype=np.float64)
    if len(theta) != len(problem.free_names):
        raise ValueError(f"init must have {len(problem.free_names)} entries "
                         f"({problem.free_names})")
    result, = _lm_starts(problem, theta[None], max_iter)
    if result is None:
        raise ValueError("init violates the family domain or gives non-finite predictions")
    return result


def fit_family(problem: FitProblem) -> FitResult:
    """Fit one family from its five-point init grid and keep the best result.

    The starts inside the family domain run in lockstep (``_lm_starts``), each
    result bit-identical to :func:`lm_fit` from that start alone; a batched
    family call warns once per call, as ``Family.rows`` does.
    """
    grid = FAMILY_TABLE[problem.family].inits(problem.priors, problem.targets)
    inits = np.array([[params[n] for n in problem.free_names] for params in grid],
                     dtype=np.float64)
    results = [result for result in _lm_starts(problem, inits, MAX_ITER) if result is not None]
    if not results:
        raise ValueError("no valid initialization for the family domain")
    return min(results, key=lambda result: result.mse)  # the first of equal bests


def _jacobians(residual_rows, thetas, r0) -> list:
    """The m×p central-difference Jacobian at each row of ``thetas`` (K×p), whose
    residuals are the rows of ``r0``, from one evaluation of all 2p·K probes:
    start k's probe i moves parameter i up by its step, probe p + i moves it
    down.  A column is one-sided where one probe of its parameter left the
    domain, and 0 where both did."""
    K, p = thetas.shape
    h = 1e-6 * np.maximum(np.abs(thetas), 1.0)
    probes = np.broadcast_to(thetas[:, None, None, :], (K, 2, p, p)).copy()
    i = np.arange(p)
    probes[:, 0, i, i] += h
    probes[:, 1, i, i] -= h
    rows, ok = residual_rows(probes.reshape(-1, p))
    rows, ok = rows.reshape(K, 2, p, -1), ok.reshape(K, 2, p, 1)
    rp, rm, h = rows[:, 0], rows[:, 1], h[:, :, None]
    Jt = (rp - rm) / (2 * h)
    if not ok.all():
        okp, okm, r0 = ok[:, 0], ok[:, 1], r0[:, None, :]
        Jt = np.where(okp & okm, Jt, np.where(okp, (rp - r0) / h,
                                              np.where(okm, (r0 - rm) / h, 0.0)))
    return [np.ascontiguousarray(jt.T) for jt in Jt]


def _lm_start(theta, r, max_iter: int):
    """Levenberg-Marquardt from one start ``theta`` with residuals ``r``, as a
    generator whose driver (``_lm_starts``) makes every family evaluation: it
    yields ``("J", theta, r)`` to be sent the m×p Jacobian at ``theta``, and
    ``("c", candidate)`` to be sent the candidate's residuals, None outside the domain.

    A gradient below ``TOL`` converges; a singular system raises the damping
    without an evaluation; a step is accepted iff it lowers the objective, and a
    relative drop below ``TOL`` converges; damping above ``LAMBDA_MAX`` gives up
    with the best point so far.  Returns ``(theta, obj, iterations, converged)``
    after at most ``max_iter`` rounds."""
    obj = float(r @ r)
    lam = LAMBDA0
    converged = False
    for iterations in range(1, max_iter + 1):
        J = yield "J", theta, r
        g = J.T @ r
        if np.max(np.abs(g)) < TOL:
            converged = True
            break
        A = J.T @ J
        diag = np.diag(A).copy()
        diag[diag <= 0] = 1.0
        while lam <= LAMBDA_MAX:
            try:
                step = np.linalg.solve(A + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            candidate = theta + step
            r_new = yield "c", candidate
            obj_new = np.nan if r_new is None else float(r_new @ r_new)
            if np.isfinite(obj_new) and obj_new < obj:
                converged = (obj - obj_new) / max(obj, np.finfo(float).tiny) < TOL
                theta, r, obj = candidate, r_new, obj_new
                lam = max(lam * LAMBDA_DOWN, 1e-15)
                break
            lam *= LAMBDA_UP
        else:
            break  # damping passed LAMBDA_MAX: keep the best point so far
        if converged:
            break
    return theta, obj, iterations, converged


def _lm_starts(problem: FitProblem, inits, max_iter: int) -> list:
    """``_lm_start`` from each row of ``inits`` (K×p), the starts in lockstep.

    One family call gives every start's residuals; a start outside the domain
    or with non-finite predictions gets None instead of a FitResult.  Then,
    while any start waits for a candidate's residuals, one call evaluates all
    waiting candidates (a rung); otherwise one ``_jacobians`` call evaluates
    every start's probes (a round).  Every row of a batched call is bit-identical
    to that row alone (``Family.rows``), and so is each result to a lone fit."""
    w = problem.effective_weights()
    sw = np.sqrt(w)
    inv_targets = 1.0 / problem.targets
    wsum = float(w.sum())

    def residual_rows(thetas):
        pred, ok = problem.predict_rows(thetas)
        return sw * (inv_targets - 1.0 / pred), ok

    thetas = np.array(inits, dtype=np.float64)
    r0, valid = residual_rows(thetas)
    starts = {k: _lm_start(thetas[k], r0[k], max_iter) for k in np.flatnonzero(valid)}
    waiting = {k: next(start) for k, start in starts.items()}  # each start's request
    results = [None] * len(thetas)
    while waiting:
        rung = [k for k, request in waiting.items() if request[0] == "c"]
        if rung:
            rows, ok = residual_rows(np.array([waiting[k][1] for k in rung]))
            replies = zip(rung, [row if okk else None for row, okk in zip(rows, ok)])
        else:
            _, points, rs = zip(*waiting.values())
            replies = zip(list(waiting), _jacobians(residual_rows, np.array(points),
                                                    np.array(rs)))
        for k, reply in replies:
            del waiting[k]  # a start's next request queues behind the others'
            try:
                waiting[k] = starts[k].send(reply)
            except StopIteration as stop:
                theta, obj, iterations, converged = stop.value
                mse = obj / wsum if wsum > 0 else 0.0
                results[k] = FitResult(problem.param_dict(theta), mse, iterations, converged)
    return results
