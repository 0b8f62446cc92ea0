"""Levenberg-Marquardt fitting of propensity families to inverse-propensity targets.

A fit's starts are stepped together by one stacked loop (``_lm_starts``): each
start's state is a row of one array; each round makes one family call for the
Jacobian probes of every running start, and each rung of the damping ladder one
stacked solve and one family call for the starts still searching.  Each start's
result is bit-identical to its fit alone."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .propensity import FAMILY_TABLE, FITTABLE, P_MIN, PropensityAssignment

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
        return FAMILY_TABLE[self.family].fn(self.priors, **self.param_dict(np.transpose(thetas)))

    def effective_weights(self) -> np.ndarray:
        # targets clamped at the codomain floor are clamp artifacts, not data
        return np.where(self.targets <= P_MIN, 0.0, 1.0)


@dataclass(frozen=True)
class FitResult:
    params: dict          # full parameter dict (free + fixed)
    mse: float            # weighted mean squared error on inverse propensities
    iterations: int
    converged: bool


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
    case, K = 1, of :func:`fit_family`'s stacked fit (see ``_lm_starts``).

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

    The starts inside the family domain are stepped together (``_lm_starts``),
    each result bit-identical to :func:`lm_fit` from that start alone; a batched
    family call warns once per call, as ``Family.fn`` at K sets does.
    """
    grid = FAMILY_TABLE[problem.family].inits(problem.priors, problem.targets)
    inits = np.array([[params[n] for n in problem.free_names] for params in grid],
                     dtype=np.float64)
    results = [result for result in _lm_starts(problem, inits, MAX_ITER) if result is not None]
    if not results:
        raise ValueError("no valid initialization for the family domain")
    return min(results, key=lambda result: result.mse)  # the first of equal bests


def _jacobians(residual_rows, thetas, r0) -> np.ndarray:
    """The K×m×p stack of central-difference Jacobians at the rows of ``thetas``
    (K×p), whose residuals are the rows of ``r0``, from one evaluation of all
    2p·K probes: start k's probe i moves parameter i up by its step, probe p + i
    moves it down.  A column is one-sided where one probe of its parameter left
    the domain, and 0 where both did.  Each m×p slice is C-contiguous, so
    ``J.T @ J`` on it makes the BLAS call it makes on a lone m×p array."""
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
    return np.ascontiguousarray(Jt.transpose(0, 2, 1))


def _squares(rows) -> np.ndarray:
    """``r @ r`` of each row of ``rows`` (K×m), one dot product per row."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _damped_steps(A, g, D, lam) -> tuple:
    """The step solving ``(A + lam·D) step = -g`` for each system of the stack,
    and the dampings: one stacked solve when no system is singular.  Otherwise
    (numpy then fails the whole stack) each system is solved alone, its damping
    multiplied by ``LAMBDA_UP`` while it is singular, until it solves or passes
    ``LAMBDA_MAX`` (then its step is nan)."""
    try:
        return np.linalg.solve(A + lam[:, None, None] * D, -g[:, :, None])[:, :, 0], lam
    except np.linalg.LinAlgError:
        pass
    steps, lam = np.full_like(g, np.nan), lam.copy()
    for k in range(len(g)):
        while lam[k] <= LAMBDA_MAX:
            try:
                steps[k] = np.linalg.solve(A[k] + lam[k] * D[k], -g[k])
                break
            except np.linalg.LinAlgError:
                lam[k] *= LAMBDA_UP
    return steps, lam


def _lm_starts(problem: FitProblem, inits, max_iter: int) -> list:
    """Levenberg-Marquardt from each row of ``inits`` (K×p), every start's state
    a row of one array and all starts stepped at once.

    One family call gives every start's residuals; a start outside the domain
    or with non-finite predictions gets None instead of a FitResult.  Each round
    makes one ``_jacobians`` call for every running start.  A start whose
    gradient is below ``TOL`` converges; the others climb the damping ladder,
    each rung one stacked solve (``_damped_steps``) and one family call for the
    candidates of the starts still searching.  A candidate is accepted iff it
    lowers the objective (a relative drop below ``TOL`` converges) and lowers
    the damping; otherwise the damping rises, and a start whose damping passes
    ``LAMBDA_MAX`` gives up with the best point so far.  A start stops after at
    most ``max_iter`` rounds.

    numpy's ``matmul`` and ``linalg.solve`` make on each slice of a stack the
    BLAS or LAPACK call they make on that slice alone, and every row of a
    batched family call is bit-identical to that row alone (``Family.fn``), so
    each result is bit-identical to the fit from that start alone."""
    w = problem.effective_weights()
    sw = np.sqrt(w)
    inv_targets = 1.0 / problem.targets
    wsum = float(w.sum())

    def residual_rows(thetas):
        pred, ok = problem.predict_rows(thetas)
        return sw * (inv_targets - 1.0 / pred), ok

    inits = np.array(inits, dtype=np.float64)
    r, valid = residual_rows(inits)
    starts = np.flatnonzero(valid)
    theta, r = inits[starts], r[starts]
    obj = _squares(r)
    K, p = theta.shape
    lam = np.full(K, LAMBDA0)
    iterations = np.zeros(K, dtype=int)
    converged = np.zeros(K, dtype=bool)
    diagonal = np.arange(p)
    running = np.arange(K)
    while running.size:  # a round
        iterations[running] += 1
        J = _jacobians(residual_rows, theta[running], r[running])
        JT = J.transpose(0, 2, 1)
        g = (JT @ r[running][:, :, None])[:, :, 0]
        converged[running] = np.max(np.abs(g), axis=1) < TOL
        A = JT @ J
        diag = A[:, diagonal, diagonal]
        diag[diag <= 0] = 1.0
        D = np.zeros_like(A)
        D[:, diagonal, diagonal] = diag
        searching = ~converged[running]
        search, A, g, D = running[searching], A[searching], g[searching], D[searching]
        accepted = np.zeros(K, dtype=bool)
        while search.size:  # a rung of the damping ladder
            steps, lam[search] = _damped_steps(A, g, D, lam[search])
            solved = lam[search] <= LAMBDA_MAX  # the others give up
            if not solved.all():
                search, A, g, D, steps = (x[solved] for x in (search, A, g, D, steps))
                if not search.size:
                    break
            candidates = theta[search] + steps
            rows, ok = residual_rows(candidates)
            obj_new = np.full(len(search), np.nan)
            obj_new[ok] = _squares(rows[ok])
            better = np.isfinite(obj_new) & (obj_new < obj[search])
            k = search[better]
            drop = (obj[k] - obj_new[better]) / np.maximum(obj[k], np.finfo(float).tiny)
            converged[k] = drop < TOL
            theta[k], r[k], obj[k] = candidates[better], rows[better], obj_new[better]
            lam[k] = np.maximum(lam[k] * LAMBDA_DOWN, 1e-15)
            accepted[k] = True
            lam[search[~better]] *= LAMBDA_UP
            retry = ~better & (lam[search] <= LAMBDA_MAX)  # the others give up
            search, A, g, D = (x[retry] for x in (search, A, g, D))
        running = running[accepted[running] & ~converged[running]
                          & (iterations[running] < max_iter)]
    results = [None] * len(inits)
    for k, start in enumerate(starts):
        mse = float(obj[k]) / wsum if wsum > 0 else 0.0
        results[start] = FitResult(problem.param_dict(theta[k]), mse, int(iterations[k]),
                                   bool(converged[k]))
    return results
