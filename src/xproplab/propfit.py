"""Levenberg-Marquardt fitting of propensity families to inverse-propensity targets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .propensity import (FAMILY_TABLE, FITTABLE, P_MIN, PropensityAssignment,
                         PropensityModelSpec)

# Levenberg-Marquardt damping: its start, its factors on a rejected and an accepted
# step, and the ceiling at which a step is given up; TOL bounds the gradient and the
# relative objective drop that count as converged
LAMBDA0, LAMBDA_UP, LAMBDA_DOWN, LAMBDA_MAX = 1e-3, 10.0, 0.1, 1e12
TOL = 1e-10


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


def lm_fit(problem: FitProblem, init, max_iter: int = 200) -> FitResult:
    """Damped least squares on inverse propensities.

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


def fit_family(problem: FitProblem) -> FitResult:
    """Fit one family from its five-point init grid and keep the best result."""
    grid = FAMILY_TABLE[problem.family].inits(problem.priors, problem.targets)
    inits = np.array([[params[n] for n in problem.free_names] for params in grid],
                     dtype=np.float64)
    _, ok = problem.predict_rows(inits)
    best = None
    for init in inits[ok]:
        result = lm_fit(problem, init)
        if best is None or result.mse < best.mse:
            best = result
    if best is None:
        raise ValueError("no valid initialization for the family domain")
    return best
